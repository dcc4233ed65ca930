"""Suture coefficient algebras with exact normal forms.

An algebra is a quotient of Z[lambda_1..lambda_V] by a monomial kill-list
plus finitely many polynomial relations whose coefficients are +-1 (the only
shapes that occur: the boundary monomials of positive-genus components, the
single relation lambda^+ = lambda^-, and the surgery-ring substitutions).
Normal forms come from a Knuth-Bendix style completion with the degree-lex
term order; completion refuses to produce rules with non-unit leading
coefficients instead of attempting general Groebner bases over Z.
"""

from __future__ import annotations

from functools import cached_property

TILDE = "TILDE"
PLAIN = "PLAIN"
HAT = "HAT"
B_TAU = "B_TAU"
CUSTOM = "CUSTOM"

COMPLETION_CAP = 500  # rules added before completion gives up


class CompletionError(RuntimeError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_key(m):
    """Degree-lex order key (all weights 1, lambda_1 largest)."""
    return (sum(m), m)


def mono_str(m, names=None):
    """The monomial with exponents ``m`` as text, e.g. "λ1*λ2^2"; "1" for
    the constant.  ``names`` default to λ1, λ2, ..."""
    names = names or default_names(len(m))
    return "*".join(n if a == 1 else f"{n}^{a}" for n, a in zip(names, m) if a > 0) or "1"


def weighted_degree(weights, m, modulus=0):
    """sum_i weights[i] * m[i], reduced mod ``modulus`` when it is nonzero;
    None when a variable of ``m`` has weight None."""
    acc = 0
    for w, a in zip(weights, m):
        if a:
            if w is None:
                return None
            acc += w * a
    return acc % modulus if modulus else acc


def one(nvars):
    return tuple(0 for _ in range(nvars))


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def poly_scale(p, c):
    if c == 0:
        return {}
    return {m: c * x for m, x in p.items()}


def poly_sub(p, q):
    return poly_add(p, poly_scale(q, -1))


def poly_mono_mul(p, m, c=1):
    return {mono_mul(mm, m): cc * c for mm, cc in p.items()}


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def leading(p):
    return max(p, key=mono_key)


class AlgebraSpec:
    def __init__(self, names: tuple, variant: str = CUSTOM, kill: tuple = (),
                 relations: tuple = (), kill_predicate=None, chi_classes: tuple = None,
                 chi_group=None, gr_weights: tuple = None, gr_modulus: int = 0):
        self.names = names
        self.variant = variant
        self.kill = kill  # monomial generators of the monomial ideal
        self.relations = relations  # polynomial relations as tuples of (monomial, coeff)
        self.kill_predicate = kill_predicate  # optional semantic test (B_tau)
        self.chi_classes = chi_classes  # per-variable element of the H group
        self.chi_group = chi_group  # snf.AbelianGroup
        self.gr_weights = gr_weights  # per-variable grading weight (or None entries)
        self.gr_modulus = gr_modulus

    # -- setup ----------------------------------------------------------

    @property
    def nvars(self):
        return len(self.names)

    @cached_property
    def rules(self):
        """Completed rewriting system: list of (lead monomial, tail poly)."""
        return self._complete()

    def _complete(self):
        rules = []
        for m in sorted(set(self.kill), key=mono_key):
            rules.append((m, {}))
        pending = []
        for rel in self.relations:
            p = {m: c for m, c in rel if c}
            if p:
                pending.append(p)

        def add_rule(p):
            lead = leading(p)
            c = p[lead]
            if c not in (1, -1):
                raise CompletionError(
                    "COMPLETION_NONUNIT", f"leading coefficient {c} at {lead}"
                )
            tail = poly_scale(poly_sub(p, {lead: c}), -c)
            rules.append((lead, tail))

        for p in pending:
            p = self._reduce(p, rules)
            if p:
                add_rule(p)

        # Buchberger-style closure restricted to unit leads
        steps = 0
        changed = True
        while changed:
            changed = False
            for i in range(len(rules)):
                for j in range(i + 1, len(rules)):
                    li, ti = rules[i]
                    lj, tj = rules[j]
                    lcm = mono_lcm(li, lj)
                    if sum(lcm) == sum(li) + sum(lj):
                        continue  # coprime leads resolve trivially
                    s = poly_sub(
                        poly_mono_mul(ti, mono_div(lcm, li)),
                        poly_mono_mul(tj, mono_div(lcm, lj)),
                    )
                    s = self._reduce(s, rules)
                    if s:
                        add_rule(s)
                        changed = True
                        steps += 1
                        if steps > COMPLETION_CAP:
                            raise CompletionError(
                                "COMPLETION_CAP", f"no confluence after {steps} rules"
                            )
                        break
                if changed:
                    break
        return rules

    def _killed(self, m):
        # the kill monomials lead the rules with tail 0 (see _complete), so
        # only the B_tau predicate kills a monomial outside the rules
        return self.kill_predicate is not None and self.kill_predicate(m)

    def _reduce(self, p, rules):
        p = dict(p)
        while True:
            target = None
            for m in sorted(p, key=mono_key, reverse=True):
                if self._killed(m):
                    target = (m, None)
                    break
                for lead, tail in rules:
                    if mono_divides(lead, m):
                        target = (m, (lead, tail))
                        break
                if target:
                    break
            if target is None:
                return p
            m, rule = target
            c = p.pop(m)
            if rule is None:
                continue
            lead, tail = rule
            p = poly_add(p, poly_mono_mul(tail, mono_div(m, lead), c))

    # -- public API -------------------------------------------------------

    def normal_form(self, p):
        """Confluent normal form of a polynomial (dict monomial -> int)."""
        return self._reduce(p, self.rules)

    def nf_monomial(self, m):
        return self.normal_form({m: 1})

    def is_zero(self, p):
        return not self.normal_form(p)

    def equal(self, p, q):
        return self.is_zero(poly_sub(p, q))

    def mul(self, p, q):
        return self.normal_form(poly_mul(p, q))

    def add(self, p, q):
        return self.normal_form(poly_add(p, q))

    def variable(self, i):
        m = [0] * self.nvars
        m[i] = 1
        return self.normal_form({tuple(m): 1})

    def chi(self, m):
        """Filtration value of a monomial in the H group."""
        if self.chi_group is None:
            return None
        return self.chi_group.combination(m, self.chi_classes)

    def gr(self, m):
        """Grading of a monomial: its weighted degree mod gr_modulus."""
        if self.gr_weights is None:
            return None
        return weighted_degree(self.gr_weights, m, self.gr_modulus)

    def assert_homogeneous_relations(self):
        if self.chi_group is None:
            return
        for rel in self.relations:
            vals = {self.chi(m) for m, c in rel if c}
            if len(vals) > 1:
                raise ValueError(f"relation not chi-homogeneous: {rel}")

    # -- pretty printing ---------------------------------------------------

    def mono_str(self, m):
        return mono_str(m, self.names)

    def poly_str(self, p):
        if not p:
            return "0"
        terms = sorted(p.items(), key=lambda kv: mono_key(kv[0]), reverse=True)
        parts = []
        for m, c in terms:
            mono = self.mono_str(m)
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def relation_strings(self):
        out = []
        for rel in self.relations:
            pos = {m: c for m, c in rel if c > 0}
            neg = {m: -c for m, c in rel if c < 0}
            if pos or neg:
                out.append(f"{self.poly_str(pos)} = {self.poly_str(neg)}")
        for m in self.kill:
            out.append(f"{self.mono_str(m)} = 0")
        return out

    def describe(self):
        header = f"Z[{','.join(self.names)}]"
        rels = self.relation_strings()
        if not rels:
            return header
        return header + " / < " + " ; ".join(rels) + " >"

    def to_json_dict(self):
        out = {
            "variables": list(self.names),
            "variant": self.variant,
            "kill": [list(m) for m in self.kill],
            "relations": [
                [[list(m), c] for m, c in rel] for rel in self.relations
            ],
            "presentation": self.describe(),
        }
        if self.chi_group is not None:
            out["chi"] = {
                "group": self.chi_group.describe(),
                "moduli": list(self.chi_group.moduli),
                "classes": [list(c) for c in self.chi_classes],
            }
        if self.gr_weights is not None:
            out["grading_weights"] = list(self.gr_weights)
            out["grading_modulus"] = self.gr_modulus
        return out


def default_names(kappa):
    return tuple(f"λ{i + 1}" for i in range(kappa))


def component_monomial(comp_marks, kappa):
    m = [0] * kappa
    for k in comp_marks:
        m[k] += 1
    return tuple(m)


def build_algebra(components, kappa, variant=PLAIN, names=None,
                  homology=None, gr_weights=None, gr_modulus=0) -> AlgebraSpec:
    """Assemble the boundary algebra from complement-component data.

    ``components`` is a list of (side, genus, marks) triples or
    ComplementComponent objects; side "alpha" components are the R^- pieces
    and "beta" components the R^+ pieces.  ``variant`` is PLAIN, HAT or
    TILDE; the quotient onto B_tau is built by ``testrings.btau_hom``.
    """
    comps = []
    for c in components:
        if hasattr(c, "side"):
            comps.append((c.side, c.genus, tuple(c.marks)))
        else:
            comps.append((c[0], c[1], tuple(c[2])))
    names = names or default_names(kappa)

    kill = []
    minus, plus = {}, {}
    for side, genus, marks in comps:
        m = component_monomial(marks, kappa)
        target = minus if side == "alpha" else plus
        target[m] = target.get(m, 0) + 1
        if genus > 0:
            kill.append(m)

    relations = []
    if variant == PLAIN:
        rel = poly_sub(plus, minus)
        if rel:
            relations.append(tuple(sorted(rel.items())))
    elif variant == HAT:
        kill = sorted(set(kill) | set(minus) | set(plus), key=mono_key)
    elif variant != TILDE:
        raise ValueError(f"unknown variant {variant}")

    chi_classes = None
    chi_group = None
    if homology is not None:
        chi_group = homology.group
        chi_classes = tuple(homology.pd_classes[k] for k in range(kappa))

    spec = AlgebraSpec(
        names=tuple(names),
        variant=variant,
        kill=tuple(sorted(set(kill), key=mono_key)),
        relations=tuple(relations),
        chi_classes=chi_classes,
        chi_group=chi_group,
        gr_weights=tuple(gr_weights) if gr_weights is not None else None,
        gr_modulus=gr_modulus,
    )
    if homology is not None:
        spec.assert_homogeneous_relations()
    return spec


def _btau_predicate(homology, kappa):
    """Kill test for B_tau: some nonzero divisor has trivial free H-image."""
    from itertools import product

    cache = {}

    def killed(m):
        if m in cache:
            return cache[m]
        if all(a == 0 for a in m):
            cache[m] = False
            return False
        ranges = [range(a + 1) for a in m]
        ans = False
        for v in product(*ranges):
            if not any(v):
                continue
            if all(x == 0 for x in homology.free_image(v)):
                ans = True
                break
        cache[m] = ans
        return ans

    return killed


def knot_components(n):
    """Component data for the 2n-suture torus boundary of a knot complement.

    R_j^+ has boundary mu_{2j-1} + mu_{2j} and R_j^- has mu_{2j} + mu_{2j+1}
    (1-based, cyclic); all components have genus zero.
    """
    comps = []
    for j in range(1, n + 1):
        plus = ((2 * j - 1) - 1, (2 * j) - 1)
        minus = ((2 * j) - 1, (2 * j + 1 - 1) % (2 * n))
        comps.append(("beta", 0, plus))
        comps.append(("alpha", 0, minus))
    return comps


def diagram_algebra(d, variant=PLAIN, homology=None, gr_weights=None,
                    gr_modulus=0) -> AlgebraSpec:
    """Boundary algebra of a diagram's sutured manifold."""
    from .diagram import ALPHA, BETA
    from .homology1 import h1_presentation

    homology = homology or h1_presentation(d)
    comps = list(d.complement_components(ALPHA)) + list(d.complement_components(BETA))
    return build_algebra(
        comps,
        d.num_marks,
        variant=variant,
        homology=homology,
        gr_weights=gr_weights,
        gr_modulus=gr_modulus,
    )
