"""Test rings: homomorphisms from a suture algebra to a coefficient ring.

A test ring is a ring together with a homomorphism from a suture algebra
(built-ins: the all-variables-to-zero map recovering sutured Floer homology
over Z, the U-power maps into F_p[U], and the quotient onto B_tau).  The
rings themselves (Z, Q, Z/p, F_p[U]) are ``snf.Ring`` objects, the same ones
the Smith normal form eliminates over; ``AlgebraTarget`` makes a suture
algebra a ring, for maps between algebras.  ``btau_hom`` builds the B_tau
quotient with its kill test, ``_btau_predicate``.  The --coefficients label
parser is ``cli.coefficient_ring``.
"""

from __future__ import annotations

from itertools import product

from . import algebra as alg
from . import snf
from .snf import ZZ, FpURing, Ring


class HomError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


class AlgebraTarget(Ring):
    kind = "algebra"

    def __init__(self, spec: alg.AlgebraSpec, name=None):
        self.spec = spec
        self.name = name or f"quotient({spec.variant})"

    def zero(self):
        return {}

    def one(self):
        return {alg.one(self.spec.nvars): 1}

    def from_int(self, n):
        return {alg.one(self.spec.nvars): n} if n else {}

    def add(self, a, b):
        return self.spec.add(a, b)

    def neg(self, a):
        return self.spec.normal_form(alg.poly_scale(a, -1))

    def mul(self, a, b):
        return self.spec.mul(a, b)

    def is_zero(self, a):
        return not self.spec.normal_form(a)


# -- homomorphisms ----------------------------------------------------------


class TestRingHom:
    def __init__(self, source: alg.AlgebraSpec, target: Ring, images: list, name: str,
                 filtration_compatible: bool | None = None, u_grading: int | None = None):
        self.source = source
        self.target = target
        self.images = images
        self.name = name
        self.filtration_compatible = filtration_compatible
        self.u_grading = u_grading  # grading of U for F_p[U] targets

    def apply_monomial(self, m):
        out = self.target.one()
        for i, a in enumerate(m):
            if a:
                out = self.target.mul(out, self.target.power(self.images[i], a))
        return out

    def apply(self, p):
        out = self.target.zero()
        for m, c in p.items():
            term = self.target.mul(self.target.from_int(c), self.apply_monomial(m))
            out = self.target.add(out, term)
        return out

    def verify(self):
        for m in self.source.kill:
            if not self.target.is_zero(self.apply_monomial(m)):
                raise HomError("RELATION_NOT_KILLED", f"kill monomial {m} survives")
        for rel in self.source.relations:
            img = self.apply({m: c for m, c in rel})
            if not self.target.is_zero(img):
                raise HomError("RELATION_NOT_KILLED", f"relation {rel} survives")
        return self


def all_zero(spec: alg.AlgebraSpec, target: Ring | None = None) -> TestRingHom:
    """lambda_i -> 0: the Juhasz specialization (SFH over the target)."""
    target = target or ZZ
    hom = TestRingHom(
        source=spec,
        target=target,
        images=[target.zero()] * spec.nvars,
        name=f"all-zero/{target.name}",
        filtration_compatible=True,
        u_grading=None,
    )
    return hom.verify()


def to_U(spec: alg.AlgebraSpec, weights=None) -> TestRingHom:
    """lambda_i -> U^{w_i} in F_2[U] (weights default to all ones)."""
    target = FpURing(2)
    weights = list(weights) if weights is not None else [1] * spec.nvars
    hom = TestRingHom(
        source=spec,
        target=target,
        images=[target.U(w) for w in weights],
        name=f"to-U/{target.name}",
        filtration_compatible=_u_compatible(spec, weights),
        u_grading=_u_grading(spec, weights),
    )
    return hom.verify()


def _u_compatible(spec, weights):
    """Does some psi: H -> Z send chi(lambda_i) to w_i?"""
    if spec.chi_group is None:
        return None
    group = spec.chi_group
    free = [i for i, m in enumerate(group.moduli) if m == 0]
    # psi kills torsion, so the equations only see the free coordinates
    rows = []
    rhs = []
    for k in range(spec.nvars):
        cls = spec.chi_classes[k]
        rows.append([cls[i] for i in free])
        rhs.append(weights[k])
    if not free:
        return all(w == 0 for w in rhs)
    sol = snf.solve_integer(rows, rhs)
    return sol is not None


def _u_grading(spec, weights):
    """gr(U) making the map grading-compatible, if one exists."""
    if spec.gr_weights is None or any(w is None for w in spec.gr_weights):
        return None
    val = None
    for w, g in zip(weights, spec.gr_weights):
        if w == 0:
            if g != 0:
                return None
            continue
        if g % w != 0:
            return None
        if val is None:
            val = g // w
        elif val != g // w:
            return None
    return 0 if val is None else val


def _btau_predicate(homology, kappa):
    """Kill test for B_tau: some nonzero divisor has trivial free H-image."""
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


def btau_hom(spec: alg.AlgebraSpec, homology) -> TestRingHom:
    """The quotient map onto B_tau (torsion-free homology kill-list)."""
    bt = alg.AlgebraSpec(
        names=spec.names,
        variant=alg.B_TAU,
        kill=(),
        relations=(),
        kill_predicate=_btau_predicate(homology, spec.nvars),
        chi_classes=spec.chi_classes,
        chi_group=spec.chi_group,
    )
    target = AlgebraTarget(bt, name="B_tau")
    images = [target.spec.variable(i) for i in range(spec.nvars)]
    hom = TestRingHom(
        source=spec,
        target=target,
        images=images,
        name="b-tau",
        filtration_compatible=True,
    )
    return hom.verify()


def identity_hom(spec: alg.AlgebraSpec) -> TestRingHom:
    target = AlgebraTarget(spec, name="id")
    hom = TestRingHom(
        source=spec,
        target=target,
        images=[target.spec.variable(i) for i in range(spec.nvars)],
        name="identity",
        filtration_compatible=True,
    )
    return hom.verify()


def algebra_hom(source: alg.AlgebraSpec, target_spec: alg.AlgebraSpec, images,
                name="algebra-hom") -> TestRingHom:
    """Generic map into another suture algebra; images are element dicts."""
    target = AlgebraTarget(target_spec)
    hom = TestRingHom(
        source=source,
        target=target,
        images=[target_spec.normal_form(img) for img in images],
        name=name,
        filtration_compatible=None,
    )
    return hom.verify()
