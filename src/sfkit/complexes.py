"""Filtered chain complexes over suture algebras and their homology.

A FilteredComplex is a free module over an AlgebraSpec with a differential
matrix of algebra elements; generators carry a relative Spin^c coset (an
element of the H group, measured from a base generator) and a relative
grading.  Tensoring with a test-ring homomorphism produces a TargetComplex
whose homology is computed exactly: Gauss elimination over fields, Smith
normal form over Z and F_p[U], and finite (chi, gr)-fiber linear algebra
over the multivariate algebras themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra as alg
from . import linprog, snf
from .testrings import (
    AlgebraTarget,
    FpUDomain,
    FpURing,
    QRing,
    Target,
    TestRingHom,
    ZRing,
    ZpRing,
)


class ComplexError(RuntimeError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
class TaintRecord:
    source: int
    target: int
    weight: tuple  # exponent vector of the unsupported class's monomial
    note: str = ""


@dataclass
class FilteredComplex:
    algebra: alg.AlgebraSpec
    gen_names: list
    cosets: list  # H elements (relative to the block base) or None
    gradings: list  # ints (relative) or None
    entries: dict  # (target i, source j) -> algebra element (dict)
    taints: list = field(default_factory=list)

    @property
    def rank(self):
        return len(self.gen_names)

    def entry(self, i, j):
        return self.entries.get((i, j), {})

    def differential_of(self, j):
        return {i: e for (i, jj), e in self.entries.items() if jj == j and e}

    # -- axioms ---------------------------------------------------------

    def verify_filtration(self):
        """chi-homogeneity: s(source) = s(target) + chi(entry monomial)."""
        spec = self.algebra
        if spec.chi_group is None or any(c is None for c in self.cosets):
            return True
        for (i, j), e in self.entries.items():
            for m in e:
                expected = spec.chi_group.add(self.cosets[i], spec.chi(m))
                if expected != self.cosets[j]:
                    raise ComplexError(
                        "FILTRATION", f"entry {j}->{i} monomial {m} breaks the coset rule"
                    )
        return True

    def verify_grading_drop(self):
        if any(g is None for g in self.gradings):
            return None
        mod = self.algebra.gr_modulus
        for (i, j), e in self.entries.items():
            for m in e:
                gm = self.algebra.gr(m)
                if gm is None:
                    return None
                drop = self.gradings[j] - self.gradings[i] - gm
                if mod:
                    drop %= mod
                if drop != 1 and (not mod or drop != 1 % mod):
                    raise ComplexError(
                        "GRADING", f"entry {j}->{i} drops grading by {drop}, not 1"
                    )
        return True

    def d_squared(self):
        """Entries of the squared differential (normal forms)."""
        spec = self.algebra
        out = {}
        by_source = {}
        for (i, j), e in self.entries.items():
            by_source.setdefault(j, []).append((i, e))
        for j, cols in by_source.items():
            acc = {}
            for k, e1 in cols:
                for i, e2 in by_source.get(k, []):
                    prod = spec.mul(e2, e1)
                    if prod:
                        acc[i] = spec.add(acc.get(i, {}), prod)
            for i, v in acc.items():
                if v:
                    out[(i, j)] = v
        return out

    def verify_d_squared(self, mod2=True, plain_spec=None):
        """Check d^2 = 0; report residues and whether they die in the plain
        quotient (diagnosing a tilde-vs-plain ring mismatch)."""
        residues = self.d_squared()
        if mod2:
            residues = {
                k: {m: c % 2 for m, c in v.items() if c % 2}
                for k, v in residues.items()
            }
            residues = {k: v for k, v in residues.items() if v}
        if not residues:
            return {"ok": True, "residues": {}}
        in_ideal = None
        if plain_spec is not None:
            in_ideal = all(
                not _mod2_nf(plain_spec, v) if mod2 else plain_spec.is_zero(v)
                for v in residues.values()
            )
        return {"ok": False, "residues": residues, "residue_in_relation_ideal": in_ideal}

    # -- structure ------------------------------------------------------

    def decompose(self):
        """Split into summands by relative Spin^c coset."""
        groups = {}
        for i, c in enumerate(self.cosets):
            groups.setdefault(c, []).append(i)
        out = []
        for c in sorted(groups, key=lambda v: (v is None, v)):
            idx = groups[c]
            pos = {g: k for k, g in enumerate(idx)}
            sub = FilteredComplex(
                algebra=self.algebra,
                gen_names=[self.gen_names[g] for g in idx],
                cosets=[self.cosets[g] for g in idx],
                gradings=[self.gradings[g] for g in idx],
                entries={
                    (pos[i], pos[j]): e
                    for (i, j), e in self.entries.items()
                    if i in pos and j in pos
                },
                taints=[t for t in self.taints if t.source in pos and t.target in pos],
            )
            out.append(sub)
        return out

    def tensor(self, hom: TestRingHom) -> "TargetComplex":
        entries = {}
        for (i, j), e in self.entries.items():
            img = hom.apply(e)
            if not hom.target.is_zero(img):
                entries[(i, j)] = img
        live_taints = []
        for t in self.taints:
            img = hom.apply_monomial(t.weight)
            if not hom.target.is_zero(img):
                live_taints.append(t)
        keep_cosets = bool(hom.filtration_compatible)
        return TargetComplex(
            ring=hom.target,
            gen_names=list(self.gen_names),
            cosets=list(self.cosets) if keep_cosets else [None] * self.rank,
            gradings=list(self.gradings),
            entries=entries,
            taints=live_taints,
            u_grading=hom.u_grading,
        )


def _weight_str(w):
    """A taint weight (exponent vector over the marks) as a λ-monomial."""
    names = alg.default_names(len(w))
    return "*".join(n if a == 1 else f"{n}^{a}" for n, a in zip(names, w) if a) or "1"


def _mod2_nf(spec, e):
    nf = spec.normal_form(e)
    return {m: c % 2 for m, c in nf.items() if c % 2}


# -- target complexes and homology ------------------------------------------


@dataclass
class TargetComplex:
    ring: Target
    gen_names: list
    cosets: list
    gradings: list
    entries: dict  # (i, j) -> ring element
    taints: list = field(default_factory=list)
    u_grading: int | None = None

    @property
    def rank(self):
        return len(self.gen_names)

    def matrix(self, rows, cols):
        R = self.ring
        return [
            [self.entries.get((i, j), R.zero()) for j in cols] for i in rows
        ]

    def require_untainted(self):
        if self.taints:
            weights = sorted({tuple(t.weight) for t in self.taints}, reverse=True)
            raise ComplexError(
                "TAINTED",
                f"{len(self.taints)} unsupported classes survive in {self.ring.name}, "
                f"weights {', '.join(_weight_str(w) for w in weights)}",
            )

    def verify_d_squared(self):
        R = self.ring
        by_source = {}
        for (i, j), e in self.entries.items():
            by_source.setdefault(j, []).append((i, e))
        for j, cols in by_source.items():
            acc = {}
            for k, e1 in cols:
                for i, e2 in by_source.get(k, []):
                    acc[i] = R.add(acc.get(i, R.zero()), R.mul(e2, e1))
            for i, v in acc.items():
                if not R.is_zero(v):
                    raise ComplexError("D_SQUARED_NONZERO", f"at ({i},{j})")
        return True


@dataclass
class HomologyResult:
    ring_name: str
    pieces: dict  # label -> {"free_rank": int, "torsion": [..]} or {"dim": int}
    graded: bool

    def total_rank(self):
        total = 0
        for v in self.pieces.values():
            total += v.get("free_rank", v.get("dim", 0))
        return total

    def torsion_summands(self):
        out = []
        for v in self.pieces.values():
            out.extend(v.get("torsion", []))
        return out


def _grading_blocks(tc: TargetComplex):
    """Group generator indices by (coset, grading); None gradings collapse."""
    blocks = {}
    for i in range(tc.rank):
        key = (tc.cosets[i], tc.gradings[i])
        blocks.setdefault(key, []).append(i)
    return blocks


def homology(tc: TargetComplex, allow_taint=False) -> HomologyResult:
    if not allow_taint:
        tc.require_untainted()
    tc.verify_d_squared()
    graded = all(g is not None for g in tc.gradings) and tc.rank > 0
    if isinstance(tc.ring, (QRing, ZpRing)):
        compute = lambda out_m, in_m: {"dim": _field_homology_dim(tc.ring, out_m, in_m)}
    elif isinstance(tc.ring, ZRing):
        compute = lambda out_m, in_m: _pid_homology(snf.ZZ, out_m, in_m)
    elif isinstance(tc.ring, FpURing):
        compute = lambda out_m, in_m: _pid_homology(tc.ring.domain, out_m, in_m)
        if tc.entries:
            # U-powers may cross generator-grading blocks: compute the module
            # invariants ungraded (fpu_piece_dims gives the graded pieces)
            graded = False
    else:
        raise ComplexError(
            "UNSUPPORTED_COEFFICIENTS", f"no homology backend for {tc.ring.name}"
        )

    pieces = {}
    if not graded:
        idx = list(range(tc.rank))
        M = tc.matrix(idx, idx)
        res = compute(M, M)
        pieces["*"] = res
    else:
        blocks = _grading_blocks(tc)
        for (coset, g), idx in sorted(blocks.items(), key=lambda kv: str(kv[0])):
            above = blocks.get((coset, g + 1), [])
            below = blocks.get((coset, g - 1), [])
            out_m = tc.matrix(below, idx) if below else [[tc.ring.zero()] * len(idx)]
            in_m = tc.matrix(idx, above) if above else [
                [tc.ring.zero()] for _ in idx
            ]
            res = compute(out_m, in_m)
            label = f"s={coset} gr={g}"
            pieces[label] = res
    pieces = {k: v for k, v in pieces.items() if v.get("free_rank", v.get("dim", 0)) or v.get("torsion")}
    return HomologyResult(ring_name=tc.ring.name, pieces=pieces, graded=graded)


def _field_matrix_rank(ring, M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0 or cols == 0:
        return 0
    if isinstance(ring, QRing):
        return snf.rank_over_field([[Fraction(x) for x in row] for row in M])
    return snf.rank_over_field([[int(x) for x in row] for row in M], p=ring.p)


def _field_homology_dim(ring, out_m, in_m):
    n = len(out_m[0]) if out_m else (len(in_m) if in_m else 0)
    r_out = _field_matrix_rank(ring, out_m)
    r_in = _field_matrix_rank(ring, in_m)
    return n - r_out - r_in


def _pid_homology(domain, out_m, in_m):
    """(free rank, torsion invariants) of ker(out)/im(in) over a PID."""
    n = len(out_m[0]) if out_m else 0
    if n == 0:
        return {"free_rank": 0, "torsion": []}
    # kernel of out
    if not out_m:
        out_m = [[domain.zero] * n]
    res = snf.smith_normal_form(out_m, domain)
    r = res.rank
    # kernel basis columns in original coordinates: V columns beyond rank
    kernel_cols = [[res.V[i][j] for i in range(n)] for j in range(r, n)]
    kdim = len(kernel_cols)
    if kdim == 0:
        return {"free_rank": 0, "torsion": []}
    # express image of in_m in kernel coordinates: solve K x = col
    K = [[kernel_cols[b][i] for b in range(kdim)] for i in range(n)]
    cols = []
    ncols_in = len(in_m[0]) if in_m and in_m[0] else 0
    for c in range(ncols_in):
        col = [in_m[i][c] for i in range(n)]
        if all(domain.is_zero(v) for v in col):
            continue
        sol = _solve_domain(K, col, domain)
        if sol is None:
            raise ComplexError("D_SQUARED_NONZERO", "image does not lie in the kernel")
        cols.append(sol)
    if not cols:
        return {"free_rank": kdim, "torsion": []}
    rel = [[cols[c][b] for c in range(len(cols))] for b in range(kdim)]
    rel_res = snf.smith_normal_form(rel, domain)
    torsion = []
    free = kdim
    for d in rel_res.diag:
        free -= 1
        if not domain.is_unit(d):
            torsion.append(_describe_torsion(domain, d))
    return {"free_rank": free, "torsion": torsion}


def _solve_domain(A, b, domain):
    rows = len(A)
    cols = len(A[0]) if rows else 0
    res = snf.smith_normal_form(A, domain)
    ub = snf.mat_vec(res.U, b, domain)
    y = [domain.zero] * cols
    for i in range(rows):
        d = res.D[i][i] if i < min(rows, cols) else domain.zero
        if domain.is_zero(d):
            if not domain.is_zero(ub[i]):
                return None
            continue
        q, r = domain.divmod(ub[i], d)
        if not domain.is_zero(r):
            return None
        y[i] = q
    return snf.mat_vec(res.V, y, domain)


def _describe_torsion(domain, d):
    if isinstance(domain, snf.IntegerDomain):
        return abs(d)
    if isinstance(domain, FpUDomain):
        return f"U^{len(d) - 1}" if len(d) > 1 else "1"
    return str(d)


def fpu_homogeneous(tc: TargetComplex) -> bool:
    """Does every entry drop the grading by exactly one (U graded by
    tc.u_grading)?  Required before graded piece computations."""
    if tc.u_grading in (None, 0) or any(g is None for g in tc.gradings):
        return False
    for (i, j), poly in tc.entries.items():
        for deg, coeff in enumerate(poly):
            if coeff and tc.gradings[j] - (tc.gradings[i] + deg * tc.u_grading) != 1:
                return False
    return True


def fpu_piece_dims(tc: TargetComplex, window) -> dict:
    """Homology dimensions over F_p of the graded pieces of an F_p[U] complex.

    The piece at grading g has basis {U^k e_i : gr(e_i) + k*gr(U) = g};
    requires a nonzero U-grading so the pieces are finite.
    """
    ring = tc.ring
    if not isinstance(ring, FpURing):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "fpu_piece_dims needs F_p[U]")
    if tc.u_grading in (None, 0):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "U-grading unknown or zero")
    if any(g is None for g in tc.gradings):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "ungraded generators")
    gu = tc.u_grading
    p = ring.p

    def basis(g):
        out = []
        for i, gi in enumerate(tc.gradings):
            diff = g - gi
            if diff % gu == 0:
                k = diff // gu
                if k >= 0:
                    out.append((i, k))
        return out

    def matrix(src, dst):
        index = {b: t for t, b in enumerate(dst)}
        M = [[0] * len(src) for _ in range(len(dst))]
        for col, (j, kj) in enumerate(src):
            for (i, jj), poly in tc.entries.items():
                if jj != j:
                    continue
                for deg, coeff in enumerate(poly):
                    if not coeff:
                        continue
                    key = (i, kj + deg)
                    if key in index:
                        M[index[key]][col] = (M[index[key]][col] + coeff) % p
        return M

    dims = {}
    for g in window:
        b = basis(g)
        above = basis(g + 1)
        below = basis(g - 1)
        r_out = _rank_fp(matrix(b, below), p)
        r_in = _rank_fp(matrix(above, b), p)
        dims[g] = len(b) - r_out - r_in
    return dims


# -- piecewise homology over the algebra itself -----------------------------


def monomial_fiber(spec: alg.AlgebraSpec, chi_value, gr_value=None, degree_cap=64):
    """All monomials with the given (chi, gr) values; raises if infinite."""
    kappa = spec.nvars
    group = spec.chi_group
    free_idx = [i for i, m in enumerate(group.moduli) if m == 0]
    rows = []
    rhs = []
    for pos, i in enumerate(free_idx):
        rows.append([spec.chi_classes[k][i] for k in range(kappa)])
        rhs.append(chi_value[i])
    if gr_value is not None and spec.gr_weights is not None:
        rows.append([w or 0 for w in spec.gr_weights])
        rhs.append(gr_value)
    # recession cone check: nonzero m >= 0 with all linear forms zero
    ineqs = [([1 if k == i else 0 for k in range(kappa)], 0) for i in range(kappa)]
    for row in rows:
        ineqs.append((row, 0))
        ineqs.append(([-c for c in row], 0))
    ineqs.append(([1] * kappa, 1))
    if linprog.feasible_point(ineqs, kappa) is not None:
        raise ComplexError("INFINITE_FIBER", "monomial fiber is not finite")
    # bounded: extract per-coordinate ranges
    box_ineqs = [([1 if k == i else 0 for k in range(kappa)], 0) for i in range(kappa)]
    for row, target in zip(rows, rhs):
        box_ineqs.append((row, target))
        box_ineqs.append(([-c for c in row], -target))
    import math
    from itertools import product as iproduct

    ranges = []
    for i in range(kappa):
        obj = [1 if k == i else 0 for k in range(kappa)]
        rng = linprog.linear_range(box_ineqs, kappa, obj)
        if rng is None:
            return []
        lo, hi = rng
        if hi is None:
            raise ComplexError("INFINITE_FIBER", "unbounded coordinate")
        ranges.append(range(max(0, math.ceil(lo)), min(int(hi), degree_cap) + 1))
    out = []
    for m in iproduct(*ranges):
        if spec.chi(m) != chi_value:
            continue
        if gr_value is not None and spec.gr(m) != gr_value:
            continue
        if spec.nf_monomial(m):
            out.append(tuple(m))
    return sorted(out)


def piecewise_homology(c: FilteredComplex, piece_keys, p=2, allow_taint=False):
    """Dimensions of homology in the given (coset, grading) pieces over F_p.

    The complex is viewed as an F_p vector space with basis (generator,
    monomial); each requested piece must have a finite monomial fiber.
    """
    if not allow_taint and c.taints:
        raise ComplexError("TAINTED", "unsupported classes present")
    spec = c.algebra
    group = spec.chi_group
    ring = ZpRing(p)

    def piece_basis(coset, grading):
        basis = []
        for gi in range(c.rank):
            delta = group.add(coset, group.neg(c.cosets[gi]))
            gval = None
            if grading is not None and c.gradings[gi] is not None:
                gval = grading - c.gradings[gi]
            for m in monomial_fiber(spec, delta, gval):
                basis.append((gi, m))
        return basis

    out = {}
    for coset, grading in piece_keys:
        basis = piece_basis(coset, grading)
        above = piece_basis(coset, grading + 1) if grading is not None else basis
        below = piece_basis(coset, grading - 1) if grading is not None else basis
        out_m = _piece_matrix(c, basis, below, p)
        in_m = _piece_matrix(c, above, basis, p)
        dim = len(basis) - _rank_fp(out_m, p) - _rank_fp(in_m, p)
        out[(coset, grading)] = dim
    return out


def _piece_matrix(c, src_basis, dst_basis, p):
    """Matrix of the differential from the src piece to the dst piece."""
    spec = c.algebra
    index = {b: k for k, b in enumerate(dst_basis)}
    M = [[0] * len(src_basis) for _ in range(len(dst_basis))]
    for col, (gj, mj) in enumerate(src_basis):
        for i, e in c.differential_of(gj).items():
            for m, coeff in e.items():
                prod = spec.nf_monomial(alg.mono_mul(m, mj))
                for mm, cc in prod.items():
                    key = (i, mm)
                    if key in index:
                        M[index[key]][col] = (M[index[key]][col] + coeff * cc) % p
    return M


def _rank_fp(M, p):
    if not M or not M[0]:
        return 0
    return snf.rank_over_field(M, p=p)


# -- chain maps and cones -----------------------------------------------------


@dataclass
class ChainMap:
    source: FilteredComplex
    target: FilteredComplex
    entries: dict  # (i, j): target index i, source index j -> algebra element

    @property
    def algebra(self):
        return self.source.algebra

    def entry(self, i, j):
        return self.entries.get((i, j), {})

    def compose_with_differential(self):
        """(f d_src, d_tgt f) as entry dicts."""
        spec = self.algebra
        fd = {}
        for j in range(self.source.rank):
            for k, e1 in self.source.differential_of(j).items():
                for i in range(self.target.rank):
                    e2 = self.entry(i, k)
                    if e2:
                        prod = spec.mul(e2, e1)
                        if prod:
                            fd[(i, j)] = spec.add(fd.get((i, j), {}), prod)
        df = {}
        for j in range(self.source.rank):
            for k in range(self.target.rank):
                e1 = self.entry(k, j)
                if not e1:
                    continue
                for i, e2 in self.target.differential_of(k).items():
                    prod = spec.mul(e2, e1)
                    if prod:
                        df[(i, j)] = spec.add(df.get((i, j), {}), prod)
        return fd, df

    def chain_parity(self):
        """+1 if f d = d f, -1 if f d = -d f, else None."""
        spec = self.algebra
        fd, df = self.compose_with_differential()
        keys = set(fd) | set(df)
        if all(spec.equal(fd.get(k, {}), df.get(k, {})) for k in keys):
            return 1
        if all(
            spec.equal(fd.get(k, {}), alg.poly_scale(df.get(k, {}), -1))
            for k in keys
        ):
            return -1
        return None

    def is_chain_map(self):
        return self.chain_parity() == 1


def map_sum(spec, a, b, sign=1):
    out = dict(a)
    for k, e in b.items():
        out[k] = spec.add(out.get(k, {}), alg.poly_scale(e, sign))
    return {k: v for k, v in out.items() if v}


def map_compose(spec, f_entries, g_entries, f_source_rank, g_source_rank, mid_rank):
    """Entries of f ∘ g."""
    out = {}
    for j in range(g_source_rank):
        for k in range(mid_rank):
            ge = g_entries.get((k, j), {})
            if not ge:
                continue
            for i, fe in [
                (i, f_entries.get((i, k), {})) for i in range(f_source_rank)
            ]:
                if fe:
                    prod = spec.mul(fe, ge)
                    if prod:
                        out[(i, j)] = spec.add(out.get((i, j), {}), prod)
    return {k: v for k, v in out.items() if v}


def mapping_cone(f: ChainMap, twist_sign=-1) -> FilteredComplex:
    """M(f) = source + target with differential ((d1, 0), (f, -d2)).

    For anti-chain maps (f d = -d f) pass twist_sign=+1, giving the square
    zero convention ((d1, 0), (f, +d2)).
    """
    A, B = f.source, f.target
    spec = f.algebra
    n1, n2 = A.rank, B.rank
    entries = {}
    for (i, j), e in A.entries.items():
        entries[(i, j)] = e
    for (i, j), e in B.entries.items():
        scaled = alg.poly_scale(e, twist_sign)
        entries[(n1 + i, n1 + j)] = spec.normal_form(scaled)
    for (i, j), e in f.entries.items():
        entries[(n1 + i, j)] = e

    cosets, gradings = _cone_decorations(f)
    return FilteredComplex(
        algebra=spec,
        gen_names=[f"a:{n}" for n in A.gen_names] + [f"b:{n}" for n in B.gen_names],
        cosets=cosets,
        gradings=gradings,
        entries=entries,
        taints=list(A.taints)
        + [
            TaintRecord(n1 + t.source, n1 + t.target, t.weight, t.note)
            for t in B.taints
        ],
    )


def _cone_decorations(f: ChainMap):
    """Cosets and gradings of M(f), shifted so the f-block obeys the axioms."""
    A, B = f.source, f.target
    spec = f.algebra
    cosets = None
    gradings = None
    group = spec.chi_group
    if group is not None and all(c is not None for c in A.cosets + B.cosets):
        shifts = set()
        for (i, j), e in f.entries.items():
            for m in e:
                # want  coset_A(j) = coset_M(b_i) + chi(m) = coset_B(i)+shift+chi(m)
                shifts.add(
                    group.add(A.cosets[j], group.neg(group.add(B.cosets[i], spec.chi(m))))
                )
        if len(shifts) <= 1:
            shift = shifts.pop() if shifts else group.zero()
            cosets = list(A.cosets) + [group.add(c, shift) for c in B.cosets]
    if all(g is not None for g in A.gradings + B.gradings):
        drops = set()
        for (i, j), e in f.entries.items():
            for m in e:
                gm = spec.gr(m)
                drops.add(
                    None if gm is None else A.gradings[j] - gm - B.gradings[i]
                )
        if None not in drops and len(drops) <= 1:
            delta = drops.pop() if drops else 1
            gradings = list(A.gradings) + [g + delta - 1 for g in B.gradings]
    if cosets is None:
        cosets = [None] * (A.rank + B.rank)
    if gradings is None:
        gradings = [None] * (A.rank + B.rank)
    return cosets, gradings


def multiplication_map(c: FilteredComplex, element) -> ChainMap:
    """Multiplication by a central algebra element as a chain self-map."""
    spec = c.algebra
    nf = spec.normal_form(element)
    entries = {}
    for i in range(c.rank):
        if nf:
            entries[(i, i)] = nf
    return ChainMap(source=c, target=c, entries=entries)


def zero_complex(spec) -> FilteredComplex:
    return FilteredComplex(
        algebra=spec, gen_names=[], cosets=[], gradings=[], entries={}
    )


def free_complex(spec, names, entries=None, cosets=None, gradings=None) -> FilteredComplex:
    n = len(names)
    return FilteredComplex(
        algebra=spec,
        gen_names=list(names),
        cosets=list(cosets) if cosets else [None] * n,
        gradings=list(gradings) if gradings else [None] * n,
        entries={k: spec.normal_form(v) for k, v in (entries or {}).items()},
    )


def _field_elems(ring, M):
    if isinstance(ring, QRing):
        return [[Fraction(x) for x in row] for row in M]
    return [[x % ring.p for x in row] for row in M]


def _field_rank(ring, M):
    if not M or not M[0]:
        return 0
    if isinstance(ring, QRing):
        return snf.rank_over_field(_field_elems(ring, M))
    return snf.rank_over_field(_field_elems(ring, M), p=ring.p)


def _field_kernel_basis(ring, M, n):
    """Columns spanning ker(M) over the field; M has n columns."""
    if not M:
        return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    # row reduce [M] and extract free columns
    if isinstance(ring, QRing):
        A = [[Fraction(x) for x in row] for row in M]
        inv = lambda a: Fraction(1) / a
        mul = lambda a, b: a * b
        sub = lambda a, b: a - b
    else:
        p = ring.p
        A = [[x % p for x in row] for row in M]
        inv = lambda a: pow(a, -1, p)
        mul = lambda a, b: (a * b) % p
        sub = lambda a, b: (a - b) % p
    rows = len(A)
    pivots = {}
    r = 0
    for j in range(n):
        piv = None
        for i in range(r, rows):
            if A[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        c = inv(A[r][j])
        A[r] = [mul(x, c) for x in A[r]]
        for i in range(rows):
            if i != r and A[i][j] != 0:
                f = A[i][j]
                A[i] = [sub(x, mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots[j] = r
        r += 1
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [ring.zero()] * n
        v[j] = ring.one()
        for pj, pr in pivots.items():
            v[pj] = ring.neg(A[pr][j])
        basis.append(v)
    return basis


def sum_entries(ring, M, vec, i):
    acc = ring.zero()
    for j, v in enumerate(vec):
        if not ring.is_zero(v):
            acc = ring.add(acc, ring.mul(M[i][j], v))
    return acc


def les_check(f: ChainMap, hom) -> dict:
    """Exactness of H(A2) -> H(M(f)) -> H(A1) -> H(A2) over a field hom."""
    ring = hom.target
    if not isinstance(ring, (QRing, ZpRing)):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "les_check needs a field hom")
    A1, A2 = f.source, f.target
    cone = mapping_cone(f)
    n1, n2, nM = A1.rank, A2.rank, cone.rank

    def matrix_of(c):
        tcx = c.tensor(hom)
        idx = list(range(c.rank))
        return tcx.matrix(idx, idx)

    d1, d2, dM = matrix_of(A1), matrix_of(A2), matrix_of(cone)
    f_m = [[hom.apply(f.entry(i, j)) for j in range(n1)] for i in range(n2)]
    # inclusion A2 -> M and projection M -> A1
    i_m = [[ring.one() if (i == n1 + j) else ring.zero() for j in range(n2)] for i in range(nM)]
    p_m = [[ring.one() if (i == j) else ring.zero() for j in range(nM)] for i in range(n1)]

    def cycles(M, n):
        return _field_kernel_basis(ring, M, n)

    def boundaries(M, n):
        cols = []
        for j in range(n):
            col = [M[i][j] for i in range(len(M))]
            if any(not ring.is_zero(x) for x in col):
                cols.append(col)
        # reduce to independent set lazily; rank computations handle spans
        return cols

    z1, z2, zM = cycles(d1, n1), cycles(d2, n2), cycles(dM, nM)
    b1, b2, bM = boundaries(d1, n1), boundaries(d2, n2), boundaries(dM, nM)
    h1 = len(z1) - _field_rank(ring, _cols_to_matrix(b1, n1))
    h2 = len(z2) - _field_rank(ring, _cols_to_matrix(b2, n2))
    hM = len(zM) - _field_rank(ring, _cols_to_matrix(bM, nM))

    rank_i = _induced_rank_cols(ring, i_m, z2, bM, nM)
    rank_p = _induced_rank_cols(ring, p_m, zM, b1, n1)
    rank_f = _induced_rank_cols(ring, f_m, z1, b2, n2)

    ok = (
        h2 - rank_i == rank_f  # exactness at H(A2): ker i* = im f*
        and hM - rank_p == rank_i  # at H(M): ker p* = im i*
        and h1 - rank_f == rank_p  # at H(A1): ker f* = im p*
    )
    return {
        "ok": ok,
        "dims": {"H(A1)": h1, "H(A2)": h2, "H(M)": hM},
        "ranks": {"i*": rank_i, "p*": rank_p, "f*": rank_f},
    }


def _cols_to_matrix(cols, nrows):
    if not cols:
        return []
    return [[col[i] for col in cols] for i in range(nrows)]


def _induced_rank_cols(ring, g_matrix, src_cycles, tgt_boundary_cols, tgt_dim):
    imgs = []
    for z in src_cycles:
        imgs.append([sum_entries(ring, g_matrix, z, i) for i in range(tgt_dim)])
    stacked = _cols_to_matrix(tgt_boundary_cols + imgs, tgt_dim)
    base = _cols_to_matrix(tgt_boundary_cols, tgt_dim)
    return _field_rank(ring, stacked) - _field_rank(ring, base)


def is_acyclic(tc: TargetComplex) -> bool:
    res = homology(tc, allow_taint=False)
    return res.total_rank() == 0 and not res.torsion_summands()


def quasi_iso_over(f: ChainMap, homs) -> bool:
    """f induces homology isomorphisms over each hom: cone(f) is acyclic."""
    parity = f.chain_parity()
    if parity is None:
        raise ComplexError("HYPOTHESIS_FAILED", "not a chain map up to sign")
    cone = mapping_cone(f, twist_sign=-parity)
    for hom in homs:
        tc = cone.tensor(hom)
        tc.gradings = [None] * tc.rank  # acyclicity is an ungraded question
        tc.cosets = [None] * tc.rank
        if not is_acyclic(tc):
            return False
    return True
