"""Filtered chain complexes over a coefficient ring and their homology.

A FilteredComplex is a free module over an ``snf.Ring`` with a sparse
differential {(target i, source j): ring element}.  The complex of a
diagram lives over its suture algebra (an ``AlgebraTarget``); there each
generator carries a relative Spin^c coset (an element of the H group,
measured from a base generator) and a relative grading, and the filtration
and grading axioms are checked.  Tensoring with a test-ring homomorphism
maps a complex over the hom's source to the same kind of complex over its
target, whose homology is computed exactly: Gauss-Jordan elimination over
fields, Smith normal form over Z and F_p[U], and finite (chi, gr)-fiber
linear algebra over the multivariate algebras themselves.  Differentials,
chain maps and their composites all go through one sparse product.  Every
homology here (``homology``, ``fpu_piece_dims``, ``piecewise_homology`` and
the dimensions of ``les_check``) is a loop over pieces with bases (below,
here, above): ``_piece_matrix`` builds the matrix of d between two bases and
``_piece_homology`` hands each piece's two matrices to the ring's backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

from . import algebra as alg
from . import linprog, snf
from .snf import Ring, ZpRing
from .testrings import AlgebraTarget, TestRingHom


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


def _compose(ring, f, g):
    """Entries of f o g, for sparse matrices {(row, column): element}."""
    f_by_col = {}
    for (i, k), e in f.items():
        f_by_col.setdefault(k, []).append((i, e))
    out = {}
    for (k, j), e1 in g.items():
        for i, e2 in f_by_col.get(k, ()):
            prod = ring.mul(e2, e1)
            out[(i, j)] = ring.add(out[(i, j)], prod) if (i, j) in out else prod
    return {key: v for key, v in out.items() if not ring.is_zero(v)}


@dataclass
class FilteredComplex:
    ring: Ring
    gen_names: list
    cosets: list  # H elements (relative to the block base) or None
    gradings: list  # ints (relative) or None
    entries: dict  # (target i, source j) -> ring element
    taints: list = field(default_factory=list)
    u_grading: int | None = None  # grading of U over F_p[U]

    @property
    def algebra(self) -> alg.AlgebraSpec:
        """The suture algebra of a complex over an AlgebraTarget."""
        return self.ring.spec

    @property
    def rank(self):
        return len(self.gen_names)

    def require_untainted(self):
        if self.taints:
            weights = sorted({tuple(t.weight) for t in self.taints}, reverse=True)
            raise ComplexError(
                "TAINTED",
                f"{len(self.taints)} unsupported classes survive in {self.ring.name}, "
                f"weights {', '.join(_weight_str(w) for w in weights)}",
            )

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
        """Nonzero entries of the squared differential."""
        return _compose(self.ring, self.entries, self.entries)

    def require_d_squared_zero(self):
        """Raise D_SQUARED_NONZERO unless d o d = 0 exactly over the ring."""
        residues = self.d_squared()
        if residues:
            i, j = next(iter(residues))
            raise ComplexError("D_SQUARED_NONZERO", f"at ({i},{j})")

    def verify_d_squared(self, plain_spec=None):
        """Check d^2 = 0 mod 2 over the algebra; report residues and whether
        they die in the plain quotient (diagnosing a tilde-vs-plain ring
        mismatch)."""
        residues = {
            k: {m: c % 2 for m, c in v.items() if c % 2}
            for k, v in self.d_squared().items()
        }
        residues = {k: v for k, v in residues.items() if v}
        if not residues:
            return {"ok": True, "residues": {}}
        in_ideal = None
        if plain_spec is not None:
            in_ideal = all(not _mod2_nf(plain_spec, v) for v in residues.values())
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
            sub = replace(
                self,
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

    def tensor(self, hom: TestRingHom) -> "FilteredComplex":
        """The complex over hom.target; self lives over hom.source."""
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
        return FilteredComplex(
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


# -- homology ------------------------------------------------------------------


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


def homology(tc: FilteredComplex, allow_taint=False) -> HomologyResult:
    if not allow_taint:
        tc.require_untainted()
    tc.require_d_squared_zero()
    ring = tc.ring
    graded = all(g is not None for g in tc.gradings) and tc.rank > 0
    if ring.kind == "field":
        dim = _field_dim(ring.p)
        compute = lambda n, out_m, in_m: {"dim": dim(n, out_m, in_m)}
    elif ring.kind == "pid":
        compute = lambda n, out_m, in_m: _pid_homology(ring, n, out_m, in_m)
        if ring.variable and tc.entries:
            # U-powers may cross generator-grading blocks: compute the module
            # invariants ungraded (fpu_piece_dims gives the graded pieces)
            graded = False
    else:
        raise ComplexError(
            "UNSUPPORTED_COEFFICIENTS", f"no homology backend for {ring.name}"
        )

    if graded:
        blocks = {}
        for i, key in enumerate(zip(tc.cosets, tc.gradings)):
            blocks.setdefault(key, []).append(i)
        near = lambda coset, g: blocks.get((coset, g), [])
        pieces = {
            f"s={coset} gr={g}": (near(coset, g - 1), idx, near(coset, g + 1))
            for (coset, g), idx in sorted(blocks.items(), key=lambda kv: str(kv[0]))
        }
    else:
        idx = list(range(tc.rank))
        pieces = {"*": (idx, idx, idx)}
    pieces = _piece_homology(ring, pieces, _column_image(tc.entries), compute)
    pieces = {k: v for k, v in pieces.items() if v.get("free_rank", v.get("dim", 0)) or v.get("torsion")}
    return HomologyResult(ring_name=ring.name, pieces=pieces, graded=graded)


def _column_image(entries):
    """``image`` for ``_piece_matrix`` from sparse entries {(i, j): element}:
    the terms (i, element) of d(j)."""
    by_col = {}
    for (i, j), e in entries.items():
        by_col.setdefault(j, []).append((i, e))
    return lambda j: by_col.get(j, ())


def _piece_matrix(ring, src, dst, image):
    """Matrix of d from basis ``src`` to basis ``dst``; ``image(b)`` yields
    the (label, coefficient) terms of d(b), and labels outside ``dst`` drop."""
    index = {b: t for t, b in enumerate(dst)}
    M = [[ring.zero()] * len(src) for _ in dst]
    for col, b in enumerate(src):
        for label, coeff in image(b):
            row = index.get(label)
            if row is not None:
                M[row][col] = ring.add(M[row][col], coeff)
    return M


def _piece_homology(ring, pieces, image, compute):
    """``compute(n, out_m, in_m)`` for each key of ``pieces``, which maps it
    to the bases (below, here, above) of its piece: n = len(here), out_m is
    d from here to below and in_m is d from above to here."""
    return {
        key: compute(
            len(here),
            _piece_matrix(ring, here, below, image),
            _piece_matrix(ring, above, here, image),
        )
        for key, (below, here, above) in pieces.items()
    }


def _field_dim(p):
    """``compute`` for ``_piece_homology`` over Q (p=None) or F_p: the
    dimension n - rank(out) - rank(in)."""
    return lambda n, out_m, in_m: n - snf.rank_over_field(out_m, p) - snf.rank_over_field(in_m, p)


def _pid_homology(ring, n, out_m, in_m):
    """(free rank, torsion invariants) of ker(out)/im(in) over a PID, for a
    piece of rank n."""
    if n == 0:
        return {"free_rank": 0, "torsion": []}
    # kernel of out
    if not out_m:
        out_m = [[ring.zero()] * n]
    res = snf.smith_normal_form(out_m, ring)
    r = res.rank
    # kernel basis columns in original coordinates: V columns beyond rank
    kernel_cols = [[res.V[i][j] for i in range(n)] for j in range(r, n)]
    kdim = len(kernel_cols)
    if kdim == 0:
        return {"free_rank": 0, "torsion": []}
    ncols_in = len(in_m[0]) if in_m and in_m[0] else 0
    image = [[in_m[i][c] for i in range(n)] for c in range(ncols_in)]
    image = [col for col in image if not all(ring.is_zero(v) for v in col)]
    if not image:
        return {"free_rank": kdim, "torsion": []}
    # express the image in kernel coordinates: solve K x = col, K factored once
    K = snf.smith_normal_form(
        [[kernel_cols[b][i] for b in range(kdim)] for i in range(n)], ring
    )
    cols = []
    for col in image:
        sol = snf.solve_integer(K, col, ring)
        if sol is None:
            raise ComplexError("D_SQUARED_NONZERO", "image does not lie in the kernel")
        cols.append(sol)
    rel = [[cols[c][b] for c in range(len(cols))] for b in range(kdim)]
    rel_res = snf.smith_normal_form(rel, ring)
    torsion = []
    free = kdim
    for d in rel_res.diag:
        free -= 1
        if not ring.is_unit(d):
            torsion.append(ring.torsion_label(d))
    return {"free_rank": free, "torsion": torsion}


def fpu_homogeneous(tc: FilteredComplex) -> bool:
    """Does every entry drop the grading by exactly one (U graded by
    tc.u_grading)?  Required before graded piece computations."""
    if tc.u_grading in (None, 0) or any(g is None for g in tc.gradings):
        return False
    for (i, j), poly in tc.entries.items():
        for deg, coeff in enumerate(poly):
            if coeff and tc.gradings[j] - (tc.gradings[i] + deg * tc.u_grading) != 1:
                return False
    return True


def fpu_piece_dims(tc: FilteredComplex, window) -> dict:
    """Homology dimensions over F_p of the graded pieces of an F_p[U] complex.

    The piece at grading g has basis {U^k e_i : gr(e_i) + k*gr(U) = g};
    requires a nonzero U-grading so the pieces are finite.
    """
    ring = tc.ring
    if ring.variable != "U":
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "fpu_piece_dims needs F_p[U]")
    if tc.u_grading in (None, 0):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "U-grading unknown or zero")
    if any(g is None for g in tc.gradings):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "ungraded generators")
    gu = tc.u_grading
    columns = _column_image(tc.entries)

    def basis(g):
        return [(i, (g - gi) // gu) for i, gi in enumerate(tc.gradings)
                if (g - gi) % gu == 0 and (g - gi) // gu >= 0]

    def image(b):
        j, k = b
        return (((i, k + deg), c) for i, poly in columns(j) for deg, c in enumerate(poly) if c)

    pieces = {g: (basis(g - 1), basis(g), basis(g + 1)) for g in window}
    return _piece_homology(ZpRing(ring.p), pieces, image, _field_dim(ring.p))


# -- piecewise homology over the algebra itself -----------------------------


def monomial_fiber(spec: alg.AlgebraSpec, chi_value, gr_value=None):
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
    # bounded: list its integer points (lexicographic, hence sorted)
    box_ineqs = [([1 if k == i else 0 for k in range(kappa)], 0) for i in range(kappa)]
    for row, target in zip(rows, rhs):
        box_ineqs.append((row, target))
        box_ineqs.append(([-c for c in row], -target))
    return [
        m
        for m in linprog.integer_points(box_ineqs, kappa)
        if spec.chi(m) == chi_value
        and (gr_value is None or spec.gr(m) == gr_value)
        and spec.nf_monomial(m)
    ]


def piecewise_homology(c: FilteredComplex, piece_keys, p=2, allow_taint=False):
    """Dimensions of homology in the given (coset, grading) pieces over F_p.

    The complex is viewed as an F_p vector space with basis (generator,
    monomial); each requested piece must have a finite monomial fiber.
    """
    if not allow_taint and c.taints:
        raise ComplexError("TAINTED", "unsupported classes present")
    spec = c.algebra
    group = spec.chi_group

    @cache  # neighbouring keys share the bases at g - 1, g and g + 1
    def piece_basis(coset, grading):
        basis = []
        for gi in range(c.rank):
            delta = group.add(coset, group.neg(c.cosets[gi]))
            g = c.gradings[gi]
            gval = None if grading is None or g is None else grading - g
            basis.extend((gi, m) for m in monomial_fiber(spec, delta, gval))
        return basis

    columns = _column_image(c.entries)

    def image(b):
        gj, mj = b
        for i, e in columns(gj):
            for m, coeff in e.items():
                for mm, cc in spec.nf_monomial(alg.mono_mul(m, mj)).items():
                    yield (i, mm), coeff * cc

    pieces = {
        (coset, g): (piece_basis(coset, g),) * 3 if g is None
        else tuple(piece_basis(coset, g + t) for t in (-1, 0, 1))
        for coset, g in piece_keys
    }
    return _piece_homology(ZpRing(p), pieces, image, _field_dim(p))


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

    def chain_parity(self):
        """+1 if f d = d f, -1 if f d = -d f, else None."""
        spec = self.algebra
        ring = self.source.ring
        fd = _compose(ring, self.entries, self.source.entries)
        df = _compose(ring, self.target.entries, self.entries)
        keys = set(fd) | set(df)
        if all(spec.equal(fd.get(k, {}), df.get(k, {})) for k in keys):
            return 1
        if all(
            spec.equal(fd.get(k, {}), alg.poly_scale(df.get(k, {}), -1))
            for k in keys
        ):
            return -1
        return None


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
        ring=A.ring,
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
    n = A.rank + B.rank
    cosets, gradings = [None] * n, [None] * n
    shifts = _chi_shifts(A, B, f.entries)
    if shifts is not None and len(shifts) <= 1:
        group = spec.chi_group
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
    return cosets, gradings


def _chi_shifts(src: FilteredComplex, tgt: FilteredComplex, entries):
    """The cosets s(src j) - s(tgt i) - chi(m) over the monomials m of the
    entries (i, j) of a map src -> tgt: one value when it shifts chi by a
    constant.  None without a chi group or when a coset is unknown."""
    spec = src.algebra
    group = spec.chi_group
    if group is None or any(c is None for c in src.cosets + tgt.cosets):
        return None
    return {
        group.add(src.cosets[j], group.neg(group.add(tgt.cosets[i], spec.chi(m))))
        for (i, j), e in entries.items()
        for m in e
    }


def multiplication_map(c: FilteredComplex, element) -> ChainMap:
    """Multiplication by a central algebra element as a chain self-map."""
    spec = c.algebra
    nf = spec.normal_form(element)
    entries = {}
    for i in range(c.rank):
        if nf:
            entries[(i, i)] = nf
    return ChainMap(source=c, target=c, entries=entries)


def free_complex(spec, names, entries=None, cosets=None, gradings=None) -> FilteredComplex:
    n = len(names)
    return FilteredComplex(
        ring=AlgebraTarget(spec),
        gen_names=list(names),
        cosets=list(cosets) if cosets else [None] * n,
        gradings=list(gradings) if gradings else [None] * n,
        entries={k: spec.normal_form(v) for k, v in (entries or {}).items()},
    )


def les_check(f: ChainMap, hom) -> dict:
    """Exactness of H(A2) -> H(M(f)) -> H(A1) -> H(A2) over a field hom."""
    ring = hom.target
    if ring.kind != "field":
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "les_check needs a field hom")
    p = ring.p
    A1, A2 = f.source, f.target
    n1 = A1.rank

    def d_matrix(c):
        idx = range(c.rank)
        return _piece_matrix(ring, idx, idx, _column_image(c.tensor(hom).entries))

    d1, d2, dM = (d_matrix(c) for c in (A1, A2, mapping_cone(f)))
    z1, z2, zM = (snf.kernel_over_field(d, len(d), p) for d in (d1, d2, dM))
    r1, r2, rM = (len(d) - len(z) for d, z in ((d1, z1), (d2, z2), (dM, zM)))
    h1, h2, hM = len(z1) - r1, len(z2) - r2, len(zM) - rM

    def induced_rank(d_tgt, r_tgt, images):
        """rank of [d_tgt | images] beyond rank d_tgt: the rank of the map on
        homology whose cycle images these are."""
        stacked = [row + [img[i] for img in images] for i, row in enumerate(d_tgt)]
        return snf.rank_over_field(stacked, p) - r_tgt

    # inclusion A2 -> M(f) and projection M(f) -> A1
    rank_i = induced_rank(dM, rM, [[ring.zero()] * n1 + z for z in z2])
    rank_p = induced_rank(d1, r1, [z[:n1] for z in zM])
    f_m = [[hom.apply(f.entry(i, j)) for j in range(n1)] for i in range(A2.rank)]
    rank_f = induced_rank(d2, r2, [snf.mat_vec(f_m, z) for z in z1])

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


def is_acyclic(tc: FilteredComplex) -> bool:
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
