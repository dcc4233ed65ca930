"""Chain maps, mapping cones and graded piece homology.

The tools that compare complexes rather than compute one: chain maps, their
mapping cones and multiplication by a central algebra element; the long
exact sequence of a cone (``les_check``), acyclicity and quasi-isomorphism
over test-ring homs; the graded piece dimensions of an F_p[U] complex
(``fpu_piece_dims``) and the (chi, gr) pieces of a complex over its algebra
itself (``piecewise_homology``).  The stabilization check, the exact
triangle and ``sfk complex cone`` use them; the pipeline commands never
load this module.  Every homology here runs through the one piece routine
of ``complexes`` (``_piece_matrix``, ``_piece_homology``), which eliminates
each block of d once however many pieces share it, every composite
through its one sparse product (``_compose``), and the cone's coset and
grading shifts through its one offset rule (``_offsets``); ``les_check``
reads each differential's rank and cycles off one Smith form.  Maps are
compared up to sign by one helper, ``_maps_equal``, which ``triangle``
shares.  ``monomial_fiber`` lists a (chi, gr) fiber with one
``linprog.integer_points`` call and refuses it only when it is infinite.
"""

from __future__ import annotations

from functools import cache

from . import algebra as alg
from . import linprog, snf
from .complexes import (
    ComplexError,
    FilteredComplex,
    TaintRecord,
    _column_image,
    _compose,
    _offsets,
    _piece_homology,
    _piece_matrix,
    homology,
)
from .snf import ZpRing
from .testrings import AlgebraTarget

# -- graded pieces over F_p[U] ------------------------------------------------


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
    return {g: free for g, (free, _) in _piece_homology(ZpRing(ring.p), pieces, image).items()}


# -- piecewise homology over the algebra itself -----------------------------


def monomial_fiber(spec: alg.AlgebraSpec, chi_value, gr_value=None):
    """All monomials with the given (chi, gr) values, in lexicographic order;
    raises INFINITE_FIBER if there are infinitely many."""
    kappa = spec.nvars
    rows = [([spec.chi_classes[k][i] for k in range(kappa)], chi_value[i])
            for i, m in enumerate(spec.chi_group.moduli) if m == 0]
    if gr_value is not None and spec.gr_weights is not None:
        rows.append(([w or 0 for w in spec.gr_weights], gr_value))
    ineqs = [([1 if k == i else 0 for k in range(kappa)], 0) for i in range(kappa)]
    for row, target in rows:
        ineqs.append((row, target))
        ineqs.append(([-c for c in row], -target))
    try:
        points = linprog.integer_points(ineqs, kappa)
    except linprog.Unbounded:
        raise ComplexError("INFINITE_FIBER", "monomial fiber is not finite") from None
    return [
        m
        for m in points
        if spec.chi(m) == chi_value
        and (gr_value is None or spec.gr(m) == gr_value)
        and spec.nf_monomial(m)
    ]


def piecewise_homology(c: FilteredComplex, piece_keys):
    """Dimensions of homology in the given (coset, grading) pieces over F_2.

    The complex is viewed as an F_2 vector space with basis (generator,
    monomial); each requested piece must have a finite monomial fiber.
    """
    if c.taints:
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
    return {key: free for key, (free, _) in _piece_homology(ZpRing(2), pieces, image).items()}


# -- chain maps and cones -----------------------------------------------------


class ChainMap:
    def __init__(self, source: FilteredComplex, target: FilteredComplex, entries: dict):
        self.source = source
        self.target = target
        self.entries = entries  # (i, j): target index i, source index j -> algebra element

    @property
    def algebra(self):
        return self.source.algebra

    def entry(self, i, j):
        return self.entries.get((i, j), {})

    def chain_parity(self):
        """+1 if f d = d f, -1 if f d = -d f, else None."""
        ring = self.source.ring
        fd = _compose(ring, self.entries, self.source.entries)
        df = _compose(ring, self.target.entries, self.entries)
        for sign in (1, -1):
            if _maps_equal(self.algebra, fd, df, sign):
                return sign
        return None


def _maps_equal(spec, a, b, sign=1):
    """a = sign * b, entry by entry, for sparse maps over the algebra."""
    return all(spec.equal(a.get(k, {}), alg.poly_scale(b.get(k, {}), sign))
               for k in set(a) | set(b))


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
        + [TaintRecord(n1 + t.source, n1 + t.target, t.weight) for t in B.taints],
    )


def _cone_decorations(f: ChainMap):
    """Cosets and gradings of M(f), shifted so the f-block obeys the axioms."""
    A, B = f.source, f.target
    group = f.algebra.chi_group
    n = A.rank + B.rank
    cosets, gradings = [None] * n, [None] * n
    offsets = list(_offsets(A, B, f.entries))
    shifts = {shift for _, _, _, shift, _ in offsets}
    drops = {drop for _, _, _, _, drop in offsets}
    if len(shifts) <= 1 and group is not None and None not in A.cosets + B.cosets:
        shift = shifts.pop() if shifts else group.zero()
        cosets = list(A.cosets) + [group.add(c, shift) for c in B.cosets]
    if len(drops) <= 1 and None not in [*drops, *A.gradings, *B.gradings]:
        delta = drops.pop() if drops else 1
        gradings = list(A.gradings) + [g + delta - 1 for g in B.gradings]
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
    A1, A2 = f.source, f.target
    n1 = A1.rank

    def d_matrix(c):
        idx = range(c.rank)
        return _piece_matrix(ring, idx, idx, _column_image(c.tensor(hom).entries))

    d1, d2, dM = (d_matrix(c) for c in (A1, A2, mapping_cone(f)))
    s1, s2, sM = (snf.smith_normal_form(d, ring) for d in (d1, d2, dM))
    z1, z2, zM = (snf.kernel_basis(s) for s in (s1, s2, sM))
    r1, r2, rM = s1.rank, s2.rank, sM.rank
    h1, h2, hM = len(z1) - r1, len(z2) - r2, len(zM) - rM

    def induced_rank(d_tgt, r_tgt, images):
        """rank of [d_tgt | images] beyond rank d_tgt: the rank of the map on
        homology whose cycle images these are."""
        stacked = [row + [img[i] for img in images] for i, row in enumerate(d_tgt)]
        return snf.rank_over_field(stacked, ring) - r_tgt

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
    res = homology(tc)
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
