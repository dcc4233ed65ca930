"""Chain maps, mapping cones, graded piece homology and the stabilization check.

The tools that compare complexes rather than compute one: chain maps, their
mapping cones and multiplication by a central algebra element; the long
exact sequence of a cone (``les_check``), acyclicity and quasi-isomorphism
over test-ring homs; the graded piece dimensions of an F_p[U] complex
(``fpu_piece_dims``) and the (chi, gr) pieces of a complex over its algebra
itself (``piecewise_homology``).  The stabilization check below, the exact
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

``verify_stabilization`` checks the paper's stabilization formula: the
complex of the diagram that ``stabilize.stabilize_diagram`` makes, over
R_tau[lambda_new], is homology-equivalent to the mapping cone of
multiplication by (lambda_new - lambda), lambda the product of the other
suture variables on the R^+ component of gamma_k.  It builds both sides
independently: the stabilized side from honest class enumeration on the new
diagram (with the single boundary-degeneration class, whose count is not
combinatorially supported, set to one as the stabilization analysis
dictates), the cone side from the original diagram.
"""

from __future__ import annotations

from functools import cache

from . import algebra as alg
from . import linprog, snf
from .cf import DiagramData, build_cf
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
from .diagram import ALPHA, BETA, HeegaardDiagram
from .snf import ZpRing
from .stabilize import _component_of_mark, stabilize_diagram
from .testrings import AlgebraTarget, algebra_hom, to_U

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


# -- the stabilization check --------------------------------------------------


def stabilization_products(d: HeegaardDiagram, mark: int):
    """(lambda exponents, new-variable index) data of the stabilization.

    lambda = product of the suture variables on the R^+ component of
    gamma_{mark} other than lambda_{mark}; the new polynomial variable is
    lambda_{kappa} (the mark in the lens).
    """
    b_comp = _component_of_mark(d, BETA, mark)
    kappa = d.num_marks
    lam = [0] * (kappa + 2)
    for m in b_comp.marks:
        if m != mark:
            lam[m] += 1
    return tuple(lam), kappa


class StabilizationReport:
    def __init__(self, ok: bool, stabilized_hom_pieces: dict, cone_hom_pieces: dict,
                 graded_match: bool | None, stabilized_dims: dict | None,
                 cone_dims: dict | None, shift: int | None, notes: list):
        self.ok = ok
        self.stabilized_hom_pieces = stabilized_hom_pieces
        self.cone_hom_pieces = cone_hom_pieces
        self.graded_match = graded_match
        self.stabilized_dims = stabilized_dims
        self.cone_dims = cone_dims
        self.shift = shift
        self.notes = notes


def _fold_taints(c, weight):
    """Count each taint of c of the given weight once, with coefficient -1,
    in its entry: (entries, remaining taints, folded taints)."""
    entries = dict(c.entries)
    remaining, folded = [], []
    for t in c.taints:
        if tuple(t.weight) == weight:
            key = (t.target, t.source)
            entries[key] = c.algebra.add(entries.get(key, {}), {weight: -1})
            folded.append(t)
        else:
            remaining.append(t)
    return entries, remaining, folded


def verify_stabilization(d: HeegaardDiagram, mark: int) -> StabilizationReport:
    """Check the stabilized complex of Spin^c block 0 against
    cone(lambda_new - lambda), comparing homology over F_2[U]."""
    notes = []
    dhat = stabilize_diagram(d, mark)
    rep = dhat.validate()
    if not rep.ok:
        raise RuntimeError(f"stabilized diagram invalid: {rep.errors}")

    lam, new_var = stabilization_products(d, mark)
    kappa = d.num_marks

    # stabilized side: honest enumeration with the orientation signs of the
    # stabilization analysis: the two new bigons carry opposite signs, and
    # the one unsupported class per generator pair is the boundary
    # degeneration, counted once with weight -lambda
    hat_data = DiagramData.build(dhat)
    n_reg = len(d.regions)
    W_domain = tuple(1 if i == n_reg else 0 for i in range(n_reg + 3))
    hat = build_cf(dhat, 0, data=hat_data, signs={W_domain: -1})
    spec_hat = hat.algebra
    patched, remaining, folded = _fold_taints(hat, lam)
    notes.extend(
        f"degeneration class {t.source}->{t.target} counted once "
        "(stabilization analysis; not combinatorially supported)"
        for t in folded
    )
    hat = FilteredComplex(hat.ring, hat.gen_names, hat.cosets, hat.gradings,
                          entries=patched, taints=remaining, u_grading=hat.u_grading)
    hat.verify_filtration()
    hat.verify_grading_drop()

    # push down to R_tau[lambda_new], the old boundary algebra with the new
    # variable adjoined last: lambda_{kappa+2} -> lambda_{mark}
    weights_hat = spec_hat.gr_weights
    plus_weights = None
    if weights_hat is not None and all(w is not None for w in weights_hat):
        plus_weights = list(weights_hat[:kappa]) + [weights_hat[new_var]]
    comps = list(d.complement_components(ALPHA)) + list(d.complement_components(BETA))
    plus_spec = alg.build_algebra(
        comps, kappa + 1, gr_weights=plus_weights, gr_modulus=spec_hat.gr_modulus
    )
    images = []
    for i in range(kappa + 2):
        m = [0] * (kappa + 1)
        if i == new_var + 1:  # lambda_{kappa+2} -> lambda_{mark}
            m[mark] = 1
        elif i == new_var:
            m[kappa] = 1
        else:
            m[i] = 1
        images.append({tuple(m): 1})
    fhat = algebra_hom(spec_hat, plus_spec, images, name="stabilization-pushdown")
    hat_plus = hat.tensor(fhat)
    # surviving unsupported classes leave d^2 undecidable: refuse, naming them
    hat_plus.require_untainted()
    hat_plus.require_d_squared_zero()

    # cone side: multiplication by (lambda_new - lambda) on the old complex,
    # carried into R_tau[lambda_new] along lambda_i -> lambda_i (images[:kappa])
    old = build_cf(d, 0)
    old_plus = old.tensor(algebra_hom(old.algebra, plus_spec, images[:kappa]))
    u_mono = tuple([0] * kappa + [1])
    lam_plus = tuple(lam[:kappa]) + (0,)
    cone_map = multiplication_map(old_plus, {u_mono: 1, lam_plus: -1})
    cone = mapping_cone(cone_map)

    # compare over F_2[U] with exponents matched to the grading weights
    hom_plus = to_U(plus_spec, _u_exponents(plus_spec.gr_weights))
    hat_u = hat_plus.tensor(hom_plus)
    cone_u = cone.tensor(hom_plus)

    hat_h = homology(hat_u)
    cone_h = homology(cone_u)
    ok = _module_invariants(hat_h) == _module_invariants(cone_h)

    graded_match = None
    hat_dims = cone_dims = None
    shift = None
    if fpu_homogeneous(hat_u) and fpu_homogeneous(cone_u):
        window_h = _window(hat_u)
        window_c = _window(cone_u)
        hat_dims = fpu_piece_dims(hat_u, window_h)
        cone_dims = fpu_piece_dims(cone_u, window_c)
        graded_match, shift = _dims_match_up_to_shift(hat_dims, cone_dims)
        ok = ok and graded_match
    return StabilizationReport(
        ok=ok,
        stabilized_hom_pieces=hat_h.pieces,
        cone_hom_pieces=cone_h.pieces,
        graded_match=graded_match,
        stabilized_dims=hat_dims,
        cone_dims=cone_dims,
        shift=shift,
        notes=notes,
    )


def _u_exponents(gr_weights):
    if gr_weights is None or any(w is None for w in gr_weights):
        return None
    if all(w == 0 for w in gr_weights):
        return None
    if any(w > 0 or w % 2 for w in gr_weights):
        return None
    return [(-w) // 2 for w in gr_weights]


def _window(tc):
    gs = [g for g in tc.gradings if g is not None]
    if not gs:
        return range(0, 1)
    span = max(gs) - min(gs)
    pad = 2 * span + 8
    return range(min(gs) - pad, max(gs) + pad + 1)


def _module_invariants(h):
    free = h.total_rank()
    torsion = sorted(str(t) for t in h.torsion_summands())
    return (free, tuple(torsion))


def _dims_match_up_to_shift(a, b):
    """Compare two grading->dim dicts up to one global integer shift."""
    sa = {g: v for g, v in a.items() if v}
    sb = {g: v for g, v in b.items() if v}
    if not sa and not sb:
        return True, 0
    if not sa or not sb:
        return False, None
    shift = max(sa) - max(sb)
    shifted = {g + shift: v for g, v in sb.items()}
    keys = set(sa) | set(shifted)
    # only compare where both windows contain the grading
    lo = max(min(sa), min(shifted))
    hi = min(max(sa), max(shifted))
    for g in keys:
        if lo <= g <= hi and sa.get(g, 0) != shifted.get(g, 0):
            return False, shift
    return True, shift
