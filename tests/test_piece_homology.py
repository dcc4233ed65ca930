"""Differential tests: every homology in ``complexes`` and ``cones`` against its
earlier path.

``homology``, ``fpu_piece_dims``, ``piecewise_homology`` and ``les_check``
now build their matrices with one ``_piece_matrix``, and the first three read
each piece's homology from one ``_piece_homology``, which eliminates each
distinct block of d once and reads the torsion off the invariant factors of
the block into the piece.  The ``ref_*`` functions below are the bodies these
replaced, each with its own matrix builder and dimension loop, kept here as
the reference.  Over a PID the reference takes the earlier module invariants,
``_ref_pid_homology``: a Smith form of d out of the piece for a kernel basis,
one to solve for the image of d into the piece in kernel coordinates, and one
of the relations that gives.  Over a field it takes its ranks and kernels
from the Gauss-Jordan elimination in ``oracles``, which the Smith form over
the field replaced, so that no reference runs the code it checks.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import algebra as alg
from sfkit import corpus, snf
from sfkit.admissibility import NotAdmissibleError
from sfkit.cf import DiagramData, build_cf
from sfkit.complexes import ComplexError, FilteredComplex, homology
from sfkit.cones import (
    ChainMap,
    fpu_piece_dims,
    free_complex,
    les_check,
    mapping_cone,
    monomial_fiber,
    multiplication_map,
    piecewise_homology,
)
from sfkit.stabilize import stabilize_diagram
from sfkit.snf import ZRing
from sfkit.testrings import (
    FpURing,
    HomError,
    QRing,
    ZpRing,
    all_zero,
    to_U,
)
from oracles import kernel_over_field, rank_over_field

TRIVIAL = alg.AlgebraSpec(names=())


# -- the earlier paths -----------------------------------------------------


def _ref_matrix(tc, rows, cols):
    return [[tc.entries.get((i, j), tc.ring.zero()) for j in cols] for i in rows]


def _ref_p(ring):
    """The ``p`` of the Gauss-Jordan oracle: the characteristic of Z/p, None
    over Q."""
    return getattr(ring, "p", None)


def _ref_field_homology_dim(p, out_m, in_m):
    n = len(out_m[0]) if out_m else (len(in_m) if in_m else 0)
    return n - rank_over_field(out_m, p) - rank_over_field(in_m, p)


def _ref_mat_vec(ring, A, v):
    out = []
    for row in A:
        acc = ring.zero()
        for a, b in zip(row, v):
            acc = ring.add(acc, ring.mul(a, b))
        out.append(acc)
    return out


def _ref_solve(ring, res, b):
    """One solution x of A x = b over the ring, or None, from the Smith form
    U A V = D of A: x = V y where y_i = (U b)_i / d_i."""
    ub = _ref_mat_vec(ring, res.U, b)
    y = [ring.zero()] * len(res.V)
    for i, d in enumerate(res.diag):
        y[i], r = ring.divmod(ub[i], d)
        if not ring.is_zero(r):
            return None
    if not all(ring.is_zero(c) for c in ub[res.rank:]):
        return None
    return _ref_mat_vec(ring, res.V, y)


def _ref_pid_homology(ring, out_m, in_m):
    """(free rank, torsion invariants) of ker(out)/im(in) over a PID."""
    n = len(out_m[0]) if out_m else 0
    if n == 0:
        return {"free_rank": 0, "torsion": []}
    # kernel of out
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
        sol = _ref_solve(ring, K, col)
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


def ref_homology(tc):
    tc.require_untainted()
    tc.require_d_squared_zero()
    ring = tc.ring
    graded = all(g is not None for g in tc.gradings) and tc.rank > 0
    if ring.kind == "field":
        compute = lambda out_m, in_m: {"dim": _ref_field_homology_dim(_ref_p(ring), out_m, in_m)}
    elif ring.kind == "pid":
        compute = lambda out_m, in_m: _ref_pid_homology(ring, out_m, in_m)
        if isinstance(ring, FpURing) and tc.entries:
            graded = False
    else:
        raise ComplexError(
            "UNSUPPORTED_COEFFICIENTS", f"no homology backend for {ring.name}"
        )
    pieces = {}
    if not graded:
        idx = list(range(tc.rank))
        M = _ref_matrix(tc, idx, idx)
        pieces["*"] = compute(M, M)
    else:
        blocks = {}
        for i in range(tc.rank):
            blocks.setdefault((tc.cosets[i], tc.gradings[i]), []).append(i)
        for (coset, g), idx in sorted(blocks.items(), key=lambda kv: str(kv[0])):
            above = blocks.get((coset, g + 1), [])
            below = blocks.get((coset, g - 1), [])
            out_m = _ref_matrix(tc, below, idx) if below else [[ring.zero()] * len(idx)]
            in_m = _ref_matrix(tc, idx, above) if above else [[ring.zero()] for _ in idx]
            pieces[f"s={coset} gr={g}"] = compute(out_m, in_m)
    pieces = {k: v for k, v in pieces.items()
              if v.get("free_rank", v.get("dim", 0)) or v.get("torsion")}
    return ring.name, list(pieces.items()), graded


def ref_fpu_piece_dims(tc, window):
    ring = tc.ring
    if not isinstance(ring, FpURing):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "fpu_piece_dims needs F_p[U]")
    if tc.u_grading in (None, 0):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "U-grading unknown or zero")
    if any(g is None for g in tc.gradings):
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "ungraded generators")
    gu, p = tc.u_grading, ring.p

    def basis(g):
        out = []
        for i, gi in enumerate(tc.gradings):
            diff = g - gi
            if diff % gu == 0 and diff // gu >= 0:
                out.append((i, diff // gu))
        return out

    def matrix(src, dst):
        index = {b: t for t, b in enumerate(dst)}
        M = [[0] * len(src) for _ in range(len(dst))]
        for col, (j, kj) in enumerate(src):
            for (i, jj), poly in tc.entries.items():
                if jj != j:
                    continue
                for deg, coeff in enumerate(poly):
                    key = (i, kj + deg)
                    if coeff and key in index:
                        M[index[key]][col] = (M[index[key]][col] + coeff) % p
        return M

    dims = {}
    for g in window:
        b, above, below = basis(g), basis(g + 1), basis(g - 1)
        dims[g] = (len(b) - rank_over_field(matrix(b, below), p)
                   - rank_over_field(matrix(above, b), p))
    return dims


def ref_piecewise_homology(c, piece_keys, p=2):
    if c.taints:
        raise ComplexError("TAINTED", "unsupported classes present")
    spec = c.algebra
    group = spec.chi_group

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

    def matrix(src_basis, dst_basis):
        index = {b: k for k, b in enumerate(dst_basis)}
        M = [[0] * len(src_basis) for _ in range(len(dst_basis))]
        for col, (gj, mj) in enumerate(src_basis):
            column = {i: e for (i, jj), e in c.entries.items() if jj == gj and e}
            for i, e in column.items():
                for m, coeff in e.items():
                    for mm, cc in spec.nf_monomial(alg.mono_mul(m, mj)).items():
                        if (i, mm) in index:
                            row = index[(i, mm)]
                            M[row][col] = (M[row][col] + coeff * cc) % p
        return M

    out = {}
    for coset, grading in piece_keys:
        basis = piece_basis(coset, grading)
        above = piece_basis(coset, grading + 1) if grading is not None else basis
        below = piece_basis(coset, grading - 1) if grading is not None else basis
        out[(coset, grading)] = (len(basis) - rank_over_field(matrix(basis, below), p)
                                 - rank_over_field(matrix(above, basis), p))
    return out


def ref_les_check(f, hom):
    ring = hom.target
    p = _ref_p(ring)
    if ring.kind != "field":
        raise ComplexError("UNSUPPORTED_COEFFICIENTS", "les_check needs a field hom")
    A1, A2 = f.source, f.target
    cone = mapping_cone(f)
    n1, n2, nM = A1.rank, A2.rank, cone.rank

    def matrix_of(c):
        idx = list(range(c.rank))
        return _ref_matrix(c.tensor(hom), idx, idx)

    def sum_entries(M, vec, i):
        acc = ring.zero()
        for j, v in enumerate(vec):
            if not ring.is_zero(v):
                acc = ring.add(acc, ring.mul(M[i][j], v))
        return acc

    def cols_to_matrix(cols, nrows):
        return [[col[i] for col in cols] for i in range(nrows)] if cols else []

    def boundaries(M, n):
        cols = [[M[i][j] for i in range(len(M))] for j in range(n)]
        return [col for col in cols if any(not ring.is_zero(x) for x in col)]

    def induced_rank(g_matrix, src_cycles, tgt_boundary_cols, tgt_dim):
        imgs = [[sum_entries(g_matrix, z, i) for i in range(tgt_dim)] for z in src_cycles]
        stacked = cols_to_matrix(tgt_boundary_cols + imgs, tgt_dim)
        base = cols_to_matrix(tgt_boundary_cols, tgt_dim)
        return rank_over_field(stacked, p) - rank_over_field(base, p)

    d1, d2, dM = matrix_of(A1), matrix_of(A2), matrix_of(cone)
    f_m = [[hom.apply(f.entry(i, j)) for j in range(n1)] for i in range(n2)]
    i_m = [[ring.one() if i == n1 + j else ring.zero() for j in range(n2)] for i in range(nM)]
    p_m = [[ring.one() if i == j else ring.zero() for j in range(nM)] for i in range(n1)]
    z1, z2, zM = (kernel_over_field(M, n, p)
                  for M, n in ((d1, n1), (d2, n2), (dM, nM)))
    b1, b2, bM = boundaries(d1, n1), boundaries(d2, n2), boundaries(dM, nM)
    h1 = len(z1) - rank_over_field(cols_to_matrix(b1, n1), p)
    h2 = len(z2) - rank_over_field(cols_to_matrix(b2, n2), p)
    hM = len(zM) - rank_over_field(cols_to_matrix(bM, nM), p)
    rank_i = induced_rank(i_m, z2, bM, nM)
    rank_p = induced_rank(p_m, zM, b1, n1)
    rank_f = induced_rank(f_m, z1, b2, n2)
    ok = h2 - rank_i == rank_f and hM - rank_p == rank_i and h1 - rank_f == rank_p
    return {
        "ok": ok,
        "dims": {"H(A1)": h1, "H(A2)": h2, "H(M)": hM},
        "ranks": {"i*": rank_i, "p*": rank_p, "f*": rank_f},
    }


def outcome(fn, *args, **kwargs):
    """fn's value, or the code and message of the ComplexError it raises."""
    try:
        return fn(*args, **kwargs)
    except ComplexError as e:
        return ("ComplexError", str(e))


def new_homology(tc):
    h = homology(tc)
    return h.ring_name, list(h.pieces.items()), h.graded


# -- corpus blocks and the ladder --------------------------------------------


@lru_cache(maxsize=None)
def block_complexes():
    """(label, complex) for every Spin^c block of the corpus and of the
    unknot and trefoil stabilized once and twice."""
    diagrams = [(name, corpus.load_diagram(name)) for name in corpus.corpus_names()]
    for name in ("unknot", "trefoil"):
        d = corpus.load_diagram(name)
        for k in (1, 2):
            d = stabilize_diagram(d, 0)
            diagrams.append((f"{name}+{k}", d))
    out = []
    for label, d in diagrams:
        if not d.validate().ok:
            continue
        data = DiagramData.build(d)
        for bi in range(len(data.gradings)):
            try:
                out.append((f"{label}/{bi}", build_cf(d, bi, data=data)))
            except NotAdmissibleError:
                pass  # no complex to compare
    return tuple(out)


def test_blocks_cover_corpus_and_ladder():
    labels = [label for label, _ in block_complexes()]
    assert {"unknot+2/0", "trefoil+2/0", "grid2/0", "special_hs/0"} <= set(labels)


def homs_of(spec):
    """all-zero over Z, Q and Z/3, and to-U into F2[U] where it is a hom."""
    homs = [all_zero(spec, ring) for ring in (ZRing(), QRing(), ZpRing(3))]
    try:
        homs.append(to_U(spec))
    except HomError:
        pass
    return homs


def test_homology_matches_reference_on_blocks():
    refused = set()
    for label, c in block_complexes():
        for hom in homs_of(c.algebra):
            tc = c.tensor(hom)
            got = outcome(new_homology, tc)
            assert got == outcome(ref_homology, tc), (label, hom.name)
            refused.add(got[0] == "ComplexError")
            if hom.u_grading and all(g is not None for g in tc.gradings):
                window = range(min(tc.gradings) - 4, max(tc.gradings) + 5)
                assert fpu_piece_dims(tc, window) == ref_fpu_piece_dims(tc, window), label
    # both answers and refusals were compared
    assert refused == {False, True}


def test_les_check_matches_reference_on_blocks():
    for label, c in block_complexes():
        spec = c.algebra
        for var in range(spec.nvars):
            exps = [0] * spec.nvars
            exps[var] = 1
            f = multiplication_map(c, {tuple(exps): 1})
            for ring in (QRing(), ZpRing(2), ZpRing(3)):
                hom = all_zero(spec, ring)
                assert les_check(f, hom) == ref_les_check(f, hom), (label, var, ring.name)


# -- random F_p[U] complexes ----------------------------------------------------


@st.composite
def fpu_complexes(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    gradings = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    poly = st.lists(st.integers(0, p - 1), min_size=1, max_size=4).map(tuple).filter(
        lambda t: t[-1] != 0
    )
    index = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = draw(st.dictionaries(index, poly, max_size=2 * n))
    return FilteredComplex(
        ring=FpURing(p),
        gen_names=[f"x{i}" for i in range(n)],
        cosets=[None] * n,
        gradings=gradings,
        entries=entries,
        u_grading=draw(st.sampled_from([-2, -1, 1, 2, 3])),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fpu_complexes(), st.integers(-8, 8), st.integers(0, 12))
def test_fpu_piece_dims_match_reference(tc, start, length):
    # piece dimensions are ranks of the pieces' matrices: no d^2 = 0 needed
    window = range(start, start + length)
    assert fpu_piece_dims(tc, window) == ref_fpu_piece_dims(tc, window)


def test_fpu_piece_dims_refusals_match_reference():
    base = dict(gen_names=["x"], cosets=[None], entries={})
    for tc in (
        FilteredComplex(ring=ZpRing(2), gradings=[0], u_grading=1, **base),
        FilteredComplex(ring=FpURing(2), gradings=[0], u_grading=0, **base),
        FilteredComplex(ring=FpURing(2), gradings=[None], u_grading=1, **base),
    ):
        got = outcome(fpu_piece_dims, tc, range(3))
        assert got[0] == "ComplexError" and got == outcome(ref_fpu_piece_dims, tc, range(3))


# -- random chain maps for the long exact sequence -----------------------------


@st.composite
def chain_maps(draw):
    """f = (f0 + dB h, 1 + h dA): A -> B between two-term integer complexes.

    A is A1 -> A0 with a random dA; B has B1 = A1 and dB = f0 dA, so
    (f0, 1) is a chain map, and adding the null-homotopic dB h + h dA for a
    random h: A0 -> B1 keeps it one.
    """
    m1, m0, k0 = (draw(st.integers(0, 3)) for _ in range(3))
    ints = st.integers(-2, 2)

    def mat(rows, cols):
        return [[draw(ints) for _ in range(cols)] for _ in range(rows)]

    dA, f0, h = mat(m0, m1), mat(k0, m0), mat(m1, m0)
    dB = [[sum(f0[i][t] * dA[t][j] for t in range(m0)) for j in range(m1)] for i in range(k0)]
    f0 = [[f0[i][j] + sum(dB[i][t] * h[t][j] for t in range(m1)) for j in range(m0)]
          for i in range(k0)]
    f1 = [[int(i == j) + sum(h[i][t] * dA[t][j] for t in range(m0)) for j in range(m1)]
          for i in range(m1)]

    def entries(*blocks):
        """Sparse entries of matrices placed at row and column offsets."""
        out = {}
        for r0, s0, M in blocks:
            for i, row in enumerate(M):
                for j, v in enumerate(row):
                    if v:
                        out[(r0 + i, s0 + j)] = {(): v}
        return out

    A = free_complex(TRIVIAL, [f"a{i}" for i in range(m1 + m0)], entries((m1, 0, dA)))
    B = free_complex(TRIVIAL, [f"b{i}" for i in range(m1 + k0)], entries((m1, 0, dB)))
    return ChainMap(A, B, entries((0, 0, f1), (m1, m1, f0)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(chain_maps())
def test_les_check_matches_reference_on_random_chain_maps(f):
    assert f.chain_parity() == 1
    for ring in (QRing(), ZpRing(2), ZpRing(3)):
        hom = all_zero(TRIVIAL, ring)
        got = les_check(f, hom)
        assert got == ref_les_check(f, hom)
        assert got["ok"]  # the long exact sequence of a chain map is exact


# -- piecewise homology over the algebra ---------------------------------------


def piece_keys(c, exps):
    """(coset, grading) of each generator times each monomial in exps, and
    the same cosets with grading None."""
    spec, group = c.algebra, c.algebra.chi_group
    keys = []
    for gi in range(c.rank):
        for m in exps:
            coset = group.add(c.cosets[gi], spec.chi(m))
            g, gm = c.gradings[gi], spec.gr(m)
            keys.append((coset, None if g is None or gm is None else g + gm))
            keys.append((coset, None))
    return list(dict.fromkeys(keys))


@pytest.mark.parametrize("name, top", [("unknot", 2), ("trefoil", 2), ("grid2", 1)])
def test_piecewise_homology_matches_reference(name, top):
    c = build_cf(corpus.load_diagram(name), 0)
    nv = c.algebra.nvars
    exps = [tuple((k >> (2 * v)) % 4 for v in range(nv)) for k in range(4 ** nv)]
    exps = [m for m in exps if max(m, default=0) <= top]
    keys = piece_keys(c, exps)
    assert any(g is None for _, g in keys)
    finite = []
    for key in keys:
        got = outcome(piecewise_homology, c, [key])
        assert got == outcome(ref_piecewise_homology, c, [key]), key
        if isinstance(got, dict):
            finite.append(key)
    # the trefoil's complex is tainted, and every piece of it is refused
    assert bool(finite) != bool(c.taints)
    # all finite pieces at once, each key twice
    both = finite + finite[::-1]
    assert outcome(piecewise_homology, c, both) == outcome(ref_piecewise_homology, c, both)


# -- random three-term complexes over the PIDs ---------------------------------


@st.composite
def pid_complexes(draw):
    """C2 -> C1 -> C0 over Z, F2[U] or F3[U] with d o d = 0 and torsion.

    The map B: C2 -> C1 is P D Q for a diagonal D with a nonzero non-unit
    entry and products P, Q of elementary operations, so C1/im(B) has
    torsion; the rows of A: C1 -> C0 are combinations of a basis of the left
    kernel of B, so A B = 0.
    """
    ring = draw(st.sampled_from([ZRing(), FpURing(2), FpURing(3)]))
    if isinstance(ring, ZRing):
        elements = st.integers(-2, 2)
        non_units = st.sampled_from([2, -2, 3, 4, 6])
    else:
        coeffs = st.integers(0, ring.p - 1)
        elements = st.lists(coeffs, max_size=3).map(lambda t: ring.add(tuple(t), ()))
        non_units = st.builds(lambda low, lead: tuple(low) + (lead,),
                              st.lists(coeffs, min_size=1, max_size=2),
                              st.integers(1, ring.p - 1))  # degree 1 or 2
    n2, n0 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n1 = n2 + draw(st.integers(1, 2))  # so B has a left kernel

    def elementary(n, steps):
        """A product of row operations row_i += c row_j on the identity."""
        M = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
        for _ in range(steps if n > 1 else 0):
            i = draw(st.integers(0, n - 1))
            j = draw(st.sampled_from([t for t in range(n) if t != i]))
            M[i] = ring.addmul(M[i], draw(elements), M[j])
        return M

    def times(X, Y):
        columns = list(zip(*Y))
        return [_ref_mat_vec(ring, columns, row) for row in X]

    diag = [draw(st.one_of(elements, non_units)) for _ in range(min(n1, n2))]
    diag[draw(st.integers(0, len(diag) - 1))] = draw(non_units)
    D = [[diag[i] if i == j else ring.zero() for j in range(n2)]
         for i in range(n1)]
    B = times(times(elementary(n1, 4), D), elementary(n2, 4))
    res = snf.smith_normal_form([list(col) for col in zip(*B)], ring)  # B transposed
    left_kernel = [[res.V[i][j] for i in range(n1)] for j in range(res.rank, n1)]
    A = [[ring.zero()] * n1 for _ in range(n0)]
    for row in A:
        for v in left_kernel:
            row[:] = ring.addmul(row, draw(elements), v)
    entries = {}
    for M, rows, cols in ((B, n2, 0), (A, n2 + n1, n2)):
        for i, r in enumerate(M):
            for j, e in enumerate(r):
                if not ring.is_zero(e):
                    entries[(rows + i, cols + j)] = e
    n = n2 + n1 + n0
    graded = draw(st.booleans())
    return FilteredComplex(
        ring=ring,
        gen_names=[f"x{i}" for i in range(n)],
        cosets=[None] * n,
        gradings=[2] * n2 + [1] * n1 + [0] * n0 if graded else [None] * n,
        entries=entries,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pid_complexes())
def test_pid_homology_matches_reference_on_random_complexes(tc):
    assert not tc.d_squared()
    got = new_homology(tc)
    assert got == ref_homology(tc)
    assert any(piece.get("torsion") for _, piece in got[1])


@pytest.mark.parametrize("ring", [ZRing(), QRing()], ids=lambda r: r.name)
def test_homology_refuses_an_entry_outside_the_pieces(ring):
    # x1 -> x0 lowers the grading by 5: the graded pieces would drop it and
    # report rank 2, though the ungraded homology is 0
    def complex_with(gradings):
        return FilteredComplex(ring=ring, gen_names=["x0", "x1"], cosets=[(), ()],
                               gradings=gradings, entries={(0, 1): ring.one()})

    with pytest.raises(ComplexError) as err:
        homology(complex_with([0, 5]))
    assert err.value.code == "GRADING"
    assert homology(complex_with([None, None])).total_rank() == 0
    assert homology(complex_with([0, 1])).total_rank() == 0
