import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import snf
import oracles
from oracles import check_cokernel, mat_mul


def det(M):
    n = len(M)
    if n == 0:
        return 1
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    for j in range(n):
        piv = next((i for i in range(j, n) if A[i][j] != 0), None)
        if piv is None:
            return 0
        if piv != j:
            A[j], A[piv] = A[piv], A[j]
            sign = -sign
        for i in range(j + 1, n):
            f = A[i][j] / A[j][j]
            A[i] = [x - f * y for x, y in zip(A[i], A[j])]
    out = Fraction(sign)
    for i in range(n):
        out *= A[i][i]
    return out


small_matrix = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda m: len({len(r) for r in m}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_snf_factorization(M):
    res = snf.smith_normal_form(M)
    assert mat_mul(mat_mul(res.U, M), res.V) == res.D
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    # divisibility chain
    for a, b in zip(res.diag, res.diag[1:]):
        assert b % a == 0
    # off-diagonal zero
    for i, row in enumerate(res.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_solve_integer_sound(M, x):
    cols = len(M[0])
    x = (x * cols)[:cols]
    b = snf.mat_vec(M, x)
    sol = snf.solve_integer(M, b)
    assert sol is not None
    assert snf.mat_vec(M, sol) == b


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_kernel_basis_in_kernel(M):
    for v in snf.kernel_basis(M):
        assert all(c == 0 for c in snf.mat_vec(M, v))


def test_solve_integer_unsolvable():
    assert snf.solve_integer([[2]], [1]) is None
    assert snf.solve_integer([[2, 0], [0, 3]], [1, 1]) is None
    assert snf.solve_integer([[1, 1]], [5]) is not None


def test_kernel_rank():
    # rank-1 matrix on 3 columns has kernel rank 2
    basis = snf.kernel_basis([[1, 2, 3]])
    assert len(basis) == 2


def test_cokernel_groups():
    g = snf.cokernel([[2, 0], [0, 3]], 2)
    assert sorted(g.moduli) in ([2, 3], [6])  # Z/2 + Z/3 = Z/6 in SNF
    assert g.describe() == "Z/6"
    g2 = snf.cokernel([], 2)
    assert g2.describe() == "Z + Z"
    g3 = snf.cokernel([[1, 0], [0, 1]], 2)
    assert g3.moduli == ()  # the trivial group


def test_cokernel_projection_kills_relations():
    rel = [3, 6]
    g = snf.cokernel([rel], 2)
    assert g.project(rel) == g.zero()
    assert g.project([6, 12]) == g.zero()


@st.composite
def presentations(draw):
    """(relations, n, probes): up to 5 relations on n <= 5 generators, each
    a dense list or a sparse dict, with entries up to 3 or with no unit at
    all; the probes are the generators and a few random vectors."""
    n = draw(st.integers(0, 5))
    relations = []
    for _ in range(draw(st.integers(0, 5))):
        values = [0, 2, -2, 3, -3] if draw(st.booleans()) else [0, 0, 1, -1, 2, -2, 3, -3]
        col = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        relations.append({i: c for i, c in enumerate(col) if c} if draw(st.booleans()) else col)
    probes = [[int(i == g) for i in range(n)] for g in range(n)]
    probes += draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=3))
    return relations, n, probes


@settings(max_examples=400, deadline=None)
@given(presentations())
def test_cokernel_matches_dense_smith_form(presentation):
    relations, n, probes = presentation
    check_cokernel(snf.cokernel(relations, n), relations, n, probes)


def test_cokernel_takes_no_smith_form_of_unit_pivot_relations():
    # each relation of the first has a unit once the earlier pivots are
    # substituted in it (x0 = -2 x1, x2 = -2 x1, then x1 + x2 = -x1), so it
    # takes no Smith form and leaves x3 free; the second leaves [[-4]] after
    # its one pivot x1 = -2 x0, and its last relation vanishes
    with mock.patch.object(snf, "smith_normal_form", wraps=snf.smith_normal_form) as smith:
        g = snf.cokernel([[1, 2, 0, 0], {1: 2, 2: 1}, [0, 1, 1, 0]], 4)
        assert smith.call_count == 0 and g.moduli == (0,)
        g = snf.cokernel([[2, 1], [0, 2], [4, 2]], 2)
        assert [c.args[0] for c in smith.call_args_list] == [[[-4]]] and g.moduli == (4,)


def test_rank_over_field():
    assert snf.rank_over_field([[2, 4], [1, 2]]) == 1
    assert snf.rank_over_field([[2, 4], [1, 2]], snf.ZpRing(3)) == 1
    assert snf.rank_over_field([[2, 0], [0, 2]], snf.ZpRing(2)) == 0
    assert snf.rank_over_field([[1, 0], [0, 1]]) == 2


def _field(p):
    """The field that ``oracles.gauss_jordan`` calls p: Q for None, else Z/p."""
    return snf.QQ if p is None else snf.ZpRing(p)


@st.composite
def field_matrices(draw):
    """(p, A): A over Q (p None), Z/2, Z/3 or Z/5, with 0-5 rows and 0-5
    columns (a list of rows has none without rows); its integer entries run
    outside 0..p-1, over Q some are Fractions, and half the time a last row
    combines the first two."""
    p = draw(st.sampled_from([None, 2, 3, 5]))
    ncols = draw(st.integers(0, 5))
    entry = st.integers(-7, 7)
    if p is None:
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=4))
    A = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    if len(A) >= 2 and draw(st.booleans()):
        c = draw(entry)
        A.append([a + c * b for a, b in zip(A[0], A[1])])
    return p, A


@settings(max_examples=400, deadline=None)
@given(field_matrices())
def test_field_smith_form_matches_gauss_jordan(case):
    # over a field the Smith form is the only eliminator: its rank is the
    # Gauss-Jordan rank, every invariant factor is 1, and the columns of V
    # beyond the rank are ncols - rank independent vectors with A x = 0
    p, A = case
    ncols = len(A[0]) if A else 0
    field = _field(p)
    rank = oracles.rank_over_field(A, p)
    assert snf.rank_over_field(A, field) == rank
    res = snf.smith_normal_form([[field.from_int(a) for a in row] for row in A], field)
    assert res.diag == [field.one()] * rank
    kernel = snf.kernel_basis(res)
    assert len(kernel) == ncols - rank == len(oracles.kernel_over_field(A, ncols, p))
    assert oracles.rank_over_field(kernel, p) == len(kernel)
    for x in kernel:
        assert len(x) == ncols
        assert all(field.is_zero(field.from_int(v)) for v in snf.mat_vec(A, x))
    if p is not None:
        # brute force over F_p^ncols: |ker A| = p^(ncols - rank)
        from itertools import product

        size = sum(1 for v in product(range(p), repeat=ncols)
                   if all(x % p == 0 for x in snf.mat_vec(A, v)))
        assert size == p ** (ncols - rank)


def _ring_det(M, ring):
    """Leibniz determinant over any ring (the matrices here are at most 4x4)."""
    from itertools import permutations

    n = len(M)
    acc = ring.zero()
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = ring.one() if inversions % 2 == 0 else ring.neg(ring.one())
        for i, j in enumerate(perm):
            term = ring.mul(term, M[i][j])
        acc = ring.add(acc, term)
    return acc


def _fpu_matrix(p):
    entry = st.lists(st.integers(0, p - 1), max_size=3).map(
        lambda c: snf.FpURing(p).add(tuple(c), ()))
    return st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=4))


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.just(snf.ZZ), small_matrix),
    st.tuples(st.just(snf.FpURing(2)), _fpu_matrix(2)),
    st.tuples(st.just(snf.FpURing(3)), _fpu_matrix(3)),
    st.tuples(st.just(snf.QQ), small_matrix.map(lambda m: [[Fraction(a, 2) for a in r] for r in m])),
    st.tuples(st.just(snf.ZpRing(2)), small_matrix.map(lambda m: [[a % 2 for a in r] for r in m])),
    st.tuples(st.just(snf.ZpRing(5)), small_matrix.map(lambda m: [[a % 5 for a in r] for r in m])),
))
def test_snf_factorization_over_euclidean_rings(case):
    # U A V = D with D diagonal, d_1 | d_2 | ..., and U, V invertible: the
    # divisibility sweep is skipped after a unit pivot, which must change none
    # of this
    ring, A = case
    res = snf.smith_normal_form(A, ring)
    assert mat_mul(mat_mul(res.U, A, ring), res.V, ring) == res.D
    for i, row in enumerate(res.D):
        for j, v in enumerate(row):
            if i != j:
                assert ring.is_zero(v)
    assert res.diag == [res.D[i][i] for i in range(res.rank)]
    for a, b in zip(res.diag, res.diag[1:]):
        assert ring.is_zero(ring.divmod(b, a)[1])
    assert ring.is_unit(_ring_det(res.U, ring))
    assert ring.is_unit(_ring_det(res.V, ring))
    # without transforms D changes exactly as with them
    bare = snf.smith_normal_form(A, ring, transforms=False)
    assert (bare.D, bare.diag, bare.U, bare.V) == (res.D, res.diag, None, None)


def _full_scan_pivot(D, t, ring):
    """The reference pivot search: scan the whole block D[t:][t:] and keep
    the first entry of least norm."""
    best = at = None
    for i in range(t, len(D)):
        for j in range(t, len(D[i])):
            a = D[i][j]
            if not ring.is_zero(a):
                n = ring.norm(a)
                if best is None or n < best:
                    best, at = n, (i, j)
    return at


def _random_entry(rng, ring):
    if ring is snf.ZZ:
        return rng.choice([0, 0, 1, -1, 2, -2, 3, 4, -6, 9])
    if ring is snf.QQ:
        return Fraction(rng.choice([0, 0, 1, -1, 2, -3, 4]), rng.choice([1, 1, 2, 3]))
    if isinstance(ring, snf.ZpRing):
        return rng.randrange(ring.p)
    return ring.add(tuple(rng.randrange(ring.p) for _ in range(rng.randint(0, 3))), ())


RINGS = [snf.ZZ, snf.FpURing(2), snf.FpURing(3), snf.QQ, snf.ZpRing(2), snf.ZpRing(3)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_first_unit_pivot_matches_full_scan(ring):
    # the pivot search stops at the first unit; a unit has the least norm,
    # so the full scan picks the same entry and U, V and D come out identical
    rng = random.Random(20261018)
    calls = 0

    def reference(D, t, ring):
        nonlocal calls
        calls += 1
        return _full_scan_pivot(D, t, ring)

    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = [[_random_entry(rng, ring) for _ in range(cols)] for _ in range(rows)]
        fast = snf.smith_normal_form(A, ring)
        with mock.patch.object(snf, "_pivot", reference):
            assert snf.smith_normal_form(A, ring) == fast, A
    assert calls > 300


class _Entrywise:
    """The base ring's row and column operations: one ring call per entry."""

    addmul = snf.Ring.addmul
    addmul_column = snf.Ring.addmul_column
    scale = snf.Ring.scale


class EntrywiseZ(_Entrywise, snf.ZRing):
    pass


class EntrywiseFpU(_Entrywise, snf.FpURing):
    pass


class EntrywiseQ(_Entrywise, snf.QRing):
    pass


class EntrywiseZp(_Entrywise, snf.ZpRing):
    pass


def _entrywise(ring):
    if ring is snf.ZZ:
        return EntrywiseZ()
    if ring is snf.QQ:
        return EntrywiseQ()
    return (EntrywiseFpU if isinstance(ring, snf.FpURing) else EntrywiseZp)(ring.p)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_whole_row_operations_match_entrywise(ring):
    # the ring's whole-row operations (list comprehensions over ZZ and Q,
    # one % p per entry over Z/p) give the same U, V and D as the base ring's
    # one call per entry, on every random matrix
    entrywise = _entrywise(ring)
    rng = random.Random(20261019)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        A = [[_random_entry(rng, ring) for _ in range(cols)] for _ in range(rows)]
        assert snf.smith_normal_form(A, ring) == snf.smith_normal_form(A, entrywise), A
