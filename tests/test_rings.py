"""Differential tests: the coefficient rings against the domains they merged.

``snf.smith_normal_form`` once took its Euclidean domains from a protocol of
its own, while the complexes tensored into separate ring objects.  Now each
ring is one ``snf.Ring``.  ``IntegerDomain`` and ``FpUDomain`` below are the
domains as they were, kept as references: the rings' arithmetic is compared
with theirs, and the Smith form's diagonal and rank with the determinantal
divisors (d_1 ... d_k is the gcd of the k x k minors), computed with the
reference arithmetic.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import snf
from sfkit.complexes import FilteredComplex, homology
from sfkit.snf import ZZ, FpURing
from oracles import mat_mul

# -- the reference domains ---------------------------------------------------


class IntegerDomain:
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def divmod(self, a, b):
        q, r = divmod(a, b)
        if abs(r) * 2 > abs(b):
            q += 1
            r -= b
        return q, r

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def norm(self, a):
        return abs(a)

    def normalize_unit(self, a):
        if a < 0:
            return -1, -a
        return 1, a

    def unit_inverse(self, u):
        return u  # the only units, 1 and -1, are self-inverse


def _trim(t):
    while t and t[-1] == 0:
        t = t[:-1]
    return t


class FpUDomain:
    """F_p[U]; elements are coefficient tuples."""

    def __init__(self, p):
        self.p = p
        self.zero = ()
        self.one = (1 % p,)

    def add(self, a, b):
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return _trim(tuple(out))

    def neg(self, a):
        return tuple((-c) % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not c:
                continue
            for j, e in enumerate(b):
                out[i + j] = (out[i + j] + c * e) % self.p
        return _trim(tuple(out))

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError
        a = list(a)
        q = [0] * max(len(a) - len(b) + 1, 0)
        inv = pow(b[-1], -1, self.p)
        for i in range(len(a) - len(b), -1, -1):
            c = (a[i + len(b) - 1] * inv) % self.p
            if c:
                q[i] = c
                for j, e in enumerate(b):
                    a[i + j] = (a[i + j] - c * e) % self.p
        return _trim(tuple(q)), _trim(tuple(a))

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1

    def norm(self, a):
        return len(a)

    def normalize_unit(self, a):
        if not a:
            return self.one, a
        lead = a[-1]
        if lead == 1:
            return self.one, a
        inv = pow(lead, -1, self.p)
        return (lead,), tuple((c * inv) % self.p for c in a)

    def unit_inverse(self, u):
        return (pow(u[0], -1, self.p),)


# -- strategies ------------------------------------------------------------------

integers = st.integers(-40, 40)


def polys(p, max_size=4):
    return st.lists(st.integers(0, p - 1), max_size=max_size).map(lambda c: _trim(tuple(c)))


def matrices(entries):
    shape = st.tuples(st.integers(1, 3), st.integers(1, 3))
    return shape.flatmap(lambda rc: st.lists(
        st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]))


CASES = [(ZZ, IntegerDomain(), integers)] + [
    (FpURing(p), FpUDomain(p), polys(p)) for p in (2, 3)
]
CASE_IDS = ["Z", "F2[U]", "F3[U]"]


# -- arithmetic ---------------------------------------------------------------------


@pytest.mark.parametrize("ring, ref, elements", CASES, ids=CASE_IDS)
def test_arithmetic_matches_reference(ring, ref, elements):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(elements, elements)
    def check(a, b):
        assert ring.zero() == ref.zero and ring.one() == ref.one
        assert ring.add(a, b) == ref.add(a, b)
        assert ring.neg(a) == ref.neg(a)
        assert ring.mul(a, b) == ref.mul(a, b)
        assert ring.is_zero(a) == ref.is_zero(a)
        assert ring.is_unit(a) == ref.is_unit(a)
        assert ring.norm(a) == ref.norm(a)
        assert ring.normalize_unit(a) == ref.normalize_unit(a)
        if not ref.is_zero(b):
            assert ring.divmod(a, b) == ref.divmod(a, b)
        u, _ = ref.normalize_unit(a) if not ref.is_zero(a) else (ref.one, a)
        assert ring.unit_inverse(u) == ref.unit_inverse(u)
        assert ref.mul(u, ring.unit_inverse(u)) == ref.one

    check()


# -- Smith normal form against determinantal divisors -------------------------------


def _det(ref, M):
    n = len(M)
    total = ref.zero
    for perm in permutations(range(n)):
        term = ref.one
        for i, j in enumerate(perm):
            term = ref.mul(term, M[i][j])
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total = ref.add(total, ref.neg(term) if inversions % 2 else term)
    return total


def _gcd(ref, a, b):
    while not ref.is_zero(b):
        a, b = b, ref.divmod(a, b)[1]
    return ref.normalize_unit(a)[1] if not ref.is_zero(a) else a


def determinantal_divisors(ref, M):
    """[g_1, g_2, ...]: g_k is the normalized gcd of the k x k minors of M."""
    rows, cols = len(M), len(M[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = ref.zero
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                g = _gcd(ref, g, _det(ref, [[M[i][j] for j in c] for i in r]))
        out.append(g)
    return out


@pytest.mark.parametrize("ring, ref, elements", CASES, ids=CASE_IDS)
def test_smith_diagonal_matches_determinantal_divisors(ring, ref, elements):
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(elements))
    def check(M):
        res = snf.smith_normal_form(M, ring)
        divisors = [g for g in determinantal_divisors(ref, M) if not ref.is_zero(g)]
        assert res.rank == len(divisors)
        prefix = ref.one
        for d, g in zip(res.diag, divisors):
            prefix = ref.mul(prefix, d)
            assert prefix == g
        assert mat_mul(mat_mul(res.U, M, ring), res.V, ring) == res.D

    check()


# -- torsion over F_p[U] ---------------------------------------------------------------


@pytest.mark.parametrize("ring, d, torsion", [
    (FpURing(2), (0, 0, 1), ["U^2"]),  # d = U^2 over F2[U]
    (FpURing(3), (0, 2), ["U^1"]),  # d = 2U over F3[U]: a non-monic pivot
    (ZZ, -6, [6]),
], ids=["U^2 over F2[U]", "2U over F3[U]", "-6 over Z"])
def test_homology_torsion_labels(ring, d, torsion):
    tc = FilteredComplex(ring=ring, gen_names=["x", "y"], cosets=[None, None],
                         gradings=[None, None], entries={(0, 1): d})
    h = homology(tc)
    assert h.total_rank() == 0
    assert h.torsion_summands() == torsion
