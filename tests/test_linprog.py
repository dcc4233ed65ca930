from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfkit import linprog


def test_feasible_simple():
    # x >= 1, -x >= -3  ->  1 <= x <= 3
    pt = linprog.feasible_point([([1], 1), ([-1], -3)], 1)
    assert pt is not None and 1 <= pt[0] <= 3


def test_infeasible():
    assert linprog.feasible_point([([1], 1), ([-1], 0)], 1) is None


def test_feasible_cone_slice():
    # x, y >= 0, x + y = 1, x - y = 0 -> (1/2, 1/2)
    ineqs = [
        ([1, 0], 0),
        ([0, 1], 0),
        ([1, 1], 1),
        ([-1, -1], -1),
        ([1, -1], 0),
        ([-1, 1], 0),
    ]
    pt = linprog.feasible_point(ineqs, 2)
    assert pt == [Fraction(1, 2), Fraction(1, 2)]


def test_linear_range_bounded():
    # unit square: 0 <= x, y <= 1: range of x + y is [0, 2]
    ineqs = [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1)]
    assert linprog.linear_range(ineqs, 2, [1, 1]) == (0, 2)


def test_linear_range_unbounded():
    lo, hi = linprog.linear_range([([1], 0)], 1, [1])
    assert lo == 0 and hi is None


def test_linear_range_empty():
    assert linprog.linear_range([([1], 1), ([-1], 0)], 1, [1]) is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    )
)
def test_feasible_point_satisfies_system(ineqs):
    pt = linprog.feasible_point(ineqs, 2)
    if pt is not None:
        for coeffs, rhs in ineqs:
            assert sum(Fraction(c) * x for c, x in zip(coeffs, pt)) >= rhs


def test_integer_scale():
    assert linprog.integer_scale([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]


# -- differential test against the Fraction reference -------------------------
#
# The reference below is the rational Fourier-Motzkin elimination that
# linprog used before its rows became primitive integer tuples: rows of
# Fractions, deduplicated by their normalized integer form.  The integer rows
# are positive multiples of these, in the same order, so both must return
# exactly the same bounds and the same feasible point.


def _ref_normalize(coeffs, rhs):
    denoms = [c.denominator for c in coeffs] + [rhs.denominator]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(c * lcm) for c in coeffs] + [int(rhs * lcm)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


def _ref_as_fractions(ineqs):
    return [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in ineqs]


def _ref_eliminate(ineqs, var):
    pos, neg, zero = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[var]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            zero.append((coeffs, rhs))
    out = list(zero)
    seen = {_ref_normalize(c, r) for c, r in zero}
    for cp, rp in pos:
        for cn, rn in neg:
            a, b = cp[var], -cn[var]
            coeffs = [b * x + a * y for x, y in zip(cp, cn)]
            rhs = b * rp + a * rn
            coeffs[var] = Fraction(0)
            if all(c == 0 for c in coeffs):
                if rhs > 0:
                    raise linprog.Infeasible
                continue
            key = _ref_normalize(coeffs, rhs)
            if key not in seen:
                seen.add(key)
                out.append((coeffs, rhs))
    return out


def ref_feasible_point(ineqs, nvars):
    systems = [_ref_as_fractions(ineqs)]
    try:
        for var in range(nvars - 1, -1, -1):
            systems.append(_ref_eliminate(systems[-1], var))
    except linprog.Infeasible:
        return None
    for coeffs, rhs in systems[-1]:
        if rhs > 0:
            return None
    point = [Fraction(0)] * nvars
    for var in range(0, nvars):
        system = systems[nvars - 1 - var]
        lo, hi = None, None
        for coeffs, rhs in system:
            c = coeffs[var]
            if c == 0:
                continue
            bound = (rhs - sum(coeffs[j] * point[j] for j in range(0, var))) / c
            if c > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = hi
        else:
            point[var] = Fraction(0)
    return point


def ref_linear_range(ineqs, nvars, objective):
    ext = [(coeffs + [Fraction(0)], rhs) for coeffs, rhs in _ref_as_fractions(ineqs)]
    obj = [Fraction(c) for c in objective]
    ext.append((obj + [Fraction(-1)], Fraction(0)))
    ext.append(([-c for c in obj] + [Fraction(1)], Fraction(0)))
    try:
        for var in range(nvars - 1, -1, -1):
            ext = _ref_eliminate(ext, var)
    except linprog.Infeasible:
        return None
    lo, hi = None, None
    for coeffs, rhs in ext:
        c = coeffs[nvars]
        if c == 0:
            if rhs > 0:
                return None
            continue
        bound = rhs / c
        if c > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


_coef = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _systems(draw):
    """(nvars, ineqs, objective): inequalities plus equality pairs, shuffled."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.lists(_coef, min_size=n, max_size=n), _coef)
    ineqs = draw(st.lists(row, max_size=5))
    for coeffs, rhs in draw(st.lists(row, max_size=1)):
        ineqs += [(coeffs, rhs), ([-c for c in coeffs], -rhs)]
    ineqs = draw(st.permutations(ineqs))
    objective = draw(st.lists(_coef, min_size=n, max_size=n))
    return n, list(ineqs), objective


@settings(max_examples=200, deadline=None)
@given(_systems())
@example((2, [], [1, 0]))  # empty system: unbounded both ways, point at 0
@example((1, [([1], 0)], [1]))  # unbounded above
@example((2, [([1, 1], 1), ([-1, -1], -1), ([1, -1], 0), ([-1, 1], 0)], [1, 0]))
@example((1, [([0], 1)], [1]))  # a constant row that fails
def test_integer_fm_matches_fraction_reference(system):
    n, ineqs, objective = system
    # repr pins the types too: Fraction bounds and coordinates, never ints
    assert repr(linprog.linear_range(ineqs, n, objective)) == repr(
        ref_linear_range(ineqs, n, objective)
    )
    assert repr(linprog.feasible_point(ineqs, n)) == repr(ref_feasible_point(ineqs, n))
