from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfkit import admissibility, corpus, linprog
from sfkit.cf import DiagramData
from sfkit.domains import maslov_index
from sfkit.stabilize import stabilize_diagram


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
# Fractions, of which each direction keeps only its tightest row, as linprog
# keeps them.  The integer rows are positive multiples of these, so both must
# return exactly the same bounds and the same feasible point.


def _ref_as_fractions(ineqs):
    return [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in ineqs]


def _ref_direction(coeffs, rhs):
    """The row coeffs . x >= rhs scaled by a positive factor so that its
    coefficients are coprime integers: (direction, right-hand side)."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints), rhs * lcm / g


def _ref_eliminate(ineqs, var):
    """Fourier-Motzkin on ``var``; of the rows with one direction only the
    tightest (largest right-hand side) is kept."""
    pos, neg, tightest = [], [], {}

    def keep(coeffs, rhs):
        if all(c == 0 for c in coeffs):
            if rhs > 0:
                raise linprog.Infeasible
            return
        key, bound = _ref_direction(coeffs, rhs)
        if key not in tightest or bound > tightest[key][0]:
            tightest[key] = (bound, coeffs, rhs)

    for coeffs, rhs in ineqs:
        c = coeffs[var]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            keep(coeffs, rhs)
    for cp, rp in pos:
        for cn, rn in neg:
            a, b = cp[var], -cn[var]
            coeffs = [b * x + a * y for x, y in zip(cp, cn)]
            rhs = b * rp + a * rn
            coeffs[var] = Fraction(0)
            keep(coeffs, rhs)
    return [(coeffs, rhs) for _, coeffs, rhs in tightest.values()]


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


_coef = st.integers(-4, 4)  # linprog takes integer rows, objectives and right-hand sides


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_systems())
@example((2, [], [1, 0]))  # empty system: unbounded both ways, point at 0
@example((1, [([1], 0)], [1]))  # unbounded above
@example((2, [([1, 1], 1), ([-1, -1], -1), ([1, -1], 0), ([-1, 1], 0)], [1, 0]))
@example((1, [([0], 1)], [1]))  # a constant row that fails
@example((2, [([1, 0], 0), ([-1, 0], -1)], [0, 0]))  # zero objective, feasible
@example((1, [([1], 1), ([-1], 0)], [0]))  # zero objective, infeasible
@example((2, [([1, 0], 0), ([0, 1], 0), ([-1, -1], -3)], [0, 2]))  # objective scale 2
@example((3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([-1, -1, -1], -2)],
          [3, -1, 2]))  # the smallest |coefficient| is neither first nor positive
def test_integer_fm_matches_fraction_reference(system):
    n, ineqs, objective = system
    # repr pins the types too: Fraction bounds and coordinates, never ints
    assert repr(linprog.linear_range(ineqs, n, objective)) == repr(
        ref_linear_range(ineqs, n, objective)
    )
    assert repr(linprog.feasible_point(ineqs, n)) == repr(ref_feasible_point(ineqs, n))


# -- integer points by depth-first search against brute force -----------------


def test_integer_points_lexicographic():
    # 0 <= x <= 2, 0 <= y <= x: a triangle, listed x first
    ineqs = [([1, 0], 0), ([-1, 0], -2), ([0, 1], 0), ([1, -1], 0)]
    assert linprog.integer_points(ineqs, 2) == [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
    ]


def test_integer_points_constant_rows_are_checks():
    box = [([1], 0), ([-1], -1)]
    assert linprog.integer_points(box + [([0], -1)], 1) == [(0,), (1,)]
    assert linprog.integer_points(box + [([0], 1)], 1) == []
    # with no variables left, the constant rows alone decide
    assert linprog.integer_points([((), -1)], 0) == [()]
    assert linprog.integer_points([((), 1)], 0) == []


def test_integer_points_rational_but_no_integer_point():
    # 1/3 <= x <= 2/3
    assert linprog.integer_points([([3], 1), ([-3], -2)], 1) == []


def test_integer_points_unbounded():
    with pytest.raises(linprog.Unbounded):
        linprog.integer_points([([1, 0], 0), ([-1, 0], -1), ([0, 1], 0)], 2)
    # an empty polyhedron is empty, not unbounded
    assert linprog.integer_points([([1, 0], 1), ([-1, 0], 0)], 2) == []


@st.composite
def _integer_systems(draw):
    """(nvars, ineqs): random rows, with or without the box -2 <= x_i <= 2."""
    n = draw(st.integers(1, 3))
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    st.integers(-6, 6))
    ineqs = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        for i in range(n):
            unit = [1 if j == i else 0 for j in range(n)]
            ineqs += [(unit, -2), ([-c for c in unit], -2)]
    return n, list(draw(st.permutations(ineqs)))


def ref_integer_points(ineqs, n):
    """Brute force over the box the Fraction reference gives: the integer
    points in lexicographic order, or linprog.Unbounded raised."""
    ranges = [ref_linear_range(ineqs, n, [int(i == j) for j in range(n)])
              for i in range(n)]
    if n and ranges[0] is None:
        return []
    if any(lo is None or hi is None for lo, hi in ranges):
        raise linprog.Unbounded
    box = [range(ceil(lo), floor(hi) + 1) for lo, hi in ranges]
    return [
        p for p in product(*box)
        if all(sum(c * v for c, v in zip(coeffs, p)) >= rhs for coeffs, rhs in ineqs)
    ]


def _integer_points_or_unbounded(*args):
    try:
        return linprog.integer_points(*args)
    except linprog.Unbounded:
        return "unbounded"


def _ref_integer_points_or_unbounded(ineqs, n):
    try:
        return ref_integer_points(ineqs, n)
    except linprog.Unbounded:
        return "unbounded"


@settings(max_examples=200, deadline=None)
@given(_integer_systems())
@example((2, []))  # unbounded both ways
@example((1, [([1], 0), ([-1], -2), ([0], 1)]))  # a constant row that fails
@example((2, [([1, 0], 1), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0)]))  # empty
def test_integer_points_match_brute_force(system):
    n, ineqs = system
    # the Fraction reference decides emptiness and boundedness and gives the box
    assert _integer_points_or_unbounded(ineqs, n) == _ref_integer_points_or_unbounded(ineqs, n)


# -- recorded eliminations against the unrecorded calls and the reference ------


@st.composite
def _recorded_systems(draw):
    """(nvars, coefficient rows, objective, right-hand sides, j): one
    matrix for several right-hand sides.  The matrix holds a row q and its
    opposite -q, whose last nonzero coefficient is that of x_j, and the
    first right-hand sides ask q . x >= 1 and -q . x >= 0, so the first call
    stops with Infeasible at the latest when x_j is eliminated."""
    n = draw(st.integers(1, 3))
    row = st.lists(_coef, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=4))
    j = draw(st.integers(0, n - 1))
    q = draw(row.filter(lambda r: r[j] != 0 and not any(r[j + 1:])))
    rows = rows + [q, [-c for c in q]]
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    # the box -2 <= x_i <= 2 keeps the integer points finite and few
    for i in range(n):
        unit = [int(i == k) for k in range(n)]
        rows += [unit, [-c for c in unit]]
    objective = draw(row)
    first = [draw(_coef) for _ in rows]
    first[order.index(len(order) - 2)], first[order.index(len(order) - 1)] = 1, 0
    rhs = [first] + draw(st.lists(st.lists(_coef, min_size=len(rows), max_size=len(rows)),
                                  min_size=4, max_size=6))
    for b in rhs:
        b[-2 * n:] = [-2] * (2 * n)
    return n, rows, objective, rhs, j


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_recorded_systems())
def test_recorded_elimination_matches_unrecorded_and_reference(system):
    n, rows, objective, rhs, j = system
    ranges, fibers = linprog.Recording(), linprog.Recording()
    # the structure of every step, built without any right-hand side
    dirs, chain = linprog._start(rows, None)[0], []
    for var in range(n - 1, -1, -1):
        out = []
        chain.append((out, list(linprog._structure(dirs, var, out))))
        dirs = out
    feasible = False
    for call, b in enumerate(rhs):
        ineqs = [(a, c) for a, c in zip(rows, b)]
        expected = ref_linear_range(ineqs, n, objective)
        assert repr(linprog.linear_range(ineqs, n, objective, ranges)) == repr(expected)
        assert repr(linprog.linear_range(ineqs, n, objective)) == repr(expected)
        expected = ref_feasible_point(ineqs, n)
        feasible = feasible or expected is not None
        assert repr(linprog.feasible_point(ineqs, n)) == repr(expected)
        expected = _ref_integer_points_or_unbounded(ineqs, n)
        assert _integer_points_or_unbounded(ineqs, n, fibers) == expected
        assert _integer_points_or_unbounded(ineqs, n) == expected
        if call == 0:
            # cut short by Infeasible: at most the steps up to x_j are kept,
            # each of them whole
            assert expected == []
            assert len(fibers.steps) <= n - j
            assert fibers.steps == chain[:len(fibers.steps)]
    if feasible:
        # a call that ran to the end recorded the remaining steps
        assert fibers.steps == chain


def test_recording_belongs_to_one_system():
    # an empty row list at nvars = 1 and at nvars = 3 are different systems,
    # and so are other rows or another objective
    cases = [
        (linprog.linear_range, ([], 1, [1]), (None, None),
         [([], 3, [1, 0, 0]), ([([1], 0)], 1, [1]), ([], 1, [2])]),
        (linprog.integer_points, ([([1], 0), ([-1], -1)], 1), [(0,), (1,)],
         [([([1], 0), ([-1], -1)], 2), ([([2], 0), ([-1], -1)], 1)]),
    ]
    for call, args, expected, others in cases:
        recording = linprog.Recording()
        assert call(*args, recording) == expected
        assert call(*args, recording) == expected  # replayed
        for other in others:
            with pytest.raises(ValueError, match="another system"):
                call(*other, recording)
    assert linprog.linear_range([], 3, [1, 0, 0], linprog.Recording()) == (None, None)


# -- the certificate's systems against the Fraction reference -----------------


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["unknot", "trefoil"])
def test_certificate_ranges_match_fraction_reference(name, k, monkeypatch):
    # every linear_range the certificate makes (on the mu slice, replayed
    # from the block's compiled stratum systems), against the unrecorded call
    # and the reference; and its bound against the reference range of the
    # total multiplicity over the unsliced system, with the mu equation as
    # two rows (None when every stratum is empty), at the indices 0 and 1.  A
    # shift that no lattice element reaches (g does not divide it) gets None
    # and no LP
    d = corpus.load_diagram(name)
    for _ in range(k):
        d = stabilize_diagram(d, 0)
    calls = []
    original = linprog.linear_range

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(linprog, "linear_range", recording)
    data = DiagramData.build(d)
    calc = data.calc
    strata = admissibility.survival_strata(admissibility.tilde_kill_supports(d))
    gens = d.generators()
    reached = 0
    for i, x in enumerate(gens):
        lattice = data.lattice_of(i)
        total = [sum(P) for P in lattice.basis]
        g = gcd(*lattice.mu)
        for y in gens:
            phi0 = calc.connecting(x, y)
            for index in (0, 1):
                shift = index - maslov_index(d, phi0, x, y)
                cert = admissibility.finiteness_certificate(lattice, phi0, shift)
                if shift % g if g else shift:
                    assert cert is None
                    continue
                reached += 1
                best = None
                for stratum in strata:
                    ineqs = [(list(col), -phi0[r]) for r, col in enumerate(zip(*lattice.basis))]
                    for i in stratum:
                        row = [nz[i] for nz in lattice.n_z]
                        ineqs += [(row, -phi0[d.mark_region[i]]),
                                  ([-v for v in row], phi0[d.mark_region[i]])]
                    ineqs += [(lattice.mu, shift), ([-v for v in lattice.mu], -shift)]
                    rng = ref_linear_range(ineqs, lattice.rank, total)
                    if rng is not None:
                        bound = floor(rng[1]) + sum(phi0)
                        best = bound if best is None else max(best, bound)
                assert cert == best
    # each pair reaches one of the indices 0 and 1 (g = 2 on these ladders)
    assert reached == len(gens) ** 2
    assert len(calls) == reached  # one survival stratum, one LP per shift reached
    # the generators form one block: its one stratum system serves every pair
    systems = data.lattice_of(0).compiled("certificate", admissibility.certificate_systems)
    assert [s.stratum for s in systems] == strata
    for (ineqs, n, objective, rec), rng in calls:
        assert rec is systems[0].recording
        assert repr(rng) == repr(original(ineqs, n, objective))
        assert repr(rng) == repr(ref_linear_range(ineqs, n, objective))
    (_, n, objective, _), _ = calls[0]
    assert len(systems[0].recording.steps) == (n - 1 if any(objective) else n)


# -- the admissibility systems against the full-lattice reference -------------
#
# s- and weak admissibility pose mu = 0 as a coordinate: they search K0, the
# mu = 0 sublattice.  The reference is the system they replaced, over the
# whole lattice with mu = 0 as two rows (``_reference_verdict`` says which
# solver answers it).

def _full_lattice_ineqs(lattice, stratum):
    total = [sum(P) for P in lattice.basis]
    ineqs = [(row, 0) for row in admissibility.cone_rows(lattice.diagram, lattice.basis,
                                                         stratum)[0]]
    ineqs += [([-c for c in lattice.mu], 0), (list(lattice.mu), 0)]
    return ineqs + [(total, 1), ([-c for c in total], -1)]


def _reference_verdict(lattice, strata):
    """Admissible, or the first stratum's witness, re-verified.  The Fraction
    reference solves every case up to rank 7 (the ladder to k = 3 and grid2
    to k = 2); its slowest, trefoil+3's weak systems with every mark forced
    to zero, take about 5 s each.  Above rank 7 the full-lattice system is
    solved by ``linprog.feasible_point``, the solver the admissibility checks
    ran on it, which the tests above hold to the reference."""
    solve = ref_feasible_point if lattice.rank <= 7 else linprog.feasible_point
    for stratum in strata:
        point = solve(_full_lattice_ineqs(lattice, stratum), lattice.rank)
        if point is not None:
            P = lattice.element(linprog.integer_scale(point))
            admissibility._verify_witness(lattice.diagram, lattice.at, P, stratum, "zero")
            return False
    return True


def _handled_special_hs():
    from sfkit.diagram import HeegaardDiagram

    data = corpus.load_diagram("special_hs").to_dict()
    data["regions"][0]["genus"] += 1
    return HeegaardDiagram.from_dict(data)


ADMISSIBILITY_CASES = [(name, 0) for name in corpus.corpus_names()] + [
    (name, k) for name in ("unknot", "trefoil") for k in (1, 2, 3)] + [
    ("grid2", k) for k in (1, 2)] + [("special_hs+handle", 0)]


@pytest.mark.parametrize("name, k", ADMISSIBILITY_CASES)
def test_admissibility_over_k0_matches_full_lattice_reference(name, k):
    from sfkit import algebra as alg
    from sfkit.homology1 import h1_presentation
    from sfkit.testrings import HomError, all_zero, btau_hom, to_U

    if name == "special_hs+handle":
        d = _handled_special_hs()
    else:
        d = corpus.load_diagram(name)
        for _ in range(k):
            d = stabilize_diagram(d, 0)
    pres = h1_presentation(d)
    spec = alg.diagram_algebra(d, homology=pres)
    homs = [all_zero(spec), btau_hom(spec, pres)]
    try:
        homs.append(to_U(alg.diagram_algebra(d)))
    except HomError:
        pass  # a kill monomial survives U
    verdicts = []
    for lattice in DiagramData.build(d).lattices:
        reports = [(admissibility.check_s_admissible(lattice),
                    admissibility.survival_strata(admissibility.tilde_kill_supports(d)))]
        for hom in homs:
            forced, supports = admissibility.hom_forced_marks(hom, d.num_marks)
            reports.append((admissibility.check_weak_admissible(lattice, hom),
                            admissibility.survival_strata(supports, forced)))
        for report, strata in reports:
            assert report.admissible == _reference_verdict(lattice, strata)
            verdicts.append(report.admissible)
            if not report.admissible:
                stratum = next(s for s in strata
                               if report.notes[-1] == f"stratum {sorted(s)} witnesses failure")
                admissibility._verify_witness(d, lattice.at, report.witness, stratum, "zero")
                assert report.witness_mu == 0
    if name in ("special_hs+handle", "sphere_bad", "nomatch_genus2"):
        assert not verdicts[0]  # not s-admissible
    else:
        assert verdicts[0]
