import gc
import weakref
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import corpus, snf
from sfkit.cf import DiagramData
from sfkit.diagram import ALPHA, BETA
from sfkit.domains import (
    DomainCalculator,
    NonDomainError,
    PeriodicLattice,
    corner_matrix,
    corner_target,
    is_domain,
    marked_multiplicities,
    maslov_index,
    maslov_of_periodic,
    maslov_x4,
)
from oracles import component_domain

CORPUS = [
    "torus_min", "unknot", "trefoil", "grid2", "torus_lens",
    "sphere_split", "special_hs", "genus2_pair",
]


def is_periodic(d, D) -> bool:
    """D meets the corner conditions with target zero."""
    return all(D[q1] + D[q3] == D[q0] + D[q2] for q0, q1, q2, q3 in d.crossing_quadrants)


def euler_measure(d, D) -> Fraction:
    return Fraction(sum(c * w for c, w in zip(D, d.euler_measures_x4)), 4)


def generator_measure(d, D, g) -> Fraction:
    """n_g(D): the average of D over the four quadrants at each point of g."""
    quads = d.crossing_quadrants
    return Fraction(sum(D[q] for p in g.points for q in quads[p]), 4)


def brute_force_domains(d, x, y, lo=-2, hi=2):
    """Oracle: all coefficient vectors in a box satisfying the corner
    conditions, found by direct enumeration."""
    A = corner_matrix(d)
    tgt = corner_target(d, x, y)
    out = []
    for vec in product(range(lo, hi + 1), repeat=len(d.regions)):
        if snf.mat_vec(A, list(vec)) == tgt:
            out.append(vec)
    return sorted(out)


@pytest.mark.parametrize("name", CORPUS)
def test_component_maslov_identity(name):
    # mu(A_i) = 2 - 2 g(A_i) and mu(B_j) = 2 - 2 g(B_j)
    d = corpus.load_diagram(name)
    gens = d.generators()
    at = gens[0] if gens else None
    for side in (ALPHA, BETA):
        for comp in d.complement_components(side):
            P = component_domain(d, comp)
            assert is_periodic(d, P)
            assert maslov_of_periodic(d, P, at) == 2 - 2 * comp.genus


@pytest.mark.parametrize("name", CORPUS)
def test_full_surface_domain_periodic_allones_marks(name):
    d = corpus.load_diagram(name)
    S = [1] * len(d.regions)  # the full surface
    assert is_periodic(d, S)
    assert marked_multiplicities(d, S) == tuple([1] * d.num_marks)


@pytest.mark.parametrize("name", ["trefoil", "sphere_split", "torus_lens"])
def test_connecting_solution_set_matches_brute_force(name):
    d = corpus.load_diagram(name)
    calc = DomainCalculator(d)
    gens = d.generators()
    for i in range(len(gens)):
        for j in range(len(gens)):
            x, y = gens[i], gens[j]
            oracle = brute_force_domains(d, x, y)
            phi0 = calc.connecting(x, y)
            if phi0 is None:
                assert oracle == []
                continue
            # reproduce the box contents from particular + lattice
            found = set()
            rank = len(calc.periodic_basis)
            for t in product(range(-6, 7), repeat=rank):
                vec = list(phi0)
                for c, b in zip(t, calc.periodic_basis):
                    for k in range(len(vec)):
                        vec[k] += c * b[k]
                if all(-2 <= v <= 2 for v in vec):
                    found.add(tuple(vec))
            assert sorted(found) == oracle


def test_trefoil_bigon_is_particular_solution():
    d = corpus.load_diagram("trefoil")
    calc = DomainCalculator(d)
    gens = d.generators()
    x1, x0 = gens[1], gens[0]
    phi0 = calc.connecting(x1, x0)
    assert phi0 is not None
    # the visible bigon D1 = region 0 solves the system
    bigon = [1, 0, 0]
    assert is_domain(d, bigon, x1, x0)
    assert maslov_index(d, bigon, x1, x0) == 1
    assert marked_multiplicities(d, bigon) == (0, 1)


def test_embedded_bigon_and_rectangle_index():
    # forced by the Lipshitz formula: e = 1/2 + two 1/4-corners, e = 0 + four
    d = corpus.load_diagram("genus2_pair")
    gens = d.generators()
    assert maslov_index(d, [1, 0], gens[0], gens[1]) == 1
    g = corpus.load_diagram("grid2")
    ggens = g.generators()
    assert maslov_index(g, [1, 0, 0, 0], ggens[1], ggens[0]) == 1


def test_torus_lens_has_no_connecting_domain():
    d = corpus.load_diagram("torus_lens")
    calc = DomainCalculator(d)
    gens = d.generators()
    phi0 = calc.connecting(gens[0], gens[1])
    assert phi0 is None
    assert brute_force_domains(d, gens[0], gens[1]) == []


def test_connecting_is_none_exactly_across_spinc_blocks():
    # torus_lens has two generators, each its own Spin^c block
    data = DiagramData.build(corpus.load_diagram("torus_lens"))
    blocks, gens = data.partition.blocks, data.partition.generators
    assert [len(b) for b in blocks] == [1, 1]
    block_of = {i: bi for bi, block in enumerate(blocks) for i in block}
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            phi0 = data.calc.connecting(x, y)
            assert (phi0 is None) == (block_of[i] != block_of[j])
            if phi0 is not None:
                assert is_domain(data.diagram, phi0, x, y)


def test_non_domain_rejected():
    d = corpus.load_diagram("trefoil")
    gens = d.generators()
    with pytest.raises(NonDomainError):
        maslov_index(d, [1, 0, 0], gens[0], gens[2])


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_maslov_additive_under_periodic(a, b):
    # mu(D + P) = mu(D) + mu_s(P) for P in the periodic lattice
    d = corpus.load_diagram("trefoil")
    gens = d.generators()
    x, y = gens[1], gens[0]
    D = [1, 0, 0]
    P = [a + b, a + b, a + b]  # lattice is Z * Sigma
    DP = [u + v for u, v in zip(D, P)]
    assert maslov_index(d, DP, x, y) == maslov_index(d, D, x, y) + maslov_of_periodic(d, P, x)


def test_connecting_is_equivalence():
    # symmetry via negation and transitivity via addition
    for name in CORPUS:
        d = corpus.load_diagram(name)
        calc = DomainCalculator(d)
        gens = d.generators()
        n = len(gens)
        table = [[calc.connecting(gens[i], gens[j]) is not None for j in range(n)] for i in range(n)]
        for i in range(n):
            assert table[i][i]
            for j in range(n):
                assert table[i][j] == table[j][i]
                for k in range(n):
                    if table[i][j] and table[j][k]:
                        assert table[i][k]


def _reference_maslov(d, D, x, y):
    """The Lipshitz formula in Fractions, straight from the region data."""
    e = sum(
        (c * (Fraction(chi) - Fraction(corners, 4))
         for c, chi, corners in zip(D, d.region_chi, d.region_corner_count)),
        Fraction(0),
    )
    corner_terms = sum(
        (Fraction(sum(D[q] for q in d.crossings[p].quadrants), 4)
         for p in x.points + y.points),
        Fraction(0),
    )
    return e + corner_terms


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_quarter_integer_maslov_matches_fraction_formula(name):
    # every nonnegative class phi0 + sum t_b P_b with |t_b| <= 2, every pair
    d = corpus.load_diagram(name)
    calc = DomainCalculator(d)
    gens = d.generators()
    basis = calc.periodic_basis
    checked = 0
    for x in gens:
        for y in gens:
            phi0 = calc.connecting(x, y)
            if phi0 is None:
                continue
            for t in product(range(-2, 3), repeat=len(basis)):
                D = list(phi0)
                for c, vec in zip(t, basis):
                    D = [u + c * v for u, v in zip(D, vec)]
                if any(v < 0 for v in D):
                    continue
                mu = _reference_maslov(d, D, x, y)
                assert mu == euler_measure(d, D) + generator_measure(d, D, x) + generator_measure(d, D, y)
                assert mu.denominator == 1
                assert maslov_index(d, D, x, y) == mu
                checked += 1
    assert checked or not gens


def test_non_integral_index_rejected():
    # genus2_pair's first region has e = 1/2; with no generator there are no
    # corner terms to make the index integral
    d = corpus.load_diagram("genus2_pair")
    with pytest.raises(NonDomainError, match="non-integral Maslov index 1/2"):
        maslov_of_periodic(d, [1, 0], None)


def test_is_domain_matches_corner_matrix():
    # the quadrant form of the corner conditions against the dense matrix
    for name in CORPUS:
        d = corpus.load_diagram(name)
        A = corner_matrix(d)
        gens = d.generators()
        for x, y in product(gens, repeat=2):
            tgt = corner_target(d, x, y)
            for vec in product(range(-1, 2), repeat=len(d.regions)):
                assert is_domain(d, list(vec), x, y) == (snf.mat_vec(A, list(vec)) == tgt)
        for vec in product(range(-1, 2), repeat=len(d.regions)):
            assert is_periodic(d, vec) == all(v == 0 for v in snf.mat_vec(A, list(vec)))


# -- factor-once solving against a fresh factorization per solve --------------


# every corpus diagram, and the unknot and the trefoil stabilized once and twice
CORPUS_AND_LADDER = [(name, 0) for name in corpus.corpus_names()] + [
    (name, k) for name in ("unknot", "trefoil") for k in (1, 2)
]


def _stabilized(name, k):
    from sfkit.stabilize import stabilize_diagram

    d = corpus.load_diagram(name)
    for _ in range(k):
        d = stabilize_diagram(d, 0)
    return d


@pytest.mark.parametrize("name, k", CORPUS_AND_LADDER)
def test_factored_corner_system_matches_fresh_solves(name, k):
    d = _stabilized(name, k)
    calc = DomainCalculator(d)
    if not calc.matrix:
        return
    assert calc.periodic_basis == snf.kernel_basis(calc.matrix)
    gens = d.generators()
    for x in gens:
        for y in gens:
            # U is applied once per generator; each pair's solve must still
            # equal a fresh one and one on the factored system
            target = corner_target(d, x, y)
            fresh = snf.solve_integer(calc.matrix, target)
            assert snf.solve_integer(calc.factored, target) == fresh
            phi0 = calc.connecting(x, y)
            assert phi0 == fresh


# -- one periodic lattice per Spin^c block ------------------------------------
#
# DiagramData keeps one mu row per block and the enumerator takes its slope as
# 4 times that row.  Both rest on mu(P) = e(P) + 2 n_x(P) being the same for
# every generator x of a block, and on n_x(P) = n_y(P) for connected x, y.

LATTICE_CASES = [(name, 0) for name in corpus.corpus_names()] + [
    (name, k) for name in ("unknot", "trefoil", "grid2") for k in (1, 2)
]


@pytest.mark.parametrize("name, k", LATTICE_CASES)
def test_block_mu_row_is_every_generators_mu(name, k):
    d = _stabilized(name, k)
    data = DiagramData.build(d)
    basis = data.calc.periodic_basis
    assert all(lat.basis is basis for lat in data.lattices)
    assert data.lattices[0].n_z == [list(marked_multiplicities(d, P)) for P in basis]
    if not data.partition.blocks:
        # no generators: the single lattice carries the Euler measure alone
        assert [lat.mu for lat in data.lattices] == [
            [maslov_of_periodic(d, P, None) for P in basis]
        ]
        return
    gens = data.partition.generators
    for block, lat in zip(data.partition.blocks, data.lattices, strict=True):
        for i in block:
            assert [maslov_of_periodic(d, P, gens[i]) for P in basis] == lat.mu
            for j in block:
                x, y = gens[i], gens[j]
                assert data.calc.connecting(x, y) is not None
                slope = [maslov_x4(d, P, x.points + y.points) for P in basis]
                assert slope == [4 * m for m in lat.mu]


# -- one owner for the block lattices ------------------------------------------
#
# DiagramData builds and keeps the lattices; a lattice refers to the
# calculator, which refers to the diagram, and nothing refers back.

ROOT = Path(__file__).resolve().parents[1]


def _reports_and_ladder_homology():
    """Every corpus report, and unknot and trefoil stabilized up to twice
    through all-zero homology."""
    from sfkit.cf import build_cf
    from sfkit.complexes import homology
    from sfkit.corpuscheck import diagram_report
    from sfkit.testrings import all_zero

    for name in corpus.corpus_names():
        diagram_report(name)
    for name in ("unknot", "trefoil"):
        for k in range(3):
            d = _stabilized(name, k)
            c = build_cf(d, 0, data=DiagramData.build(d))
            homology(c.tensor(all_zero(c.algebra)))


def test_diagram_data_is_freed_by_reference_counting(monkeypatch):
    # with the cyclic collector off, every calculator and lattice is gone
    # once the report or the task that made it returns
    made = []
    for cls in (DomainCalculator, PeriodicLattice):
        def recording(self, *args, original=cls.__init__, **kwargs):
            made.append((type(self).__name__, weakref.ref(self)))
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reports_and_ladder_homology()
        alive = [name for name, ref in made if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    kinds = [name for name, _ in made]
    assert kinds.count("DomainCalculator") >= 16 and kinds.count("PeriodicLattice") >= 16
    assert alive == []


def test_mu_rows_are_evaluated_only_by_diagram_data(monkeypatch):
    # DiagramData.build evaluates each block's mu row once, at the block's
    # first generator: rank calls per block, or rank for the Euler row of a
    # diagram without generators.  Per-pair callers read the lattice of
    # their block, so ``sfk classes`` on every ordered pair of the corpus,
    # and the stabilization demo, evaluate no row of their own
    import runpy
    from contextlib import redirect_stdout
    from io import StringIO

    from sfkit import admissibility, cf, cli, domains

    calls, builds = [], []  # per call: inside a build; per build: (calls, expected)
    building = []
    for module in (admissibility, cf, domains):
        monkeypatch.setattr(module, "maslov_of_periodic",
                            lambda *args: calls.append(bool(building))
                            or maslov_of_periodic(*args))
    build = DiagramData.build

    def counting(d):
        building.append(d)
        before = len(calls)
        data = build(d)
        building.pop()
        rows = max(1, len(data.partition.blocks))
        builds.append((len(calls) - before, len(data.calc.periodic_basis) * rows))
        return data

    monkeypatch.setattr(DiagramData, "build", staticmethod(counting))
    with redirect_stdout(StringIO()):
        for name in corpus.corpus_names():
            path = corpus.corpus_path(name)
            n = len(corpus.load_diagram(name).generators())
            for i, j in product(range(n), repeat=2):
                assert cli.main(["--json", "classes", path, "--from", str(i), "--to", str(j)]) == 0
        assert runpy.run_path(str(ROOT / "scripts" / "stabilization_demo.py"))["main"]() == 0
    assert len(builds) > 20
    assert all(made == expected for made, expected in builds)
    assert calls and all(calls)



# -- Maslov potentials ---------------------------------------------------------


@pytest.mark.parametrize("name, k", LATTICE_CASES)
def test_potential_differences_are_pair_indices(name, k, monkeypatch):
    # mu of every connected pair's connecting domain is the difference of the
    # two generators' potentials; each potential takes one maslov_index call,
    # except the reference of its key, whose potential is 0
    from sfkit import domains

    d = _stabilized(name, k)
    calc = DomainCalculator(d)
    gens = d.generators()
    calls = []
    monkeypatch.setattr(domains, "maslov_index",
                        lambda *args: calls.append(args) or maslov_index(*args))
    for x in gens:
        for y in gens:
            phi0 = calc.connecting(x, y)
            if phi0 is not None:
                assert calc.potential(x) - calc.potential(y) == maslov_index(
                    d, phi0, x, y)
    assert len(calls) == len(gens) - len({calc.key(g) for g in gens})
    assert all(calc.potential(calc._references[calc.key(g)]) == 0 for g in gens)


# -- one connecting solve per ordered pair ------------------------------------


@pytest.mark.parametrize("name, k", [(name, k) for name in ("unknot", "trefoil")
                                     for k in (0, 1, 2)])
def test_connecting_solved_once_per_ordered_pair(name, k, monkeypatch):
    # the Spin^c partition, the gradings and the enumerator all ask for
    # connecting solves; the corner target e(x) - e(y) is linear, so U is
    # applied to e(g) once per generator (28 products over these six
    # diagrams, whose generators form one block each, where solving each
    # ordered pair took 210)
    from sfkit.cf import build_cf

    products = []
    original = snf.mat_vec

    def counting(A, v, *rest):
        products.append(A)
        return original(A, v, *rest)

    monkeypatch.setattr(snf, "mat_vec", counting)
    d = _stabilized(name, k)
    data = DiagramData.build(d)
    build_cf(d, 0, data=data)
    n = len(d.generators())
    assert data.partition.blocks == [list(range(n))]
    assert sum(1 for A in products if A is data.calc.factored.U) == n


@pytest.mark.parametrize("name, k", LATTICE_CASES)
def test_diagram_data_solves_each_generator_once(name, k, monkeypatch):
    # the partition, the gradings and the potentials read one record per
    # generator on the calculator: building DiagramData makes one connecting
    # solve per generator other than its key's reference, and each record's
    # n_z and potential agree with the pair solve
    d = _stabilized(name, k)
    calls = []
    connecting = DomainCalculator.connecting
    monkeypatch.setattr(DomainCalculator, "connecting",
                        lambda *args: calls.append(args) or connecting(*args))
    data = DiagramData.build(d)
    calc, gens = data.calc, d.generators()
    assert len(calls) == len(gens) - len({calc.key(g) for g in gens})
    for block in data.partition.blocks:
        base = gens[block[0]]
        for i in block:
            phi0 = connecting(calc, gens[i], base)
            assert calc.marks(gens[i], base) == marked_multiplicities(d, phi0)
            assert calc.potential(gens[i]) - calc.potential(base) == maslov_index(
                d, phi0, gens[i], base)


# -- one calculator per diagram -----------------------------------------------


@pytest.mark.parametrize("name, k", CORPUS_AND_LADDER)
def test_one_calculator_per_diagram(name, k, monkeypatch):
    # every stage reaches the corner system through DiagramData: its
    # calculator, or a block's lattice, which holds the same calculator
    from sfkit.admissibility import (
        NotAdmissibleError,
        check_s_admissible,
        check_strong_admissible,
        check_weak_admissible,
    )
    from sfkit.cf import build_cf, diagram_algebra
    from sfkit.diskcount import niceness_report
    from sfkit.testrings import all_zero

    built = []
    original = DomainCalculator.__init__

    def counting(self, d):
        built.append(d)
        original(self, d)

    monkeypatch.setattr(DomainCalculator, "__init__", counting)
    d = _stabilized(name, k)
    data = DiagramData.build(d)
    hom = all_zero(diagram_algebra(d, homology=data.homology))
    for lattice in data.lattices:
        check_s_admissible(lattice)
        check_strong_admissible(lattice)
        check_weak_admissible(lattice, hom)
    for bi in range(len(data.lattices)):
        try:
            build_cf(d, bi, data=data)
        except NotAdmissibleError:
            pass
    try:
        niceness_report(data)
    except NotAdmissibleError:
        pass
    gens = d.generators()
    for x in gens:
        for y in gens:
            phi0 = data.calc.connecting(x, y)
            if phi0 is not None:
                maslov_index(d, phi0, x, y)
    assert built == [d]


# -- the mu = 0 sublattice -----------------------------------------------------
#
# PeriodicLattice.mu_zero splits the lattice as Z step + K0.  Checked from the
# domains themselves: mu at the lattice's generator, and the coordinates of
# (step, K0) over the calculator's basis, solved over the rationals.

MU_ZERO_CASES = [(name, 0) for name in corpus.corpus_names()] + [
    (name, k) for name in ("unknot", "trefoil") for k in (1, 2, 3)] + [
    ("grid2", k) for k in (1, 2)]


def _coordinates(basis, D):
    """The rational c with sum_b c_b basis_b = D (basis independent)."""
    rows = [[Fraction(v) for v in P] + [Fraction(int(b == i)) for i in range(len(basis))]
            for b, P in enumerate(basis)]
    target, coords = [Fraction(v) for v in D], [Fraction(0)] * len(basis)
    # eliminate columns: each basis row gets one pivot region
    for b in range(len(rows)):
        r = next(r for r in range(len(D)) if rows[b][r])
        for o in range(len(rows)):
            if o != b and rows[o][r]:
                f = rows[o][r] / rows[b][r]
                rows[o] = [u - f * v for u, v in zip(rows[o], rows[b])]
        f = target[r] / rows[b][r]
        target = [u - f * v for u, v in zip(target, rows[b][:len(D)])]
        coords = [u + f * v for u, v in zip(coords, rows[b][len(D):])]
    assert not any(target)
    return coords


def _det(matrix):
    m, det = [[Fraction(v) for v in row] for row in matrix], Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return det


def _assert_mu_zero(lattice):
    d, basis = lattice.diagram, lattice.basis
    g, step, K0 = lattice.mu_zero
    assert g == gcd(*lattice.mu) >= 0
    mu = [maslov_of_periodic(d, P, lattice.at) for P in ([step] if g else []) + K0]
    assert mu == [g] * bool(g) + [0] * len(K0)
    assert len(K0) == lattice.rank - bool(g)
    assert all(is_periodic(d, P) for P in ([step] if g else []) + K0)
    new = ([step] if g else []) + K0
    coords = [_coordinates(basis, P) for P in new]
    assert all(c.denominator == 1 for row in coords for c in row)
    assert abs(_det(coords)) == 1 if new else lattice.rank == 0


@pytest.mark.parametrize("name, k", MU_ZERO_CASES)
def test_mu_zero_splits_every_lattice(name, k):
    data = DiagramData.build(_stabilized(name, k))
    for lattice in data.lattices:
        _assert_mu_zero(lattice)
        assert lattice.mu_zero is lattice.mu_zero  # computed once


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=6))
def test_mu_zero_on_any_mu_row(mu):
    # the unit basis of Z^n with an arbitrary mu row: step and K0 are then
    # their own coordinates
    n = len(mu)
    unit = SimpleNamespace(periodic_basis=[[int(i == j) for j in range(n)] for i in range(n)])
    lattice = PeriodicLattice(calc=unit, mu=mu, at=None)
    g, step, K0 = lattice.mu_zero
    assert g == gcd(*mu)
    new = ([step] if g else []) + K0
    assert [sum(m * v for m, v in zip(mu, P)) for P in new] == [g] * bool(g) + [0] * len(K0)
    assert len(new) == n and (n == 0 or abs(_det(new)) == 1)
