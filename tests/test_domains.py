from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import corpus, snf
from sfkit.diagram import ALPHA, BETA
from sfkit.domains import (
    DomainCalculator,
    NonDomainError,
    corner_matrix,
    corner_target,
    euler_measure,
    full_surface_domain,
    generator_measure,
    marked_multiplicities,
    maslov_index,
    maslov_of_periodic,
)

CORPUS = [
    "torus_min", "unknot", "trefoil", "grid2", "torus_lens",
    "sphere_split", "special_hs", "genus2_pair",
]


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
    calc = DomainCalculator(d)
    for side in (ALPHA, BETA):
        for comp in d.complement_components(side):
            P = d.component_domain(comp)
            assert calc.is_periodic(P)
            assert maslov_of_periodic(d, P, at) == 2 - 2 * comp.genus


@pytest.mark.parametrize("name", CORPUS)
def test_full_surface_domain_periodic_allones_marks(name):
    d = corpus.load_diagram(name)
    calc = DomainCalculator(d)
    S = full_surface_domain(d)
    assert calc.is_periodic(S)
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
            con = calc.connecting(x, y)
            if not con.exists:
                assert oracle == []
                continue
            # reproduce the box contents from particular + lattice
            found = set()
            rank = len(con.periodic_basis)
            for t in product(range(-6, 7), repeat=rank):
                vec = list(con.particular)
                for c, b in zip(t, con.periodic_basis):
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
    con = calc.connecting(x1, x0)
    assert con.exists
    # the visible bigon D1 = region 0 solves the system
    bigon = [1, 0, 0]
    assert calc.is_domain(bigon, x1, x0)
    assert maslov_index(d, bigon, x1, x0, calc) == 1
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
    con = calc.connecting(gens[0], gens[1])
    assert not con.exists
    assert brute_force_domains(d, gens[0], gens[1]) == []


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
    calc = DomainCalculator(d)
    gens = d.generators()
    x, y = gens[1], gens[0]
    D = [1, 0, 0]
    P = [a + b, a + b, a + b]  # lattice is Z * Sigma
    DP = [u + v for u, v in zip(D, P)]
    assert maslov_index(d, DP, x, y, calc) == maslov_index(d, D, x, y, calc) + maslov_of_periodic(d, P, x)


def test_connecting_is_equivalence():
    # symmetry via negation and transitivity via addition
    for name in CORPUS:
        d = corpus.load_diagram(name)
        calc = DomainCalculator(d)
        gens = d.generators()
        n = len(gens)
        table = [[calc.connecting(gens[i], gens[j]).exists for j in range(n)] for i in range(n)]
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
            con = calc.connecting(x, y)
            if not con.exists:
                continue
            for t in product(range(-2, 3), repeat=len(basis)):
                D = list(con.particular)
                for c, vec in zip(t, basis):
                    D = [u + c * v for u, v in zip(D, vec)]
                if any(v < 0 for v in D):
                    continue
                mu = _reference_maslov(d, D, x, y)
                assert mu == euler_measure(d, D) + generator_measure(d, D, x) + generator_measure(d, D, y)
                assert mu.denominator == 1
                assert maslov_index(d, D, x, y, calc) == mu
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
        calc = DomainCalculator(d)
        A = corner_matrix(d)
        gens = d.generators()
        for x, y in product(gens, repeat=2):
            tgt = corner_target(d, x, y)
            for vec in product(range(-1, 2), repeat=len(d.regions)):
                assert calc.is_domain(list(vec), x, y) == (snf.mat_vec(A, list(vec)) == tgt)
        for vec in product(range(-1, 2), repeat=len(d.regions)):
            assert calc.is_periodic(vec) == all(v == 0 for v in snf.mat_vec(A, list(vec)))
