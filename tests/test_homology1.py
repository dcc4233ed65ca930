import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_cokernel, dense, dense_cokernel
from sfkit import corpus, snf
from sfkit.diagram import ALPHA, BETA, HeegaardDiagram
from sfkit.homology1 import (
    build_chain_model,
    curves_independent,
    h1_presentation,
    surface_h1,
)


def test_torus_min_h1_trivial():
    # solid-torus-like piece with one suture: H_1(X) = 0, PD[gamma_1] = 0
    pres = h1_presentation(corpus.load_diagram("torus_min"))
    assert pres.group.moduli == ()  # H_1(X) = 0
    assert pres.pd_classes[0] == pres.group.zero()


def test_unknot_h1():
    # unknot complement: H = Z, the two meridian classes opposite generators
    pres = h1_presentation(corpus.load_diagram("unknot"))
    assert pres.group.describe() == "Z"
    g1, g2 = pres.pd_classes
    assert g1 == pres.group.neg(g2)
    assert g1 != pres.group.zero()


def test_trefoil_h1():
    pres = h1_presentation(corpus.load_diagram("trefoil"))
    assert pres.group.describe() == "Z"
    g1, g2 = pres.pd_classes
    assert g1 == pres.group.neg(g2) and g1 != pres.group.zero()


def test_torus_lens_h1_torsion():
    # the (1,2)-curve pair gives H_1(X) = Z/2 with trivial suture class
    pres = h1_presentation(corpus.load_diagram("torus_lens"))
    assert pres.group.describe() == "Z/2"
    assert pres.group.moduli == (2,)
    assert pres.pd_classes[0] == pres.group.zero()


def test_sphere_bad_h1_trivial():
    pres = h1_presentation(corpus.load_diagram("sphere_bad"))
    assert pres.group.moduli == ()  # H_1(X) = 0


def test_grid2_h1():
    pres = h1_presentation(corpus.load_diagram("grid2"))
    assert pres.group.describe() == "Z"
    a, b, c, d = pres.pd_classes
    # rows pair {0,1} and {2,3}; columns pair {0,2} and {1,3}: all component
    # sums vanish
    zero = pres.group.zero()
    assert pres.group.add(a, b) == zero
    assert pres.group.add(c, d) == zero
    assert pres.group.add(a, c) == zero


def test_component_boundaries_vanish_in_h():
    # PD[boundary of every complement component] = 0
    for name in ["unknot", "trefoil", "grid2", "special_hs", "genus2_pair"]:
        d = corpus.load_diagram(name)
        pres = h1_presentation(d)
        for side in (ALPHA, BETA):
            for comp in d.complement_components(side):
                exps = [0] * d.num_marks
                for m in comp.marks:
                    exps[m] += 1
                assert pres.chi_of_exponents(exps) == pres.group.zero()


def test_surface_h1_rank():
    # H_1(Sigma - z) is free of rank 2g + kappa - 1
    for name, expected in [
        ("torus_min", 2), ("unknot", 3), ("trefoil", 3),
        ("sphere_bad", 2), ("genus2_pair", 4), ("grid2", 5),
    ]:
        d = corpus.load_diagram(name)
        group, curves, punct = surface_h1(d)
        assert group.describe() == " + ".join(["Z"] * expected)
        # the puncture classes sum to zero (they bound the surface together)
        total = group.zero()
        for v in punct:
            total = group.add(total, v)
        assert total == group.zero()


def test_stabilized_suture_class():
    # stabilization inserts a pair of sutures whose classes cancel against
    # the old one: PD[new lens suture] = -PD[gamma_k]-compatible pattern
    from sfkit.stabilize import stabilize_diagram

    d = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d, 1)
    pres = h1_presentation(dhat)
    g = pres.pd_classes
    zero = pres.group.zero()
    # lens mark (index 2) and the two bounding marks: A-disk component has
    # marks {2, 3}, B-disk {1, 2}: both sums vanish
    assert pres.group.add(g[2], g[3]) == zero
    assert pres.group.add(g[1], g[2]) == zero
    # so the new class equals the old gamma_2 (index 1)
    assert g[3] == g[1]
    assert g[2] == pres.group.neg(g[1])


# -- spanning-forest coordinates against a fresh factorization per cycle ------


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


def _boundary1(model):
    """The dense boundary matrix of the chain model: rows vertices, columns
    edges."""
    rows = [[0] * len(model.edges) for _ in range(model.vertices)]
    for pos, (tail, head) in enumerate(model.edges):
        rows[head][pos] += 1
        rows[tail][pos] -= 1
    return rows


def _model_cycles(model):
    """Every cycle the surface model expresses, cells, curves, punctures, as
    dense edge vectors."""
    return [dense(c, len(model.edges)) for c in (
        model.cell_columns + list(model.curve_cycles.values()) + model.puncture_cycles)]


def _coordinates(m):
    """The surface model's cells, curves and punctures as dense coordinate
    vectors."""
    return [dense(v, m.rank) for v in m.cells + list(m.curves.values()) + m.punctures]


def _reference_h1_presentation(d):
    """h1_presentation in the coordinates of the Smith-form kernel basis K of
    boundary1, with a fresh Smith normal form of K for every cycle.

    Returns K (a list of kernel vectors over the edges), the coordinates of
    every model cycle in that basis, the group and the pd classes."""
    model = build_chain_model(d)
    kernel = snf.kernel_basis(_boundary1(model)) if model.edges else []
    K = [[kernel[b][e] for b in range(len(kernel))] for e in range(len(model.edges))]

    def express(cycle):
        return snf.solve_integer(K, cycle) if kernel else []

    coords = [express(c) for c in _model_cycles(model)]
    n_cells, n_curves = len(model.cell_columns), len(model.curve_cycles)
    group = dense_cokernel(coords[:n_cells + n_curves], len(kernel))
    pd = [group.project(v) for v in coords[n_cells + n_curves:]]
    return kernel, coords, group, pd


def _det(M):
    from fractions import Fraction

    A = [[Fraction(x) for x in row] for row in M]
    out = Fraction(1)
    for j in range(len(A)):
        piv = next((i for i in range(j, len(A)) if A[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            A[j], A[piv] = A[piv], A[j]
            out = -out
        out *= A[j][j]
        for i in range(j + 1, len(A)):
            f = A[i][j] / A[j][j]
            A[i] = [x - f * y for x, y in zip(A[i], A[j])]
    return out


@pytest.mark.parametrize("name, k", CORPUS_AND_LADDER)
def test_h1_presentation_matches_fresh_solves(name, k):
    # the forest basis and the Smith-form basis K of ker(boundary1) differ by
    # M, the rows of K at the non-forest edges: M must be unimodular, carry
    # every cycle's old coordinates to its new ones, and so induce an
    # isomorphism of H that carries the old pd classes to the new ones
    d = _stabilized(name, k)
    hp = h1_presentation(d)
    m = d.surface_model
    kernel, old, group, pd = _reference_h1_presentation(d)
    cotree = build_chain_model(d).cotree
    M = [[vec[e] for vec in kernel] for e in cotree]
    assert len(M) == m.rank == len(kernel)
    assert abs(_det(M)) == 1
    new = _coordinates(m)
    assert [snf.mat_vec(M, v) for v in old] == new
    assert hp.group.moduli == group.moduli
    n_rel = len(m.cells) + len(m.curves)
    zero = hp.group.zero()
    for rel in old[:n_rel]:
        assert hp.group.project(snf.mat_vec(M, rel)) == zero
    for v, old_class, new_class in zip(old[n_rel:], pd, hp.pd_classes, strict=True):
        assert hp.group.project(snf.mat_vec(M, v)) == new_class
        assert (old_class == group.zero()) == (new_class == zero)
    for a in range(len(pd)):
        for b in range(len(pd)):
            assert (pd[a] == pd[b]) == (hp.pd_classes[a] == hp.pd_classes[b])
            assert (group.add(pd[a], pd[b]) == group.zero()) == (
                hp.group.add(hp.pd_classes[a], hp.pd_classes[b]) == zero)


def _fundamental_cycles(model):
    """The cycle of each non-forest edge: the edge and the forest path from
    its head back to its tail, as edge-coefficient vectors."""
    forest = {}
    for pos, (tail, head) in enumerate(model.edges):
        if pos not in model.cotree:
            forest.setdefault(tail, []).append((head, pos, 1))
            forest.setdefault(head, []).append((tail, pos, -1))

    def path(src, dst):
        # depth-first search in the forest: src -> dst as a chain
        stack, seen = [(src, [0] * len(model.edges))], {src}
        while stack:
            v, chain = stack.pop()
            if v == dst:
                return chain
            for w, pos, sign in forest.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    step = list(chain)
                    step[pos] += sign
                    stack.append((w, step))
        raise AssertionError("non-forest edge joins two trees")

    cycles = []
    for pos in model.cotree:
        tail, head = model.edges[pos]
        chain = path(head, tail)
        chain[pos] += 1
        cycles.append(chain)
    return cycles


@pytest.mark.parametrize("name, k", CORPUS_AND_LADDER)
def test_forest_coordinates_form_a_basis(name, k):
    # each model cycle is the sum of the fundamental cycles weighted by its
    # coordinates, every fundamental cycle is a cycle, and their number is
    # the rank E - V + components of the cycle group
    d = _stabilized(name, k)
    model = build_chain_model(d)
    fundamental = _fundamental_cycles(model)
    boundary = _boundary1(model)
    for z in fundamental:
        assert not any(snf.mat_vec(boundary, z))
    root = list(range(model.vertices))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for tail, head in model.edges:
        root[find(tail)] = find(head)
    components = sum(1 for v in range(model.vertices) if find(v) == v)
    assert len(model.cotree) == len(model.edges) - model.vertices + components
    m = d.surface_model
    assert m.rank == len(model.cotree)
    new = _coordinates(m)
    for cycle, coords in zip(_model_cycles(model), new, strict=True):
        rebuilt = [0] * len(model.edges)
        for c, z in zip(coords, fundamental, strict=True):
            rebuilt = [a + c * b for a, b in zip(rebuilt, z)]
        assert rebuilt == cycle


# -- unit-pivot elimination against one dense Smith form ------------------------


@pytest.mark.parametrize("name, k", CORPUS_AND_LADDER + [("unknot", 3), ("trefoil", 3)])
def test_presentations_match_dense_smith_form(name, k, monkeypatch):
    # H1(X) and H1(Sigma - z) against the dense Smith form of all their
    # relations, on the puncture and curve classes and on random vectors;
    # unit pivots leave a residual of at most 2 generators and 1 relation
    d = _stabilized(name, k)
    m = d.surface_model
    smith = []
    original = snf.smith_normal_form

    def recording(A, ring=snf.ZZ):
        smith.append((len(A), len(A[0]) if A else 0))
        return original(A, ring)

    with monkeypatch.context() as patch:
        patch.setattr(snf, "smith_normal_form", recording)
        h1, surface = h1_presentation(d).group, m.group
    assert all(rows <= 2 and cols <= 1 for rows, cols in smith), smith
    rng = random.Random(f"{name}+{k}")
    probes = m.punctures + list(m.curves.values()) + [
        [rng.randint(-3, 3) for _ in range(m.rank)] for _ in range(4)]
    check_cokernel(h1, m.cells + list(m.curves.values()), m.rank, probes)
    check_cokernel(surface, m.cells, m.rank, probes)


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_chain_model_built_once_per_diagram(name, monkeypatch):
    # DiagramData asks for H1 and surface_h1 for H1(Sigma - z): both read one
    # chain model (validate() reads none)
    from sfkit import homology1
    from sfkit.cf import DiagramData

    built = []
    original = homology1.build_chain_model

    def counting(d):
        built.append(d)
        return original(d)

    monkeypatch.setattr(homology1, "build_chain_model", counting)
    d = corpus.load_diagram(name)
    assert d.validate().ok
    DiagramData.build(d)
    surface_h1(d)
    assert len(built) == 1


# -- curve independence against the Smith form of H1(Sigma - z) ----------------


def reference_curves_independent(d, side):
    """The criterion the component one replaced: the rank over Q of the
    side's curve classes in the free part of H1(Sigma - z), from the Smith
    form of the surface model."""
    m = d.surface_model
    curves = d.alpha if side == ALPHA else d.beta
    if not curves:
        return True
    free_cols = [i for i, mod in enumerate(m.group.moduli) if mod == 0]
    if not free_cols:
        return False
    mat = []
    for ci in range(len(curves)):
        full = m.group.project(m.curves[(side, ci)])
        mat.append([full[i] for i in free_cols])
    return snf.rank_over_field(mat) == len(curves)


# every corpus diagram, and the unknot, the trefoil and grid2 stabilized once
# and twice
MARKED_BASES = CORPUS_AND_LADDER + [("grid2", 1), ("grid2", 2)]


_base = lru_cache(maxsize=None)(_stabilized)


def _with_marks(name, k, regions):
    """The diagram with mark i in region regions[i], and no other marks."""
    data = _base(name, k).to_dict()
    for r in data["regions"]:
        r["marks"] = []
    for m, ri in enumerate(regions):
        data["regions"][ri]["marks"].append(m)
    data["marks"] = len(regions)
    return HeegaardDiagram.from_dict(data)


def _assert_criteria_agree(d):
    got = [curves_independent(d, side) for side in (ALPHA, BETA)]
    assert got == [reference_curves_independent(d, side) for side in (ALPHA, BETA)]
    return got


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_curve_independence_matches_smith_form(data):
    # random mark placements, from no marks to one more than the diagram has
    name, k = data.draw(st.sampled_from(MARKED_BASES))
    d = _base(name, k)
    regions = data.draw(st.lists(st.integers(0, len(d.regions) - 1),
                                 max_size=d.num_marks + 1))
    _assert_criteria_agree(_with_marks(name, k, tuple(regions)))


@pytest.mark.parametrize("name, k", MARKED_BASES)
def test_curve_independence_matches_smith_form_on_extreme_marks(name, k):
    # the diagram itself, no marks, one mark in each region in turn, and one
    # mark in every region (independent); a side with two or more components
    # is dependent under some of these placements
    d = _base(name, k)
    n = len(d.regions)
    answers = [_assert_criteria_agree(d), _assert_criteria_agree(_with_marks(name, k, ()))]
    answers += [_assert_criteria_agree(_with_marks(name, k, (r,))) for r in range(n)]
    assert _assert_criteria_agree(_with_marks(name, k, tuple(range(n)))) == [True, True]
    if max(len(d.complement_components(side)) for side in (ALPHA, BETA)) > 1:
        assert any(False in a for a in answers)
