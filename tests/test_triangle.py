import pytest

from sfkit import algebra as alg
from sfkit.cf import diagram_algebra
from sfkit.cones import ChainMap, free_complex, mapping_cone
from sfkit.snf import ZpRing
from sfkit.testrings import all_zero
from sfkit.triangle import (
    HypothesisFailed,
    TriangleSystem,
    triangle_machine,
    verify_filtered_system,
)

TRIVIAL = alg.AlgebraSpec(names=())


def cone_rotation_system(spec, g_element, rank=2, cosets=None, gradings=None):
    """B --g--> C --incl--> cone(g) --proj--> B, with the standard
    null-homotopies: H0(b) = (b, 0), H1 = 0, H2(b, c) = c."""
    names = [f"e{i}" for i in range(rank)]
    B = free_complex(spec, names, cosets=cosets, gradings=gradings)
    C = free_complex(spec, names, cosets=cosets, gradings=gradings)
    g_nf = spec.normal_form(g_element)
    gmap = ChainMap(source=B, target=C,
                    entries={(i, i): g_nf for i in range(rank)})
    cone = mapping_cone(gmap)
    f0 = {(i, i): g_nf for i in range(rank)}
    f1 = {(rank + i, i): spec.normal_form({alg.one(spec.nvars): 1}) for i in range(rank)}
    f2 = {(i, i): spec.normal_form({alg.one(spec.nvars): 1}) for i in range(rank)}
    one = spec.normal_form({alg.one(spec.nvars): 1})
    H0 = {(i, i): one for i in range(rank)}
    H1 = {}
    H2 = {(i, rank + i): one for i in range(rank)}
    return TriangleSystem(complexes=[B, C, cone], maps=[f0, f1, f2],
                          homotopies=[H0, H1, H2])


def test_integer_system():
    system = cone_rotation_system(TRIVIAL, {(): 2})
    homs = [all_zero(TRIVIAL), all_zero(TRIVIAL, ZpRing(2))]
    res = triangle_machine(system, homs)
    assert all(res.alpha_quasi_iso)
    assert set(res.phi_parity) <= {1, -1}


def test_mod2_system():
    system = cone_rotation_system(TRIVIAL, {(): 3})
    homs = [all_zero(TRIVIAL, ZpRing(2))]
    res = triangle_machine(system, homs)
    assert all(res.alpha_quasi_iso)


def test_filtered_system():
    # over the knot ring Z[l1, l2] with g = multiplication by l1*l2, which is
    # chi-homogeneous of degree zero in H = Z
    from sfkit import corpus
    from sfkit.homology1 import h1_presentation

    d = corpus.load_diagram("unknot")
    pres = h1_presentation(d)
    spec = diagram_algebra(d, homology=pres)
    zero = pres.group.zero()
    system = cone_rotation_system(
        spec, {(1, 1): 1}, cosets=[zero, zero], gradings=None
    )
    verify_filtered_system(system)
    homs = [all_zero(spec), all_zero(spec, ZpRing(2))]
    res = triangle_machine(system, homs)
    assert all(res.alpha_quasi_iso)


def test_sabotage_missing_homotopy():
    system = cone_rotation_system(TRIVIAL, {(): 2})
    system.homotopies[0] = {}
    with pytest.raises(HypothesisFailed) as err:
        triangle_machine(system, [all_zero(TRIVIAL)])
    assert "null-homotopy" in str(err.value)


def test_sabotage_zero_maps():
    # all f_i = 0, H_i = 0: hypothesis (2) fails, phi is not an equivalence
    B = free_complex(TRIVIAL, ["e"])
    system = TriangleSystem(
        complexes=[B, B, B], maps=[{}, {}, {}], homotopies=[{}, {}, {}]
    )
    with pytest.raises(HypothesisFailed) as err:
        triangle_machine(system, [all_zero(TRIVIAL)])
    assert "phi" in str(err.value)


def test_sabotage_non_chain_map():
    D = free_complex(TRIVIAL, ["a", "b"], entries={(1, 0): {(): 1}})
    bad = {(0, 1): {(): 1}}  # b -> a does not commute with d
    system = TriangleSystem(
        complexes=[D, D, D],
        maps=[bad, bad, bad],
        homotopies=[{}, {}, {}],
    )
    with pytest.raises(HypothesisFailed):
        triangle_machine(system, [all_zero(TRIVIAL)])
