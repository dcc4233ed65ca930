import pytest

from sfkit import algebra as alg
from sfkit import corpus
from sfkit.cf import diagram_algebra
from sfkit.cli import coefficient_ring
from sfkit.homology1 import h1_presentation
from sfkit.snf import QRing, ZRing, ZpRing
from sfkit.testrings import (
    FpURing,
    HomError,
    all_zero,
    algebra_hom,
    btau_hom,
    identity_hom,
    to_U,
)


def test_all_zero_factors_through_augmentation():
    spec = alg.build_algebra(alg.knot_components(2), 4)
    hom = all_zero(spec)
    assert hom.filtration_compatible
    assert hom.apply({(0, 0, 0, 0): 5}) == 5
    assert hom.apply({(1, 0, 0, 0): 3}) == 0
    assert hom.apply({(0, 0, 0, 0): 2, (1, 2, 0, 1): 7}) == 2


def test_to_U_on_free_knot_ring():
    spec = alg.build_algebra(alg.knot_components(1), 2)
    hom = to_U(spec)
    U = hom.target.U(1)
    assert hom.apply_monomial((1, 0)) == U
    assert hom.apply_monomial((1, 1)) == hom.target.U(2)


def test_to_U_compatibility_needs_factorization():
    # unknot: chi(l1) = -chi(l2) != 0 in H = Z, and U-exponents cannot be
    # negative, so every nonconstant U-specialization collapses the
    # filtration; only the trivial weights are chi-compatible
    d = corpus.load_diagram("unknot")
    spec = diagram_algebra(d, homology=h1_presentation(d))
    assert to_U(spec).filtration_compatible is False
    assert to_U(spec, weights=(1, 0)).filtration_compatible is False
    assert to_U(spec, weights=(0, 0)).filtration_compatible is True


def test_to_U_rejects_killed_monomials():
    d = corpus.load_diagram("genus2_pair")
    spec = diagram_algebra(d, variant=alg.TILDE)
    with pytest.raises(HomError) as err:
        to_U(spec)
    assert err.value.code == "RELATION_NOT_KILLED"


def test_btau_hom_kills_pair():
    d = corpus.load_diagram("unknot")
    pres = h1_presentation(d)
    spec = diagram_algebra(d, homology=pres)
    hom = btau_hom(spec, pres)
    assert hom.target.is_zero(hom.apply_monomial((1, 1)))
    assert not hom.target.is_zero(hom.apply_monomial((2, 0)))


def test_identity_hom_roundtrip():
    spec = alg.build_algebra(alg.knot_components(2), 4)
    hom = identity_hom(spec)
    e = {(1, 1, 0, 0): 1}
    assert hom.apply(e) == spec.normal_form(e)


def test_algebra_hom_verifies_relations():
    # sending all variables of the n=2 knot ring to the same image kills the
    # relation; sending only some to zero must fail verification
    spec = alg.build_algebra(alg.knot_components(2), 4)
    target = alg.build_algebra(alg.knot_components(1), 2)
    one = {(0, 0): 1}
    ok = algebra_hom(spec, target, [{(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, {(0, 1): 1}])
    assert ok.apply_monomial((1, 1, 0, 0)) == target.normal_form({(1, 1): 1})
    with pytest.raises(HomError):
        algebra_hom(spec, target, [{(1, 0): 1}, {(0, 1): 1}, {}, {}])


def test_fpu_arithmetic():
    R = FpURing(2)
    U = R.U(1)
    assert R.mul(U, U) == R.U(2)
    assert R.add(U, U) == R.zero()
    q, r = R.divmod(R.U(3), R.U(1))
    assert q == R.U(2) and r == ()


def test_coefficient_ring_parsing():
    assert isinstance(coefficient_ring("Z"), ZRing)
    assert isinstance(coefficient_ring("Q"), QRing)
    zp = coefficient_ring("Zp:5")
    assert isinstance(zp, ZpRing) and zp.p == 5
    fu = coefficient_ring("F2U")
    assert isinstance(fu, FpURing) and fu.p == 2
    with pytest.raises(ValueError):
        coefficient_ring("nope")
