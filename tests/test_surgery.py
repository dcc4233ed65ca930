import pytest

from sfkit import algebra as alg
from sfkit.surgery import (
    BadMultiplicityError,
    _substituted_ideal,
    build_surgery_rings,
)


def rings(n=1, m=(1, 1, 1)):
    return build_surgery_rings(alg.knot_components(n), 2 * n, *m)


def lam_p(spec):
    return tuple(1 if i == 0 else 0 for i in range(spec.nvars))


def test_unit_multiplicities_collapse():
    sr = rings(m=(1, 1, 1))
    one = alg.one(sr.r.nvars)
    assert sr.r.equal({lam_p(sr.r): 1}, {one: 1})
    # B = R: xi_p becomes 1 as well
    xi = tuple(1 if i == 0 else 0 for i in range(sr.b.nvars))
    assert sr.b.equal({xi: 1}, {alg.one(sr.b.nvars): 1})


def test_general_multiplicity_relation():
    sr = rings(m=(3, 2, 1))
    # lambda_p = l0^2 l1^1 l2^0
    target = tuple([0, 2, 1, 0])
    assert sr.r.equal({lam_p(sr.r): 1}, {target: 1})
    # in B, xi_p * lambda_p = 1
    nb = sr.b.nvars
    xi_lam = tuple(1 if i in (0, 1) else 0 for i in range(nb))
    assert sr.b.equal({xi_lam: 1}, {alg.one(nb): 1})


def test_iota_ring_maps_and_common_product():
    for m in [(1, 1, 1), (2, 1, 1), (2, 3, 1)]:
        sr = rings(m=m)
        imgs = [sr.iotas[i].apply_monomial((1, 1)) for i in range(3)]
        # iota^i(zeta_1 zeta_2) = lambda_p l0 l1 l2 independent of i
        assert imgs[0] == imgs[1] == imgs[2]
        for i in range(3):
            h = sr.iotas[i]
            for a, b in [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((0, 3), (3, 0))]:
                lhs = h.apply_monomial(alg.mono_mul(a, b))
                rhs = sr.b.mul(h.apply_monomial(a), h.apply_monomial(b))
                assert sr.b.equal(lhs, rhs)


def test_pair_hypothesis_enforced():
    # every component must contain both distinguished sutures or neither;
    # the 4-suture knot boundary violates this for the pair (1, 2)
    with pytest.raises(ValueError):
        build_surgery_rings(alg.knot_components(2), 4, 2, 1, 1)


def synthetic_base():
    # kappa = 4 with a genuine relation respecting the pair hypothesis:
    # lambda^+ = z1 z2 + z3 z4, lambda^- = z1 z2 z3 z4
    return [
        ("beta", 0, (0, 1)),
        ("beta", 0, (2, 3)),
        ("alpha", 0, (0, 1, 2, 3)),
    ]


def test_substituted_ideal_by_hand():
    # exponents over (lambda_p, lambda_0, lambda_1, lambda_2, lambda_3, lambda_4):
    # the pair z1 z2 becomes lambda_p l0 l1 l2, and z3, z4 become l3, l4
    comps = [
        ("beta", 2, (0, 1, 2)),
        ("alpha", 0, (0, 1, 3)),
        ("alpha", 1, (2, 3)),
        ("beta", 0, (3, 3)),
    ]
    kill, relations = _substituted_ideal(comps, 4)
    assert kill == ((0, 0, 0, 0, 1, 1), (1, 1, 1, 1, 1, 0))
    (rel,) = relations
    assert dict(rel) == {
        (1, 1, 1, 1, 1, 0): 1, (0, 0, 0, 0, 0, 2): 1,
        (1, 1, 1, 1, 0, 1): -1, (0, 0, 0, 0, 1, 1): -1,
    }
    assert _substituted_ideal(alg.knot_components(1), 2) == ((), ())


def test_iota_base_relation_killed():
    sr = build_surgery_rings(synthetic_base(), 4, 2, 1, 1)
    (rel,) = sr.base.relations
    for i in range(3):
        img = sr.iotas[i].apply({m: c for m, c in rel})
        assert sr.b.is_zero(img)


def test_ring_m():
    sr = rings(m=(4, 1, 1))
    rm = sr.ring_m(4)
    nv = rm.nvars
    l0_4 = tuple(4 if i == 1 else 0 for i in range(nv))
    assert rm.equal({l0_4: 1}, {alg.one(nv): 1})
    # lambda_p = l0^3
    l0_3 = tuple(3 if i == 1 else 0 for i in range(nv))
    assert rm.equal({lam_p(rm): 1}, {l0_3: 1})
    # m = 1 collapses to lambda_p = 1 = lambda_0
    rm1 = sr.ring_m(1)
    l0 = tuple(1 if i == 1 else 0 for i in range(rm1.nvars))
    assert rm1.equal({l0: 1}, {alg.one(rm1.nvars): 1})
    with pytest.raises(BadMultiplicityError):
        sr.ring_m(0)


def test_chi_extension():
    # chi(lambda_p) = -(chi_0 + chi_1 + chi_2) and all relations homogeneous
    sr = rings(m=(2, 3, 1))
    group = sr.rhat.chi_group
    chi = sr.rhat.chi_classes
    total = group.add(chi[1], group.add(chi[2], chi[3]))
    assert chi[0] == group.neg(total)
    sr.rhat.assert_homogeneous_relations()
    sr.r.assert_homogeneous_relations()
    sr.b.assert_homogeneous_relations()


def test_ring_m_chi_quotient():
    # knot base: H = Z^3 / <m0 c0 + m1 c1 + m2 c2>; Ring_m divides further by
    # m c0, creating the m-torsion of the paper's H_m display
    sr = rings(m=(3, 1, 1))
    assert sr.rhat.chi_group.describe() == "Z + Z"
    assert sr.ring_m(3).chi_group.describe() == "Z + Z/3"
    assert sr.ring_m(4).chi_group.describe() == "Z + Z/4"


def test_bad_multiplicity():
    with pytest.raises(BadMultiplicityError):
        rings(m=(0, 1, 1))
    with pytest.raises(BadMultiplicityError):
        rings(m=(1, -2, 1))
