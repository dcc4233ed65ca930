from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import algebra as alg
from sfkit import corpus
from sfkit.homology1 import h1_presentation
from sfkit.testrings import btau_hom


def knot_spec(n, variant=alg.PLAIN):
    return alg.build_algebra(alg.knot_components(n), 2 * n, variant=variant)


def test_knot_n1_free():
    spec = knot_spec(1)
    assert spec.describe() == "Z[λ1,λ2]"
    assert spec.relations == ()
    assert spec.kill == ()


def test_knot_n2_presentation():
    spec = knot_spec(2)
    assert spec.relation_strings() == ["λ1*λ2 + λ3*λ4 = λ1*λ4 + λ2*λ3"]


def test_knot_n3_presentation():
    spec = knot_spec(3)
    assert spec.relation_strings() == [
        "λ1*λ2 + λ3*λ4 + λ5*λ6 = λ1*λ6 + λ2*λ3 + λ4*λ5"
    ]


def test_knot_relation_monomials_match_display():
    # the two sides are exactly { l_{2j-1} l_{2j} } and { l_{2j} l_{2j+1} }
    for n in (2, 3):
        spec = knot_spec(n)
        (rel,) = spec.relations
        pos = {m for m, c in rel if c > 0}
        neg = {m for m, c in rel if c < 0}
        kappa = 2 * n

        def mono(i, j):
            v = [0] * kappa
            v[i] += 1
            v[j] += 1
            return tuple(v)

        assert pos == {mono(2 * j, 2 * j + 1) for j in range(n)}
        assert neg == {mono(2 * j + 1, (2 * j + 2) % kappa) for j in range(n)}


def test_normal_form_kills_relation():
    for n in (1, 2, 3):
        spec = knot_spec(n)
        plus, minus = {}, {}
        for side, _, marks in alg.knot_components(n):
            m = alg.component_monomial(marks, 2 * n)
            t = plus if side == "beta" else minus
            t[m] = t.get(m, 0) + 1
        assert spec.is_zero(alg.poly_sub(plus, minus))


def test_positive_genus_component_killed():
    spec = alg.diagram_algebra(corpus.load_diagram("genus2_pair"), variant=alg.TILDE)
    assert spec.nf_monomial((1,)) == {}
    # 1 survives
    assert spec.nf_monomial((0,)) == {(0,): 1}


def test_hat_variant_kills_all_components():
    d = corpus.load_diagram("unknot")
    spec = alg.diagram_algebra(d, variant=alg.HAT)
    assert spec.nf_monomial((1, 1)) == {}
    assert spec.nf_monomial((1, 0)) != {}


def test_chi_values():
    d = corpus.load_diagram("unknot")
    pres = h1_presentation(d)
    spec = alg.diagram_algebra(d, homology=pres)
    zero = pres.group.zero()
    assert spec.chi((0, 0)) == zero
    assert spec.chi((1, 1)) == zero  # chi(lambda(R^-)) = 0
    assert spec.chi((1, 0)) == pres.group.neg(spec.chi((0, 1)))
    assert spec.chi((1, 0)) != zero


def test_chi_additive():
    d = corpus.load_diagram("trefoil")
    pres = h1_presentation(d)
    spec = alg.diagram_algebra(d, homology=pres)
    for a in range(3):
        for b in range(3):
            lhs = spec.chi((a, b))
            rhs = pres.group.add(spec.chi((a, 0)), spec.chi((0, b)))
            assert lhs == rhs


def test_relations_chi_homogeneous():
    for name in ["unknot", "trefoil", "grid2", "special_hs"]:
        d = corpus.load_diagram(name)
        spec = alg.diagram_algebra(d, homology=h1_presentation(d))
        spec.assert_homogeneous_relations()


def nilpotent_monomial_check(spec, degree_bound=6):
    """The monomials up to ``degree_bound`` that survive while their square
    dies: empty when the square-free structure of the kill-list holds, as it
    must for genuine diagram data."""
    ranges = [range(degree_bound + 1) for _ in range(spec.nvars)]
    return [m for m in product(*ranges) if 0 < sum(m) <= degree_bound
            and spec.nf_monomial(m) and not spec.nf_monomial(alg.mono_mul(m, m))]


def test_nilpotent_monomial_checks():
    # killed monomials are consistently nilpotent; survivors never are
    d = corpus.load_diagram("genus2_pair")
    spec = alg.diagram_algebra(d, variant=alg.TILDE)
    assert nilpotent_monomial_check(spec, degree_bound=5) == []
    spec2 = knot_spec(2, variant=alg.TILDE)
    assert nilpotent_monomial_check(spec2, degree_bound=3) == []
    # trefoil tilde ring: exhaustive sweep
    spec3 = alg.diagram_algebra(corpus.load_diagram("trefoil"), variant=alg.TILDE)
    assert nilpotent_monomial_check(spec3, degree_bound=6) == []


def test_btau_unknot():
    d = corpus.load_diagram("unknot")
    pres = h1_presentation(d)
    comps = [
        (c.side, c.genus, c.marks)
        for side in ("alpha", "beta")
        for c in d.complement_components(side)
    ]
    spec = btau_hom(alg.build_algebra(comps, 2, homology=pres), pres).target.spec
    # l1^a l2^b dies as soon as a divisor has trivial free image: a, b >= 1
    assert spec.nf_monomial((1, 1)) == {}
    assert spec.nf_monomial((2, 3)) == {}
    assert spec.nf_monomial((3, 0)) != {}
    assert spec.nf_monomial((0, 2)) != {}
    assert spec.nf_monomial((0, 0)) != {}


def test_btau_torsion_only_homology_kills_everything():
    d = corpus.load_diagram("torus_lens")
    pres = h1_presentation(d)  # Z/2: free part trivial
    spec = btau_hom(alg.build_algebra([], 1, homology=pres), pres).target.spec
    assert spec.nf_monomial((1,)) == {}
    assert spec.nf_monomial((0,)) != {}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)), min_size=0, max_size=4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)), min_size=0, max_size=4),
)
def test_normal_form_is_ring_homomorphism(terms_a, terms_b):
    # nf(a*b) == nf(nf(a)*nf(b)) and nf(a+b) == nf(nf(a)+nf(b)) in R_tau(n=2)
    spec = knot_spec(2)
    a = {}
    for x1, x2, x3, x4, c in terms_a:
        a = alg.poly_add(a, {(x1, x2, x3, x4): c})
    b = {}
    for x1, x2, x3, x4, c in terms_b:
        b = alg.poly_add(b, {(x1, x2, x3, x4): c})
    assert spec.mul(a, b) == spec.mul(spec.normal_form(a), spec.normal_form(b))
    assert spec.add(a, b) == spec.add(spec.normal_form(a), spec.normal_form(b))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)
def test_ideal_membership_invariance(m1, m2):
    # adding a multiple of the relation never changes the normal form
    spec = knot_spec(2)
    (rel,) = spec.relations
    relmap = {m: c for m, c in rel}
    e = {m1: 3, m2: -2}
    shifted = alg.poly_add(e, alg.poly_mono_mul(relmap, m2, 1))
    assert spec.normal_form(e) == spec.normal_form(shifted)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
        min_size=1, max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_normal_form_confluent_under_random_orders(terms, rng):
    # reduce with randomly ordered rule applications: the result must agree
    # with the engine's canonical normal form
    spec = knot_spec(2)
    e = {}
    for x1, x2, x3, x4, c in terms:
        e = alg.poly_add(e, {(x1, x2, x3, x4): c})

    def random_reduce(p):
        p = dict(p)
        for _ in range(200):
            candidates = []
            for m in p:
                for lead, tail in spec.rules:
                    if alg.mono_divides(lead, m):
                        candidates.append((m, lead, tail))
            if not candidates:
                return p
            m, lead, tail = rng.choice(candidates)
            c = p.pop(m)
            p = alg.poly_add(p, alg.poly_mono_mul(tail, alg.mono_div(m, lead), c))
        return p

    assert random_reduce(e) == spec.normal_form(e)


def test_completion_nonunit_escape():
    # a relation with leading coefficient 2 must be rejected, not mangled
    with pytest.raises(alg.CompletionError) as err:
        spec = alg.AlgebraSpec(names=("x",), relations=(( ((2,), 2), ((0,), -1)),))
        spec.rules
    assert err.value.code == "COMPLETION_NONUNIT"
