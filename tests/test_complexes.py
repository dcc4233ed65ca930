import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import algebra as alg
from sfkit import corpus, snf
from sfkit.cf import DiagramData, build_cf
from sfkit.complexes import ComplexError, FilteredComplex, TaintRecord, _compose, homology
from sfkit.cones import (
    ChainMap,
    free_complex,
    les_check,
    mapping_cone,
    monomial_fiber,
    multiplication_map,
    piecewise_homology,
    quasi_iso_over,
)
from sfkit.snf import ZRing
from sfkit.testrings import (
    AlgebraTarget,
    QRing,
    ZpRing,
    all_zero,
    identity_hom,
    to_U,
)

TRIVIAL = alg.AlgebraSpec(names=())


def test_unknot_complex():
    d = corpus.load_diagram("unknot")
    c = build_cf(d, 0)
    assert c.rank == 1 and c.entries == {} and not c.taints
    h = homology(c.tensor(all_zero(c.algebra)))
    assert h.total_rank() == 1 and not h.torsion_summands()


def test_trefoil_complex_entries():
    d = corpus.load_diagram("trefoil")
    c = build_cf(d, 0)
    assert c.rank == 3
    assert c.entries == {
        (0, 1): {(0, 1): 1},
        (2, 1): {(1, 0): 1},
    }
    assert len(c.taints) == 2
    # honest: over the full ring the complex is tainted
    with pytest.raises(ComplexError):
        homology(c.tensor(identity_hom(c.algebra)))
    # over all-zero the taints die and SFH has rank 3 in three cosets
    h = homology(c.tensor(all_zero(c.algebra)))
    assert h.total_rank() == 3
    assert len(h.pieces) == 3


def test_trefoil_decomposition():
    d = corpus.load_diagram("trefoil")
    c = build_cf(d, 0)
    summands = c.decompose()
    assert [s.rank for s in summands] == [1, 1, 1]
    # direct sum reassembles: entries vanish between distinct cosets, so all
    # differentials die in the splitting (each bigon changes the coset)
    assert all(s.entries == {} for s in summands)


def test_decomposition_renumbers_taints():
    # a taint inside a summand is renumbered to the summand's generators
    c = FilteredComplex(ring=ZRing(), gen_names=["a", "b", "c"],
                        cosets=[(0,), (1,), (1,)], gradings=[0, 0, 0], entries={},
                        taints=[TaintRecord(source=2, target=1, weight=(1,))])
    first, second = c.decompose()
    assert first.taints == [] and second.gen_names == ["b", "c"]
    (taint,) = second.taints
    assert (taint.source, taint.target, taint.weight) == (1, 0, (1,))


def test_grid2_complex_and_d_squared_diagnostics():
    d = corpus.load_diagram("grid2")
    c = build_cf(d, 0)
    assert c.entries[(0, 1)] == {(1, 0, 0, 0): 1, (0, 0, 0, 1): 1}
    assert c.entries[(1, 0)] == {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1}
    rep = c.verify_d_squared(plain_spec=c.algebra)
    assert rep["ok"]
    # the same differential over the tilde ring leaves the residue
    # lambda^+ + lambda^-, which lies in the relation ideal
    tilde = alg.diagram_algebra(d, variant=alg.TILDE)
    plain = c.algebra
    c_tilde = FilteredComplex(
        ring=AlgebraTarget(tilde),
        gen_names=c.gen_names,
        cosets=[None] * c.rank,
        gradings=[None] * c.rank,
        entries=c.entries,
    )
    rep2 = c_tilde.verify_d_squared(plain_spec=plain)
    assert not rep2["ok"]
    assert rep2["residue_in_relation_ideal"] is True


def test_perturbation_detected():
    # deleting one class breaks d^2 = 0
    d = corpus.load_diagram("grid2")
    c = build_cf(d, 0)
    broken = dict(c.entries)
    broken[(0, 1)] = {(1, 0, 0, 0): 1}  # drop one rectangle
    c2 = FilteredComplex(
        ring=c.ring,
        gen_names=c.gen_names,
        cosets=c.cosets,
        gradings=c.gradings,
        entries=broken,
    )
    rep = c2.verify_d_squared(plain_spec=c.algebra)
    assert not rep["ok"]


def test_filtration_axiom_checked():
    d = corpus.load_diagram("trefoil")
    c = build_cf(d, 0)
    c.verify_filtration()
    c.verify_grading_drop()
    # sabotage one coset
    c.cosets[0] = c.algebra.chi_group.add(c.cosets[0], c.algebra.chi((1, 0)))
    with pytest.raises(ComplexError):
        c.verify_filtration()


def test_tensor_identity_and_all_zero():
    d = corpus.load_diagram("grid2")
    c = build_cf(d, 0)
    tc_id = c.tensor(identity_hom(c.algebra))
    assert len(tc_id.entries) == 2
    tc0 = c.tensor(all_zero(c.algebra))
    assert tc0.entries == {}
    h = homology(tc0)
    assert h.total_rank() == 2


def test_tensor_to_U_kills_doubled_entry():
    # both rectangles map to U: (U + U) = 0 over F_2[U]
    d = corpus.load_diagram("grid2")
    c = build_cf(d, 0)
    tc = c.tensor(to_U(c.algebra))
    assert tc.entries == {}
    h = homology(tc)
    assert h.total_rank() == 2 and not h.torsion_summands()


def _unknot_pieces():
    c = build_cf(corpus.load_diagram("unknot"), 0)
    spec = c.algebra
    group = spec.chi_group
    pieces = []
    for a in range(4):
        for b in range(4):
            coset = group.add(c.cosets[0], spec.chi((a, b)))
            g = c.gradings[0] + spec.gr((a, b))
            pieces.append((coset, g))
    return c, pieces


def test_unknot_piecewise_free_rank_one():
    c, pieces = _unknot_pieces()
    dims = piecewise_homology(c, pieces)
    assert all(v == 1 for v in dims.values())
    assert len(dims) == len(set(pieces))


def test_piecewise_homology_lists_each_basis_once(monkeypatch):
    # neighbouring pieces share the bases at g - 1, g and g + 1: the 16
    # unknot pieces made 48 monomial_fiber calls for 39 distinct arguments
    import sfkit.cones as cx

    c, pieces = _unknot_pieces()
    calls = []

    def counting(spec, chi_value, gr_value=None):
        calls.append((chi_value, gr_value))
        return monomial_fiber(spec, chi_value, gr_value)

    monkeypatch.setattr(cx, "monomial_fiber", counting)
    piecewise_homology(c, pieces)
    assert len(calls) == len(set(calls)) == 39
    calls.clear()
    piecewise_homology(c, pieces)  # the memo lives within one call
    assert len(calls) == 39


def test_monomial_fiber_finite_and_infinite():
    d = corpus.load_diagram("unknot")
    spec = build_cf(d, 0).algebra
    group = spec.chi_group
    # fixing (chi, gr) pins (a - b, a): a unique monomial
    fiber = monomial_fiber(spec, spec.chi((2, 1)), spec.gr((2, 1)))
    assert fiber == [(2, 1)]
    # no degree cap: a fiber beyond degree 64 is listed in full
    assert monomial_fiber(spec, spec.chi((70, 69)), spec.gr((70, 69))) == [(70, 69)]
    # chi alone leaves the U-tower: infinite fiber must be refused
    with pytest.raises(ComplexError):
        monomial_fiber(spec, spec.chi((2, 1)), None)


def test_monomial_fiber_empty_despite_a_recession_direction():
    # chi = a: b is a free direction, so the fiber at chi = 1 is infinite,
    # but the one at chi = -1 is empty, not infinite
    spec = alg.AlgebraSpec(names=("a", "b"), chi_group=snf.cokernel([], 1),
                           chi_classes=((1,), (0,)), gr_weights=(0, 0))
    assert monomial_fiber(spec, (-1,), None) == []
    with pytest.raises(ComplexError) as err:
        monomial_fiber(spec, (1,), 0)
    assert err.value.code == "INFINITE_FIBER"


def test_mapping_cone_homology():
    C = free_complex(TRIVIAL, ["e"])
    f = multiplication_map(C, {(): 2})
    M = mapping_cone(f)
    assert homology(M.tensor(all_zero(TRIVIAL))).torsion_summands() == [2]
    f0 = ChainMap(source=C, target=C, entries={})
    assert homology(mapping_cone(f0).tensor(all_zero(TRIVIAL))).total_rank() == 2


def test_les_exactness():
    C = free_complex(TRIVIAL, ["e"])
    for mult in (0, 1, 2, 3):
        f = multiplication_map(C, {(): mult}) if mult else ChainMap(C, C, {})
        for hom in (all_zero(TRIVIAL, QRing()), all_zero(TRIVIAL, ZpRing(2)),
                    all_zero(TRIVIAL, ZpRing(3))):
            assert les_check(f, hom)["ok"]
    # a two-step complex with differential
    D = free_complex(TRIVIAL, ["a", "b"], entries={(1, 0): {(): 1}})
    g = multiplication_map(D, {(): 1})
    assert les_check(g, all_zero(TRIVIAL, QRing()))["ok"]


def test_cone_commutes_with_tensor():
    # M(f) tensor B == M(f tensor B) as matrices, on synthetic data
    spec = alg.build_algebra(alg.knot_components(1), 2)
    C = free_complex(spec, ["x", "y"], entries={(1, 0): {(1, 0): 1}})
    f = multiplication_map(C, {(0, 1): 1})
    M = mapping_cone(f)
    hom = to_U(spec)
    left = M.tensor(hom).entries
    # build the cone after tensoring by hand
    tc = C.tensor(hom)
    n = C.rank
    right = {}
    for (i, j), e in tc.entries.items():
        right[(i, j)] = e
        right[(n + i, n + j)] = hom.target.neg(e)
    for j in range(n):
        img = hom.apply({(0, 1): 1})
        right[(n + j, j)] = img
    right = {k: v for k, v in right.items() if v != ()}
    assert left == right


def test_quasi_iso_via_cone():
    C = free_complex(TRIVIAL, ["e"])
    assert quasi_iso_over(multiplication_map(C, {(): 1}), [all_zero(TRIVIAL)])
    assert not quasi_iso_over(multiplication_map(C, {(): 2}), [all_zero(TRIVIAL)])
    assert quasi_iso_over(
        multiplication_map(C, {(): 3}), [all_zero(TRIVIAL, ZpRing(2))]
    )


def test_all_zero_homology_matches_independent_integer_path():
    # dropping all nonconstant monomials by hand and running SNF homology on
    # the integer matrix must agree with the all-zero tensor pipeline
    from sfkit import snf as snflib

    for name in ["unknot", "grid2", "sphere_split", "genus2_pair", "torus_min"]:
        d = corpus.load_diagram(name)
        c = build_cf(d, 0)
        n = c.rank
        M = [[0] * n for _ in range(n)]
        for (i, j), e in c.entries.items():
            M[i][j] = e.get(alg.one(c.algebra.nvars), 0)
        # independent path: ungraded ker/im over Z straight from one SNF;
        # im lies in the direct summand ker, so torsion(ker/im) is read off
        # the invariant factors of M
        res = snflib.smith_normal_form([row[:] for row in M])
        free = (n - res.rank) - res.rank
        torsion = sorted(abs(dd) for dd in res.diag if abs(dd) > 1)
        h = homology(c.tensor(all_zero(c.algebra)))
        assert h.total_rank() == free, name
        assert sorted(h.torsion_summands()) == torsion, name


def test_euler_characteristic_invariance_under_field_homs():
    # per-coset Euler characteristic is rank-alternating-sum invariant
    d = corpus.load_diagram("grid2")
    c = build_cf(d, 0)
    for hom in (all_zero(c.algebra, QRing()), all_zero(c.algebra, ZpRing(3))):
        h = homology(c.tensor(hom))
        # gradings 0 and 1 with one generator each: chi = dim_0 - dim_1 = 0
        total = 0
        for label, piece in h.pieces.items():
            g = int(label.split("gr=")[1])
            total += (-1) ** (g % 2) * piece["dim"]
        assert total == 0


def test_build_cf_builds_each_algebra_once(monkeypatch):
    # one graded plain algebra per build_cf, and one tilde algebra per
    # DiagramData, which both blocks of torus_lens share
    calls = []
    build = alg.build_algebra

    def counting(*args, **kwargs):
        calls.append(kwargs.get("variant"))
        return build(*args, **kwargs)

    monkeypatch.setattr(alg, "build_algebra", counting)
    d = corpus.load_diagram("torus_lens")
    data = DiagramData.build(d)
    assert len(data.partition.blocks) == 2
    for bi in range(2):
        build_cf(d, bi, data=data)
    assert sorted(calls) == sorted([alg.PLAIN, alg.PLAIN, alg.TILDE])


KNOT2 = alg.build_algebra(alg.knot_components(2), 4)  # one relation, 4 variables
COMPOSE_RINGS = {
    "Z": (ZRing(), st.integers(-3, 3)),
    "Z/3": (ZpRing(3), st.integers(0, 2)),
    "knot algebra": (
        AlgebraTarget(KNOT2),
        st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * 4), st.integers(-2, 2), max_size=3
        ).map(KNOT2.normal_form),
    ),
}


def _dense_product(ring, f, g, n):
    """f o g by the triple loop over every index in range(n)."""
    out = {}
    for i in range(n):
        for j in range(n):
            acc = ring.zero()
            for k in range(n):
                a, b = f.get((i, k)), g.get((k, j))
                if a is not None and b is not None:
                    acc = ring.add(acc, ring.mul(a, b))
            if not ring.is_zero(acc):
                out[(i, j)] = acc
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(COMPOSE_RINGS)), st.data())
def test_compose_matches_dense_product(name, data):
    ring, elements = COMPOSE_RINGS[name]
    index = st.tuples(st.integers(0, 3), st.integers(0, 3))
    f = data.draw(st.dictionaries(index, elements, max_size=8))
    g = data.draw(st.dictionaries(index, elements, max_size=8))
    assert _compose(ring, f, g) == _dense_product(ring, f, g, 4)
