import pytest

from sfkit import algebra as alg
from sfkit import corpus
from sfkit.cf import DiagramData, build_cf
from sfkit.complexes import ComplexError, FilteredComplex, homology
from sfkit.diagram import ALPHA, BETA
from sfkit.stabilize import (
    BadSutureError,
    stabilize_diagram,
    stabilization_products,
    verify_stabilization,
)
from sfkit.testrings import ZpRing, all_zero


def test_stabilized_unknot_structure():
    d = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d, 1)
    rep = dhat.validate()
    assert rep.ok and rep.genus == 1
    assert dhat.num_marks == 4
    assert len(dhat.generators()) == 2
    # new components per the local model: the alpha disk holds the two new
    # marks, the beta disk holds the lens mark and the old one
    a_marks = sorted(c.marks for c in dhat.complement_components(ALPHA))
    b_marks = sorted(c.marks for c in dhat.complement_components(BETA))
    assert a_marks == [(0, 1), (2, 3)]
    assert b_marks == [(0, 3), (1, 2)]


def test_stabilized_algebra_relation():
    d = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d, 1)
    spec = alg.diagram_algebra(dhat)
    (rel,) = spec.relations
    pos = {m for m, c in rel if c > 0}
    neg = {m for m, c in rel if c < 0}
    assert pos == {(1, 0, 0, 1), (0, 1, 1, 0)}
    assert neg == {(1, 1, 0, 0), (0, 0, 1, 1)}


def test_stabilization_products():
    d = corpus.load_diagram("unknot")
    lam, new_var = stabilization_products(d, 1)
    assert lam == (1, 0, 0, 0)  # lambda = lambda_1
    assert new_var == 2


def test_verify_stabilization_unknot():
    d = corpus.load_diagram("unknot")
    rep = verify_stabilization(d, 1)
    assert rep.ok
    assert rep.graded_match is True
    # cone(lambda_3 - lambda_1) maps to cone(U - U) = cone(0): rank doubles
    hat_total = sum(
        v.get("free_rank", 0) for v in rep.stabilized_hom_pieces.values()
    )
    cone_total = sum(
        v.get("free_rank", 0) for v in rep.cone_hom_pieces.values()
    )
    assert hat_total == cone_total == 2
    assert any("degeneration class" in n for n in rep.notes)


def test_verify_stabilization_checks_d_squared_exactly(monkeypatch):
    # an even entry dies in F_2[U], so only the exact d^2 check over
    # R_tau[lambda_new] sees the residue 2*lambda_1*(lambda_3 - lambda_1)
    tensor = FilteredComplex.tensor

    def perturbed(self, hom):
        out = tensor(self, hom)
        if hom.name == "stabilization-pushdown":
            out.entries[(0, 1)] = {(1, 0, 0): 2}
        return out

    monkeypatch.setattr(FilteredComplex, "tensor", perturbed)
    with pytest.raises(ComplexError) as exc:
        verify_stabilization(corpus.load_diagram("unknot"), 1)
    assert exc.value.code == "D_SQUARED_NONZERO"


def test_double_stabilization_iterated_cone():
    """Two stabilizations give the iterated cone; under a hom sending the new
    variable and lambda to the same element each cone is cone(0), so the rank
    doubles at each step (1 -> 2 -> 4)."""
    from sfkit.complexes import FilteredComplex, homology
    from sfkit.cones import mapping_cone, multiplication_map
    from sfkit.testrings import AlgebraTarget, to_U

    d = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d, 1)
    # R[u1, u2]: old two variables plus one polynomial variable per cone
    names = ("λ1", "λ2", "u1", "u2")
    spec = alg.AlgebraSpec(names=names)
    base = FilteredComplex(
        ring=AlgebraTarget(spec), gen_names=["x"], cosets=[None], gradings=[None],
        entries={},
    )
    lam1, _ = stabilization_products(d, 1)  # lambda_1
    cone1 = mapping_cone(
        multiplication_map(base, {(0, 0, 1, 0): 1, (1, 0, 0, 0): -1})
    )
    # the second stabilization's lambda is the first lens variable u1
    lam2, _ = stabilization_products(dhat, 1)
    assert lam2 == (0, 0, 1, 0, 0, 0)
    cone2 = mapping_cone(
        multiplication_map(cone1, {(0, 0, 0, 1): 1, (0, 0, 1, 0): -1})
    )
    hom = to_U(spec)
    h = homology(cone2.tensor(hom))
    assert h.total_rank() == 4 and not h.torsion_summands()

    # cross-check against the honest enumeration on the doubly stabilized
    # diagram: its supported classes plus the degeneration-type taints cover
    # exactly the monomials the iterated-cone differential predicts
    dhh = stabilize_diagram(dhat, 1)
    c = build_cf(dhh, 0, data=DiagramData.build(dhh))
    assert c.rank == 4
    taint_weights = {}
    for t in c.taints:
        taint_weights.setdefault((t.target, t.source), []).append(tuple(t.weight))
    # per generator pair the supported entries use single marks, and every
    # missing predicted monomial is available among the unsupported classes
    for (i, j), e in c.entries.items():
        assert all(sum(m) == 1 for m in e)
    predicted_pairs = 8  # 4 generators, 2 neighbours each
    assert len(c.entries) == predicted_pairs
    # the degeneration weights that the proposition supplies are all present
    flat = [w for ws in taint_weights.values() for w in ws]
    lam1_lift = lam1 + (0, 0)
    assert flat.count(lam2) == 2  # one second-step degeneration per old generator
    assert flat.count(lam1_lift) >= 2  # the lifted first-step degenerations


def test_bad_suture_rejected():
    d = corpus.load_diagram("genus2_pair")
    with pytest.raises(BadSutureError):
        stabilize_diagram(d, 0)


def test_stabilized_complex_d_squared_mod2_over_rhat():
    # with the degeneration count patched in, d^2 = 0 holds over the full
    # stabilized ring mod 2 (the lambda^+ = lambda^- identity in action)
    d = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d, 1)
    data = DiagramData.build(dhat)
    c = build_cf(dhat, 0, data=data)
    # patch: the single taint is the boundary-degeneration class
    lam, _ = stabilization_products(d, 1)
    assert [tuple(t.weight) for t in c.taints] == [lam]
    (t,) = c.taints
    entry = dict(c.entries.get((t.target, t.source), {}))
    entry[lam] = entry.get(lam, 0) + 1
    c.entries[(t.target, t.source)] = c.algebra.normal_form(entry)
    c.taints.clear()
    rep = c.verify_d_squared(plain_spec=c.algebra)
    assert rep["ok"]
    # and over the tilde ring the residue lies in the relation ideal
    tilde = alg.diagram_algebra(dhat, variant=alg.TILDE)
    from sfkit.complexes import FilteredComplex
    from sfkit.testrings import AlgebraTarget

    ct = FilteredComplex(
        ring=AlgebraTarget(tilde), gen_names=c.gen_names, cosets=[None] * c.rank,
        gradings=[None] * c.rank, entries=c.entries,
    )
    rep2 = ct.verify_d_squared(plain_spec=c.algebra)
    assert not rep2["ok"]
    assert rep2["residue_in_relation_ideal"] is True


@pytest.mark.parametrize("name, base_rank, k", [
    (name, base_rank, k)
    for name, base_rank, top in [("unknot", 1, 4), ("trefoil", 3, 3)]
    for k in range(top + 1)
])
def test_ladder_all_zero_f2_rank(name, base_rank, k):
    # each stabilization at z0 tensors SFH with a 2-dimensional space
    d = corpus.load_diagram(name)
    for _ in range(k):
        d = stabilize_diagram(d, 0)
    c = build_cf(d, 0, data=DiagramData.build(d))
    tc = c.tensor(all_zero(c.algebra, ZpRing(2)))
    assert tc.rank == 2 ** k * len(corpus.load_diagram(name).generators())
    # d o d = 0 mod 2, by bitmask columns independent of the complex code
    cols = [0] * tc.rank
    for (i, j), v in tc.entries.items():
        if v % 2:
            cols[j] ^= 1 << i
    for j in range(tc.rank):
        dd = 0
        for i in range(tc.rank):
            if cols[j] >> i & 1:
                dd ^= cols[i]
        assert dd == 0
    assert homology(tc).total_rank() == 2 ** k * base_rank
