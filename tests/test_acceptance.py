"""Acceptance suite: one test per criterion, exact values, timed.

Each criterion prints a PASS line; expected values marked DERIVED are
computed by the independent oracles in this file (brute-force enumeration
over coefficient boxes, direct Smith-normal-form homology), PAPER values
were checked against the source text, TRIVIAL values are forced by the
definitions.
"""

import time
from itertools import product

import pytest

from sfkit import algebra as alg
from sfkit import corpus, snf
from sfkit.admissibility import (
    check_s_admissible,
    check_strong_admissible,
    check_weak_admissible,
    finiteness_certificate,
)
from sfkit.cf import DiagramData, build_cf
from sfkit.complexes import homology
from sfkit.cones import (
    ChainMap,
    free_complex,
    mapping_cone,
    piecewise_homology,
)
from sfkit.diagram import ALPHA, BETA
from sfkit.diskcount import enumerate_mu1_classes
from sfkit.domains import (
    DomainCalculator,
    corner_matrix,
    corner_target,
    marked_multiplicities,
    maslov_index,
    maslov_of_periodic,
)
from sfkit.homology1 import h1_presentation
from sfkit.spinc import grading_data
from sfkit.stabilize import verify_stabilization
from sfkit.surgery import build_surgery_rings
from sfkit.testrings import ZpRing, all_zero, btau_hom
from sfkit.triangle import HypothesisFailed, TriangleSystem, triangle_machine
from oracles import component_domain

COMPUTING_CORPUS = [
    "torus_min", "unknot", "trefoil", "grid2", "torus_lens",
    "sphere_split", "special_hs", "genus2_pair",
]


def timed(limit):
    def deco(fn):
        def wrapper(*a, **k):
            t0 = time.monotonic()
            fn(*a, **k)
            dt = time.monotonic() - t0
            assert dt < limit, f"{fn.__name__} took {dt:.2f}s (limit {limit}s)"
            print(f"ACCEPTANCE {fn.__name__[5:]}: PASS ({dt:.2f}s)")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@timed(1.0)
def test_a1_algebra_construction():
    # [PAPER] the 2n-suture torus boundary presentations, exactly
    expected = {
        1: [],
        2: ["λ1*λ2 + λ3*λ4 = λ1*λ4 + λ2*λ3"],
        3: ["λ1*λ2 + λ3*λ4 + λ5*λ6 = λ1*λ6 + λ2*λ3 + λ4*λ5"],
    }
    for n in (1, 2, 3):
        spec = alg.build_algebra(alg.knot_components(n), 2 * n)
        assert spec.relation_strings() == expected[n]
        # normal-form equality of the two sides of the paper's display
        plus, minus = {}, {}
        for side, _, marks in alg.knot_components(n):
            m = alg.component_monomial(marks, 2 * n)
            t = plus if side == "beta" else minus
            t[m] = t.get(m, 0) + 1
        assert spec.equal(plus, minus)
    # n = 1: free on two generators
    spec1 = alg.build_algebra(alg.knot_components(1), 2)
    assert spec1.describe() == "Z[λ1,λ2]"
    assert spec1.rules == []


@timed(5.0)
def test_a2_index_identities():
    # [PAPER] mu(A_i) = 2 - 2 g(A_i), mu(B_j) = 2 - 2 g(B_j); the Maslov
    # index of a periodic class needs a generator to sit at, so the two
    # generator-free fixtures are exempt
    for name in COMPUTING_CORPUS:
        d = corpus.load_diagram(name)
        gens = d.generators()
        assert gens, name
        at = gens[0]
        for side in (ALPHA, BETA):
            for comp in d.complement_components(side):
                P = component_domain(d, comp)
                assert maslov_of_periodic(d, P, at) == 2 - 2 * comp.genus

    # [PAPER eq. index] mu(phi) = 2 (sum a_i) + 2 l1 - l2 on the special
    # handle-slide fixture, verified on every positive class in a box
    d = corpus.load_diagram("special_hs")
    calc = DomainCalculator(d)
    gens = d.generators()
    # pair data: bigon D_i^+ runs from the + to the - crossing
    D_plus = {0: [1, 0, 0, 0, 0, 0, 0], 1: [0, 0, 0, 0, 1, 0, 0]}
    plus_point = {0: 1, 1: 2}  # pair 0: x1 = "+", x0 = "-"; pair 1: x2 = "+"
    A_doms = [component_domain(d, c) for c in d.complement_components(ALPHA)]
    P2 = [0, 0, 0, 0, 1, -1, 0]
    P1 = [-1, 0, 1, 0, 0, 0, 0]
    basis = [P1, P2] + A_doms
    basis_matrix = [[basis[b][r] for b in range(5)] for r in range(7)]
    at = gens[0]
    assert maslov_of_periodic(d, P1, at) == 0
    assert maslov_of_periodic(d, P2, at) == 0

    A = corner_matrix(d)
    checked = 0
    for g in gens:
        for h in gens:
            if g is h:
                continue
            eps = {i: (g.points[i] == plus_point[i]) for i in range(2)}
            delt = {i: (h.points[i] == plus_point[i]) for i in range(2)}
            l1 = sum(1 for i in range(2) if eps[i] and not delt[i])
            l2 = l1 + sum(1 for i in range(2) if not eps[i] and delt[i])
            D = [0] * 7
            for i in range(2):
                if eps[i] and not delt[i]:
                    D = [x + y for x, y in zip(D, D_plus[i])]
                elif not eps[i] and delt[i]:
                    D = [x - y for x, y in zip(D, D_plus[i])]
            tgt = corner_target(d, g, h)
            for vec in product(range(0, 4), repeat=7):
                if snf.mat_vec(A, list(vec)) != tgt:
                    continue
                P = [v - w for v, w in zip(vec, D)]
                coords = snf.solve_integer(basis_matrix, P)
                assert coords is not None, (g, h, vec)
                a_sum = sum(coords[2:])
                assert maslov_index(d, list(vec), g, h) == 2 * a_sum + 2 * l1 - l2
                checked += 1
    assert checked > 40


@timed(5.0)
def test_a3_d_squared_and_perturbation():
    # d^2 = 0 over R_tau x F_2 on every untainted corpus complex
    untainted = 0
    for name in COMPUTING_CORPUS:
        d = corpus.load_diagram(name)
        data = DiagramData.build(d)
        for bi in range(len(data.partition.blocks)):
            c = build_cf(d, bi, data=data)
            if c.taints:
                continue
            assert c.verify_d_squared(plain_spec=c.algebra)["ok"]
            untainted += 1
    assert untainted >= 6
    # plus the stabilized-unknot complex with the degeneration term
    from sfkit.stabilize import stabilize_diagram, stabilization_products

    d0 = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d0, 1)
    c = build_cf(dhat, 0, data=DiagramData.build(dhat))
    lam, _ = stabilization_products(d0, 1)
    (t,) = c.taints
    assert tuple(t.weight) == lam
    entry = dict(c.entries.get((t.target, t.source), {}))
    entry[lam] = entry.get(lam, 0) - 1
    c.entries[(t.target, t.source)] = c.algebra.normal_form(entry)
    c.taints.clear()
    assert c.verify_d_squared(plain_spec=c.algebra)["ok"]

    # perturbation: one deleted class is detected
    dg = corpus.load_diagram("grid2")
    cg = build_cf(dg, 0)
    cg.entries[(0, 1)] = {(1, 0, 0, 0): 1}
    assert not cg.verify_d_squared(plain_spec=cg.algebra)["ok"]


@timed(1.0)
def test_a4_unknot():
    d = corpus.load_diagram("unknot")
    data = DiagramData.build(d)
    assert len(data.partition.blocks) == 1 and len(data.partition.blocks[0]) == 1
    c = build_cf(d, 0, data=data)
    assert c.entries == {}
    # bigraded pieces over F2[l1, l2]: free of rank one wherever occupied
    spec = c.algebra
    group = spec.chi_group
    pieces = set()
    for a in range(4):
        for b in range(4):
            pieces.add((group.add(c.cosets[0], spec.chi((a, b))),
                        c.gradings[0] + spec.gr((a, b))))
    dims = piecewise_homology(c, sorted(pieces))
    assert all(v == 1 for v in dims.values()) and len(dims) == len(pieces)
    # ALL_ZERO over Z: rank 1 (SFH of the complement with two meridians)
    h = homology(c.tensor(all_zero(spec)))
    assert h.total_rank() == 1 and not h.torsion_summands()


@timed(10.0)
def test_a5_trefoil():
    d = corpus.load_diagram("trefoil")
    data = DiagramData.build(d)
    assert [len(b) for b in data.partition.blocks] == [3]
    c = build_cf(d, 0, data=data)
    assert [s.rank for s in c.decompose()] == [1, 1, 1]
    gd = grading_data(data.partition, 0, data.lattices[0])
    gr = sorted(gd.gr.values())
    # relative gradings {0, -1, -2} up to global shift
    assert [g - gr[2] for g in gr] == [-2, -1, 0]
    h = homology(c.tensor(all_zero(c.algebra)))
    assert h.total_rank() == 3 and not h.torsion_summands()

    # oracle: independent brute-force enumeration inside the certificate box
    tilde = alg.diagram_algebra(d, variant=alg.TILDE)
    A = corner_matrix(d)
    gens = d.generators()
    for x in gens:
        for y in gens:
            phi0, bound = data.calc.connecting(x, y), 1
            if phi0 is not None:
                shift = 1 - maslov_index(d, phi0, x, y)
                bound += finiteness_certificate(data.lattices[0], phi0,
                                                shift) or 0
            tgt = corner_target(d, x, y)
            oracle = []
            for vec in product(range(0, bound + 1), repeat=3):
                if snf.mat_vec(A, list(vec)) != tgt:
                    continue
                if maslov_index(d, list(vec), x, y) != 1:
                    continue
                if tilde.nf_monomial(marked_multiplicities(d, list(vec))) == {}:
                    continue
                oracle.append(vec)
            listed = [tuple(cl.domain) for cl in
                      enumerate_mu1_classes(data.lattices[0], [x], [y], tilde)]
            assert sorted(oracle) == sorted(listed)


@timed(5.0)
def test_a6_stabilization():
    d = corpus.load_diagram("unknot")
    rep = verify_stabilization(d, 1)
    assert rep.ok
    assert rep.graded_match is True
    # both sides rank 2 (cone of the zero map after the U-collapse)
    assert sum(v.get("free_rank", 0) for v in rep.stabilized_hom_pieces.values()) == 2
    assert sum(v.get("free_rank", 0) for v in rep.cone_hom_pieces.values()) == 2
    assert {k: v for k, v in rep.stabilized_dims.items() if v} \
        == {k + rep.shift: v for k, v in rep.cone_dims.items() if v}


@timed(2.0)
def test_a7_triangle_machine():
    trivial = alg.AlgebraSpec(names=())

    def system(spec, g_elem, cosets=None):
        names = ["e0", "e1"]
        B = free_complex(spec, names, cosets=cosets)
        C = free_complex(spec, names, cosets=cosets)
        nf = spec.normal_form(g_elem)
        gmap = ChainMap(B, C, {(i, i): nf for i in range(2)})
        cone = mapping_cone(gmap)
        one = spec.normal_form({alg.one(spec.nvars): 1})
        return TriangleSystem(
            complexes=[B, C, cone],
            maps=[{(i, i): nf for i in range(2)},
                  {(2 + i, i): one for i in range(2)},
                  {(i, i): one for i in range(2)}],
            homotopies=[{(i, i): one for i in range(2)}, {},
                        {(i, 2 + i): one for i in range(2)}],
        )

    homs_z = [all_zero(trivial), all_zero(trivial, ZpRing(2))]
    assert all(triangle_machine(system(trivial, {(): 2}), homs_z).alpha_quasi_iso)
    assert all(triangle_machine(system(trivial, {(): 5}), homs_z).alpha_quasi_iso)

    # filtered instance over the knot ring with a chi-homogeneous map
    d = corpus.load_diagram("unknot")
    pres = h1_presentation(d)
    spec = alg.diagram_algebra(d, homology=pres)
    zero = pres.group.zero()
    filt = system(spec, {(1, 1): 1}, cosets=[zero, zero])
    from sfkit.triangle import verify_filtered_system

    verify_filtered_system(filt)
    res = triangle_machine(filt, [all_zero(spec), all_zero(spec, ZpRing(2))])
    assert all(res.alpha_quasi_iso)

    # sabotage is reported
    broken = system(trivial, {(): 2})
    broken.homotopies[0] = {}
    with pytest.raises(HypothesisFailed):
        triangle_machine(broken, homs_z)


@timed(30.0)
def test_a8_admissibility():
    # sphere fixture flagged with a verifiable witness
    d = corpus.load_diagram("sphere_bad")
    rep = check_s_admissible(DiagramData.build(d).lattices[0])
    assert not rep.admissible
    assert all(v >= 0 for v in rep.witness) and any(rep.witness)
    assert rep.witness_mu == 0
    tilde = alg.diagram_algebra(d, variant=alg.TILDE)
    assert tilde.nf_monomial(tuple(rep.witness_marks)) != {}

    for name in COMPUTING_CORPUS:
        dd = corpus.load_diagram(name)
        pres = h1_presentation(dd)
        spec = alg.diagram_algebra(dd, homology=pres)
        lattice = DiagramData.build(dd).lattices[0]
        strong = check_strong_admissible(lattice).admissible
        s_adm = check_s_admissible(lattice).admissible
        weak = check_weak_admissible(lattice, all_zero(spec)).admissible
        weak_bt = check_weak_admissible(lattice, btau_hom(spec, pres)).admissible
        assert s_adm, name
        if strong:
            assert s_adm
        if s_adm:
            assert weak and weak_bt

    # certificate soundness: bound+1 sweeps reproduce the enumerations
    for name in ["trefoil", "genus2_pair", "grid2", "special_hs"]:
        dd = corpus.load_diagram(name)
        data = DiagramData.build(dd)
        tildd = alg.diagram_algebra(dd, variant=alg.TILDE)
        A = corner_matrix(dd)
        gens = dd.generators()
        for i, x in enumerate(gens):
            for y in gens:
                phi0, bound = data.calc.connecting(x, y), 1
                if phi0 is not None:
                    shift = 1 - maslov_index(dd, phi0, x, y)
                    bound += finiteness_certificate(data.lattice_of(i), phi0,
                                                    shift) or 0
                tgt = corner_target(dd, x, y)
                oracle = []
                for vec in product(range(0, bound + 1), repeat=len(dd.regions)):
                    if snf.mat_vec(A, list(vec)) != tgt:
                        continue
                    if maslov_index(dd, list(vec), x, y) != 1:
                        continue
                    if tildd.nf_monomial(marked_multiplicities(dd, list(vec))) == {}:
                        continue
                    oracle.append(vec)
                listed = [tuple(cl.domain) for cl in
                          enumerate_mu1_classes(data.lattice_of(i), [x], [y], tildd)]
                assert sorted(oracle) == sorted(listed), (name, x, y)


@timed(1.0)
def test_a9_surgery_rings():
    base = alg.knot_components(1)
    sr = build_surgery_rings(base, 2, 1, 1, 1)
    nv = sr.r.nvars
    lam_p = tuple(1 if i == 0 else 0 for i in range(nv))
    assert sr.r.equal({lam_p: 1}, {alg.one(nv): 1})
    # B = R: xi_p = 1 too
    xi = tuple(1 if i == 0 else 0 for i in range(sr.b.nvars))
    assert sr.b.equal({xi: 1}, {alg.one(sr.b.nvars): 1})

    sr_m = build_surgery_rings(base, 2, 4, 1, 1)
    rm = sr_m.ring_m(4)
    l0_m = tuple(4 if i == 1 else 0 for i in range(rm.nvars))
    assert rm.equal({l0_m: 1}, {alg.one(rm.nvars): 1})

    for m in [(1, 1, 1), (2, 1, 1), (3, 2, 1)]:
        srx = build_surgery_rings(base, 2, *m)
        imgs = [srx.iotas[i].apply_monomial((1, 1)) for i in range(3)]
        assert imgs[0] == imgs[1] == imgs[2]
        for i in range(3):
            for a, b in [((1, 0), (0, 1)), ((2, 1), (1, 2))]:
                h = srx.iotas[i]
                lhs = h.apply_monomial(alg.mono_mul(a, b))
                rhs = srx.b.mul(h.apply_monomial(a), h.apply_monomial(b))
                assert srx.b.equal(lhs, rhs)
