import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import corpus
from sfkit.cf import DiagramData
from sfkit.domains import marked_multiplicities, maslov_of_periodic
from sfkit.spinc import NoConnectingDomain, grading_data, spinc_partition


def _partition(d):
    data = DiagramData.build(d)
    return spinc_partition(data.calc, data.homology), data.lattices


def test_single_generator_single_class():
    for name in ["torus_min", "unknot"]:
        part, _ = _partition(corpus.load_diagram(name))
        assert part.blocks == [[0]]
        assert part.diff(0, 0) == part.homology.group.zero()


def test_trefoil_one_class_with_alexander_spread():
    d = corpus.load_diagram("trefoil")
    part, _ = _partition(d)
    assert part.blocks == [[0, 1, 2]]
    diffs = {part.diff(i, j) for i in range(3) for j in range(3) if i != j}
    # pairwise differences are distinct nonzero multiples of the meridian
    assert len(diffs) == 4  # +-1 and +-2 times the generator
    assert part.homology.group.zero() not in diffs


def test_torus_lens_two_classes():
    d = corpus.load_diagram("torus_lens")
    part, _ = _partition(d)
    assert part.blocks == [[0], [1]]
    with pytest.raises(NoConnectingDomain):
        part.diff(0, 1)


def test_nomatch_empty_partition():
    part, _ = _partition(corpus.load_diagram("nomatch_genus2"))
    assert part.blocks == []


def test_diff_is_cocycle():
    # diff(x, z) = diff(x, y) + diff(y, z) within a block
    for name in ["trefoil", "grid2", "special_hs", "sphere_split"]:
        d = corpus.load_diagram(name)
        part, _ = _partition(d)
        H = part.homology.group
        for block in part.blocks:
            for i in block:
                for j in block:
                    for k in block:
                        assert part.diff(i, k) == H.add(part.diff(i, j), part.diff(j, k))


def test_diff_antisymmetric():
    d = corpus.load_diagram("special_hs")
    part, _ = _partition(d)
    H = part.homology.group
    for block in part.blocks:
        for i in block:
            for j in block:
                assert part.diff(i, j) == H.neg(part.diff(j, i))


def test_unknot_grading():
    d = corpus.load_diagram("unknot")
    part, lattices = _partition(d)
    gd = grading_data(part, 0, lattices[0])
    assert gd.d_of_s == 0
    # the lattice pins only the sum d_1 + d_2 = -2; the canonical solution
    # puts the whole drop on the first variable (classical U/V convention)
    assert gd.weights == [-2, 0]
    assert gd.pinned == [False, False]
    assert sum(gd.weights) == -2
    assert gd.gr == {0: 0}


def test_trefoil_gradings_chain():
    d = corpus.load_diagram("trefoil")
    part, lattices = _partition(d)
    gd = grading_data(part, 0, lattices[0])
    assert gd.d_of_s == 0
    values = sorted(gd.gr.values())
    # three consecutive gradings: {0,-1,-2} up to a global shift
    assert values[1] - values[0] == 1 and values[2] - values[1] == 1
    assert sum(gd.weights) == -2


def test_torus_min_weight_pinned():
    # the delta-system is solvable: the full region has n_z = e_1
    d = corpus.load_diagram("torus_min")
    part, lattices = _partition(d)
    gd = grading_data(part, 0, lattices[0])
    assert gd.weights == [-2]
    assert gd.pinned == [True]


def test_genus2_pair_weight_zero():
    d = corpus.load_diagram("genus2_pair")
    part, lattices = _partition(d)
    gd = grading_data(part, 0, lattices[0])
    # mu(Sigma-domain) = 0 here, so the single weight is pinned to 0
    assert gd.weights == [0]
    assert gd.pinned == [True]


def test_weights_satisfy_lattice_constraints():
    # sum_i n_{z_i}(P) d_i = -mu(P) mod d(s) for every periodic basis element
    for name in ["unknot", "trefoil", "grid2", "special_hs", "sphere_split",
                 "torus_min", "torus_lens", "genus2_pair"]:
        d = corpus.load_diagram(name)
        data = DiagramData.build(d)
        part = spinc_partition(data.calc, data.homology)
        for bi, block in enumerate(part.blocks):
            gd = grading_data(part, bi, data.lattices[bi])
            if any(w is None for w in gd.weights):
                continue
            at = part.generators[block[0]]
            for P in data.calc.periodic_basis:
                total = sum(
                    w * n for w, n in zip(gd.weights, marked_multiplicities(d, P))
                )
                mu = maslov_of_periodic(d, P, at)
                if gd.d_of_s:
                    assert (total + mu) % gd.d_of_s == 0
                else:
                    assert total + mu == 0


def test_gr_weight_additive():
    d = corpus.load_diagram("unknot")
    part, lattices = _partition(d)
    gd = grading_data(part, 0, lattices[0])
    for a in range(3):
        for b in range(3):
            w = gd.weight_of_monomial((a, b))
            assert w == a * gd.weights[0] + b * gd.weights[1]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_gr_weight_monoid_map(a, b, c, d_):
    d = corpus.load_diagram("unknot")
    part, lattices = _partition(d)
    gd = grading_data(part, 0, lattices[0])
    assert gd.weight_of_monomial((a + c, b + d_)) == gd.weight_of_monomial(
        (a, b)
    ) + gd.weight_of_monomial((c, d_))


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_report_grades_each_block_once(name, monkeypatch):
    from sfkit import cf, corpuscheck, spinc

    calls = []
    original = spinc.grading_data

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (spinc, cf, corpuscheck):
        if getattr(module, "grading_data", None) is original:
            monkeypatch.setattr(module, "grading_data", counting)
    report = corpuscheck.diagram_report(name)
    assert sorted(calls) == list(range(len(report["spinc_blocks"])))


# -- blocks by key against the all-pairs partition -----------------------------


def _reference_partition(d, calc, homology):
    """The partition by an all-pairs solve and union-find: every pair is
    solved afresh on the corner matrix, and the H-difference of a connected
    pair is the image of its connecting domain's n_z."""
    from sfkit import snf
    from sfkit.domains import corner_target

    gens = d.generators()
    n = len(gens)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    group = homology.group
    diffs = {(i, i): group.zero() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if calc.matrix:
                sol = snf.solve_integer(calc.matrix, corner_target(d, gens[i], gens[j]))
            else:
                sol = [0] * len(d.regions)
            if sol is not None:
                val = homology.chi_of_exponents(marked_multiplicities(d, sol))
                diffs[(i, j)], diffs[(j, i)] = val, group.neg(val)
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return [sorted(v) for _, v in sorted(blocks.items())], diffs


PARTITION_CASES = [(name, 0) for name in corpus.corpus_names()] + [
    (name, k) for name in ("unknot", "trefoil", "grid2") for k in (1, 2)
]


@pytest.mark.parametrize("name, k", PARTITION_CASES)
def test_partition_by_key_matches_all_pairs(name, k):
    from sfkit.stabilize import stabilize_diagram

    d = corpus.load_diagram(name)
    for _ in range(k):
        d = stabilize_diagram(d, 0)
    data = DiagramData.build(d)
    part = data.partition
    blocks, diffs = _reference_partition(d, data.calc, data.homology)
    assert part.blocks == blocks
    n = len(part.generators)
    for i in range(n):
        for j in range(n):
            if (i, j) in diffs:
                assert part.diff(i, j) == diffs[(i, j)]
            else:
                with pytest.raises(NoConnectingDomain):
                    part.diff(i, j)
