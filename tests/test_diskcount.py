import math
from itertools import product
from unittest import mock

import pytest

from sfkit import algebra as alg
from sfkit import corpus, diskcount, linprog
from sfkit.admissibility import (
    CertificateSystem,
    NotAdmissibleError,
    certificate_systems,
    check_s_admissible,
    finiteness_certificate,
    survival_strata,
    tilde_kill_supports,
)
from sfkit.cf import DiagramData, build_cf, diagram_algebra
from sfkit.diagram import HeegaardDiagram
from sfkit.diskcount import (
    EMPTY_BIGON,
    EMPTY_RECTANGLE,
    UNSUPPORTED,
    DiskClass,
    _moved_coordinates,
    classify,
    enumerate_mu1_classes,
    niceness_report,
)
from sfkit.domains import (
    DomainCalculator,
    PeriodicLattice,
    corner_target,
    marked_multiplicities,
    maslov_index,
    maslov_measures,
    maslov_of_periodic,
    maslov_x4,
)
from sfkit.stabilize import stabilize_diagram


def classes_table(name):
    d = corpus.load_diagram(name)
    data = DiagramData.build(d)
    gens = d.generators()
    out = {}
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            cls = enumerate_mu1_classes(data.lattice_of(i), [x], [y])
            if cls:
                out[(i, j)] = [(tuple(c.domain), c.classification, c.n_z) for c in cls]
    return out


def test_unknot_no_classes():
    assert classes_table("unknot") == {}


def test_generator_self_classes_empty_on_admissible_diagrams():
    for name in ["unknot", "trefoil", "grid2", "special_hs"]:
        table = classes_table(name)
        assert all(i != j for (i, j) in table)


def test_trefoil_classes():
    table = classes_table("trefoil")
    # two visible bigons out of the middle generator
    assert table[(1, 0)] == [((1, 0, 0), EMPTY_BIGON, (0, 1))]
    assert table[(1, 2)] == [((0, 1, 0), EMPTY_BIGON, (1, 0))]
    # two annular classes whose counts are not combinatorially determined
    assert table[(0, 1)] == [((0, 1, 1), UNSUPPORTED, (1, 0))]
    assert table[(2, 1)] == [((1, 0, 1), UNSUPPORTED, (0, 1))]
    assert set(table) == {(1, 0), (1, 2), (0, 1), (2, 1)}


def test_grid2_rectangles():
    table = classes_table("grid2")
    # each direction sees two single-square rectangles through one mark each
    assert [c[1] for c in table[(0, 1)]] == [EMPTY_RECTANGLE, EMPTY_RECTANGLE]
    assert [c[1] for c in table[(1, 0)]] == [EMPTY_RECTANGLE, EMPTY_RECTANGLE]
    marks = sorted(c[2] for pair in table.values() for c in pair)
    assert marks == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


def test_genus2_pair_single_bigon():
    table = classes_table("genus2_pair")
    assert table == {(0, 1): [((1, 0), EMPTY_BIGON, (0,))]}


def test_classification_rejects_bad_shapes():
    # a coefficient-2 domain is never a supported shape
    d = corpus.load_diagram("trefoil")
    gens = d.generators()
    D, x, y = [2, 1, 1], gens[1], gens[0]
    cls, count = classify(d, D, x, y, maslov_measures(d, D, x, y))
    assert cls == UNSUPPORTED and count is None


def test_unsupported_annulus_signature():
    # 0/1 coefficients but euler measure -1/2: hexagon-like, unsupported
    d = corpus.load_diagram("trefoil")
    gens = d.generators()
    D, x, y = [0, 1, 1], gens[0], gens[1]
    cls, _ = classify(d, D, x, y, maslov_measures(d, D, x, y))
    assert cls == UNSUPPORTED


def test_special_fixture_bigon_pairs_found():
    # on the handle-slide fixture both bigons of each isotopic pair show up
    # (the canceling configuration: equal counts mod 2)
    table = classes_table("special_hs")
    bigons = sorted(
        cls[0]
        for classes in table.values()
        for cls in classes
        if cls[1] == EMPTY_BIGON
    )
    # D_1^+ (region 0) with its partner W (region 2); C_a (4) with C_b (5)
    for dom in [
        (1, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 1, 0),
    ]:
        assert dom in bigons


def test_niceness_reports():
    d = corpus.load_diagram("torus_min")
    rep = niceness_report(DiagramData.build(d))
    assert rep.hat_countable and rep.minus_countable

    d2 = corpus.load_diagram("trefoil")
    rep2 = niceness_report(DiagramData.build(d2))
    assert rep2.hat_countable  # every n_z = 0 class is supported (there are none)
    assert not rep2.minus_countable  # the annular classes are unsupported
    assert len(rep2.unsupported) == 2

    d3 = corpus.load_diagram("grid2")
    rep3 = niceness_report(DiagramData.build(d3))
    assert rep3.minus_countable
    shapes = {s["region"]: s["shape"] for s in rep3.region_shapes}
    assert set(shapes.values()) == {"square"}


# -- differential test of the sliced enumerator ------------------------------
#
# The reference is the enumerator the sliced one replaced: a per-region
# certificate bound, a bounding box from one linear_range per lattice
# coordinate, every point of the box tested for D >= 0, mu = index and a
# surviving tilde-monomial.  The enumerator takes no algebra, so its
# survival strata must drop exactly what the references' algebra kills.


def reference_certificate_bound(d, x, y, j, lattice, phi0):
    """The certificate the total-multiplicity one replaced: per survival
    stratum, one linear_range per region, each coefficient bounded apart
    (None when x and y are not connected; NotAdmissibleError when a stratum
    is unbounded)."""
    if phi0 is None:
        return None
    mu0 = maslov_index(d, phi0, x, y)
    rank = lattice.rank
    if rank == 0:
        return max(max(phi0), 0) if phi0 else 0
    columns = [list(col) for col in zip(*lattice.basis)]
    best = 0
    for stratum in survival_strata(tilde_kill_supports(d)):
        ineqs = [(coeffs, -phi0[r]) for r, coeffs in enumerate(columns)]
        mu_row = list(lattice.mu)
        ineqs.append((mu_row, j - mu0))
        ineqs.append(([-c for c in mu_row], -(j - mu0)))
        for i in stratum:
            row = [nz[i] for nz in lattice.n_z]
            target = -phi0[d.mark_region[i]]
            ineqs.append((row, target))
            ineqs.append(([-c for c in row], -target))
        for r, coeffs in enumerate(columns):
            rng = linprog.linear_range(ineqs, rank, coeffs)
            if rng is None:
                break  # stratum empty
            if rng[1] is None:
                raise NotAdmissibleError(
                    f"unbounded coefficients in stratum {sorted(stratum)}")
            best = max(best, int(rng[1]) + phi0[r] + 1)
    return best


def reference_mu1_classes(d, x, y, tilde, lattice, index=1):
    calc = lattice.calc
    phi0 = calc.connecting(x, y)
    bound = reference_certificate_bound(d, x, y, index, lattice, phi0)
    if bound is None:
        return []
    basis = calc.periodic_basis
    rank = len(basis)
    candidates = []
    if rank == 0:
        candidates.append(tuple(phi0))
    else:
        ineqs = []
        for r in range(len(d.regions)):
            coeffs = [basis[b][r] for b in range(rank)]
            ineqs.append((coeffs, -phi0[r]))
            ineqs.append(([-c for c in coeffs], phi0[r] - bound))
        ranges = []
        for b in range(rank):
            rng = linprog.linear_range(ineqs, rank, [int(i == b) for i in range(rank)])
            if rng is None:
                return []
            lo, hi = rng
            if lo is None or hi is None:
                raise RuntimeError("certificate box is unbounded")
            ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
        for t in product(*ranges):
            D = list(phi0)
            for c, vec in zip(t, basis):
                for i in range(len(D)):
                    D[i] += c * vec[i]
            candidates.append(tuple(D))
    out = []
    for D in sorted(set(candidates)):
        if any(c < 0 for c in D):
            continue
        mu = maslov_index(d, list(D), x, y)
        if mu != index:
            continue
        nz = marked_multiplicities(d, list(D))
        if not tilde.nf_monomial(tuple(nz)):
            continue
        cls, count = classify(d, list(D), x, y, maslov_measures(d, D, x, y))
        out.append(DiskClass(domain=D, source=x, target=y, mu=mu, n_z=tuple(nz),
                             classification=cls, count=count))
    return out


def _blocks(data):
    """The generators of each Spin^c block, in index order, with the block's
    periodic lattice."""
    gens = data.partition.generators
    return [([gens[i] for i in block], lattice)
            for block, lattice in zip(data.partition.blocks, data.lattices)]


def _lattice(data, x):
    """The periodic lattice of generator x's Spin^c block."""
    return data.lattice_of(data.partition.generators.index(x))


def _assert_matches_reference(d, indices=(1,), tilde=None, data=None, tally=None):
    """One call per Spin^c block and index, against the per-pair reference
    concatenated source-major.  The call solves each (phi0, shift) of its
    pairs that pass the residue test exactly once, and nothing for a pair
    that fails it, so a different shift never reads another system's
    records.  ``tally`` counts the systems new to the calculator and the
    pairs whose system an earlier pair (of any call) had."""
    data = data or DiagramData.build(d)
    calc = data.calc
    tilde = tilde or diagram_algebra(d, variant=alg.TILDE)
    tally = {"new": 0, "reused": 0} if tally is None else tally
    solved, seen, found = [], set(), 0
    certificate = diskcount.finiteness_certificate

    def spy(lattice, phi0, shift):
        solved.append((tuple(phi0), shift))
        return certificate(lattice, phi0, shift)

    with mock.patch.object(diskcount, "finiteness_certificate", spy):
        for block, lattice in _blocks(data):
            g = math.gcd(*lattice.mu)
            for index in indices:
                ref = [c for x in block for y in block
                       for c in reference_mu1_classes(d, x, y, tilde, lattice, index)]
                solved.clear()
                # DiskClass equality covers domain, n_z, classification,
                # count, mu and both generators; list equality the order
                assert enumerate_mu1_classes(lattice, block, block, index) == ref
                found += len(ref)
                passing = []
                for x in block:
                    for y in block:
                        phi0 = calc.connecting(x, y)
                        shift = index - maslov_index(d, phi0, x, y)
                        if shift % g == 0 if g else shift == 0:
                            passing.append((tuple(phi0), shift))
                assert sorted(solved) == sorted(set(passing))
                for system in passing:
                    tally["reused" if system in seen else "new"] += 1
                    seen.add(system)
    return found


INDICES = range(-2, 4)

CORPUS_SYSTEMS = {  # (distinct systems, pairs that repeat one), indices -2..3
    "genus2_pair": (3, 1), "grid2": (9, 3), "nomatch_genus2": (0, 0),
    "special_hs": (27, 21), "sphere_bad": (0, 0), "sphere_split": (9, 3),
    "torus_lens": (3, 3), "torus_min": (3, 0), "trefoil": (21, 6), "unknot": (3, 0),
}


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_sliced_enumerator_matches_reference_on_corpus(name):
    tally = {"new": 0, "reused": 0}
    _assert_matches_reference(corpus.load_diagram(name), INDICES, tally=tally)
    # pairs (x, x) share phi0 = 0, and stabilized pairs share a moved part;
    # torus_lens's two blocks share one lattice, and each block's call
    # solves the three systems of its own pairs (x, x)
    assert (tally["new"], tally["reused"]) == CORPUS_SYSTEMS[name]


def _stabilized(name, k):
    d = corpus.load_diagram(name)
    for _ in range(k):
        d = stabilize_diagram(d, 0)
    return d


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["unknot", "trefoil", "grid2"])
def test_sliced_enumerator_matches_reference_on_ladder(name, k, monkeypatch):
    # the enumerator runs through the block's compiled systems: every
    # certificate LP replays a system's recording and every listing its
    # listing recording
    d = _stabilized(name, k)
    used = []
    for fn, at in (("linear_range", 3), ("integer_points", 2)):
        original = getattr(linprog, fn)

        def spy(*args, original=original, at=at):
            if len(args) > at:
                used.append(args[at])
            return original(*args)

        monkeypatch.setattr(linprog, fn, spy)
    data = DiagramData.build(d)
    tally = {"new": 0, "reused": 0}
    assert _assert_matches_reference(d, INDICES, data=data, tally=tally) > 0
    assert tally["reused"] > 0 and tally["new"] > 0
    (lattice,) = {data.lattice_of(i) for i in range(len(d.generators()))}
    compiled = [r for s in certificate_systems(lattice)
                for r in (s.recording, s.listing)]
    assert {id(r) for r in used} == {id(r) for r in compiled}


@pytest.mark.parametrize("name, k, residue, empty, systems", [
    pytest.param(*case, id="-".join(map(str, case[:4]))) for case in [
        ("trefoil", 2, 72, 20, 32), ("unknot", 2, 8, 0, 4), ("trefoil", 1, 18, 3, 10),
        ("grid2", 2, 32, 4, 14)]
])
def test_residue_test_and_empty_certificate_list_no_box(name, k, residue, empty,
                                                        systems, monkeypatch):
    # a pair whose shift 1 - mu(phi0) is no multiple of the gcd of the mu row
    # has no lattice point on its mu slice: the enumerator finds it no class
    # before any certificate LP or listing.  Each (phi0, shift) of the pairs
    # that pass makes one LP per stratum, and one listing per stratum unless
    # the certificate finds every stratum empty; a pair that repeats a
    # system of the call makes neither.  So one call over the block makes
    # strata x distinct systems LPs, not a number per pair
    d = _stabilized(name, k)
    data = DiagramData.build(d)
    calc = data.calc
    tilde = diagram_algebra(d, variant=alg.TILDE)
    lps, listings = [], []
    spied, listed = linprog.linear_range, linprog.integer_points
    monkeypatch.setattr(linprog, "linear_range",
                        lambda *args: lps.append(args) or spied(*args))
    monkeypatch.setattr(linprog, "integer_points",
                        lambda *args: listings.append(args) or listed(*args))
    gens = d.generators()
    (lattice,) = {data.lattice_of(i) for i in range(len(gens))}
    strata = len(certificate_systems(lattice))
    classes = enumerate_mu1_classes(lattice, gens, gens)
    made = len(lps), len(listings)
    assert classes == [c for x in gens for y in gens
                       for c in reference_mu1_classes(d, x, y, tilde, lattice)]
    seen = {"residue": 0, "empty": 0, "boxed": 0}
    solved = {}  # (phi0, shift) -> every stratum empty
    for x in gens:
        for y in gens:
            phi0 = calc.connecting(x, y)
            shift = 1 - maslov_index(d, phi0, x, y)
            if shift % math.gcd(*lattice.mu):
                seen["residue"] += 1
                continue
            system = (tuple(phi0), shift)
            if system not in solved:
                solved[system] = finiteness_certificate(lattice, phi0, shift) is None
            seen["empty" if solved[system] else "boxed"] += 1
    assert seen == {"residue": residue, "empty": empty,
                    "boxed": len(gens) ** 2 - residue - empty}
    assert len(solved) == systems
    assert made == (strata * systems, strata * sum(not none for none in solved.values()))


def test_residue_failure_makes_no_solve_and_no_index(monkeypatch):
    # trefoil+2, with the generators' potentials in hand: one call over the
    # block makes one connecting solve per pair that passes the residue
    # test, in source-major order, none for the 72 that fail it, and no
    # maslov_index call
    from sfkit import domains

    d = _stabilized("trefoil", 2)
    data = DiagramData.build(d)
    calc = data.calc
    gens = d.generators()
    for g in gens:
        calc.potential(g)
    lattice = data.lattice_of(0)
    calls = []
    connecting = DomainCalculator.connecting
    monkeypatch.setattr(DomainCalculator, "connecting",
                        lambda *args: calls.append(args[1:]) or connecting(*args))
    monkeypatch.setattr(domains, "maslov_index",
                        lambda *args: calls.append("maslov_index") or maslov_index(*args))
    enumerate_mu1_classes(lattice, gens, gens)
    passing = [(x, y) for x in gens for y in gens
               if not (1 - calc.potential(x) + calc.potential(y)) % math.gcd(*lattice.mu)]
    assert calls == passing
    assert len(gens) ** 2 - len(passing) == 72


def test_sources_and_targets_of_different_blocks_give_no_class(monkeypatch):
    # torus_lens has two blocks: with the generators' potentials in hand, a
    # call from one block's generators to the other's finds no class and
    # makes no connecting solve, since no target shares a source's key
    for k in (0, 1):
        d = _stabilized("torus_lens", k)
        data = DiagramData.build(d)
        for g in d.generators():
            data.calc.potential(g)
        blocks, lattices = zip(*_blocks(data))
        assert len(blocks) == 2
        calls = []
        connecting = DomainCalculator.connecting
        monkeypatch.setattr(DomainCalculator, "connecting",
                            lambda *args: calls.append(args[1:]) or connecting(*args))
        for (one, other), lattice in zip((blocks, blocks[::-1]), lattices):
            for index in INDICES:
                assert enumerate_mu1_classes(lattice, one, other, index) == []
        assert calls == []
        monkeypatch.undo()


def test_residue_test_answers_before_admissibility():
    # special_hs with a handle added to region 0 is not s-admissible (mu row
    # [2, 0, 0, 0, 2]): a nonnegative periodic domain with mu = 0 makes the
    # certificate unbounded on the mu slices it reaches.  A pair whose shift
    # is odd has no lattice point on its slice and no class; the enumerator
    # and the certificate say so, while the reference, which skips the
    # residue test, raises NotAdmissibleError when the shift is positive
    raw = corpus.load_diagram("special_hs").to_dict()
    raw["regions"][0]["genus"] += 1
    d = HeegaardDiagram.from_dict(raw)
    data = DiagramData.build(d)
    calc = data.calc
    tilde = diagram_algebra(d, variant=alg.TILDE)
    gens = d.generators()
    assert data.lattice_of(0).mu == [2, 0, 0, 0, 2]
    assert not check_s_admissible(data.lattice_of(0)).admissible
    odd, raised = 0, 0
    for x in gens:
        for y in gens:
            phi0 = calc.connecting(x, y)
            for index in INDICES:
                shift = index - maslov_index(d, phi0, x, y)
                if shift % 2 == 0:
                    continue
                odd += 1
                lattice = _lattice(data, x)
                assert enumerate_mu1_classes(lattice, [x], [y], index) == []
                assert finiteness_certificate(lattice, phi0, shift) is None
                if shift < 0:
                    continue
                raised += 1
                with pytest.raises(NotAdmissibleError):
                    reference_mu1_classes(d, x, y, tilde, lattice, index)
    assert (odd, raised) == (48, 28)
    # an even shift reaches the certificate, which raises; nothing outlives
    # the call, so a repeat raises again
    lattice = data.lattice_of(0)
    for _ in range(2):
        with pytest.raises(NotAdmissibleError):
            enumerate_mu1_classes(lattice, gens[:1], gens[:1], 0)


@pytest.mark.parametrize("name", ["trefoil", "grid2", "special_hs", "sphere_split"])
def test_sliced_enumerator_matches_reference_across_indices(name):
    # on the trefoil (rank one) every sliced row has no variable left and is
    # a feasibility check; other indices exercise non-integral t_L
    assert _assert_matches_reference(corpus.load_diagram(name), INDICES) > 0


def test_sliced_enumerator_keeps_the_survival_check(monkeypatch):
    # the trefoil's four classes have n_z = (1, 0) or (0, 1).  With a
    # positive-genus component through mark 1, or one through each mark,
    # the strata force those marks to 0: the classes through them drop, as
    # the reference's filter by the matching algebra drops them
    from sfkit import admissibility

    d = corpus.load_diagram("trefoil")
    for supports, found in [((), 4), (((0,),), 2), (((0,), (1,)), 0)]:
        monkeypatch.setattr(admissibility, "tilde_kill_supports", lambda d: list(supports))
        kill = tuple(tuple(int(i in s) for i in range(2)) for s in supports)
        tilde = alg.AlgebraSpec(names=("l1", "l2"), kill=kill)
        assert _assert_matches_reference(d, tilde=tilde) == found


def test_constant_index_enumerates_whole_box_or_nothing():
    # genus2_pair: mu vanishes on the periodic lattice
    d = corpus.load_diagram("genus2_pair")
    data = DiagramData.build(d)
    calc = data.calc
    gens = d.generators()
    for x in gens:
        for y in gens:
            phi0 = calc.connecting(x, y)
            points = x.points + y.points
            assert all(maslov_x4(d, P, points) == 0 for P in calc.periodic_basis)
            mu0 = maslov_x4(d, phi0, points) // 4
            tilde = diagram_algebra(d, variant=alg.TILDE)
            for index in range(-2, 3):
                lattice = _lattice(data, x)
                classes = enumerate_mu1_classes(lattice, [x], [y], index)
                if index != mu0:
                    assert classes == []
                assert classes == reference_mu1_classes(d, x, y, tilde, lattice, index)
    # the bigon from x0 to x1 at index one, the constant classes at index zero
    assert _assert_matches_reference(d, range(-2, 3)) == 3


class _RepeatedBasis(DomainCalculator):
    """A calculator whose lattice basis lists one periodic domain twice."""

    def __init__(self, d):
        super().__init__(d)
        self.periodic_basis = self.periodic_basis + self.periodic_basis[:1]
        self.periodic_n_z = self.periodic_n_z + self.periodic_n_z[:1]


def test_unbounded_box_raises():
    # a basis that lists one domain twice puts a zero domain in K0: the
    # certificate bounds sum_r D_r, yet the stratum polytope is unbounded
    # along that coordinate.  A true basis never does this, so the
    # enumerator's listing raises linprog.Unbounded and the reference's box
    # its own error.  The error is raised again on a repeat: nothing
    # outlives the call
    d = corpus.load_diagram("trefoil")
    calc = _RepeatedBasis(d)
    tilde = diagram_algebra(d, variant=alg.TILDE)
    gens = d.generators()
    mu = [maslov_of_periodic(d, P, gens[1]) for P in calc.periodic_basis]
    lattice = PeriodicLattice(calc=calc, mu=mu, at=gens[1])
    shift = 1 - (calc.potential(gens[1]) - calc.potential(gens[0]))
    assert finiteness_certificate(lattice, calc.connecting(gens[1], gens[0]), shift) is not None
    for _ in range(2):
        with pytest.raises(linprog.Unbounded):
            enumerate_mu1_classes(lattice, [gens[1]], [gens[0]])
    with pytest.raises(RuntimeError, match="certificate box is unbounded"):
        reference_mu1_classes(d, gens[1], gens[0], tilde, lattice)


def test_fresh_calculator_solves_its_systems_again(monkeypatch):
    # the records live in the call, not with the lattice or the module: a
    # second call on one calculator makes the same LPs as the first, and so
    # does a call on a new calculator for the same diagram
    d = _stabilized("trefoil", 1)
    gens = d.generators()
    lps = []
    spied = linprog.linear_range
    monkeypatch.setattr(linprog, "linear_range",
                        lambda *args: lps.append(args) or spied(*args))

    def one_call(data):
        before = len(lps)
        classes = enumerate_mu1_classes(data.lattice_of(0), gens, gens)
        return classes, len(lps) - before

    data = DiagramData.build(d)
    classes, made = one_call(data)
    assert made == 10 and len(classes) > 0
    assert one_call(data) == (classes, made)
    assert one_call(DiagramData.build(d)) == (classes, made)


# -- differential test of the per-system class records -----------------------
#
# The reference is the per-pair body the records replaced: the pair's own
# certificate and box, and every check run at the pair's own x and y.  The
# box is the listing the per-stratum one replaced: the integer points of
# D >= 0, sum_r D_r <= bound, every stratum's classes among them.


def _box_system(lattice):
    """The box of a block, compiled once: over K0, the stratum-free cone rows
    D = base + sum s_k K_k >= 0 and, last, sum_r D_r <= bound; its system
    holds the right-hand-side sources and the recording."""
    box = CertificateSystem(lattice)
    return box, box.rows + [[-c for c in box.total]]


def _box_points(lattice, base, bound):
    """The domains D = base + sum s_k K_k with D >= 0 and sum_r D_r <= bound,
    K_k the basis of K0, each from one integer point s of the box."""
    (box, rows), K0 = lattice.compiled("box", _box_system), lattice.mu_zero[2]
    rhs = [b for _, b in box.ineqs(base)] + [sum(base) - bound]
    points = linprog.integer_points(list(zip(rows, rhs)), len(K0), box.listing)
    return [lattice.element(s, base, K0) for s in points]


def per_pair_classes(lattice, x, y, tilde, index=1):
    d, calc = lattice.diagram, lattice.calc
    if calc.key(x) != calc.key(y):
        return []
    shift = index - (calc.potential(x) - calc.potential(y))
    g = lattice.mu_zero[0]
    if shift % g if g else shift:
        return []
    phi0 = calc.connecting(x, y)
    bound = finiteness_certificate(lattice, phi0, shift)
    found = [] if bound is None else _box_points(lattice, lattice.slice_base(phi0, shift), bound)
    out = []
    for D in sorted(set(map(tuple, found))):
        if any(c < 0 for c in D):
            continue
        measures = maslov_measures(d, D, x, y)
        if sum(measures) != 4 * index:
            continue
        nz = marked_multiplicities(d, D)
        if not tilde.nf_monomial(nz):
            continue
        cls, count = classify(d, D, x, y, measures)
        out.append(DiskClass(domain=D, source=x, target=y, mu=index, n_z=nz,
                             classification=cls, count=count))
    return out


def _assert_records_match_per_pair(d, tilde=None):
    """One call per block and index against the per-pair bodies,
    concatenated source-major; returns the number of classes and of pairs
    that shared a (phi0, shift) with an earlier pair."""
    data = DiagramData.build(d)
    calc = data.calc
    tilde = tilde or diagram_algebra(d, variant=alg.TILDE)
    systems, found, shared = {}, 0, 0
    for block, lattice in _blocks(data):
        for index in INDICES:
            ref = [c for x in block for y in block
                   for c in per_pair_classes(lattice, x, y, tilde, index)]
            # DiskClass equality covers every field, list equality the order
            assert enumerate_mu1_classes(lattice, block, block, index) == ref
            found += len(ref)
            for x in block:
                for y in block:
                    phi0 = calc.connecting(x, y)
                    shift = index - (calc.potential(x) - calc.potential(y))
                    seen = (corner_target(d, x, y), _moved_coordinates(x, y))
                    assert seen[0] == [sum(a * b for a, b in zip(row, phi0))
                                       for row in calc.matrix]
                    assert seen[1] == sum(1 for t in seen[0] if t == 1)
                    if (tuple(phi0), shift) in systems:
                        assert systems[(tuple(phi0), shift)] == seen
                        shared += 1
                    systems.setdefault((tuple(phi0), shift), seen)
    return found, shared


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_class_records_match_per_pair_on_corpus(name):
    _assert_records_match_per_pair(corpus.load_diagram(name))


@pytest.mark.parametrize("name, k", [("unknot", 1), ("unknot", 2), ("trefoil", 1),
                                     ("trefoil", 2), ("grid2", 0), ("grid2", 1),
                                     ("grid2", 2), ("special_hs", 1), ("special_hs", 2)])
def test_class_records_match_per_pair_on_ladder(name, k):
    found, shared = _assert_records_match_per_pair(_stabilized(name, k))
    assert found > 0 and shared > 0


@pytest.mark.parametrize("name, k", [(name, k) for name in ("unknot", "trefoil", "grid2")
                                     for k in range(3)])
def test_per_stratum_listing_matches_box_with_two_strata(name, k, monkeypatch):
    # no bundled diagram has two survival strata: with a kill support (0, 1)
    # the strata are {0} and {1}, and a class survives lambda1 lambda2 = 0
    # exactly when it lies in one of them.  The union of the two listings
    # must equal the box filtered by that algebra, also where both strata
    # hold a class (n_z = 0 on marks 0 and 1)
    from sfkit import admissibility

    d = _stabilized(name, k)
    monkeypatch.setattr(admissibility, "tilde_kill_supports", lambda d: [(0, 1)])
    kill = tuple(int(i < 2) for i in range(d.num_marks))
    tilde = alg.AlgebraSpec(names=tuple(f"l{i + 1}" for i in range(d.num_marks)),
                            kill=(kill,))
    found, _ = _assert_records_match_per_pair(d, tilde)
    data = DiagramData.build(d)
    for lattice in data.lattices:
        strata = certificate_systems(lattice)
        assert [s.stratum for s in strata] == [{0}, {1}]
    assert found > 0 or name == "unknot" and k == 0
    # the box holds classes through both marks, which the algebra kills
    free = alg.AlgebraSpec(names=tilde.names)
    through_both = [c for block, lattice in _blocks(data) for index in INDICES
                    for x in block for y in block
                    for c in per_pair_classes(lattice, x, y, free, index)
                    if c.n_z[0] and c.n_z[1]]
    assert bool(through_both) == (k > 0 or name == "grid2")


def test_one_check_per_system_on_ladder(monkeypatch):
    # the six ladder complexes check 72 candidates, one per (system,
    # candidate), where one check per pair made 176, and no candidate takes a
    # normal form (72 more did when each took a survival test); build_cf
    # normalizes one entry polynomial once and gives each entry its own dict
    measured, normalized = [], []
    monkeypatch.setattr(diskcount, "maslov_measures",
                        lambda *args: measured.append(args) or maslov_measures(*args))
    normal_form = alg.AlgebraSpec.normal_form
    monkeypatch.setattr(alg.AlgebraSpec, "normal_form",
                        lambda *args: normalized.append(args) or normal_form(*args))
    entries = []
    for name in ("unknot", "trefoil"):
        for k in range(3):
            cx = build_cf(_stabilized(name, k))
            entries += cx.entries.values()
    assert len(measured) == 72
    assert len(normalized) == 16
    assert len(entries) == 48 and len({id(e) for e in entries}) == 48


def test_records_are_kept_per_index():
    # a record answers only its own call's (phi0, shift, index).  A potential
    # off by one at x poses the trefoil's bigon pair at index 2 with the
    # shift of index 1, so another mu(phi0): the index-1 record must not
    # answer it
    d = corpus.load_diagram("trefoil")
    data = DiagramData.build(d)
    calc = data.calc
    x, y = d.generators()[1], d.generators()[0]
    lattice = data.lattice_of(1)
    assert [c.n_z for c in enumerate_mu1_classes(lattice, [x], [y])] == [(0, 1)]
    potential = calc.potential
    calc.potential = lambda g: potential(g) + (g == x)
    assert enumerate_mu1_classes(lattice, [x], [y], 2) == []
    assert per_pair_classes(lattice, x, y, diagram_algebra(d, variant=alg.TILDE), 2) == []


def test_records_are_kept_per_shift_within_a_call():
    # on trefoil+1 the pairs (x0, x1) and (x2, x3) share phi0 and have
    # classes.  With the potential of x2 raised by g, the residue test still
    # passes, but (x2, x3) poses that phi0 with another shift, whose slice
    # holds no class of index one: the call must not answer it with the
    # records of (x0, x1)
    d = _stabilized("trefoil", 1)
    data = DiagramData.build(d)
    calc = data.calc
    tilde = diagram_algebra(d, variant=alg.TILDE)
    x0, x1, x2, x3 = d.generators()[:4]
    lattice = data.lattice_of(0)
    assert calc.connecting(x0, x1) == calc.connecting(x2, x3)
    assert enumerate_mu1_classes(lattice, [x2], [x3]) != []
    g, potential = lattice.mu_zero[0], calc.potential
    calc.potential = lambda gen: potential(gen) + g * (gen == x2)
    classes = enumerate_mu1_classes(lattice, [x0, x2], [x1, x3])
    assert classes == [c for x in (x0, x2) for y in (x1, x3)
                       for c in per_pair_classes(lattice, x, y, tilde)]
    assert classes and all(c.source == x0 for c in classes)
