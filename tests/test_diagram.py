import pytest

from sfkit import corpus
from sfkit.diagram import ALPHA, BETA, Generator, HeegaardDiagram
from sfkit.stabilize import stabilize_diagram

EXPECTED_GENUS = {
    "torus_min": 1,
    "unknot": 1,
    "trefoil": 1,
    "grid2": 1,
    "torus_lens": 1,
    "sphere_bad": 0,
    "sphere_split": 0,
    "special_hs": 0,
    "genus2_pair": 2,
    "nomatch_genus2": 2,
}

EXPECTED_GENERATORS = {
    "torus_min": 1,
    "unknot": 1,
    "trefoil": 3,
    "grid2": 2,
    "torus_lens": 2,
    "sphere_bad": 0,
    "sphere_split": 2,
    "special_hs": 4,
    "genus2_pair": 2,
    "nomatch_genus2": 0,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_GENUS))
def test_corpus_validates(name):
    d = corpus.load_diagram(name)
    rep = d.validate()
    assert rep.ok, rep.errors
    assert rep.genus == EXPECTED_GENUS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_GENERATORS))
def test_generator_counts(name):
    d = corpus.load_diagram(name)
    assert len(d.generators()) == EXPECTED_GENERATORS[name]


def test_generators_deterministic_order():
    d = corpus.load_diagram("special_hs")
    gens = d.generators()
    keys = [(g.perm, g.points) for g in gens]
    assert keys == sorted(keys)


def search_generators(d):
    """The earlier enumeration, kept as the reference: a depth-first search
    that matches each alpha curve in turn with an unused beta curve and one of
    their crossings, then sorts by (perm, points)."""
    table = d.crossing_table
    out = []

    def extend(i, used, perm, points):
        if i == d.ell:
            out.append(Generator(perm=tuple(perm), points=tuple(points)))
            return
        for j in range(d.ell):
            if j in used:
                continue
            for pt in table.get((i, j), ()):
                extend(i + 1, used | {j}, perm + [j], points + [pt])

    extend(0, frozenset(), [], [])
    return sorted(out, key=lambda g: (g.perm, g.points))


def _ladder(name, k):
    d = corpus.load_diagram(name)
    for _ in range(k):
        d = stabilize_diagram(d, 0)
    return d


@pytest.mark.parametrize(
    "name, k",
    [(name, 0) for name in sorted(EXPECTED_GENERATORS)]
    + [(name, k) for name in ("unknot", "trefoil") for k in (1, 2)],
)
def test_generators_match_sorted_search(name, k):
    d = _ladder(name, k)
    assert list(d.generators()) == search_generators(d)


def test_unbalanced_detected():
    data = corpus.load_diagram("torus_min").to_dict()
    data["beta"] = []
    rep = HeegaardDiagram.from_dict({**data, "arcs": {"a0.0": ["x0", "x0"], "b0.0": ["x0", "x0"]}}).validate()
    assert "UNBALANCED" in rep.error_codes()


def test_unmarked_component_detected():
    data = corpus.load_diagram("torus_min").to_dict()
    data["regions"][0]["marks"] = []
    data["marks"] = 0
    rep = HeegaardDiagram.from_dict(data).validate()
    assert "UNMARKED_COMPONENT" in rep.error_codes()


def test_euler_mismatch_detected():
    # splitting the square's boundary word into two cycles leaves all local
    # data consistent but gives chi(Sigma) = -1: no closed surface does that
    data = corpus.load_diagram("torus_min").to_dict()
    data["regions"][0]["cycles"] = [
        ["x0", "a0.0", "x0", "b0.0"],
        ["x0", "-a0.0", "x0", "-b0.0"],
    ]
    rep = HeegaardDiagram.from_dict(data).validate()
    assert "EULER_MISMATCH" in rep.error_codes()


def test_dependent_curves_detected():
    # torus with two parallel alpha circles and two parallel beta circles and
    # no marked point between alpha_1 and alpha_2 on one side: the classes
    # become dependent in H_1(Sigma - z) (and the markless component is
    # flagged as well, as the two failures go together)
    data = {
        "alpha": [["a0.0"], ["a1.0"]],
        "beta": [["b0.0"], ["b1.0"]],
        "arcs": {"a0.0": None, "a1.0": None, "b0.0": None, "b1.0": None},
        "points": [],
        "regions": [
            {"genus": 0, "cycles": [["a0.0"], ["-b0.0"]], "marks": [0]},
            {"genus": 0, "cycles": [["b0.0"], ["-a1.0"]], "marks": []},
            {"genus": 0, "cycles": [["a1.0"], ["-b1.0"]], "marks": []},
            {"genus": 0, "cycles": [["b1.0"], ["-a0.0"]], "marks": [1]},
        ],
        "marks": 2,
    }
    rep = HeegaardDiagram.from_dict(data).validate()
    # run the independence check directly as well: validation may stop at the
    # unmarked component, which always accompanies this failure
    from sfkit.homology1 import curves_independent

    d = HeegaardDiagram.from_dict(data)
    assert not curves_independent(d, "beta")
    assert {"UNMARKED_COMPONENT", "DEPENDENT_CURVES"} <= set(rep.error_codes())


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_validate_makes_no_smith_form(name, monkeypatch):
    # the complement components decide curve independence: validation runs
    # no Smith normal form (nor a cokernel, which is one) and no field rank
    from sfkit import snf

    calls = []
    for fn in ("smith_normal_form", "rank_over_field"):
        monkeypatch.setattr(snf, fn, lambda *args, fn=fn: calls.append(fn))
    assert corpus.load_diagram(name).validate().ok
    assert calls == []


def test_sphere_bad_is_valid_with_marks_everywhere():
    # null-homotopic curves stay independent in H_1(Sigma - z) because every
    # complement component carries a marked point
    d = corpus.load_diagram("sphere_bad")
    assert d.validate().ok


def test_components_torus_min():
    d = corpus.load_diagram("torus_min")
    (a,) = d.complement_components(ALPHA)
    assert a.genus == 0 and a.marks == (0,)


def test_components_unknot():
    d = corpus.load_diagram("unknot")
    (a,) = d.complement_components(ALPHA)
    (b,) = d.complement_components(BETA)
    assert a.genus == 0 and a.marks == (0, 1)
    assert b.genus == 0 and b.marks == (0, 1)


def test_components_genus2_pair():
    d = corpus.load_diagram("genus2_pair")
    (a,) = d.complement_components(ALPHA)
    (b,) = d.complement_components(BETA)
    assert a.genus == 1 and b.genus == 1


def test_components_partition_regions():
    for name in sorted(EXPECTED_GENUS):
        d = corpus.load_diagram(name)
        for side in (ALPHA, BETA):
            seen = []
            for c in d.complement_components(side):
                seen.extend(c.regions)
            assert sorted(seen) == list(range(len(d.regions)))


def test_knot_complement_components_match_paper_pattern():
    # 2n-suture boundary: R_j^+ = mu_{2j-1} mu_{2j}, R_j^- = mu_{2j} mu_{2j+1}
    from sfkit.algebra import knot_components

    comps = knot_components(2)
    plus = [marks for side, _, marks in comps if side == "beta"]
    minus = [marks for side, _, marks in comps if side == "alpha"]
    assert plus == [(0, 1), (2, 3)]
    assert minus == [(1, 2), (3, 0)]


def test_roundtrip_serialization():
    for name in sorted(EXPECTED_GENUS):
        d = corpus.load_diagram(name)
        d2 = HeegaardDiagram.from_dict(d.to_dict())
        assert d2 == d


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_diagrams_compare_and_hash_by_value(name):
    d = corpus.load_diagram(name)
    d.generators(), d.arc_region_sides  # cached lookups play no part
    d2 = HeegaardDiagram.from_dict(d.to_dict())
    assert d2 is not d and d2 == d and hash(d2) == hash(d)
    assert len({d, d2}) == 1
    data = d.to_dict()
    data["marks"] += 1
    assert HeegaardDiagram.from_dict(data) != d


def test_diagram_records_are_frozen_values():
    d, d2 = corpus.load_diagram("trefoil"), corpus.load_diagram("trefoil")
    records = [
        (d.generators()[1], d2.generators()[1], ("perm", "points")),
        (d.crossings[2], d2.crossings[2], ("alpha", "beta", "quadrants")),
        (d.regions[2], d2.regions[2], ("genus", "cycles", "marks")),
    ]
    for a, b, fields in records:
        values = tuple(getattr(a, f) for f in fields)
        assert a is not b and a == b and hash(a) == hash(b) == hash(values)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(a, f))
    assert d.generators()[0] != d.generators()[1]
    assert d.crossings[0] != d.crossings[1]


def test_complement_components_computed_once():
    d = corpus.load_diagram("grid2")
    for side in (ALPHA, BETA):
        assert d.complement_components(side) is d.complement_components(side)
    assert d.complement_components(ALPHA) != d.complement_components(BETA)


def test_generators_enumerated_once(monkeypatch):
    # the method is still called (the benchmark traces it), but the
    # permutations are enumerated once per diagram
    d = HeegaardDiagram.from_dict(corpus.load_diagram("special_hs").to_dict())
    reads = []
    table = HeegaardDiagram.crossing_table.func
    monkeypatch.setattr(HeegaardDiagram, "crossing_table",
                        property(lambda self: reads.append(self) or table(self)))
    first = d.generators()
    assert len(first) > 1 and d.generators() is first and len(reads) == 1
