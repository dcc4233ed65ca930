"""Differential tests: the filtration and grading checks against their
earlier bodies.

``FilteredComplex.verify_filtration``, ``verify_grading_drop``,
``cones._cone_decorations`` and ``triangle``'s constant-shift check now read
each entry's coset shift and grading drop from one generator,
``complexes._offsets``.  The ``ref_*`` functions below are the bodies these
replaced, each with its own loop over the entries, kept here as the
reference: each check must give the same value, or raise the same
``ComplexError`` with the same message.  The last tests check the corpus
report's weak admissibility check, which now takes the all-zero hom from the
tilde algebra instead of building the plain one.
"""

import copy
from functools import lru_cache

import pytest

from sfkit import algebra as alg
from sfkit import corpus
from sfkit.admissibility import NotAdmissibleError, check_weak_admissible
from sfkit.cf import DiagramData, build_cf, diagram_algebra
from sfkit.complexes import ComplexError, FilteredComplex
from sfkit.cones import ChainMap, _cone_decorations, free_complex, mapping_cone, multiplication_map
from sfkit.stabilize import stabilize_diagram
from sfkit.testrings import AlgebraTarget, all_zero
from sfkit.triangle import TriangleSystem, verify_filtered_system
from test_triangle import cone_rotation_system

# -- the earlier bodies ------------------------------------------------------


def ref_verify_filtration(c):
    spec = c.algebra
    if spec.chi_group is None or any(x is None for x in c.cosets):
        return True
    for (i, j), e in c.entries.items():
        for m in e:
            expected = spec.chi_group.add(c.cosets[i], spec.chi(m))
            if expected != c.cosets[j]:
                raise ComplexError(
                    "FILTRATION", f"entry {j}->{i} monomial {m} breaks the coset rule"
                )
    return True


def ref_verify_grading_drop(c):
    if any(g is None for g in c.gradings):
        return None
    mod = c.algebra.gr_modulus
    for (i, j), e in c.entries.items():
        for m in e:
            gm = c.algebra.gr(m)
            if gm is None:
                return None
            drop = c.gradings[j] - c.gradings[i] - gm
            if mod:
                drop %= mod
            if drop != 1 and (not mod or drop != 1 % mod):
                raise ComplexError(
                    "GRADING", f"entry {j}->{i} drops grading by {drop}, not 1"
                )
    return True


def ref_chi_shifts(src, tgt, entries):
    spec = src.algebra
    group = spec.chi_group
    if group is None or any(c is None for c in src.cosets + tgt.cosets):
        return None
    return {
        group.add(src.cosets[j], group.neg(group.add(tgt.cosets[i], spec.chi(m))))
        for (i, j), e in entries.items()
        for m in e
    }


def ref_cone_decorations(f):
    A, B = f.source, f.target
    spec = f.algebra
    n = A.rank + B.rank
    cosets, gradings = [None] * n, [None] * n
    shifts = ref_chi_shifts(A, B, f.entries)
    if shifts is not None and len(shifts) <= 1:
        group = spec.chi_group
        shift = shifts.pop() if shifts else group.zero()
        cosets = list(A.cosets) + [group.add(c, shift) for c in B.cosets]
    if all(g is not None for g in A.gradings + B.gradings):
        drops = set()
        for (i, j), e in f.entries.items():
            for m in e:
                gm = spec.gr(m)
                drops.add(
                    None if gm is None else A.gradings[j] - gm - B.gradings[i]
                )
        if None not in drops and len(drops) <= 1:
            delta = drops.pop() if drops else 1
            gradings = list(A.gradings) + [g + delta - 1 for g in B.gradings]
    return cosets, gradings


def ref_verify_filtered_system(system):
    for i in range(3):
        ref_verify_filtration(system.complex(i))
    for i in range(3):
        for tgt, entries, label in ((system.complex(i + 1), system.map_entries(i), f"f_{i}"),
                                    (system.complex(i + 2), system.homotopy_entries(i), f"H_{i}")):
            shifts = ref_chi_shifts(system.complex(i), tgt, entries)
            if shifts is not None and len(shifts) > 1:
                raise ComplexError("FILTRATION", f"{label} has inhomogeneous chi-shift {shifts}")
    return True


def outcome(fn, *args):
    """fn's value, or the code and message of the ComplexError it raises."""
    try:
        return fn(*args)
    except ComplexError as e:
        return ("ComplexError", e.code, str(e))


# -- complexes: the corpus, the ladder and sabotaged copies -------------------


def ladder():
    """(label, diagram) for the unknot and trefoil stabilized once and twice."""
    for name in ("unknot", "trefoil"):
        d = corpus.load_diagram(name)
        for k in (1, 2):
            d = stabilize_diagram(d, 0)
            yield f"{name}+{k}", d


@lru_cache(maxsize=None)
def block_complexes():
    """(label, complex) for every block of every s-admissible corpus and
    ladder diagram."""
    out = []
    diagrams = [(name, corpus.load_diagram(name)) for name in corpus.corpus_names()]
    for label, d in diagrams + list(ladder()):
        if not d.validate().ok:
            continue
        data = DiagramData.build(d)
        for bi in range(len(data.gradings)):
            try:
                out.append((f"{label}/{bi}", build_cf(d, bi, data=data)))
            except NotAdmissibleError:
                pass
    return tuple(out)


def _copy(c, **changes):
    fields = dict(ring=c.ring, gen_names=c.gen_names, cosets=list(c.cosets),
                  gradings=list(c.gradings), entries=dict(c.entries))
    fields.update(changes)
    return FilteredComplex(**fields)


def sabotaged(c):
    """(label, complex): c with one coset shifted by chi(lambda_1), one
    grading shifted by 1 and by the grading modulus, and lambda_1's weight
    made unknown, also with one more entry lambda_1 at the end."""
    spec = c.algebra
    out = []
    if spec.chi_group is not None and spec.nvars and c.rank:
        cosets = list(c.cosets)
        lam = (1,) + (0,) * (spec.nvars - 1)
        cosets[-1] = spec.chi_group.add(cosets[-1], spec.chi(lam))
        out.append(("coset", _copy(c, cosets=cosets)))
    if c.rank and c.gradings[0] is not None:
        for delta in {1, spec.gr_modulus} - {0}:
            gradings = list(c.gradings)
            gradings[0] += delta
            out.append((f"grading+{delta}", _copy(c, gradings=gradings)))
    if spec.gr_weights is not None and spec.nvars and c.rank:
        unknown = copy.copy(spec)
        unknown.gr_weights = (None,) + tuple(spec.gr_weights[1:])
        ring = AlgebraTarget(unknown)
        out.append(("weight", _copy(c, ring=ring)))
        lam = (1,) + (0,) * (spec.nvars - 1)
        entries = dict(c.entries)
        entries.pop((0, c.rank - 1), None)
        entries[(0, c.rank - 1)] = {lam: 1}
        out.append(("weight-entry", _copy(c, ring=ring, entries=entries)))
    return out


@lru_cache(maxsize=None)
def all_complexes():
    out = []
    for label, c in block_complexes():
        out.append((label, c))
        out.extend((f"{label}/{kind}", s) for kind, s in sabotaged(c))
    return tuple(out)


def test_complexes_cover_corpus_ladder_and_sabotage():
    labels = {label for label, _ in all_complexes()}
    assert {"unknot+2/0", "trefoil+2/0", "grid2/0", "special_hs/0"} <= labels
    assert {"trefoil/0/coset", "trefoil/0/grading+1", "trefoil/0/weight",
            "trefoil/0/weight-entry"} <= labels


def test_sabotage_trips_each_check():
    """The differential tests compare failures too, not only passes."""
    def verdicts(kind, ref):
        return [outcome(ref, c) for label, c in all_complexes() if label.endswith("/" + kind)]

    assert ("ComplexError", "FILTRATION") in {v[:2] for v in verdicts("coset", ref_verify_filtration)
                                              if v is not True}
    assert ("ComplexError", "GRADING") in {v[:2] for v in verdicts("grading+1", ref_verify_grading_drop)
                                           if v not in (True, None)}
    assert None in verdicts("weight", ref_verify_grading_drop)


@pytest.mark.parametrize("check, ref", [
    (FilteredComplex.verify_filtration, ref_verify_filtration),
    (FilteredComplex.verify_grading_drop, ref_verify_grading_drop),
])
def test_axiom_checks_match_reference(check, ref):
    for label, c in all_complexes():
        assert outcome(check, c) == outcome(ref, c), label


def chain_maps():
    """Multiplication by each suture variable on each complex, and the same
    entries from a block to each of its sabotaged copies and back."""
    for label, c in block_complexes():
        spec = c.algebra
        copies = sabotaged(c)
        for k in range(spec.nvars):
            f = multiplication_map(c, spec.variable(k))
            yield f"{label}*λ{k + 1}", f
            for kind, s in copies:
                if s.ring is c.ring:
                    yield f"{label}*λ{k + 1}->{kind}", ChainMap(c, s, f.entries)
                    yield f"{label}/{kind}*λ{k + 1}->", ChainMap(s, c, f.entries)


def test_cone_decorations_match_reference():
    seen = 0
    for label, f in chain_maps():
        assert _cone_decorations(f) == ref_cone_decorations(f), label
        seen += 1
    assert seen > 100


def test_cone_decorations_keep_raw_drops_and_zero_shift():
    # the drop 5 - 0 - 2 = 3 stays 3, not 3 mod gr_modulus = 0, and a map
    # without entries shifts known cosets by zero
    spec = alg.AlgebraSpec(names=("a",), gr_weights=(2,), gr_modulus=3)
    A = free_complex(spec, ["x"], gradings=[5])
    B = free_complex(spec, ["y"], gradings=[0])
    f = ChainMap(A, B, {(0, 0): {(1,): 1}})
    assert _cone_decorations(f) == ref_cone_decorations(f) == ([None, None], [5, 2])
    for label, c in block_complexes():
        if c.cosets and c.algebra.chi_group is not None:
            empty = ChainMap(c, c, {})
            assert _cone_decorations(empty)[0] == list(c.cosets) * 2, label
            assert _cone_decorations(empty) == ref_cone_decorations(empty), label
    assert mapping_cone(f).gradings == [5, 2]


# -- triangle systems --------------------------------------------------------


def bundled_system(sabotage=False):
    """The system of ``sfk triangle``: B --g--> C --incl--> cone(g) --proj--> B."""
    spec = alg.AlgebraSpec(names=())
    B = free_complex(spec, ["e0", "e1"])
    C = free_complex(spec, ["e0", "e1"])
    g = {(i, i): {(): 2} for i in range(2)}
    one = {(): 1}
    system = TriangleSystem(
        complexes=[B, C, mapping_cone(ChainMap(B, C, g))],
        maps=[g, {(2 + i, i): one for i in range(2)}, {(i, i): one for i in range(2)}],
        homotopies=[{(i, i): one for i in range(2)}, {},
                    {(i, 2 + i): one for i in range(2)}],
    )
    if sabotage:
        system.homotopies[0] = {}
    return system


def filtered_systems():
    """Systems over the unknot's algebra, whose chi group is Z: homogeneous
    ones and ones whose maps, homotopies or cosets break the constant shift."""
    d = corpus.load_diagram("unknot")
    spec = build_cf(d, 0).algebra
    zero = spec.chi_group.zero()
    lam = spec.normal_form({(1, 0): 1})
    out = []
    for element in ({(1, 1): 1}, {(1, 0): 1}):
        out.append((f"rotation{element}", cone_rotation_system(
            spec, element, cosets=[zero, zero], gradings=None)))
    bad_map = cone_rotation_system(spec, {(1, 1): 1}, cosets=[zero, zero])
    bad_map.maps[0] = dict(bad_map.maps[0])
    bad_map.maps[0][(1, 1)] = lam
    out.append(("inhomogeneous f_0", bad_map))
    bad_homotopy = cone_rotation_system(spec, {(1, 1): 1}, cosets=[zero, zero])
    bad_homotopy.homotopies[0] = {(0, 0): lam, (1, 1): spec.normal_form({(0, 0): 1})}
    out.append(("inhomogeneous H_0", bad_homotopy))
    bad_coset = cone_rotation_system(spec, {(1, 1): 1}, cosets=[zero, spec.chi((1, 0))])
    out.append(("coset", bad_coset))
    unknown = cone_rotation_system(spec, {(1, 1): 1}, cosets=None)
    out.append(("unknown cosets", unknown))
    return out


def test_filtered_systems_match_reference():
    systems = [("bundled", bundled_system()), ("sabotaged", bundled_system(True))]
    systems += filtered_systems()
    results = {}
    for label, system in systems:
        results[label] = outcome(verify_filtered_system, system)
        assert results[label] == outcome(ref_verify_filtered_system, system), label
    assert results["bundled"] is True
    assert results["inhomogeneous f_0"][1] == "FILTRATION"
    assert results["inhomogeneous H_0"][1] == "FILTRATION"


# -- the weak check of the corpus report ---------------------------------------


def test_weak_all_zero_verdict_is_the_same_over_plain_and_tilde():
    # the report takes the all-zero hom from the plain algebra; the verdict
    # is the one the tilde algebra gives
    diagrams = [(name, corpus.load_diagram(name)) for name in corpus.corpus_names()]
    compared = 0
    for label, d in diagrams + list(ladder()):
        if not d.validate().ok:
            continue
        data = DiagramData.build(d)
        plain = diagram_algebra(d, homology=data.homology)
        tilde = diagram_algebra(d, variant=alg.TILDE, homology=data.homology)
        for lattice in data.lattices:
            by_plain = check_weak_admissible(lattice, all_zero(plain))
            assert check_weak_admissible(lattice, all_zero(tilde)) == by_plain, label
            compared += 1
    assert compared >= 10
