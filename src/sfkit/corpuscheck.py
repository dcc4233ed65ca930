"""Reproducible per-diagram reports and the corpus regression check.

Every bundled diagram has an expected-results record (with provenance tags
for each value: TRIVIAL forced by definitions, PAPER checked against the
source, DERIVED computed by an independent oracle in the test suite).
``corpus-check`` recomputes each report and compares.
"""

from __future__ import annotations

import json
import os

from . import corpus as corpus_mod
from .admissibility import (
    check_s_admissible,
    check_strong_admissible,
    check_weak_admissible,
)
from .cf import DiagramData, build_cf
from .complexes import homology
from .diagram import ALPHA, BETA
from .testrings import all_zero


def diagram_report(name: str) -> dict:
    d = corpus_mod.load_diagram(name)
    rep = d.validate()
    out = {
        "name": name,
        "valid": rep.ok,
        "genus": rep.genus,
        "marks": d.num_marks,
    }
    if not rep.ok:
        out["errors"] = sorted(rep.error_codes())
        return out

    comps = []
    for side in (ALPHA, BETA):
        for c in d.complement_components(side):
            comps.append(
                {
                    "side": side,
                    "genus": c.genus,
                    "sutures": [m + 1 for m in c.marks],
                }
            )
    out["components"] = comps
    out["generators"] = len(d.generators())

    data = DiagramData.build(d)
    out["spinc_blocks"] = [len(b) for b in data.partition.blocks]

    lattice = data.lattices[0]
    s_rep = check_s_admissible(lattice)
    strong_rep = check_strong_admissible(lattice)
    # the weak check reads only which variable images die, and under the
    # all-zero hom every one does, so any algebra of the diagram serves
    weak_rep = check_weak_admissible(lattice, all_zero(data.tilde))
    out["admissible"] = {
        "s": s_rep.admissible,
        "strong": strong_rep.admissible,
        "weak_all_zero": weak_rep.admissible,
    }
    if not s_rep.admissible:
        out["witness_marks"] = list(s_rep.witness_marks)
        return out

    from .complexes import ComplexError

    blocks = []
    total = 0
    for bi, gd in enumerate(data.gradings):
        c = build_cf(d, bi, data=data)
        tc = c.tensor(all_zero(c.algebra))
        entry = {
            "generators": len(data.partition.blocks[bi]),
            "d_of_s": gd.d_of_s,
            "gradings": sorted(v for v in gd.gr.values() if v is not None),
            "taints": len(c.taints),
        }
        try:
            h = homology(tc)
            entry["sfh_rank"] = h.total_rank()
            entry["sfh_torsion"] = [str(t) for t in h.torsion_summands()]
            total += h.total_rank()
        except ComplexError as e:
            # unsupported classes whose weights survive the hom: the
            # homology is honestly unknown to the combinatorial backend
            entry["sfh_rank"] = None
            entry["tainted"] = True
        blocks.append(entry)
    out["blocks"] = blocks
    out["sfh_total_rank"] = total
    return out


class NothingCompared(ValueError):
    """The corpus holds no diagram with an expected record."""


def run_corpus_check():
    """(ok, log lines) of comparing each diagram that has an expected record
    with its report; NothingCompared when no diagram has one."""
    expected = {name: corpus_mod.load_expected(name) for name in corpus_mod.corpus_names()}
    if all(record is None for record in expected.values()):
        raise NothingCompared(
            f"no diagram in {corpus_mod.corpus_dir()} has an expected record; "
            "nothing was compared")
    lines = []
    ok = True
    for name in sorted(expected):
        if expected[name] is None:
            lines.append(f"{name}: SKIP (no expected record)")
            continue
        mismatches = _diff(expected[name].get("report", {}), diagram_report(name))
        if mismatches:
            ok = False
            lines.append(f"{name}: FAIL")
            for m in mismatches:
                lines.append(f"    {m}")
        else:
            lines.append(f"{name}: ok")
    return ok, lines


def _diff(expected, actual, prefix=""):
    out = []
    for key, val in expected.items():
        if key.startswith("_"):
            continue
        here = f"{prefix}{key}"
        if key not in actual:
            out.append(f"missing key {here}")
            continue
        got = actual[key]
        if isinstance(val, dict) and isinstance(got, dict):
            out.extend(_diff(val, got, here + "."))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            if len(val) != len(got):
                out.append(f"{here}: length {len(got)} != {len(val)}")
            else:
                for i, (v, g) in enumerate(zip(val, got)):
                    out.extend(_diff(v, g, f"{here}[{i}]."))
        elif got != val:
            out.append(f"{here}: {got!r} != expected {val!r}")
    return out


PROVENANCE = {
    "valid": "TRIVIAL: structural definitions",
    "genus": "DERIVED: Euler count of the combinatorial map",
    "components": "DERIVED: cut-and-glue over the region graph",
    "generators": "DERIVED: matching enumeration (hand-checked on small fixtures)",
    "spinc_blocks": "DERIVED: integer solvability certificates (SNF)",
    "admissible": "DERIVED: exact rational cone feasibility with re-verified witnesses",
    "blocks": "DERIVED: grading solver + brute-force class enumeration oracles",
    "sfh_total_rank": "DERIVED: Smith-normal-form homology, cross-checked by an independent integer path",
}


def write_expected():
    """Regenerate the expected records (used once; values are then frozen)."""
    directory = os.path.join(corpus_mod.corpus_dir(), "expected")
    os.makedirs(directory, exist_ok=True)
    for name in corpus_mod.corpus_names():
        report = diagram_report(name)
        payload = {
            "name": name,
            "provenance": {
                k: PROVENANCE[k] for k in report if k in PROVENANCE
            },
            "oracles": "tests/test_acceptance.py and tests/test_*.py freeze each value next to the oracle that derived it",
            "report": report,
        }
        with open(os.path.join(directory, f"{name}.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
