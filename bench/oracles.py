"""Checks of sfkit's outputs by computations made apart from sfkit.

Each ``check_*`` returns a list of failure messages (empty when all hold).
This module imports nothing from sfkit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from inputs import CORPUS_DIR, hypersurface_points, relation_value, POINTS_PER_PRODUCT

# HFK-hat ranks of the bundled knots (grid2: HFK-hat of the unknot tensor V).
KNOWN_RANKS = {"unknot": 1, "trefoil": 3, "grid2": 2}
# Rank of the all-zero homology of the unstabilized ladder bases.
LADDER_BASE_RANKS = {"unknot": 1, "trefoil": 3}


def generator_count(diagram: dict) -> int:
    """Sum over bijections sigma of prod_i |alpha_i cap beta_sigma(i)|."""
    ell = len(diagram["alpha"])
    meet = [[0] * ell for _ in range(ell)]
    for pt in diagram["points"]:
        meet[pt["alpha"]][pt["beta"]] += 1
    total = 0
    for sigma in permutations(range(ell)):
        prod = 1
        for i, j in enumerate(sigma):
            prod *= meet[i][j]
        total += prod
    return total


def f2_rank(rows: list) -> int:
    """Rank over F2 of a 0/1 matrix given as a list of row bitmasks."""
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def _expected_subset(expected, actual, where=""):
    """Mismatches of ``actual`` against every field of ``expected``."""
    out = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: {actual!r} is not a record"]
        for key, val in expected.items():
            if key.startswith("_"):
                continue
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(_expected_subset(val, actual[key], f"{where}.{key}"))
    elif isinstance(expected, list) and expected and isinstance(expected[0], dict):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs from the record"]
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_expected_subset(e, a, f"{where}[{i}]"))
    elif expected != actual:
        out.append(f"{where}: {actual!r} != recorded {expected!r}")
    return out


def check_corpus(root: Path, inputs: dict, outputs: list) -> list:
    errors = []
    for name, report in zip(inputs["names"], outputs):
        path = root / CORPUS_DIR / f"{name}.json"
        diagram = json.loads(path.read_text())
        gens = generator_count(diagram)
        if report.get("generators") != gens:
            errors.append(f"{name}: {report.get('generators')} generators, brute force {gens}")
        for i, block in enumerate(report.get("blocks", [])):
            rank = block.get("sfh_rank")
            if rank is not None and (rank - block["generators"]) % 2:
                errors.append(f"{name} block {i}: rank {rank} and "
                              f"{block['generators']} generators differ mod 2")
        if name in KNOWN_RANKS and report.get("sfh_total_rank") != KNOWN_RANKS[name]:
            errors.append(f"{name}: rank {report.get('sfh_total_rank')}, "
                          f"known {KNOWN_RANKS[name]}")
        record = root / CORPUS_DIR / "expected" / f"{name}.json"
        if record.is_file():
            expected = json.loads(record.read_text())["report"]
            errors.extend(f"{name}{m}" for m in _expected_subset(expected, report))
        else:
            errors.append(f"{name}: no frozen record")
    return errors


def check_ladder(inputs: dict, outputs: list, base_gens: dict) -> list:
    errors = []
    for (name, k), out in zip(inputs["tasks"], outputs):
        label = f"{name}+{k}"
        gens = generator_count(out["diagram"])
        if gens != 2 ** k * base_gens[name]:
            errors.append(f"{label}: brute force {gens} generators, "
                          f"expected 2^{k} x {base_gens[name]}")
        if out["generators"] != gens or out["block"] != gens:
            errors.append(f"{label}: sfkit {out['generators']} generators, "
                          f"block {out['block']}, brute force {gens}")
        # differential over F2: column j holds d(x_j)
        cols = [0] * gens
        for i, j, v in out["entries"]:
            if v % 2:
                cols[j] ^= 1 << i
        dd = [0] * gens
        for j in range(gens):
            for i in range(gens):
                if cols[j] >> i & 1:
                    dd[j] ^= cols[i]
        if any(dd):
            errors.append(f"{label}: d o d != 0 mod 2")
        rank = gens - 2 * f2_rank(cols)
        want = 2 ** k * LADDER_BASE_RANKS[name]
        if rank != want or out["rank"] != want:
            errors.append(f"{label}: F2 rank {rank}, sfkit rank {out['rank']}, "
                          f"stabilization formula {want}")
        if not out.get("valid"):
            errors.append(f"{label}: stabilized diagram fails validate()")
    return errors


def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_eval(p: dict, point: list) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        term = Fraction(c)
        for x, e in zip(point, mono):
            if e:
                term *= x ** e
        total += term
    return total


def as_poly(terms) -> dict:
    return {tuple(m): c for m, c in terms}


def check_knot(inputs: dict, outputs: list, seed: int) -> list:
    """Products and their normal forms agree on the relation hypersurface."""
    errors = []
    for size, nfs in zip(inputs["sizes"], outputs):
        n = size["n"]
        points = hypersurface_points(n, seed, POINTS_PER_PRODUCT * len(size["pairs"]))
        for pt in points:
            if relation_value(pt) != 0:
                errors.append(f"n={n}: oracle point off the hypersurface")
        for k, ((a, b), nf) in enumerate(zip(size["pairs"], nfs)):
            prod = poly_mul(as_poly(a), as_poly(b))
            nf = as_poly(nf)
            for pt in points[POINTS_PER_PRODUCT * k:POINTS_PER_PRODUCT * (k + 1)]:
                if poly_eval(prod, pt) != poly_eval(nf, pt):
                    errors.append(f"n={n} product {k}: normal form changes the value")
                    break
    return errors
