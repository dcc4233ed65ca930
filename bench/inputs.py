"""Seeded inputs of the three workloads.

Everything here is plain data built from ``--seed``; sfkit never sees the
seed, only these inputs.  This module imports nothing from sfkit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

CORPUS_DIR = Path("src") / "sfkit" / "corpus"

# Ladder: bundled diagrams, each stabilized k = 0, 1, 2 times at z_0.
LADDER_BASES = ("unknot", "trefoil")
LADDER_DEPTHS = (0, 1, 2)

# Knot algebra of the 2n-suture torus boundary: (n, products per pass,
# largest exponent of the variables after the first two).
KNOT_SIZES = ((2, 30, 3), (3, 40, 2))
# Exponents of (lambda_1, lambda_2) in the six terms of every random
# polynomial.  The leading term lambda_1 lambda_2 of the relation makes
# normal-form cost grow with these exponents; fixing their profile keeps the
# cost of a pass nearly the same for every seed while the other exponents and
# the coefficients vary.
LEAD_PROFILE = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))
COEFFS = (-3, -2, -1, 1, 2, 3)
POINTS_PER_PRODUCT = 2


def corpus_inputs(root: Path, seed: int) -> dict:
    """The bundled diagrams, in a seeded order."""
    names = sorted(p.stem for p in (root / CORPUS_DIR).glob("*.json"))
    random.Random(seed).shuffle(names)
    return {"names": names}


def ladder_inputs(root: Path, seed: int) -> dict:
    """(base diagram, stabilizations) tasks, in a seeded order."""
    tasks = [[name, k] for name in LADDER_BASES for k in LADDER_DEPTHS]
    random.Random(seed).shuffle(tasks)
    return {
        "bases": {name: str(CORPUS_DIR / f"{name}.json") for name in LADDER_BASES},
        "tasks": tasks,
    }


def _random_poly(rng, nvars, max_exp):
    terms = {}
    for lead in LEAD_PROFILE:
        while True:
            mono = lead + tuple(rng.randint(0, max_exp) for _ in range(nvars - 2))
            if mono not in terms:
                break
        terms[mono] = rng.choice(COEFFS)
    return [[list(m), c] for m, c in terms.items()]


def knot_inputs(root: Path, seed: int) -> dict:
    """Pairs of random polynomials per algebra size."""
    rng = random.Random(seed)
    sizes = []
    for n, count, max_exp in KNOT_SIZES:
        pairs = [
            [_random_poly(rng, 2 * n, max_exp), _random_poly(rng, 2 * n, max_exp)]
            for _ in range(count)
        ]
        sizes.append({"n": n, "pairs": pairs})
    return {"sizes": sizes}


def hypersurface_points(n: int, seed: int, count: int) -> list:
    """Rational points of the knot relation sum_j l_{2j-1} l_{2j} =
    sum_j l_{2j} l_{2j+1} (indices mod 2n), solved for l_1.

    The relation is l_1 (l_2 - l_{2n}) + rest = 0 with rest free of l_1.
    """
    rng = random.Random(f"{seed}:{n}")
    points = []
    while len(points) < count:
        lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * n)]
        if lam[1] == lam[2 * n - 1]:
            continue
        lam[0] = Fraction(0)
        rest = relation_value(lam)
        lam[0] = -rest / (lam[1] - lam[2 * n - 1])
        points.append(lam)
    return points


def relation_value(lam) -> Fraction:
    """R^+ minus R^- boundary products of the knot algebra at a point."""
    k = len(lam)
    plus = sum(lam[2 * j] * lam[2 * j + 1] for j in range(k // 2))
    minus = sum(lam[2 * j + 1] * lam[(2 * j + 2) % k] for j in range(k // 2))
    return plus - minus


WORKLOADS = {
    "corpus": corpus_inputs,
    "ladder": ladder_inputs,
    "knot-algebra": knot_inputs,
}
