"""Oracles that more than one test module checks sfkit against: plain
computations that no program path needs."""

from sfkit.snf import ZZ


def component_domain(d, comp) -> list:
    """A complement component as a domain vector (indicator of its regions)."""
    vec = [0] * len(d.regions)
    for r in comp.regions:
        vec[r] = 1
    return vec


def mat_mul(A, B, ring=ZZ):
    """The matrix product A B over ``ring``."""
    n, m = len(A), len(B[0]) if B else 0
    out = [[ring.zero()] * m for _ in range(n)]
    for i in range(n):
        row = out[i]
        for t, a in enumerate(A[i]):
            if ring.is_zero(a):
                continue
            for j, b in enumerate(B[t]):
                row[j] = ring.add(row[j], ring.mul(a, b))
    return out
