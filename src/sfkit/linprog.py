"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Inequalities are (coeffs, rhs) pairs meaning sum(coeffs[i] * x[i]) >= rhs;
coefficients may be ints or Fractions.  Internally each inequality is one
integer row (coeffs..., rhs), cleared of denominators once on input and
divided by the gcd of its entries, so elimination runs in plain integer
arithmetic and deduplicates rows by tuple equality.  Fractions appear only
where a ratio is formed: the bounds of ``linear_range`` and the coordinates
of ``feasible_point``.  Problem sizes in this package are tiny (a handful of
lattice coordinates), so elimination with deduplication gives exact
witnesses and exact unboundedness certificates quickly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Infeasible(Exception):
    pass


def _row(coeffs, rhs):
    """The primitive integer row (coeffs..., rhs); orientation preserved."""
    row = (*coeffs, rhs)
    if not all(type(v) is int for v in row):
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        row = tuple(int(v * scale) for v in row)
    g = gcd(*row)
    if g > 1:
        row = tuple(v // g for v in row)
    return row


def _eliminate(rows, var):
    """Fourier-Motzkin step removing variable ``var``.

    Rows keep their order: first those without ``var``, then the combinations
    of each positive row with each negative one, new rows only.
    """
    pos, neg, out = [], [], []
    for row in rows:
        c = row[var]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            out.append(row)
    seen = set(out)
    for p in pos:
        cp = p[var]
        for n in neg:
            cn = -n[var]
            g = gcd(cp, cn)
            a, b = cp // g, cn // g
            row = tuple(b * u + a * v for u, v in zip(p, n))
            g = gcd(*row[:-1])
            if g == 0:
                if row[-1] > 0:
                    raise Infeasible
                continue
            g = gcd(g, row[-1])
            if g > 1:
                row = tuple(v // g for v in row)
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out


def feasible_point(ineqs, nvars):
    """A rational point satisfying all inequalities, or None.

    ``ineqs`` is a list of (coeffs, rhs) with len(coeffs) == nvars, meaning
    coeffs . x >= rhs.
    """
    systems = [[_row(coeffs, rhs) for coeffs, rhs in ineqs]]
    try:
        for var in range(nvars - 1, -1, -1):
            systems.append(_eliminate(systems[-1], var))
    except Infeasible:
        return None
    for row in systems[-1]:
        if row[-1] > 0:
            return None
    point = [Fraction(0)] * nvars
    # systems[n-1-k] still contains variables 0..k; assign k = 0, 1, ... using
    # the already-fixed lower coordinates
    for var in range(0, nvars):
        system = systems[nvars - 1 - var]
        lo, hi = None, None
        for row in system:
            c = row[var]
            if c == 0:
                continue
            bound = Fraction(row[-1] - sum(row[j] * point[j] for j in range(0, var)), c)
            if c > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = hi
    return point


def linear_range(ineqs, nvars, objective):
    """Exact range of objective . x over the polyhedron.

    Returns (lo, hi) where either end is a Fraction or None (unbounded), or
    None if the polyhedron is empty.
    """
    # introduce t = objective . x as variable index nvars, then eliminate x
    rows = [_row([*coeffs, 0], rhs) for coeffs, rhs in ineqs]
    rows.append(_row([*objective, -1], 0))
    rows.append(_row([-c for c in objective] + [1], 0))
    try:
        for var in range(nvars - 1, -1, -1):
            rows = _eliminate(rows, var)
    except Infeasible:
        return None
    # each row reads c * t >= rhs; keep the best bound as a pair (rhs, c)
    # with c > 0 and compare by cross-multiplication
    lo, hi = None, None
    for row in rows:
        c, rhs = row[nvars], row[-1]
        if c == 0:
            if rhs > 0:
                return None
        elif c > 0:
            if lo is None or rhs * lo[1] > lo[0] * c:
                lo = (rhs, c)
        elif hi is None or rhs * hi[1] > hi[0] * c:
            hi = (-rhs, -c)
    lo = None if lo is None else Fraction(*lo)
    hi = None if hi is None else Fraction(*hi)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def integer_scale(point):
    """Clear denominators of a rational vector, returning an integer vector."""
    scale = lcm(*(c.denominator for c in point))
    return [int(c * scale) for c in point]
