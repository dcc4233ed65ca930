"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Inequalities are (coeffs, rhs) pairs meaning sum(coeffs[i] * x[i]) >= rhs;
coefficients may be ints or Fractions.  Internally each inequality is one
integer row (coeffs..., rhs), cleared of denominators once on input and
divided by the gcd of its entries, so elimination runs in plain integer
arithmetic.  Each elimination step keeps, of the rows with one direction,
only the tightest, which leaves every projection unchanged.

One eliminator builds the projection chain (``_project``) and one routine
reads bounds off it (``_bounds``); all three entry points share them:

* ``linear_range`` turns the objective into a coordinate u by the exact
  change of variables of ``substitute`` (no extra variable, no extra rows),
  eliminates the other coordinates and reads u's range;
* ``feasible_point`` back-substitutes a rational point, lowest coordinate
  first, each at its lower bound given the coordinates already fixed;
* ``integer_points`` walks the same bounds depth-first over integers and
  lists every integer point in lexicographic order.

Fractions appear only where a ratio is returned.  Problem sizes in this
package are tiny (a handful of lattice coordinates), so elimination gives
exact witnesses and exact unboundedness certificates quickly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Infeasible(Exception):
    pass


class Unbounded(Exception):
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
    of each positive row with each negative one.  Of rows with the same
    direction only the tightest is kept, in the place of the first; the
    others are implied by it.
    """
    pos, neg, out = [], [], []
    tightest = {}  # direction (coefficients over their gcd) -> (index, gcd)

    def keep(row):
        direction = row[:-1]
        g = gcd(*direction) or 1
        if g > 1:
            direction = tuple(v // g for v in direction)
        hit = tightest.get(direction)
        if hit is None:
            tightest[direction] = (len(out), g)
            out.append(row)
        elif row[-1] * hit[1] > out[hit[0]][-1] * g:
            out[hit[0]] = row
            tightest[direction] = (hit[0], g)

    for row in rows:
        c = row[var]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            keep(row)
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
            keep(row)
    return out


def _project(rows, nvars):
    """The Fourier-Motzkin chain of ``rows``: entry k has variables
    nvars-1, ..., nvars-k eliminated, so entry nvars-1-var bounds ``var``
    in terms of the variables below it.  Raises Infeasible, also when a
    row with no variable left reads 0 >= rhs > 0."""
    systems = [rows]
    for var in range(nvars - 1, -1, -1):
        systems.append(_eliminate(systems[-1], var))
    if any(row[-1] > 0 for row in systems[-1] if not any(row[:-1])):
        raise Infeasible
    return systems


def _bounds(system, var, point):
    """Tightest bounds on ``var`` in ``system`` with the variables below it
    fixed to ``point``: (lo, hi), each a pair (num, den) with den > 0 meaning
    num / den, or None when that side is unbounded.  Pairs are compared by
    cross-multiplication, so integer points give integer arithmetic."""
    lo, hi = None, None
    for row in system:
        c = row[var]
        if c == 0:
            continue
        rhs = row[-1] - sum(row[j] * point[j] for j in range(var))
        if c > 0:
            if lo is None or rhs * lo[1] > lo[0] * c:
                lo = (rhs, c)
        elif hi is None or rhs * hi[1] > hi[0] * c:
            hi = (-rhs, -c)
    return lo, hi


def _fraction(bound):
    return None if bound is None else Fraction(*bound)


def feasible_point(ineqs, nvars):
    """A rational point satisfying all inequalities, or None.

    ``ineqs`` is a list of (coeffs, rhs) with len(coeffs) == nvars, meaning
    coeffs . x >= rhs.
    """
    try:
        systems = _project([_row(coeffs, rhs) for coeffs, rhs in ineqs], nvars)
    except Infeasible:
        return None
    point = [Fraction(0)] * nvars
    # assign var = 0, 1, ... from the already-fixed lower coordinates
    for var in range(nvars):
        lo, hi = map(_fraction, _bounds(systems[nvars - 1 - var], var, point))
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = hi
    return point


def integer_points(ineqs, nvars):
    """Every integer point of the polyhedron, in lexicographic order.

    The system is projected once; a depth-first search then gives each
    coordinate its exact integer range given the coordinates already fixed.
    Raises Unbounded when the polyhedron is nonempty and unbounded.
    """
    try:
        systems = _project([_row(coeffs, rhs) for coeffs, rhs in ineqs], nvars)
    except Infeasible:
        return []
    # a nonempty polyhedron is bounded exactly when every projection bounds
    # its last coordinate on both sides
    for var in range(nvars):
        signs = {row[var] > 0 for row in systems[nvars - 1 - var] if row[var]}
        if len(signs) < 2:
            raise Unbounded
    out = []
    point = [0] * nvars

    def extend(var):
        if var == nvars:
            out.append(tuple(point))
            return
        (lo, lo_den), (hi, hi_den) = _bounds(systems[nvars - 1 - var], var, point)
        for v in range(-(-lo // lo_den), hi // hi_den + 1):
            point[var] = v
            extend(var + 1)

    extend(0)
    return out


def substitute(ineqs, objective, value=None):
    """Change of variables u = objective . x.

    The coordinate k with the smallest nonzero |objective_k| is solved for,
    x_k = (u - sum_{b != k} objective_b x_b) / objective_k, and each row is
    scaled by |objective_k|, so integer rows stay integer.  Returns (k, rows)
    with rows over the other coordinates in order, then u, or None for a zero
    objective.  With ``value`` given, u is fixed to it and dropped: the rows
    are restricted to the hyperplane objective . x = value.
    """
    pivots = [b for b, c in enumerate(objective) if c]
    if not pivots:
        return None
    k = min(pivots, key=lambda b: abs(objective[b]))
    m, rest = objective[k], [b for b in range(len(objective)) if b != k]
    sign = 1 if m > 0 else -1
    rows = [([sign * (a[b] * m - a[k] * objective[b]) for b in rest] + [sign * a[k]],
             sign * c * m) for a, c in ineqs]
    if value is not None:
        rows = [(a[:-1], c - a[-1] * value) for a, c in rows]
    return k, rows


def linear_range(ineqs, nvars, objective):
    """Exact range of objective . x over the polyhedron.

    Returns (lo, hi) where either end is a Fraction or None (unbounded), or
    None if the polyhedron is empty.
    """
    sub = substitute(ineqs, objective)
    try:
        if sub is None:
            # a zero objective is 0 wherever the polyhedron is nonempty
            _project([_row(coeffs, rhs) for coeffs, rhs in ineqs], nvars)
            return (Fraction(0), Fraction(0))
        rows = _project([_row(coeffs, rhs) for coeffs, rhs in sub[1]], nvars - 1)[-1]
    except Infeasible:
        return None
    # every row now reads c * u >= rhs, u being the last coordinate
    lo, hi = map(_fraction, _bounds(rows, nvars - 1, [0] * (nvars - 1)))
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def integer_scale(point):
    """Clear denominators of a rational vector, returning an integer vector."""
    scale = lcm(*(c.denominator for c in point))
    return [int(c * scale) for c in point]
