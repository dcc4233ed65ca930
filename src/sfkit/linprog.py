"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Inequalities are (coeffs, rhs) pairs meaning sum(coeffs[i] * x[i]) >= rhs;
coefficients, right-hand sides and objectives are ints (every system in this
package is integral: the enumerator's slices are integer domains).
Internally each inequality is a primitive integer direction q (its
coefficients over their gcd) and a bound r / s, a reduced rational, meaning
q . x >= r / s; the pair stands for the primitive integer row (s q, r), so
elimination runs in plain integer arithmetic.  Each elimination step keeps,
of the rows with one direction, only the tightest, which leaves every
projection unchanged.

One eliminator builds the projection chain (``_project``) and one routine
reads bounds off it (``_bounds``); all three entry points share them:

* ``linear_range`` turns the objective into a coordinate u by the exact
  change of variables of ``substitute`` (no extra variable, no extra rows),
  eliminates the other coordinates and reads u's range;
* ``feasible_point`` back-substitutes a rational point, lowest coordinate
  first, each at its lower bound given the coordinates already fixed;
* ``integer_points`` walks the same bounds depth-first over integers and
  lists every integer point in lexicographic order.

Recorded eliminations.  Each Fourier-Motzkin step has two parts: which rows
it combines and with which multipliers, which rows share a direction, and
so the directions of the projection, all depend on the coefficients alone
(``_structure``); the bounds follow from that structure and the right-hand
sides (``_eliminate``).  Every step goes through both, and the bounds have
one computation.  A caller that solves one coefficient matrix for many
right-hand sides passes a ``Recording`` to ``linear_range`` or
``integer_points``, which keeps the structure of each step once it is
built, so later calls only recompute bounds.  The recording keeps the rows
of its first call and checks a later call's rows by identity first, so an
owner passing its own rows pays no comparison of entries.  It lives as
long as its owner; in this package that is the compiled block systems of a
``PeriodicLattice`` (the finiteness certificate's strata and the
enumerator's box), one recording each.  Nothing is cached at module level,
and one-shot systems (admissibility checks, monomial fibers) pass no
recording.

Fractions appear only where a ratio is returned: the bounds of
``linear_range`` and the coordinates of ``feasible_point``.  Problem sizes
in this package are tiny (a handful of lattice coordinates), so elimination
gives exact witnesses and exact unboundedness certificates quickly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import is_, itemgetter, mul


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class Recording:
    """The elimination structure of one system, kept for replay.

    It is made for the variable count, the coefficient rows and, for
    ``linear_range``, the objective of its first call; a call with another
    system raises ValueError.  A step's structure does not depend on the
    bounds, so a call cut short by Infeasible leaves the steps it reached,
    and the next call adds the rest.
    """

    __slots__ = ("nvars", "rows", "objective", "start", "steps", "levels")

    def __init__(self):
        self.nvars = self.rows = self.objective = None  # the system, from the first call
        self.start = None  # (directions, bound multipliers, substituted) of the inputs
        self.steps = []  # per eliminated variable: (directions, entries of _structure)
        self.levels = None  # the chain's bounding rows and boundedness (_levels)

    def _matches(self, ineqs, nvars, objective) -> bool:
        """The call's system is the recorded one; rows are compared by
        identity first, as an owner passes its own row objects."""
        rows, other = self.rows, self.objective
        if nvars != self.nvars or len(ineqs) != len(rows):
            return False
        if objective is not other and (None in (objective, other)
                                       or tuple(objective) != tuple(other)):
            return False
        return (all(map(is_, map(itemgetter(0), ineqs), rows))
                or all(tuple(a) == tuple(r) for (a, _), r in zip(ineqs, rows)))


def _reduced(num, den):
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def _start(coeffs, objective):
    """The input rows' structure: per row its primitive direction q and the
    multiplier (a, b) turning its right-hand side into its bound, rhs * a / b.
    With a nonzero objective the rows are those of ``substitute``, whose
    right-hand sides are the given ones times |objective_k|.  A row without
    variables has b = 0: only the sign of its right-hand side counts.
    Returns (directions, multipliers, substituted)."""
    scale = 1
    sub = None if objective is None else substitute(coeffs, objective)
    if sub is not None:
        k, coeffs = sub
        scale = abs(objective[k])
    dirs, mults = [], []
    for a in coeffs:
        h = gcd(*a)
        if h == 0:
            dirs.append(tuple(a))
            mults.append((1, 0))
            continue
        # a = h q, so a . x >= rhs reads q . x >= rhs / h
        dirs.append(tuple([v // h for v in a]) if h > 1 else tuple(a))
        mults.append((1, h) if scale == 1 else _reduced(scale, h))
    return dirs, mults, sub is not None


def _inputs(ineqs, nvars, objective, recording):
    """The input system (directions, bound numerators, bound denominators)
    and whether the objective was substituted, recording or checking the
    structure as asked."""
    if recording is None:
        start = _start([a for a, _ in ineqs], objective)
    else:
        if recording.start is None:
            rows = [a for a, _ in ineqs]
            recording.nvars, recording.rows, recording.objective = nvars, rows, objective
            recording.start = _start(rows, objective)
        elif not recording._matches(ineqs, nvars, objective):
            raise ValueError("recording made for another system")
        start = recording.start
    dirs, mults, substituted = start
    nums, dens = [], []
    for (_, rhs), (a, b) in zip(ineqs, mults):
        if b == 1:
            nums.append(rhs * a)
            dens.append(1)
            continue
        num, den = ((rhs > 0) - (rhs < 0), 1) if b == 0 else _reduced(rhs * a, b)
        nums.append(num)
        dens.append(den)
    return (dirs, nums, dens), substituted


def _structure(dirs, var, out_dirs):
    """The part of the Fourier-Motzkin step removing variable ``var`` that
    depends on the directions alone, as a stream of entries
    (slot, p, n, u, v, h); the directions of the projection are appended to
    ``out_dirs`` as they first come up, and ``slot`` indexes them.

    Rows without ``var`` come first, each carried as (slot, i, i, 1, 0, 1);
    then each positive row p with each negative row n, combined as
    (u q_p + v q_n) / h, where u and v clear ``var`` and h is the gcd of the
    combined direction.  Opposite directions (h = 0) give no row, only a
    check, with slot None.
    """
    slots = {}

    def slot(q):
        k = slots.get(q)
        if k is None:
            k = slots[q] = len(out_dirs)
            out_dirs.append(q)
        return k

    pos, neg = [], []
    for i, q in enumerate(dirs):
        c = q[var]
        if c > 0:
            pos.append((i, q, c))
        elif c < 0:
            neg.append((i, q, -c))
        else:
            yield slot(q), i, i, 1, 0, 1
    for p, qp, cp in pos:
        for n, qn, cn in neg:
            g = gcd(cp, cn)
            u, v = cn // g, cp // g
            q = [u * a + v * b for a, b in zip(qp, qn)]
            h = gcd(*q)
            if h == 0:
                yield None, p, n, u, v, h
            else:
                yield slot(tuple([x // h for x in q]) if h > 1 else tuple(q)), p, n, u, v, h


def _eliminate(entries, system):
    """The bounds of the Fourier-Motzkin step with structure ``entries``
    (see ``_structure``) applied to ``system``: (numerators, denominators)
    per slot.

    Combining q_p . x >= b_p with q_n . x >= b_n gives
    (u q_p + v q_n) / h . x >= (u b_p + v b_n) / h.  Of the rows in one slot
    only the tightest is kept, the others being implied by it.  An opposite
    pair with b_p + b_n > 0 raises Infeasible.
    """
    _, nums, dens = system
    out_n, out_d = [], []
    for slot, p, n, u, v, h in entries:
        if v:
            sp, sn = dens[p], dens[n]
            if slot is None:
                if nums[p] * sn + nums[n] * sp > 0:
                    raise Infeasible
                continue
            r, s = u * nums[p] * sn + v * nums[n] * sp, sp * sn * h
            if s > 1:
                r, s = _reduced(r, s)
        else:
            r, s = nums[p], dens[p]
        if slot == len(out_n):
            out_n.append(r)
            out_d.append(s)
        elif r * out_d[slot] > out_n[slot] * s:
            out_n[slot], out_d[slot] = r, s
    return out_n, out_d


def _project(system, nvars, recording):
    """The Fourier-Motzkin chain of ``system``: entry k has variables
    nvars-1, ..., nvars-k eliminated, so entry nvars-1-var bounds ``var``
    in terms of the variables below it.  Raises Infeasible, also when a
    row with no variable left has a positive bound.  A recording supplies
    the structure of the steps it holds and keeps those it lacks; without
    one, each step's structure is streamed and not kept."""
    systems = [system]
    for k, var in enumerate(range(nvars - 1, -1, -1)):
        if recording is not None and k < len(recording.steps):
            dirs, entries = recording.steps[k]
        else:
            dirs = []
            entries = _structure(systems[-1][0], var, dirs)
            if recording is not None:
                entries = list(entries)
                recording.steps.append((dirs, entries))
        systems.append((dirs, *_eliminate(entries, systems[-1])))
    dirs, nums, _ = systems[-1]
    if any(r > 0 for q, r in zip(dirs, nums) if not any(q)):
        raise Infeasible
    return systems


def _levels(systems, recording):
    """Per variable, the rows of its projection in the chain of ``_project``
    that bound it, (row index, coefficients of the variables below, its
    coefficient), and whether each is bounded on both sides, which makes a
    nonempty polyhedron bounded.  Directions fix both: a recording keeps them."""
    if recording is not None and recording.levels is not None:
        return recording.levels
    levels = [[(i, q[:var], q[var]) for i, q in enumerate(system[0]) if q[var]]
              for var, system in enumerate(reversed(systems[:-1]))]
    out = levels, all(len({c > 0 for _, _, c in rows}) == 2 for rows in levels)
    if recording is not None:
        recording.levels = out
    return out


def _bounds(rows, system, point):
    """Tightest bounds on a variable of ``system``, given the ``rows`` that
    bound it (``_levels``) and the variables below it fixed to ``point``:
    (lo, hi), each a pair (num, den) with den > 0 meaning num / den, or None
    when that side is unbounded.  Pairs are compared by cross-multiplication,
    so integer points give integer arithmetic."""
    lo, hi = None, None
    _, nums, dens = system
    for i, q, c in rows:
        r, s = nums[i], dens[i]
        # the primitive integer row (s q, r)
        dot = sum(map(mul, q, point))
        if s != 1:
            c, dot = c * s, dot * s
        rhs = r - dot
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
        system, _ = _inputs(ineqs, nvars, None, None)
        systems = _project(system, nvars, None)
    except Infeasible:
        return None
    point = [Fraction(0)] * nvars
    # assign var = 0, 1, ... from the already-fixed lower coordinates
    levels, _ = _levels(systems, None)
    for var, rows in enumerate(levels):
        lo, hi = map(_fraction, _bounds(rows, systems[nvars - 1 - var], point))
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = hi
    return point


def integer_points(ineqs, nvars, recording: Recording | None = None):
    """Every integer point of the polyhedron, in lexicographic order.

    The system is projected once; a depth-first search then gives each
    coordinate its exact integer range given the coordinates already fixed.
    Raises Unbounded when the polyhedron is nonempty and unbounded.
    """
    try:
        system, _ = _inputs(ineqs, nvars, None, recording)
        systems = _project(system, nvars, recording)
    except Infeasible:
        return []
    levels, bounded = _levels(systems, recording)
    if not bounded:
        raise Unbounded
    out = []
    _extend(levels, systems, [0] * nvars, 0, out)
    return out


def _extend(levels, systems, point, var, out):
    """Append to ``out`` every integer point that agrees with ``point``
    before coordinate ``var``: the depth-first search of ``integer_points``."""
    nvars = len(point)
    if var == nvars:
        out.append(tuple(point))
        return
    (lo, lo_den), (hi, hi_den) = _bounds(levels[var], systems[nvars - 1 - var], point)
    for v in range(-(-lo // lo_den), hi // hi_den + 1):
        point[var] = v
        _extend(levels, systems, point, var + 1, out)


def substitute(rows, objective):
    """Change of variables u = objective . x on coefficient rows.

    The coordinate k with the smallest nonzero |objective_k| is solved for,
    x_k = (u - sum_{b != k} objective_b x_b) / objective_k, and each row is
    scaled by |objective_k|, so integer rows stay integer (a right-hand side
    scales with it).  Returns (k, rows) with rows over the other coordinates
    in order, then u, or None for a zero objective.
    """
    pivots = [b for b, c in enumerate(objective) if c]
    if not pivots:
        return None
    k = min(pivots, key=lambda b: abs(objective[b]))
    m, rest = objective[k], [b for b in range(len(objective)) if b != k]
    sign = 1 if m > 0 else -1
    return k, [[sign * (a[b] * m - a[k] * objective[b]) for b in rest] + [sign * a[k]]
               for a in rows]


def linear_range(ineqs, nvars, objective, recording: Recording | None = None):
    """Exact range of objective . x over the polyhedron.

    Returns (lo, hi) where either end is a Fraction or None (unbounded), or
    None if the polyhedron is empty.
    """
    try:
        system, substituted = _inputs(ineqs, nvars, objective, recording)
        if not substituted:
            # a zero objective is 0 wherever the polyhedron is nonempty
            _project(system, nvars, recording)
            return (Fraction(0), Fraction(0))
        rows = _project(system, nvars - 1, recording)[-1]
    except Infeasible:
        return None
    # every row now reads c * u >= rhs, u being the last coordinate
    u = [(i, (), q[-1]) for i, q in enumerate(rows[0]) if q[-1]]
    lo, hi = map(_fraction, _bounds(u, rows, ()))
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def integer_scale(point):
    """Clear denominators of a rational vector, returning an integer vector."""
    scale = lcm(*(c.denominator for c in point))
    return [int(c * scale) for c in point]
