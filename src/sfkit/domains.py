"""Domains of Whitney disk classes: boundary conditions, Maslov index.

A domain is an integer coefficient vector over the regions.  The corner
operator at a crossing (see ``diagram``) gives one linear equation per
crossing; a vector D is the domain of a class connecting x to y exactly when
c_p(D) = [p in x] - [p in y] for every crossing p (``is_domain``, which, like
``maslov_index``, reads the diagram alone).  The kernel of the corner matrix
is the lattice of periodic domains, factored once per diagram by
``DomainCalculator`` and viewed per Spin^c class as a ``PeriodicLattice``,
which ``cf.DiagramData`` builds and owns (the calculator holds none, so a
diagram's objects form a tree that reference counting frees); the
calculator's per-generator Maslov potentials give each pair's index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import snf
from .diagram import Generator, HeegaardDiagram


class NonDomainError(ValueError):
    pass


def corner_matrix(d: HeegaardDiagram):
    rows = []
    for pt in d.crossings:
        row = [0] * len(d.regions)
        q = pt.quadrants
        row[q[1]] += 1
        row[q[3]] += 1
        row[q[0]] -= 1
        row[q[2]] -= 1
        rows.append(row)
    return rows


def corner_target(d: HeegaardDiagram, x: Generator, y: Generator):
    tgt = [0] * len(d.crossings)
    for p in x.points:
        tgt[p] += 1
    for p in y.points:
        tgt[p] -= 1
    return tgt


def is_domain(d: HeegaardDiagram, D, x: Generator, y: Generator) -> bool:
    """D satisfies the corner conditions of a class from x to y."""
    return all(
        D[q1] + D[q3] - D[q0] - D[q2] == t
        for (q0, q1, q2, q3), t in zip(d.crossing_quadrants, corner_target(d, x, y))
    )


class DomainCalculator:
    """Per-diagram cache of the corner system, factored once, of the
    periodic lattice (its basis and the n_z row of each basis domain) and
    of each generator's split and record.

    The corner target of (x, y) is e(x) - e(y), e(g) being the indicator of
    g's points among the crossings.  With U A V = D factored once, each
    generator's U e(g) = D q + r is split once (``snf.split_transformed``):
    ``key(g)`` is r and p(g) = V q.  Remainders are canonical, so x and y
    are connected exactly when their keys are equal, and then p(x) - p(y)
    is the solve of their pair, whose index and n_z are differences of the
    generators' records (``potential``, ``marks``)."""

    def __init__(self, d: HeegaardDiagram):
        self.diagram = d
        self.matrix = corner_matrix(d)
        n = len(d.regions)
        if self.matrix:
            self.factored = snf.smith_normal_form(self.matrix)
            self.periodic_basis = snf.kernel_basis(self.factored)
        else:
            self.factored = None
            self.periodic_basis = [
                [1 if i == j else 0 for j in range(n)] for i in range(n)
            ]
        self.periodic_n_z = [
            list(marked_multiplicities(d, P)) for P in self.periodic_basis
        ]
        self._splits, self._records = {}, {}
        self._references = {}  # key -> the generator its records are taken to

    def _split(self, g: Generator) -> tuple:
        """(key(g), p(g)), computed once per generator."""
        got = self._splits.get(g.points)
        if got is None:
            e = [0] * len(self.diagram.crossings)
            for p in g.points:
                e[p] += 1
            q, r = snf.split_transformed(self.factored, snf.mat_vec(self.factored.U, e))
            got = self._splits[g.points] = (tuple(r), snf.mat_vec(self.factored.V, q))
        return got

    def key(self, g: Generator) -> tuple:
        """Equal for two generators exactly when a domain connects them."""
        return self._split(g)[0] if self.matrix else ()

    def connecting(self, x: Generator, y: Generator) -> list | None:
        """The particular connecting domain of (x, y), or None when no domain
        connects them: one vector subtraction from the generators' splits; it
        equals ``snf.solve_integer(self.factored, corner_target(d, x, y))``."""
        if not self.matrix:
            return [0] * len(self.diagram.regions)
        (kx, px), (ky, py) = self._split(x), self._split(y)
        if kx != ky:
            return None
        return [a - b for a, b in zip(px, py)]

    def _record(self, g: Generator) -> tuple:
        """(potential, n_z) of the connecting domain from g to the first
        generator asked for with g's key (its reference): one solve and one
        Maslov index per generator, none for the reference itself."""
        if g.points not in self._records:
            ref = self._references.setdefault(self.key(g), g)
            D = [0] * len(self.diagram.regions) if ref == g else self.connecting(g, ref)
            mu = 0 if ref == g else maslov_index(self.diagram, D, g, ref)
            self._records[g.points] = mu, marked_multiplicities(self.diagram, D)
        return self._records[g.points]

    def potential(self, g: Generator) -> int:
        """mu of the connecting domain from g to its key's reference.  The
        index adds under juxtaposition, so mu(connecting(x, y)) =
        potential(x) - potential(y)."""
        return self._record(g)[0]

    def marks(self, x: Generator, y: Generator) -> tuple:
        """n_z of the connecting domain from x to y (equal keys), from the
        generators' records: connecting domains subtract."""
        return tuple(a - b for a, b in zip(self._record(x)[1], self._record(y)[1]))


# Measures are quarter-integers: 4 e(D) = sum_r D_r (4 chi_r - corners_r) and
# 4 n_p(D) is the sum of D over the four quadrants at p, so the Maslov index
# is computed as the integer 4 mu and divided once.


def _euler_x4(d: HeegaardDiagram, D) -> int:
    return sum(c * w for c, w in zip(D, d.euler_measures_x4) if c)


def _corners_x4(d: HeegaardDiagram, D, points) -> int:
    quads = d.crossing_quadrants
    acc = 0
    for p in points:
        q0, q1, q2, q3 = quads[p]
        acc += D[q0] + D[q1] + D[q2] + D[q3]
    return acc


def maslov_x4(d: HeegaardDiagram, D, points) -> int:
    """4 e(D) + sum over ``points`` of 4 n_p(D); linear in D."""
    return _euler_x4(d, D) + _corners_x4(d, D, points)


def _maslov(mu4: int) -> int:
    """mu from 4 mu, which must be divisible by 4."""
    if mu4 % 4:
        raise NonDomainError(f"non-integral Maslov index {Fraction(mu4, 4)}")
    return mu4 // 4


def maslov_measures(d: HeegaardDiagram, D, x: Generator, y: Generator) -> tuple:
    """(4 e(D), 4 n_x(D) + 4 n_y(D)) of a class from x to y: their sum is
    4 mu(D), and both give its shape (``diskcount.classify``)."""
    if not is_domain(d, D, x, y):
        raise NonDomainError("coefficient vector violates the corner conditions")
    return _euler_x4(d, D), _corners_x4(d, D, x.points + y.points)


def maslov_index(d: HeegaardDiagram, D, x: Generator, y: Generator) -> int:
    """Lipshitz formula mu(D) = e(D) + n_x(D) + n_y(D), in exact integers."""
    return _maslov(sum(maslov_measures(d, D, x, y)))


def maslov_of_periodic(d: HeegaardDiagram, P, at: Generator | None) -> int:
    """mu of a periodic domain in the Spin^c class of ``at``.

    With no generator available (empty diagrams) the corner terms vanish and
    the Euler measure is used alone.
    """
    return _maslov(maslov_x4(d, P, at.points * 2 if at is not None else ()))


def marked_multiplicities(d: HeegaardDiagram, D):
    return tuple(D[d.mark_region[k]] for k in range(d.num_marks))


class PeriodicLattice:
    """The lattice of periodic domains in one Spin^c class.

    The basis and its n_z rows belong to the diagram and are shared with its
    calculator.  ``mu`` holds the Maslov index mu(P) = e(P) + 2 n_x(P) of each
    basis domain; it is the same for every generator x of the class, so the
    row is computed once, at the generator ``at``, and mu is linear in t.
    Blocks with equal rows share one lattice (``cf.DiagramData.build``), and
    ``at`` is the first generator of the first block with that row: by
    linearity mu agrees with that row on every lattice element, whichever
    generator it is computed at.
    What the generator pairs of the class share (see ``compiled``), its
    systems and its s-admissibility report, is kept with the lattice and
    freed with it.
    mu is linear, so the lattice is Z step + K0 with mu = 0 on K0
    (``mu_zero``): every condition on mu is a coordinate.
    """

    def __init__(self, calc: DomainCalculator, mu: list, at: Generator | None):
        self.calc = calc
        self.mu = mu
        self.at = at
        self._compiled = {}

    @property
    def diagram(self) -> HeegaardDiagram:
        return self.calc.diagram

    @property
    def basis(self) -> list:
        return self.calc.periodic_basis

    @property
    def n_z(self) -> list:
        return self.calc.periodic_n_z

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def mu_zero(self) -> tuple:
        """(g, step, K0), domains with mu(step) = g = gcd of the mu row and K0
        a basis of the mu = 0 sublattice; (0, None, basis) when mu is zero.
        By Euclid on the mu row: the basis domain of smallest nonzero |mu| is
        subtracted, a multiple at a time, from the others until one has
        nonzero mu.  Each step is unimodular and each domain keeps its place,
        so (step, K0) is a basis of the lattice."""
        domains, mu = [list(P) for P in self.basis], list(self.mu)
        while len(live := [b for b, m in enumerate(mu) if m]) > 1:
            k = min(live, key=lambda b: abs(mu[b]))
            for b in live:
                if q := (mu[b] // mu[k] if b != k else 0):
                    domains[b] = [u - q * v for u, v in zip(domains[b], domains[k])]
                    mu[b] -= q * mu[k]
        if not live:
            return 0, None, domains
        step = domains.pop(live[0])
        return abs(mu[live[0]]), step if mu[live[0]] > 0 else [-v for v in step], domains

    def slice_base(self, phi0, shift: int) -> list | None:
        """phi0 + (shift / g) step, with Fraction coefficients when g does not
        divide shift: the domains phi0 + P with P rational in the lattice's
        span and mu(P) = shift are this point plus the span of K0.  None
        when mu vanishes on the lattice and shift does not."""
        g, step, _ = self.mu_zero
        if not g:
            return None if shift else list(phi0)
        a = shift // g if shift % g == 0 else Fraction(shift, g)
        return [c + a * v for c, v in zip(phi0, step)]

    def compiled(self, key, build):
        """``build(self)``, made on first request and kept with the lattice:
        what every generator pair of the block shares."""
        if key not in self._compiled:
            self._compiled[key] = build(self)
        return self._compiled[key]

    def element(self, t, base=None, basis=None) -> list:
        """base + sum_b t_b P_b over ``basis`` (defaults: the zero domain and
        the lattice's basis)."""
        out = list(base) if base is not None else [0] * len(self.diagram.regions)
        for c, vec in zip(t, self.basis if basis is None else basis):
            if c:
                for i, v in enumerate(vec):
                    out[i] += c * v
        return out
