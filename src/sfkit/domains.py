"""Domains of Whitney disk classes: boundary conditions, Maslov index.

A domain is an integer coefficient vector over the regions.  The corner
operator at a crossing (see ``diagram``) gives one linear equation per
crossing; a vector D is the domain of a class connecting x to y exactly when
c_p(D) = [p in x] - [p in y] for every crossing p.  The kernel of the corner
matrix is the lattice of periodic domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass
class ConnectingDomains:
    exists: bool
    particular: list | None
    periodic_basis: list


class DomainCalculator:
    """Per-diagram cache of the corner system and the periodic lattice."""

    def __init__(self, d: HeegaardDiagram):
        self.diagram = d
        self.matrix = corner_matrix(d)
        n = len(d.regions)
        if self.matrix:
            self.periodic_basis = snf.kernel_basis(self.matrix)
        else:
            self.periodic_basis = [
                [1 if i == j else 0 for j in range(n)] for i in range(n)
            ]

    def connecting(self, x: Generator, y: Generator) -> ConnectingDomains:
        if not self.matrix:
            sol = [0] * len(self.diagram.regions)
        else:
            target = corner_target(self.diagram, x, y)
            sol = snf.solve_integer(self.matrix, target)
        return ConnectingDomains(
            exists=sol is not None,
            particular=sol,
            periodic_basis=[list(b) for b in self.periodic_basis],
        )

    def is_domain(self, D, x: Generator, y: Generator) -> bool:
        target = corner_target(self.diagram, x, y)
        return all(
            D[q1] + D[q3] - D[q0] - D[q2] == t
            for (q0, q1, q2, q3), t in zip(self.diagram.crossing_quadrants, target)
        )

    def is_periodic(self, D) -> bool:
        return all(
            D[q1] + D[q3] == D[q0] + D[q2]
            for q0, q1, q2, q3 in self.diagram.crossing_quadrants
        )


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


def _maslov(d: HeegaardDiagram, D, points) -> int:
    """mu = e(D) + sum over ``points`` of n_p(D), which must be integral."""
    mu4 = _euler_x4(d, D) + _corners_x4(d, D, points)
    if mu4 % 4:
        raise NonDomainError(f"non-integral Maslov index {Fraction(mu4, 4)}")
    return mu4 // 4


def euler_measure(d: HeegaardDiagram, D) -> Fraction:
    return Fraction(_euler_x4(d, D), 4)


def generator_measure(d: HeegaardDiagram, D, g: Generator) -> Fraction:
    return Fraction(_corners_x4(d, D, g.points), 4)


def maslov_index(d: HeegaardDiagram, D, x: Generator, y: Generator,
                 calculator: DomainCalculator | None = None) -> int:
    """Lipshitz formula mu(D) = e(D) + n_x(D) + n_y(D), in exact integers."""
    calc = calculator or DomainCalculator(d)
    if not calc.is_domain(D, x, y):
        raise NonDomainError("coefficient vector violates the corner conditions")
    return _maslov(d, D, x.points + y.points)


def maslov_of_periodic(d: HeegaardDiagram, P, at: Generator | None) -> int:
    """mu of a periodic domain in the Spin^c class of ``at``.

    With no generator available (empty diagrams) the corner terms vanish and
    the Euler measure is used alone.
    """
    return _maslov(d, P, at.points * 2 if at is not None else ())


def marked_multiplicities(d: HeegaardDiagram, D):
    return tuple(D[d.mark_region[k]] for k in range(d.num_marks))


def full_surface_domain(d: HeegaardDiagram):
    return [1] * len(d.regions)


@dataclass
class PeriodicLattice:
    """The lattice of periodic domains with its Maslov functional and n_z map.

    ``mu`` is linear on the lattice once a Spin^c class is fixed; it is
    evaluated at a chosen generator of the class (or the bare Euler measure
    when the diagram has no generators).
    """

    diagram: HeegaardDiagram
    basis: list
    at: Generator | None

    @property
    def rank(self) -> int:
        return len(self.basis)

    def element(self, coeffs):
        n = len(self.diagram.regions)
        out = [0] * n
        for c, vec in zip(coeffs, self.basis):
            if c:
                for i in range(n):
                    out[i] += c * vec[i]
        return out

    def mu_values(self):
        return [maslov_of_periodic(self.diagram, b, self.at) for b in self.basis]

    def n_z_rows(self):
        return [list(marked_multiplicities(self.diagram, b)) for b in self.basis]


def periodic_lattice(d: HeegaardDiagram, at: Generator | None,
                     calculator: DomainCalculator | None = None) -> PeriodicLattice:
    calc = calculator or DomainCalculator(d)
    return PeriodicLattice(diagram=d, basis=[list(b) for b in calc.periodic_basis], at=at)
