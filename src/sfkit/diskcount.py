"""Enumeration and combinatorial counting of Maslov-index-1 disk classes.

A class from x to y is D = phi0 + P, phi0 the pair's connecting domain and P
periodic, and mu(D) = mu(phi0) + mu(P), mu(phi0) being the difference of the
generators' Maslov potentials (``DomainCalculator.potential``).  The lattice
is Z step + K0 with mu(step) = g and mu = 0 on K0
(``PeriodicLattice.mu_zero``), so a pair whose shift index - mu(phi0) is no
multiple of g has no class.  One call takes lists of sources and targets (in
``build_cf``, the generators of a Spin^c block) and finds the pairs that pass
this residue test and the key test by one lookup per source, before any
connecting solve or LP.  For such a pair the classes are base + K0, base =
phi0 + (shift // g) step an integer domain (``PeriodicLattice.slice_base``),
so every LP row is integral.  Behind the finiteness certificate, the classes
are listed as the integer points over K0 of each survival stratum's polytope
(D >= 0, n_i(D) = 0 on the stratum's marks), from rows compiled once per
Spin^c block (``PeriodicLattice.compiled``).

The strata are the only survival rule.  The tilde algebra kills the
boundary monomial of each positive-genus component of R+-, with exponent 1
on each of its marks (``validate`` puts each mark in one region); for
D >= 0 it divides lambda^{n_z(D)} exactly when n_i(D) >= 1 on every mark of
the component.  So lambda^{n_z(D)} survives exactly when D lies in a
stratum (``admissibility.survival_strata``), every listed class survives,
and the enumerator takes no algebra.

phi0 sees only the moved points, so pairs repeat a system (phi0, shift).  A
call runs the certificate, the listing and the checks on a candidate (its
Euler and corner measures with the corner guard ``is_domain``, mu = index
and shape) once per system, and every pair of the system reads the
kept (domain, n_z, shape, count).  Within a lattice the system
fixes what the checks read of x and y:

- the corner target e(x) - e(y) = A phi0, so every candidate phi0 + P is a
  domain from x to y;
- the moved count, the number of +1 entries of that target;
- mu(phi0) = index - shift, hence mu(D) = index for every candidate;
- e(D), and so the corner measure 4 n_x(D) + 4 n_y(D) = 4 index - 4 e(D).

A class is assigned a count only when its shape forces the holomorphic
count: an embedded empty bigon or an embedded empty rectangle contributes
one point (mod 2).  Every other class is reported UNSUPPORTED and taints
whatever complex is built from the enumeration; the taint is waived
ring-by-ring when the class's weight dies under the coefficient
homomorphism.
"""

from __future__ import annotations

from .admissibility import certificate_systems, finiteness_certificate
from .diagram import Generator, HeegaardDiagram
from .domains import (
    PeriodicLattice,
    marked_multiplicities,
    maslov_measures,
)
from . import linprog

EMPTY_BIGON = "EMPTY_BIGON"
EMPTY_RECTANGLE = "EMPTY_RECTANGLE"
UNSUPPORTED = "UNSUPPORTED"


class DiskClass:
    def __init__(self, domain: tuple, source: Generator, target: Generator, mu: int,
                 n_z: tuple, classification: str, count: int | None):
        self.domain = domain
        self.source = source
        self.target = target
        self.mu = mu
        self.n_z = n_z
        self.classification = classification
        self.count = count  # mod-2 count when supported, None otherwise

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def supported(self) -> bool:
        return self.classification != UNSUPPORTED


def _moved_coordinates(x: Generator, y: Generator) -> int:
    return sum(1 for a, b in zip(x.points, y.points) if a != b)


def classify(d: HeegaardDiagram, D, x: Generator, y: Generator, measures) -> tuple:
    """Shape classification of a positive index-1 class with ``measures``
    (4 e, 4 n_x + 4 n_y) (``maslov_measures``)."""
    if any(c not in (0, 1) for c in D):
        return UNSUPPORTED, None
    # in quarters: a bigon has e = n_x + n_y = 1/2, a rectangle e = 0, n_x + n_y = 1
    e4, corners4 = measures
    moved = _moved_coordinates(x, y)
    if e4 == 2 and corners4 == 2 and moved == 1:
        return EMPTY_BIGON, 1
    if e4 == 0 and corners4 == 4 and moved == 2:
        return EMPTY_RECTANGLE, 1
    return UNSUPPORTED, None


def enumerate_mu1_classes(lattice: PeriodicLattice, sources, targets,
                          index: int = 1) -> list:
    """Every positive class with mu = index in a survival stratum, that is
    with surviving marking monomial, from each x in ``sources`` to each y in
    ``targets``: by source, then target in the order given, then sorted
    domain.  ``lattice`` is the generators' periodic lattice; its calculator
    holds their keys, potentials and connecting solves.  The targets are
    grouped once by (key, potential mod g), the exact potential when g = 0,
    and x reads its own at (key(x), potential(x) - index mod g).  The
    records of each (phi0, shift) are kept for the call alone."""
    calc, g = lattice.calc, lattice.mu_zero[0]
    residue = (lambda mu: mu % g) if g else (lambda mu: mu)
    groups = {}
    for y in targets:
        groups.setdefault((calc.key(y), residue(calc.potential(y))), []).append(y)
    records, out = {}, []
    for x in sources:
        px = calc.potential(x)
        for y in groups.get((calc.key(x), residue(px - index)), ()):
            shift = index - (px - calc.potential(y))  # a multiple of g
            phi0 = calc.connecting(x, y)
            system = (tuple(phi0), shift)
            if system not in records:
                records[system] = _checked_records(lattice, phi0, shift, x, y, index)
            out.extend(DiskClass(domain=D, source=x, target=y, mu=index, n_z=nz,
                                 classification=cls, count=count)
                       for D, nz, cls, count in records[system])
    return out


def _checked_records(lattice: PeriodicLattice, phi0, shift: int, x: Generator,
                     y: Generator, index: int) -> list:
    """(domain, n_z, shape, count) of each class of the system (phi0, shift)
    at the pair (x, y), shared by every pair of the system: behind the
    certificate (NotAdmissibleError on an unbounded stratum, no class when
    every stratum is empty), the union of each stratum's integer points,
    each of which survives (see the module docstring)."""
    if finiteness_certificate(lattice, phi0, shift) is None:
        return []
    d, base, K0 = lattice.diagram, lattice.slice_base(phi0, shift), lattice.mu_zero[2]
    found = {tuple(lattice.element(s, base, K0))
             for system in certificate_systems(lattice)
             for s in linprog.integer_points(system.ineqs(base), len(K0), system.listing)}
    out = []
    for D in sorted(found):
        measures = maslov_measures(d, D, x, y)
        if sum(measures) == 4 * index:
            out.append((D, marked_multiplicities(d, D)) + classify(d, D, x, y, measures))
    return out


class NicenessReport:
    def __init__(self, region_shapes: list, total_classes: int, unsupported: list,
                 hat_countable: bool, minus_countable: bool):
        self.region_shapes = region_shapes
        self.total_classes = total_classes
        self.unsupported = unsupported
        self.hat_countable = hat_countable
        self.minus_countable = minus_countable


def region_shape(d: HeegaardDiagram, ri: int) -> str:
    chi = d.region_chi[ri]
    corners = d.region_corner_count[ri]
    if chi == 1 and corners == 2:
        return "bigon"
    if chi == 1 and corners == 4:
        return "square"
    return "other"


def niceness_report(data) -> NicenessReport:
    """Region shapes and the index-one classes of every Spin^c block of a
    ``cf.DiagramData``, one enumeration per block."""
    d = data.diagram
    shapes = [{"region": ri, "shape": region_shape(d, ri), "marked": bool(region.marks)}
              for ri, region in enumerate(d.regions)]
    classes = []
    for block, lattice in zip(data.partition.blocks, data.lattices):
        gens = [data.partition.generators[i] for i in block]
        classes.extend(enumerate_mu1_classes(lattice, gens, gens))
    unsupported = [c for c in classes if not c.supported]
    hat_ok = all(c.supported for c in classes if all(v == 0 for v in c.n_z))
    return NicenessReport(
        region_shapes=shapes,
        total_classes=len(classes),
        unsupported=unsupported,
        hat_countable=hat_ok,
        minus_countable=not unsupported,
    )
