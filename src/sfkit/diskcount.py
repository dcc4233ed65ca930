"""Enumeration and combinatorial counting of Maslov-index-1 disk classes.

The finiteness certificate bounds the total multiplicity of the positive
classes of index one with surviving tilde-monomial; inside the polytope
D >= 0, sum_r D_r <= bound, all of them are enumerated exactly: the Maslov
index is affine on the lattice of classes, so only the integer points of the
polytope on the hyperplane mu = 1 are visited.  Every generator pair of a
Spin^c block shares the certificate's and the box's coefficient rows, so
both are compiled once per block (``PeriodicLattice.compiled``) and a pair
supplies only their right-hand sides; a pair whose certificate finds every
stratum empty lists no box at all.  The enumerator takes the block's
lattice, which also holds the diagram and its calculator.

A class is assigned a count only when its shape forces the holomorphic
count: an embedded empty bigon or an embedded empty rectangle contributes
one point (mod 2).  Every other class is reported UNSUPPORTED and taints
whatever complex is built from the enumeration; the taint is waived
ring-by-ring when the class's weight dies under the coefficient
homomorphism.
"""

from __future__ import annotations

from .admissibility import cone_rows, finiteness_certificate
from .algebra import AlgebraSpec
from .diagram import Generator, HeegaardDiagram
from .domains import (
    DomainCalculator,
    PeriodicLattice,
    _corners_x4,
    _euler_x4,
    marked_multiplicities,
    maslov_index,
    maslov_x4,
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


def classify(d: HeegaardDiagram, D, x: Generator, y: Generator) -> tuple:
    """Shape classification of a positive index-1 class."""
    if any(c not in (0, 1) for c in D):
        return UNSUPPORTED, None
    # in quarters: a bigon has e = n_x + n_y = 1/2, a rectangle e = 0, n_x + n_y = 1
    e4 = _euler_x4(d, D)
    corners4 = _corners_x4(d, D, x.points + y.points)
    moved = _moved_coordinates(x, y)
    if e4 == 2 and corners4 == 2 and moved == 1:
        return EMPTY_BIGON, 1
    if e4 == 0 and corners4 == 4 and moved == 2:
        return EMPTY_RECTANGLE, 1
    return UNSUPPORTED, None


def _box_slice(lattice: PeriodicLattice) -> tuple:
    """The enumerator's box for the block, compiled once: the rows
    D = phi0 + sum t_b P_b >= 0 and sum_r D_r <= bound, with the sources of
    their right-hand sides, restricted to the slice 4 mu = target."""
    rows, sources = cone_rows(lattice)
    total = [-sum(P) for P in lattice.basis]
    return sources, linprog.Slice(rows + [total], [4 * m for m in lattice.mu])


def _sliced_box(lattice: PeriodicLattice, x: Generator, y: Generator, phi0,
                bound: int, index: int) -> list:
    """Lattice coordinates t with D = phi0 + sum t_b P_b >= 0,
    sum_r D_r <= bound and mu = index.

    4 mu = 4 mu(phi0) + sum t_b 4 mu(P_b) is an integer affine equation whose
    slope is 4 times the lattice's mu row; ``linprog.Slice`` solves it for
    the coordinate L with the smallest nonzero |4 mu(P_L)| and restricts the
    rows to 4 mu = target.  The other coordinates are enumerated exactly and
    t_L is kept where it comes out integral.
    """
    target = 4 * index - maslov_x4(lattice.diagram, phi0, x.points + y.points)
    sources, box = lattice.compiled("box", _box_slice)
    rhs = [sign * phi0[r] for r, sign in sources] + [sum(phi0) - bound]
    L = box.pivot
    if L is None:
        # mu is constant on the coset
        if target:
            return []
        return linprog.integer_points(box.ineqs(rhs, 0), lattice.rank, box.recording)
    slope = [4 * m for m in lattice.mu]
    m = slope[L]
    rest = [b for b in range(lattice.rank) if b != L]
    out = []
    for s in linprog.integer_points(box.ineqs(rhs, target), lattice.rank - 1,
                                    box.recording):
        num = target - sum(slope[b] * v for b, v in zip(rest, s))
        if num % m == 0:
            t = list(s)
            t.insert(L, num // m)
            out.append(t)
    return out


def enumerate_mu1_classes(lattice: PeriodicLattice, x: Generator, y: Generator,
                          tilde: AlgebraSpec, index: int = 1) -> list:
    """All positive classes from x to y with mu = index and surviving
    tilde-monomial, in deterministic order.

    ``lattice`` is the periodic lattice of the Spin^c class of x; its
    calculator holds the diagram and the connecting solve of the pair.  A
    pair whose certificate finds every stratum empty has no such class and
    lists no box.
    """
    d = lattice.diagram
    con = lattice.calc.connecting(x, y)
    cert = finiteness_certificate(lattice, x, y, index, con)
    if not cert.exists or cert.bound is None:
        return []
    phi0 = con.particular

    try:
        coords = _sliced_box(lattice, x, y, phi0, cert.bound, index)
    except linprog.Unbounded:
        raise RuntimeError("certificate box is unbounded") from None
    candidates = {tuple(lattice.element(t, phi0)) for t in coords}

    out = []
    for D in sorted(candidates):
        if any(c < 0 for c in D):
            continue
        mu = maslov_index(d, list(D), x, y)
        if mu != index:
            continue
        nz = marked_multiplicities(d, list(D))
        if not tilde.nf_monomial(tuple(nz)):
            continue
        cls, count = classify(d, list(D), x, y)
        out.append(
            DiskClass(
                domain=D, source=x, target=y, mu=mu, n_z=tuple(nz),
                classification=cls, count=count,
            )
        )
    return out


def enumerate_block_classes(calc: DomainCalculator, generators,
                            tilde: AlgebraSpec) -> list:
    """All index-1 classes between ordered pairs of the given generators."""
    out = []
    for x in generators:
        lattice = calc.lattice(x)
        for y in generators:
            out.extend(enumerate_mu1_classes(lattice, x, y, tilde))
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


def niceness_report(calc: DomainCalculator, tilde: AlgebraSpec) -> NicenessReport:
    d = calc.diagram
    shapes = []
    for ri, region in enumerate(d.regions):
        shapes.append(
            {
                "region": ri,
                "shape": region_shape(d, ri),
                "marked": bool(region.marks),
            }
        )
    classes = enumerate_block_classes(calc, d.generators(), tilde)
    unsupported = [c for c in classes if not c.supported]
    hat_ok = all(c.supported for c in classes if all(v == 0 for v in c.n_z))
    return NicenessReport(
        region_shapes=shapes,
        total_classes=len(classes),
        unsupported=unsupported,
        hat_countable=hat_ok,
        minus_countable=not unsupported,
    )
