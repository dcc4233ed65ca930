"""First homology of the punctured surface and of the sutured manifold.

Builds a CW model of Sigma minus open disks around the marked points: the
1-skeleton is the union of the curve arcs, one small circle around each
marked point, and auxiliary tether/handle loops inside each region; every
region contributes one 2-cell.  From that we present

    H1(X; Z) = H1(Sigma - z; Z) / <[alpha_i], [beta_j]>

together with the classes PD[gamma_i] of the puncture circles, which drive
both the H-filtration of the suture algebra and the relative Spin^c
difference table.

The chain model, its chains sparse {edge: coefficient} dicts, and a spanning
forest of its 1-skeleton are built once per diagram
(``HeegaardDiagram.surface_model``).  The fundamental cycles of the
non-forest edges are a Z-basis of the cycles, so a cycle's coordinates are
its entries on those edges; ``surface_h1`` and ``h1_presentation`` are views
over that one model.  Each group is the ``snf.cokernel`` of sparse
relations: unit pivots remove nearly all of them, as a spanning tree of the
regions joined across the arcs would, so the work follows the nonzeros and
a Smith form sees only what is left.  ``curves_independent`` needs no model:
the complement components of the curves decide it.
"""

from __future__ import annotations

from functools import cached_property

from . import snf
from .diagram import ALPHA, BETA, HeegaardDiagram


class ChainModel:
    def __init__(self, vertices: int, edges: list, cotree: list, cell_columns: list,
                 curve_cycles: dict, puncture_cycles: list):
        self.vertices = vertices  # number of vertices
        self.edges = edges  # position -> (tail vertex, head vertex)
        self.cotree = cotree  # positions of the edges outside the spanning forest
        # chains as sparse {edge position: coefficient} dicts
        self.cell_columns = cell_columns  # one per region: its boundary
        self.curve_cycles = curve_cycles  # (side, curve index) -> curve
        self.puncture_cycles = puncture_cycles  # mark index -> puncture circle


def build_chain_model(d: HeegaardDiagram) -> ChainModel:
    # vertices: the crossings, then one per circle arc, one per mark, and one
    # per region without boundary
    point = d.point_index
    edges = []
    arcs = {}  # arc id -> edge position
    loops = {}  # circle arc id -> its vertex
    for name, ends in d.arcs:
        arcs[name] = len(edges)
        if ends is None:
            v = loops[name] = len(point) + len(loops)
            edges.append((v, v))
        else:
            edges.append((point[ends[0]], point[ends[1]]))
    circles = len(edges)  # edge of the circle around mark k: circles + k
    w0 = vertices = len(point) + len(loops)  # vertex of mark k: w0 + k
    vertices += d.num_marks
    edges += [(w0 + k, w0 + k) for k in range(d.num_marks)]

    cells = [{} for _ in d.regions]
    for name, sides in d.arc_region_sides.items():
        e = arcs[name]
        for ri, _, _, direction in sides:
            col = cells[ri]
            c = col.pop(e, 0) + direction
            if c:
                col[e] = c
    for region, col in zip(d.regions, cells):
        bases = [loops[c[0].lstrip("-")] if len(c) == 1 else point[c[0]] for c in region.cycles]
        if not bases:
            bases.append(vertices)
            vertices += 1
        base = bases[0]
        # tethers to the other boundary cycles: they cancel in homology but
        # keep the 1-skeleton connected for vertex bookkeeping
        for b in bases[1:]:
            edges.append((base, b))
        edges.extend([(base, base)] * (2 * region.genus))  # the handle loops u_j, v_j
        for m in region.marks:
            edges.append((base, w0 + m))
            col[circles + m] = col.get(circles + m, 0) + 1

    # spanning forest of the 1-skeleton, by union-find in edge order
    root = list(range(vertices))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    cotree = []
    for pos, (tail, head) in enumerate(edges):
        a, b = find(tail), find(head)
        if a == b:
            cotree.append(pos)
        else:
            root[a] = b

    curve_cycles = {}
    for side, curves in ((ALPHA, d.alpha), (BETA, d.beta)):
        for ci, curve in enumerate(curves):
            col = curve_cycles[(side, ci)] = {}
            for arc in curve:
                col[arcs[arc]] = col.get(arcs[arc], 0) + 1

    return ChainModel(vertices, edges, cotree, cells, curve_cycles,
                      [{circles + k: 1} for k in range(d.num_marks)])


class SurfaceModel:
    """The cycles of one diagram's chain model in the basis of fundamental
    cycles: their entries on the non-forest edges, as sparse dicts."""

    def __init__(self, rank: int, cells: list, curves: dict, punctures: list):
        self.rank = rank  # rank of the cycle group: the number of non-forest edges
        self.cells = cells  # region boundaries
        self.curves = curves  # (side, curve index) -> curve class
        self.punctures = punctures  # mark index -> puncture circle class

    @cached_property
    def group(self) -> snf.AbelianGroup:
        """H1(Sigma - z) = cycles / cells."""
        return snf.cokernel(self.cells, self.rank)


def build_surface_model(d: HeegaardDiagram) -> SurfaceModel:
    """Use ``d.surface_model``, which builds this once per diagram."""
    model = build_chain_model(d)
    edges = model.edges
    slot = {e: i for i, e in enumerate(model.cotree)}

    def express(cycle):
        ends = {}
        for e, c in cycle.items():
            tail, head = edges[e]
            ends[head] = ends.get(head, 0) + c
            ends[tail] = ends.get(tail, 0) - c
        if any(ends.values()):
            raise ValueError("vector is not a 1-cycle")
        return {slot[e]: c for e, c in cycle.items() if e in slot}

    return SurfaceModel(len(model.cotree), [express(c) for c in model.cell_columns],
                        {key: express(v) for key, v in model.curve_cycles.items()},
                        [express(v) for v in model.puncture_cycles])


def surface_h1(d: HeegaardDiagram):
    """H1(Sigma - z) with the curve and puncture classes in its coordinates."""
    m = d.surface_model
    curve_classes = {key: m.group.project(v) for key, v in m.curves.items()}
    puncture_classes = [m.group.project(v) for v in m.punctures]
    return m.group, curve_classes, puncture_classes


def curves_independent(d: HeegaardDiagram, side) -> bool:
    """Are the classes of the ``side`` curves linearly independent in
    H1(Sigma - z; Q)?  A relation among them bounds a 2-chain constant on
    each component of Sigma - side and zero on the marked ones; the
    components' boundaries have one relation, their sum (Sigma is closed and
    connected).  So no component may be unmarked, and without marks
    Sigma - side must be connected."""
    comps = d.complement_components(side)
    if d.num_marks:
        return all(comp.marks for comp in comps)
    return len(comps) == 1


class HomologyPresentation:
    """H = H1(X; Z) = H2(X, dX; Z) with the suture classes PD[gamma_i]."""

    def __init__(self, group: snf.AbelianGroup, pd_classes: list):
        self.group = group
        self.pd_classes = pd_classes  # mark index -> element of the group

    def chi_of_exponents(self, exponents):
        return self.group.combination(exponents, self.pd_classes)

    def free_image(self, exponents):
        """Image of sum a_i [gamma_i] in H1(X)/Tors (tuple over free coords)."""
        full = self.chi_of_exponents(exponents)
        return tuple(full[i] for i, m in enumerate(self.group.moduli) if m == 0)


def h1_presentation(d: HeegaardDiagram) -> HomologyPresentation:
    m = d.surface_model
    group = snf.cokernel(m.cells + list(m.curves.values()), m.rank)
    pd = [group.project(v) for v in m.punctures]
    return HomologyPresentation(group=group, pd_classes=pd)
