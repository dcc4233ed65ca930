"""First homology of the punctured surface and of the sutured manifold.

Builds a CW model of Sigma minus open disks around the marked points: the
1-skeleton is the union of the curve arcs, one small circle around each
marked point, and auxiliary tether/handle loops inside each region; every
region contributes one 2-cell.  From that we present

    H1(X; Z) = H1(Sigma - z; Z) / <[alpha_i], [beta_j]>

in Smith normal form together with the classes PD[gamma_i] of the puncture
circles, which drive both the H-filtration of the suture algebra and the
relative Spin^c difference table.

The chain model and a spanning forest of its 1-skeleton are built once per
diagram (``HeegaardDiagram.surface_model``).  The fundamental cycles of the
non-forest edges are a Z-basis of the cycles, so a cycle's coordinates are
its entries on those edges; ``surface_h1`` and ``h1_presentation`` are views
over that one model.  ``curves_independent`` needs no model: the complement
components of the curves decide it.
"""

from __future__ import annotations

from functools import cached_property

from . import snf
from .diagram import ALPHA, BETA, HeegaardDiagram, _arc_entry


class ChainModel:
    def __init__(self, vertices: int, edges: list, cotree: list, cell_columns: list,
                 curve_cycles: dict, puncture_cycles: list):
        self.vertices = vertices  # number of vertices
        self.edges = edges  # position -> (tail vertex, head vertex)
        self.cotree = cotree  # positions of the edges outside the spanning forest
        self.cell_columns = cell_columns  # one column per region (over edges)
        self.curve_cycles = curve_cycles  # (side, curve index) -> edge-coefficient vector
        self.puncture_cycles = puncture_cycles  # mark index -> edge vector


def build_chain_model(d: HeegaardDiagram) -> ChainModel:
    vertices = {}
    edges = []
    edge_index = {}

    def vertex(vid):
        if vid not in vertices:
            vertices[vid] = len(vertices)
        return vertices[vid]

    def edge(eid, tail, head):
        if eid not in edge_index:
            edge_index[eid] = len(edges)
            edges.append((tail, head))
        return edge_index[eid]

    for name, ends in d.arcs:
        if ends is None:
            aux = vertex(f"v@{name}")
            edge(name, aux, aux)
        else:
            edge(name, vertex(ends[0]), vertex(ends[1]))
    for k in range(d.num_marks):
        w = vertex(f"w{k}")
        edge(f"g{k}", w, w)

    cell_columns = []
    for ri, region in enumerate(d.regions):
        col = {}

        def bump(eid, sign):
            col[eid] = col.get(eid, 0) + sign

        base = None
        for ci, cycle in enumerate(region.cycles):
            if len(cycle) == 1:
                arc, reversed_ = _arc_entry(cycle[0])
                bump(arc, -1 if reversed_ else 1)
                cbase = f"v@{arc}"
            else:
                cbase = cycle[0]
                k = len(cycle)
                for pos in range(1, k, 2):
                    arc, reversed_ = _arc_entry(cycle[pos])
                    bump(arc, -1 if reversed_ else 1)
            if base is None:
                base = cbase
            else:
                # tether to the extra boundary cycle: cancels in homology but
                # keeps the 1-skeleton connected for vertex bookkeeping
                edge(f"t@r{ri}.{ci}", vertex(base), vertex(cbase))
        if base is None:
            base = f"v@r{ri}"
            vertex(base)
        for j in range(region.genus):
            edge(f"u@r{ri}.{j}", vertex(base), vertex(base))
            edge(f"v@r{ri}.{j}", vertex(base), vertex(base))
        for m in region.marks:
            edge(f"t@r{ri}.z{m}", vertex(base), vertex(f"w{m}"))
            bump(f"g{m}", 1)
        cell_columns.append(col)

    # spanning forest of the 1-skeleton, by union-find in edge order
    root = list(range(len(vertices)))

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

    n_edges = len(edges)

    def col_vector(col):
        v = [0] * n_edges
        for eid, c in col.items():
            v[edge_index[eid]] = c
        return v

    cells = [col_vector(c) for c in cell_columns]

    curve_cycles = {}
    for side, curves in ((ALPHA, d.alpha), (BETA, d.beta)):
        for ci, curve in enumerate(curves):
            v = [0] * n_edges
            for arc in curve:
                v[edge_index[arc]] += 1
            curve_cycles[(side, ci)] = v

    punctures = []
    for k in range(d.num_marks):
        v = [0] * n_edges
        v[edge_index[f"g{k}"]] = 1
        punctures.append(v)

    return ChainModel(
        vertices=len(vertices),
        edges=edges,
        cotree=cotree,
        cell_columns=cells,
        curve_cycles=curve_cycles,
        puncture_cycles=punctures,
    )


class SurfaceModel:
    """The cycles of one diagram's chain model, expressed once in the basis
    of fundamental cycles: by their entries on the non-forest edges."""

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

    def express(cycle):
        ends = [0] * model.vertices
        for (tail, head), c in zip(model.edges, cycle):
            ends[head] += c
            ends[tail] -= c
        if any(ends):
            raise ValueError("vector is not a 1-cycle")
        return [cycle[e] for e in model.cotree]

    return SurfaceModel(
        rank=len(model.cotree),
        cells=[express(c) for c in model.cell_columns],
        curves={key: express(v) for key, v in model.curve_cycles.items()},
        punctures=[express(v) for v in model.puncture_cycles],
    )


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
        return tuple(
            full[i] for i, m in enumerate(self.group.moduli) if m == 0
        )

    def describe(self):
        return self.group.describe()


def h1_presentation(d: HeegaardDiagram) -> HomologyPresentation:
    m = d.surface_model
    group = snf.cokernel(m.cells + list(m.curves.values()), m.rank)
    pd = [group.project(v) for v in m.punctures]
    return HomologyPresentation(group=group, pd_classes=pd)
