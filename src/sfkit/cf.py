"""Assembling the chain complex of an admissible diagram.

The differential entry from x to y is the sum, over supported index-1
classes, of count * lambda^{n_z(class)}; unsupported classes do not abort
the build but taint the complex with their weight monomial, so downstream
homology refuses coefficient rings in which that weight survives.  The
classes of a Spin^c block come from one enumeration over its generators,
summed per (target, source), and each distinct entry polynomial is put in
normal form once.  ``DiagramData`` owns the per-diagram data, the block
lattices included; nothing in it refers back to its owner, so a diagram's
data is freed by reference counting when its last user returns.
``diagram_algebra`` builds a diagram's boundary algebra, plain or tilde,
from its complement components.
"""

from __future__ import annotations

from functools import cached_property

from . import algebra as alg
from .admissibility import NotAdmissibleError, check_s_admissible
from .complexes import FilteredComplex, TaintRecord
from .diagram import ALPHA, BETA, HeegaardDiagram
from .diskcount import enumerate_mu1_classes
from .domains import DomainCalculator, PeriodicLattice, maslov_of_periodic
from .homology1 import h1_presentation
from .spinc import grading_data, spinc_partition
from .testrings import AlgebraTarget


def diagram_algebra(d, variant=alg.PLAIN, homology=None, gr_weights=None,
                    gr_modulus=0) -> alg.AlgebraSpec:
    """Boundary algebra of a diagram's sutured manifold."""
    homology = homology or h1_presentation(d)
    comps = list(d.complement_components(ALPHA)) + list(d.complement_components(BETA))
    return alg.build_algebra(
        comps,
        d.num_marks,
        variant=variant,
        homology=homology,
        gr_weights=gr_weights,
        gr_modulus=gr_modulus,
    )


class DiagramData:
    """Exact data of one diagram, each piece computed once and shared.

    ``calc`` holds the corner system and the periodic basis with its n_z
    rows; ``homology`` is H1 of the sutured manifold; ``partition`` groups the
    generators into Spin^c blocks.  Per block, ``lattices`` holds the periodic
    lattice with that block's mu row and ``gradings`` its ``GradingData``.
    The row is computed once per block, at its first generator, and blocks
    with equal rows share one lattice, so its compiled systems and its
    s-admissibility report.  A diagram without generators has no blocks and
    one lattice, whose mu row is the Euler measure alone.  ``tilde``, the
    algebra whose normal form decides which classes survive, is built on
    first use and shared by every block.
    """

    def __init__(self, diagram: HeegaardDiagram, calc: DomainCalculator, homology,
                 partition, lattices: list, gradings: list):
        self.diagram = diagram
        self.calc = calc
        self.homology = homology
        self.partition = partition
        self.lattices = lattices
        self.gradings = gradings

    @staticmethod
    def build(d: HeegaardDiagram) -> "DiagramData":
        calc = DomainCalculator(d)
        hom = h1_presentation(d)
        part = spinc_partition(calc, hom)
        by_row = {}  # mu row -> its lattice
        lattices = []
        for at in [part.generators[block[0]] for block in part.blocks] or [None]:
            mu = [maslov_of_periodic(d, P, at) for P in calc.periodic_basis]
            if tuple(mu) not in by_row:
                by_row[tuple(mu)] = PeriodicLattice(calc=calc, mu=mu, at=at)
            lattices.append(by_row[tuple(mu)])
        gradings = [
            grading_data(part, bi, lattices[bi])
            for bi in range(len(part.blocks))
        ]
        return DiagramData(diagram=d, calc=calc, homology=hom, partition=part,
                           lattices=lattices, gradings=gradings)

    def lattice_of(self, i: int) -> PeriodicLattice:
        """The periodic lattice of the Spin^c block of generator ``i``."""
        return self.lattices[self.partition.classes[i][0]]

    @cached_property
    def tilde(self) -> alg.AlgebraSpec:
        return diagram_algebra(self.diagram, variant=alg.TILDE, homology=self.homology)


def build_cf(d: HeegaardDiagram, block_index: int = 0,
             data: DiagramData | None = None, signs=None) -> FilteredComplex:
    """The filtered complex of one Spin^c block of the diagram, over its
    plain algebra."""
    data = data or DiagramData.build(d)
    lattice = data.lattices[block_index]
    rep = check_s_admissible(lattice)
    if not rep.admissible:
        raise NotAdmissibleError(f"diagram is not s-admissible: witness {rep.witness}")

    if not data.partition.blocks:
        spec = diagram_algebra(d, homology=data.homology)
        return FilteredComplex(
            ring=AlgebraTarget(spec), gen_names=[], cosets=[], gradings=[], entries={}
        )

    block = data.partition.blocks[block_index]
    gens = data.partition.generators
    gd = data.gradings[block_index]
    spec = diagram_algebra(
        d, homology=data.homology, gr_weights=gd.weights, gr_modulus=gd.d_of_s,
    )

    base = block[0]
    members = [gens[i] for i in block]
    names = [g.label() for g in members]
    cosets = [data.partition.diff(i, base) for i in block]
    gradings = [gd.gr[i] for i in block]

    # one enumeration for the block; survival of a monomial does not depend
    # on the grading weights
    pos = {g: k for k, g in enumerate(members)}
    sums, taints = {}, []
    for c in enumerate_mu1_classes(lattice, members, members, data.tilde):
        source, target = pos[c.source], pos[c.target]
        if not c.supported:
            taints.append(TaintRecord(source=source, target=target, weight=c.n_z))
            continue
        count = c.count
        if signs is not None:
            count *= signs.get(tuple(c.domain), 1)
        sums[(target, source)] = alg.poly_add(sums.get((target, source), {}),
                                              {tuple(c.n_z): count})
    entries = {}
    normal = {}  # one normal form per distinct entry polynomial
    for pair, acc in sums.items():
        if acc:
            key = frozenset(acc.items())
            if key not in normal:
                normal[key] = spec.normal_form(acc)
            if normal[key]:
                # each entry its own dict: tensor and decompose see no shared object
                entries[pair] = dict(normal[key])

    cx = FilteredComplex(
        ring=AlgebraTarget(spec),
        gen_names=names,
        cosets=cosets,
        gradings=gradings,
        entries=entries,
        taints=taints,
    )
    cx.verify_filtration()
    cx.verify_grading_drop()
    return cx
