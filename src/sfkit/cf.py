"""Assembling the chain complex of an admissible diagram.

The differential entry from x to y is the sum, over supported index-1
classes, of count * lambda^{n_z(class)}; unsupported classes do not abort
the build but taint the complex with their weight monomial, so downstream
homology refuses coefficient rings in which that weight survives.
"""

from __future__ import annotations

from functools import cached_property

from . import algebra as alg
from .admissibility import NotAdmissibleError, check_s_admissible
from .complexes import FilteredComplex, TaintRecord
from .diagram import HeegaardDiagram
from .diskcount import enumerate_mu1_classes
from .domains import DomainCalculator
from .homology1 import h1_presentation
from .spinc import grading_data, spinc_partition
from .testrings import AlgebraTarget


class DiagramData:
    """Exact data of one diagram, each piece computed once and shared.

    ``calc`` holds the corner system and the periodic basis with its n_z
    rows; ``homology`` is H1 of the sutured manifold; ``partition`` groups the
    generators into Spin^c blocks.  Per block, ``lattices`` holds the periodic
    lattice with that block's mu row and ``gradings`` its ``GradingData``.  A
    diagram without generators has no blocks and one lattice, whose mu row is
    the Euler measure alone.  ``tilde``, the algebra whose normal form decides
    which classes survive, is built on first use and shared by every block.
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
        lattices = [
            calc.lattice(part.generators[block[0]]) for block in part.blocks
        ] or [calc.lattice(None)]
        gradings = [
            grading_data(part, bi, lattices[bi])
            for bi in range(len(part.blocks))
        ]
        return DiagramData(diagram=d, calc=calc, homology=hom, partition=part,
                           lattices=lattices, gradings=gradings)

    @cached_property
    def tilde(self) -> alg.AlgebraSpec:
        return alg.diagram_algebra(self.diagram, variant=alg.TILDE, homology=self.homology)


def build_cf(d: HeegaardDiagram, block_index: int = 0, variant=alg.PLAIN,
             data: DiagramData | None = None, signs=None) -> FilteredComplex:
    """The filtered complex of one Spin^c block of the diagram."""
    data = data or DiagramData.build(d)
    lattice = data.lattices[block_index]
    rep = check_s_admissible(lattice)
    if not rep.admissible:
        raise NotAdmissibleError(f"diagram is not s-admissible: witness {rep.witness}")

    if not data.partition.blocks:
        spec = alg.diagram_algebra(d, variant=variant, homology=data.homology)
        return FilteredComplex(
            ring=AlgebraTarget(spec), gen_names=[], cosets=[], gradings=[], entries={}
        )

    block = data.partition.blocks[block_index]
    gens = data.partition.generators
    gd = data.gradings[block_index]
    spec = alg.diagram_algebra(
        d, variant=variant, homology=data.homology,
        gr_weights=gd.weights, gr_modulus=gd.d_of_s,
    )

    base = block[0]
    names = [gens[i].label() for i in block]
    cosets = [data.partition.diff(i, base) for i in block]
    gradings = [gd.gr[i] for i in block]

    entries = {}
    normal = {}  # one normal form per distinct entry polynomial
    taints = []
    pos = {g: k for k, g in enumerate(block)}
    for j in block:
        for i in block:
            # survival of a monomial does not depend on the grading weights
            classes = enumerate_mu1_classes(lattice, gens[j], gens[i], data.tilde)
            acc = {}
            for c in classes:
                if not c.supported:
                    taints.append(
                        TaintRecord(
                            source=pos[j], target=pos[i], weight=c.n_z,
                            note=f"unsupported class {c.domain}",
                        )
                    )
                    continue
                count = c.count
                if signs is not None:
                    count *= signs.get(tuple(c.domain), 1)
                acc = alg.poly_add(acc, {tuple(c.n_z): count})
            if acc:
                key = frozenset(acc.items())
                if key not in normal:
                    normal[key] = spec.normal_form(acc)
                if normal[key]:
                    # each entry its own dict: tensor and decompose see no shared object
                    entries[(pos[i], pos[j])] = dict(normal[key])

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
