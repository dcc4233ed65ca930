"""Relative Spin^c classes of generators and the associated gradings.

Generators are grouped by the equivalence "some domain connects x to y"
(classes of Spin^c structures on the filled manifold), read from the
calculator's per-generator keys.  Within a class the difference s(x) - s(y)
in H = H^2(X, dX; Z) is the image of the marked-point multiplicity vector
of any connecting domain, so it is c(x) - c(y), with c(x) = s(x) - s(first
generator of the block) from one solve per generator.  The relative Maslov
grading is defined modulo d(s), the gcd of mu over the periodic domains
missing all marked points.

Grading weights d_i of the suture variables are pinned by the requirement
that mu(P) + sum_i d_i n_{z_i}(P) vanish mod d(s) for every periodic domain P
(the filtered-complex axiom "the differential drops the grading by one",
applied to the lattice).  When the lattice leaves some d_i underdetermined,
the reported value is a canonical solution.
The partition reads the diagram's ``DomainCalculator`` and the gradings the
block's ``PeriodicLattice``, so neither solves a corner system again; the
Maslov part of a grading is the difference of the calculator's potentials.
"""

from __future__ import annotations

from math import gcd

from . import algebra as alg
from . import snf
from .diagram import HeegaardDiagram
from .domains import DomainCalculator, PeriodicLattice
from .homology1 import HomologyPresentation


class NoConnectingDomain(ValueError):
    pass


class SpincPartition:
    def __init__(self, diagram: HeegaardDiagram, homology: HomologyPresentation,
                 blocks: list, generators: tuple, classes: dict):
        self.diagram = diagram
        self.homology = homology
        self.blocks = blocks  # list of lists of generator indices
        self.generators = generators
        self.classes = classes  # generator index -> (block index, s(x) - s(block[0]) in H)

    def diff(self, i: int, j: int):
        (bi, ci), (bj, cj) = self.classes[i], self.classes[j]
        if bi != bj:
            raise NoConnectingDomain(f"generators {i} and {j} are in different classes")
        return self.homology.group.add(ci, self.homology.group.neg(cj))


def spinc_partition(calc: DomainCalculator,
                    homology: HomologyPresentation) -> SpincPartition:
    """The Spin^c blocks of the calculator's diagram; ``homology`` is its H1.

    Generators with equal ``calc.key`` form one block, in index order, and
    each class is read from the calculator's per-generator records
    (``calc.marks``), which the gradings and the potentials share."""
    d = calc.diagram
    gens = d.generators()

    # the H-difference is independent of the connecting domain because the
    # n_z vector of a periodic domain maps to 0 in H; assert that on the basis
    for nz in calc.periodic_n_z:
        if homology.chi_of_exponents(nz) != homology.group.zero():
            raise AssertionError("periodic domain with nonzero H-image of n_z")

    by_key = {}
    for i, g in enumerate(gens):
        by_key.setdefault(calc.key(g), []).append(i)
    blocks = list(by_key.values())
    classes = {i: (bi, homology.chi_of_exponents(calc.marks(gens[i], gens[block[0]])))
               for bi, block in enumerate(blocks) for i in block}
    return SpincPartition(diagram=d, homology=homology, blocks=blocks,
                          generators=gens, classes=classes)


class GradingData:
    def __init__(self, d_of_s: int, weights: list, gr: dict):
        self.d_of_s = d_of_s
        self.weights = weights  # kappa entries: int or None (UNDEFINED)
        self.gr = gr  # generator index -> relative grading (int, mod d_of_s), or None

    def weight_of_monomial(self, exponents):
        return alg.weighted_degree(self.weights, exponents, self.d_of_s)

    def _reduce(self, v):
        return v % self.d_of_s if self.d_of_s else v


def grading_data(partition: SpincPartition, block_index: int,
                 lattice: PeriodicLattice) -> GradingData:
    """Gradings of one block; ``lattice`` is the block's periodic lattice."""
    d = lattice.diagram
    block = partition.blocks[block_index]
    gens = partition.generators

    # d(s): gcd of mu over the sublattice with n_z == 0
    d_of_s = gcd(*(sum(c * m for c, m in zip(t, lattice.mu))
                   for t in _kernel_sublattice(lattice.n_z)))

    weights = _solve_weights(lattice.n_z, lattice.mu, d.num_marks, d_of_s)

    if weights is None:
        return GradingData(d_of_s=d_of_s, weights=[None] * d.num_marks,
                           gr={i: None for i in block})
    base, calc = block[0], lattice.calc
    gd = GradingData(d_of_s=d_of_s, weights=weights, gr={})
    for i in block:
        w = gd.weight_of_monomial(calc.marks(gens[i], gens[base]))
        gd.gr[i] = gd._reduce(calc.potential(gens[i]) - calc.potential(gens[base]) + w)
    return gd


def _kernel_sublattice(nz_rows):
    """Coefficient vectors t with sum_b t_b n_z(P_b) = 0."""
    if not nz_rows:
        return []
    cols = len(nz_rows)
    mat = [[nz_rows[b][k] for b in range(cols)] for k in range(len(nz_rows[0]))]
    return snf.kernel_basis(mat)


def _solve_weights(nz_rows, mu_vals, kappa, d_of_s):
    """Solve n_z(P_b) . d = -mu(P_b)  (mod d_of_s) for the weight vector d.

    Returns the weights, or None when the system has no solution over the
    integers mod d_of_s.
    """
    if not nz_rows:
        return [0] * kappa
    rows = []
    rhs = []
    for nz, mu in zip(nz_rows, mu_vals):
        rows.append(list(nz))
        rhs.append(-mu)
    if d_of_s:
        # allow adding multiples of d_of_s on each equation
        for r in range(len(rows)):
            extra = [0] * len(rows)
            extra[r] = d_of_s
            rows[r] = rows[r] + extra
    factored = snf.smith_normal_form(rows)
    sol = snf.solve_integer(factored, rhs)
    if sol is None:
        return None
    weights = sol[:kappa]
    kernel = snf.kernel_basis(factored)
    kernel_d = [vec[:kappa] for vec in kernel]
    kernel_d = [v for v in kernel_d if any(v)]

    # canonical representative: sweep trailing coordinates to zero where the
    # kernel permits (reproduces the classical one-variable-per-pair look)
    reduced = _reverse_echelon(kernel_d)
    for piv, vec in reduced:
        q = weights[piv] // vec[piv]
        if q:
            weights = [w - q * v for w, v in zip(weights, vec)]
    if d_of_s:
        weights = [w % d_of_s for w in weights]
    return weights


def _reverse_echelon(vectors):
    """Integer echelon with pivots chosen from the last coordinate down.

    Returns a list of (pivot index, vector) with strictly decreasing pivots.
    """
    vecs = [list(v) for v in vectors]
    out = []
    if not vecs:
        return out
    n = len(vecs[0])
    for col in range(n - 1, -1, -1):
        cands = [v for v in vecs if v[col] != 0]
        if not cands:
            continue
        piv = min(cands, key=lambda v: abs(v[col]))
        # reduce the others against the pivot (not a full HNF; enough for
        # a deterministic canonical representative)
        rest = []
        for v in vecs:
            if v is piv:
                continue
            if v[col] != 0:
                q = v[col] // piv[col]
                v = [a - q * b for a, b in zip(v, piv)]
            if any(v):
                rest.append(v)
        if piv[col] < 0:
            piv = [-a for a in piv]
        out.append((col, piv))
        vecs = rest
    return out
