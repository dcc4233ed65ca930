"""Admissibility of marked diagrams by exact rational cone analysis.

A diagram fails s-admissibility exactly when some nonzero periodic domain is
componentwise non-negative, has vanishing Maslov functional, and carries a
surviving marking monomial.  Survival is a union of linear strata: for every
positive-genus complement component (whose boundary monomial is killed) one
of its marked-point multiplicities must vanish.  Each stratum is an exact
rational cone feasibility problem; witnesses are cleared to integer domains
and re-verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import linprog
from .diagram import ALPHA, BETA, Generator, HeegaardDiagram
from .domains import (
    ConnectingDomains,
    DomainCalculator,
    PeriodicLattice,
    marked_multiplicities,
    maslov_index,
    maslov_of_periodic,
)

STRATA_CAP = 10 ** 6


class NotAdmissibleError(RuntimeError):
    pass


class WitnessError(NotAdmissibleError):
    """A non-admissibility witness failed its re-verification."""

    def __init__(self, condition):
        super().__init__(f"witness check failed: {condition}")
        self.condition = condition


@dataclass
class AdmissibilityReport:
    criterion: str
    admissible: bool
    witness: list | None = None
    witness_marks: tuple | None = None
    witness_mu: int | None = None
    strata: int = 0
    vacuous_generators: bool = False
    notes: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "ADMISSIBLE" if self.admissible else "NOT_ADMISSIBLE"


def tilde_kill_supports(d: HeegaardDiagram):
    """Mark-index supports of the kill monomials of the tilde algebra."""
    supports = []
    for side in (ALPHA, BETA):
        for comp in d.complement_components(side):
            if comp.genus > 0:
                supports.append(tuple(sorted(set(comp.marks))))
    return supports


def survival_strata(kappa, kill_supports=(), forced=()):
    """Strata of 'the marking monomial survives': sets of marks forced to 0."""
    strata = [frozenset(forced)]
    for support in kill_supports:
        if not support:
            # a killed constant monomial would make survival impossible
            return []
        new = []
        for s in strata:
            if s & set(support):
                new.append(s)
            else:
                for i in support:
                    new.append(s | {i})
        strata = sorted(set(new), key=sorted)
        if len(strata) > STRATA_CAP:
            raise RuntimeError("stratum cap exceeded")
    return strata


def hom_forced_marks(hom, kappa):
    """Marks whose variables die under the hom, plus extra kill supports.

    Returns (forced, kill_supports): survival of hom(lambda(P)) needs
    n_i(P) = 0 for i in ``forced`` and, per kill support, one vanishing
    coordinate.
    """
    from .testrings import AlgebraTarget

    forced = [i for i in range(kappa) if hom.target.is_zero(hom.images[i])]
    supports = []
    if isinstance(hom.target, AlgebraTarget):
        spec = hom.target.spec
        if spec.kill_predicate is not None:
            # B_tau-style semantic kill: any positive periodic domain's
            # marking vector has trivial free image, so survival forces n = 0
            forced = list(range(kappa))
        for k in spec.kill:
            supports.append(tuple(i for i, a in enumerate(k) if a > 0))
    return sorted(set(forced)), supports


def _cone_rows(lattice, stratum, base):
    """Rows over lattice coordinates t: base + P >= 0, and n_i(base + P) = 0
    for every mark i of the stratum."""
    rows = [(list(col), -base[r]) for r, col in enumerate(zip(*lattice.basis))]
    for i in stratum:
        row, c = [nz[i] for nz in lattice.n_z], -base[lattice.diagram.mark_region[i]]
        rows += [(row, c), ([-v for v in row], -c)]
    return rows


def _stratum_ineqs(lattice, stratum, mu_mode):
    """Inequalities over lattice coordinates t: P >= 0 in the stratum, with
    mu = 0 (mu_mode "zero") or mu <= 0 ("nonpos"), normalized by
    sum_r P_r = 1, which picks a point on each nonzero ray."""
    mu_row = list(lattice.mu)
    total = [sum(P) for P in lattice.basis]
    ineqs = _cone_rows(lattice, stratum, [0] * len(lattice.diagram.regions))
    ineqs.append(([-c for c in mu_row], 0))  # mu <= 0
    if mu_mode == "zero":
        ineqs.append((mu_row, 0))
    return ineqs + [(total, 1), ([-c for c in total], -1)]


def _check(lattice, criterion, strata, mu_mode) -> AdmissibilityReport:
    d = lattice.diagram
    report = AdmissibilityReport(
        criterion=criterion,
        admissible=True,
        strata=len(strata),
        vacuous_generators=lattice.at is None,
    )
    if lattice.rank == 0:
        report.notes.append("periodic lattice trivial")
        return report
    for stratum in strata:
        ineqs = _stratum_ineqs(lattice, stratum, mu_mode)
        point = linprog.feasible_point(ineqs, lattice.rank)
        if point is None:
            continue
        P = lattice.element(linprog.integer_scale(point))
        report.admissible = False
        report.witness = P
        report.witness_marks = marked_multiplicities(d, P)
        report.witness_mu = maslov_of_periodic(d, P, lattice.at)
        report.notes.append(f"stratum {sorted(stratum)} witnesses failure")
        _verify_witness(d, lattice.at, P, stratum, mu_mode)
        break
    return report


def _verify_witness(d, at, P, stratum, mu_mode):
    """Re-check a witness from the domain itself, not from the lattice rows
    that produced it."""
    if not any(P):
        raise WitnessError("witness is the zero domain")
    if any(v < 0 for v in P):
        raise WitnessError("witness has a negative coefficient")
    mu = maslov_of_periodic(d, P, at)
    if (mu != 0) if mu_mode == "zero" else (mu > 0):
        raise WitnessError(f"witness has mu = {mu}")
    nz = marked_multiplicities(d, P)
    if any(nz[i] != 0 for i in stratum):
        raise WitnessError("witness does not lie in its stratum")


def _default_lattice(d: HeegaardDiagram) -> PeriodicLattice:
    """The lattice of the Spin^c class of the first generator, or the
    Euler-only lattice of a diagram without generators."""
    gens = d.generators()
    return DomainCalculator(d).lattice(gens[0] if gens else None)


def check_s_admissible(d: HeegaardDiagram,
                       lattice: PeriodicLattice | None = None) -> AdmissibilityReport:
    strata = survival_strata(d.num_marks, tilde_kill_supports(d))
    return _check(lattice or _default_lattice(d), "s", strata, "zero")


def check_weak_admissible(d: HeegaardDiagram, hom,
                          lattice: PeriodicLattice | None = None) -> AdmissibilityReport:
    forced, supports = hom_forced_marks(hom, d.num_marks)
    strata = survival_strata(d.num_marks, supports, forced)
    return _check(lattice or _default_lattice(d), f"weak[{hom.name}]", strata, "zero")


def check_strong_admissible(d: HeegaardDiagram,
                            lattice: PeriodicLattice | None = None) -> AdmissibilityReport:
    strata = survival_strata(d.num_marks, tilde_kill_supports(d))
    return _check(lattice or _default_lattice(d), "strong", strata, "nonpos")


@dataclass
class FinitenessCertificate:
    finite: bool
    bound: int | None
    exists: bool  # was there any connecting class at all


def finiteness_certificate(d: HeegaardDiagram, x: Generator, y: Generator,
                           j: int, lattice: PeriodicLattice,
                           con: ConnectingDomains) -> FinitenessCertificate:
    """Bound on the total multiplicity sum_r D_r, hence on every coefficient,
    of the positive classes D = phi0 + P of Maslov index j from x to y with
    surviving tilde-monomial: per survival stratum, one ``linear_range`` of
    it on the slice mu = j; NotAdmissibleError on an unbounded stratum.
    ``lattice`` is the periodic lattice of the Spin^c class of x and ``con``
    the connecting solve for (x, y).
    """
    if not con.exists:
        return FinitenessCertificate(finite=True, bound=None, exists=False)
    phi0 = con.particular
    shift = j - maslov_index(d, phi0, x, y, lattice.calc)
    total = ([sum(P) for P in lattice.basis], 0)  # sum_r D_r - sum(phi0) >= 0
    best = 0
    for stratum in survival_strata(d.num_marks, tilde_kill_supports(d)):
        rows = _cone_rows(lattice, stratum, phi0) + [total]
        # restricted to mu = j, the last row (o, c) reads
        # |mu_k| (sum_r D_r - sum(phi0)) = o . s - c
        sliced = linprog.substitute(rows, lattice.mu, shift)
        if sliced is None and shift:
            continue  # mu is constant on the lattice and never j
        k, rows = sliced or (None, rows)
        o, c = rows.pop()
        rng = linprog.linear_range(rows, len(o), o)
        if rng is None:
            continue  # stratum empty
        if rng[1] is None:
            raise NotAdmissibleError(
                f"unbounded coefficients in stratum {sorted(stratum)}"
            )
        scale = abs(lattice.mu[k]) if sliced else 1
        best = max(best, math.floor((rng[1] - c) / scale) + sum(phi0))
    return FinitenessCertificate(finite=True, bound=best, exists=True)
