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

from dataclasses import dataclass, field
from fractions import Fraction

from . import linprog
from .diagram import ALPHA, BETA, Generator, HeegaardDiagram
from .domains import (
    DomainCalculator,
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


@dataclass
class _ConeData:
    calc: DomainCalculator
    basis: list
    mu: list
    nz: list
    at: Generator | None


def _cone_data(d: HeegaardDiagram, block_gen: Generator | None,
               calc: DomainCalculator | None = None) -> _ConeData:
    calc = calc or DomainCalculator(d)
    basis = calc.periodic_basis
    mu = [maslov_of_periodic(d, P, block_gen) for P in basis]
    nz = [list(marked_multiplicities(d, P)) for P in basis]
    return _ConeData(calc=calc, basis=basis, mu=mu, nz=nz, at=block_gen)


def _stratum_ineqs(d, data, stratum, mu_mode):
    """Inequalities over lattice coordinates t.

    mu_mode: "zero" (mu = 0) or "nonpos" (mu <= 0).
    """
    nregions = len(d.regions)
    rank = len(data.basis)
    ineqs = []
    for r in range(nregions):
        coeffs = [data.basis[b][r] for b in range(rank)]
        ineqs.append((coeffs, 0))  # P_r >= 0
    mu_row = list(data.mu)
    if mu_mode == "zero":
        ineqs.append((mu_row, 0))
        ineqs.append(([-c for c in mu_row], 0))
    else:
        ineqs.append(([-c for c in mu_row], 0))  # mu <= 0
    for i in stratum:
        row = [data.nz[b][i] for b in range(rank)]
        ineqs.append((row, 0))
        ineqs.append(([-c for c in row], 0))
    # normalization sum_r P_r = 1 picks a point on each nonzero ray
    total = [sum(data.basis[b]) for b in range(rank)]
    ineqs.append((total, 1))
    ineqs.append(([-c for c in total], -1))
    return ineqs


def _check(d: HeegaardDiagram, block_gen, criterion, strata, mu_mode,
           calc=None) -> AdmissibilityReport:
    data = _cone_data(d, block_gen, calc)
    rank = len(data.basis)
    report = AdmissibilityReport(
        criterion=criterion,
        admissible=True,
        strata=len(strata),
        vacuous_generators=block_gen is None,
    )
    if rank == 0:
        report.notes.append("periodic lattice trivial")
        return report
    for stratum in strata:
        ineqs = _stratum_ineqs(d, data, stratum, mu_mode)
        point = linprog.feasible_point(ineqs, rank)
        if point is None:
            continue
        t = linprog.integer_scale(point)
        P = _lattice_element(data.basis, t)
        report.admissible = False
        report.witness = P
        report.witness_marks = marked_multiplicities(d, P)
        report.witness_mu = maslov_of_periodic(d, P, data.at)
        report.notes.append(f"stratum {sorted(stratum)} witnesses failure")
        _verify_witness(d, data, P, stratum, mu_mode)
        break
    return report


def _lattice_element(basis, t):
    n = len(basis[0]) if basis else 0
    out = [0] * n
    for c, vec in zip(t, basis):
        if c:
            for i in range(n):
                out[i] += c * vec[i]
    return out


def _verify_witness(d, data, P, stratum, mu_mode):
    if not any(P):
        raise WitnessError("witness is the zero domain")
    if any(v < 0 for v in P):
        raise WitnessError("witness has a negative coefficient")
    mu = maslov_of_periodic(d, P, data.at)
    if (mu != 0) if mu_mode == "zero" else (mu > 0):
        raise WitnessError(f"witness has mu = {mu}")
    nz = marked_multiplicities(d, P)
    if any(nz[i] != 0 for i in stratum):
        raise WitnessError("witness does not lie in its stratum")


def _block_generator(d, spinc_block=None, partition=None):
    gens = d.generators()
    if not gens:
        return None
    if partition is not None and spinc_block is not None:
        return partition.generators[partition.blocks[spinc_block][0]]
    return gens[0]


def check_s_admissible(d: HeegaardDiagram, partition=None, spinc_block=None,
                       calc=None) -> AdmissibilityReport:
    at = _block_generator(d, spinc_block, partition)
    strata = survival_strata(d.num_marks, tilde_kill_supports(d))
    return _check(d, at, "s", strata, "zero", calc)


def check_weak_admissible(d: HeegaardDiagram, hom, partition=None,
                          spinc_block=None, calc=None) -> AdmissibilityReport:
    at = _block_generator(d, spinc_block, partition)
    forced, supports = hom_forced_marks(hom, d.num_marks)
    strata = survival_strata(d.num_marks, supports, forced)
    return _check(d, at, f"weak[{hom.name}]", strata, "zero", calc)


def check_strong_admissible(d: HeegaardDiagram, partition=None,
                            spinc_block=None, calc=None) -> AdmissibilityReport:
    at = _block_generator(d, spinc_block, partition)
    strata = survival_strata(d.num_marks, tilde_kill_supports(d))
    return _check(d, at, "strong", strata, "nonpos", calc)


@dataclass
class FinitenessCertificate:
    finite: bool
    bound: int | None
    exists: bool  # was there any connecting class at all
    mu_shift: int | None = None


def finiteness_certificate(d: HeegaardDiagram, x: Generator, y: Generator,
                           j: int, calc=None) -> FinitenessCertificate:
    """Coefficient bound for positive classes of Maslov index j from x to y
    with surviving tilde-monomial; NotAdmissibleError on an unbounded stratum.
    """
    calc = calc or DomainCalculator(d)
    con = calc.connecting(x, y)
    if not con.exists:
        return FinitenessCertificate(finite=True, bound=None, exists=False)
    phi0 = con.particular
    data = _cone_data(d, x, calc)
    rank = len(data.basis)
    mu0 = maslov_index(d, phi0, x, y, calc)
    strata = survival_strata(d.num_marks, tilde_kill_supports(d))
    nregions = len(d.regions)

    if rank == 0:
        bound = max(max(phi0), 0) if phi0 else 0
        return FinitenessCertificate(finite=True, bound=bound, exists=True, mu_shift=mu0)

    best = 0
    for stratum in strata:
        ineqs = []
        for r in range(nregions):
            coeffs = [data.basis[b][r] for b in range(rank)]
            ineqs.append((coeffs, -phi0[r]))  # phi0 + P >= 0
        mu_row = list(data.mu)
        ineqs.append((mu_row, j - mu0))
        ineqs.append(([-c for c in mu_row], -(j - mu0)))
        for i in stratum:
            row = [data.nz[b][i] for b in range(rank)]
            target = -phi0[d.mark_region[i]]
            ineqs.append((row, target))
            ineqs.append(([-c for c in row], -target))
        for r in range(nregions):
            coeffs = [data.basis[b][r] for b in range(rank)]
            rng = linprog.linear_range(ineqs, rank, coeffs)
            if rng is None:
                break  # stratum empty
            lo, hi = rng
            if hi is None:
                raise NotAdmissibleError(
                    f"unbounded coefficients in stratum {sorted(stratum)}"
                )
            best = max(best, int(hi) + phi0[r] + 1)
    return FinitenessCertificate(finite=True, bound=best, exists=True, mu_shift=mu0)
