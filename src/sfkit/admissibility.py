"""Admissibility of marked diagrams by exact rational cone analysis.

A diagram fails s-admissibility exactly when some nonzero periodic domain is
componentwise non-negative, has vanishing Maslov functional, and carries a
surviving marking monomial.  Survival is a union of linear strata: for every
positive-genus complement component (whose boundary monomial is killed) one
of its marked-point multiplicities must vanish.  Each stratum is an exact
rational cone feasibility problem; witnesses are cleared to integer domains
and re-verified.  Every check and certificate takes the periodic lattice of
one Spin^c block (``domains.PeriodicLattice``), which also holds the diagram.
"""

from __future__ import annotations

import math

from . import linprog
from .diagram import ALPHA, BETA, HeegaardDiagram
from .domains import PeriodicLattice, marked_multiplicities, maslov_of_periodic

STRATA_CAP = 10 ** 6


class NotAdmissibleError(RuntimeError):
    pass


class WitnessError(NotAdmissibleError):
    """A non-admissibility witness failed its re-verification."""

    def __init__(self, condition):
        super().__init__(f"witness check failed: {condition}")
        self.condition = condition


class AdmissibilityReport:
    def __init__(self, criterion: str, admissible: bool, strata: int = 0,
                 vacuous_generators: bool = False):
        self.criterion = criterion
        self.admissible = admissible
        self.witness = None  # a periodic domain, when not admissible
        self.witness_marks = None
        self.witness_mu = None
        self.strata = strata
        self.vacuous_generators = vacuous_generators
        self.notes = []

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

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


def survival_strata(kill_supports=(), forced=()):
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


def cone_rows(lattice, stratum=()):
    """Coefficient rows over lattice coordinates t of base + P >= 0 and
    n_i(base + P) = 0 for every mark i of the stratum, and per row the
    (region, sign) whose base coefficient gives its right-hand side,
    sign * base[region]."""
    rows = [list(col) for col in zip(*lattice.basis)]
    sources = [(r, -1) for r in range(len(rows))]
    for i in stratum:
        row, r = [nz[i] for nz in lattice.n_z], lattice.diagram.mark_region[i]
        rows += [row, [-v for v in row]]
        sources += [(r, -1), (r, 1)]
    return rows, sources


def _stratum_ineqs(lattice, stratum, mu_mode):
    """Inequalities over lattice coordinates t: P >= 0 in the stratum, with
    mu = 0 (mu_mode "zero") or mu <= 0 ("nonpos"), normalized by
    sum_r P_r = 1, which picks a point on each nonzero ray."""
    mu_row = list(lattice.mu)
    total = [sum(P) for P in lattice.basis]
    ineqs = [(row, 0) for row in cone_rows(lattice, stratum)[0]]
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


def _s_report(lattice: PeriodicLattice) -> AdmissibilityReport:
    strata = survival_strata(tilde_kill_supports(lattice.diagram))
    return _check(lattice, "s", strata, "zero")


def check_s_admissible(lattice: PeriodicLattice) -> AdmissibilityReport:
    """The s-admissibility report of the lattice, checked once and kept with
    it: every block that shares the lattice, and every caller, reads the
    same report."""
    return lattice.compiled("s-admissible", _s_report)


def check_weak_admissible(lattice: PeriodicLattice, hom) -> AdmissibilityReport:
    forced, supports = hom_forced_marks(hom, lattice.diagram.num_marks)
    strata = survival_strata(supports, forced)
    return _check(lattice, f"weak[{hom.name}]", strata, "zero")


def check_strong_admissible(lattice: PeriodicLattice) -> AdmissibilityReport:
    strata = survival_strata(tilde_kill_supports(lattice.diagram))
    return _check(lattice, "strong", strata, "nonpos")


class CertificateSystem:
    """One survival stratum's certificate system, compiled once per block:
    the cone rows of the stratum plus the total multiplicity, restricted to
    the mu slice, and the sources of the cone rows' right-hand sides."""

    def __init__(self, stratum: frozenset, sources: list, slice: linprog.Slice):
        self.stratum = stratum
        self.sources = sources
        self.slice = slice


def certificate_systems(lattice: PeriodicLattice) -> list:
    """The certificate systems of every survival stratum of the block."""
    total = [sum(P) for P in lattice.basis]
    out = []
    for stratum in survival_strata(tilde_kill_supports(lattice.diagram)):
        rows, sources = cone_rows(lattice, stratum)
        out.append(CertificateSystem(stratum, sources,
                                     linprog.Slice(rows + [total], lattice.mu)))
    return out


def finiteness_certificate(lattice: PeriodicLattice, phi0, shift: int) -> int | None:
    """Bound on the total multiplicity sum_r D_r, hence on every coefficient,
    of the positive classes D = phi0 + P with mu(P) = shift and surviving
    tilde-monomial: per survival stratum, one ``linear_range`` of it on the
    rational slice mu = shift; NotAdmissibleError on an unbounded stratum.
    None when every stratum is empty.  ``lattice`` is the periodic lattice of
    the pair's Spin^c class, which also gives the diagram, phi0 the pair's
    connecting domain and shift = j - mu(phi0) for the index j.  The stratum
    systems are compiled once per lattice; a pair supplies right-hand sides.
    """
    if shift and not any(lattice.mu):
        return None  # mu(P) is 0 on the lattice, never shift
    best = None
    for system in lattice.compiled("certificate", certificate_systems):
        sliced = system.slice
        # the last row, the total multiplicity sum_r D_r - sum(phi0) >= 0,
        # is the objective (o, c): on the slice it reads
        # scale (sum_r D_r - sum(phi0)) = o . s - c
        rows = sliced.ineqs([sign * phi0[r] for r, sign in system.sources] + [0], shift)
        o, c = rows.pop()
        rng = linprog.linear_range(rows, len(o), o, sliced.recording)
        if rng is None:
            continue  # stratum empty
        if rng[1] is None:
            raise NotAdmissibleError(
                f"unbounded coefficients in stratum {sorted(system.stratum)}"
            )
        bound = math.floor((rng[1] - c) / sliced.scale) + sum(phi0)
        best = bound if best is None else max(best, bound)
    return best
