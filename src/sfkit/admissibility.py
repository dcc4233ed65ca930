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


def cone_rows(d, basis, stratum=()):
    """Coefficient rows over s of D = base + sum_k s_k basis_k >= 0, one per
    region even for an empty basis, and n_i(D) = 0 for every mark i of the
    stratum; and per row the (region, sign) whose base coefficient gives its
    right-hand side, sign * base[region]."""
    rows = [[P[r] for P in basis] for r in range(len(d.regions))]
    sources = [(r, -1) for r in range(len(rows))]
    for i in stratum:
        r = d.mark_region[i]
        rows += [rows[r], [-v for v in rows[r]]]
        sources += [(r, -1), (r, 1)]
    return rows, sources


def _check(lattice, criterion, strata, mu_mode) -> AdmissibilityReport:
    """Per stratum, a point of P >= 0 normalized by sum_r P_r = 1 (one per
    nonzero ray): over K0 for mu_mode "zero" (mu = 0), over the whole
    lattice with the row mu <= 0 for "nonpos"."""
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
    basis = lattice.mu_zero[2] if mu_mode == "zero" else lattice.basis
    total = [sum(P) for P in basis]
    extra = [(total, 1), ([-c for c in total], -1)]
    if mu_mode == "nonpos":
        extra.insert(0, ([-c for c in lattice.mu], 0))
    for stratum in strata:
        ineqs = [(row, 0) for row in cone_rows(d, basis, stratum)[0]] + extra
        point = linprog.feasible_point(ineqs, len(basis))
        if point is None:
            continue
        P = lattice.element(linprog.integer_scale(point), basis=basis)
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
    """Rows over the K0 coordinates of a block, compiled once: the cone rows
    of a survival stratum, the sources of their right-hand sides (see
    ``cone_rows``), the total multiplicity sum_r P_r per K0 domain and the
    recording that serves every elimination of the rows."""

    def __init__(self, lattice: PeriodicLattice, stratum: frozenset = frozenset()):
        basis = lattice.mu_zero[2]
        self.stratum = stratum
        self.rows, self.sources = cone_rows(lattice.diagram, basis, stratum)
        self.total = [sum(P) for P in basis]
        self.recording = linprog.Recording()

    def ineqs(self, base, *extra) -> list:
        """The rows with the right-hand sides of ``base``, then ``extra``."""
        rhs = [sign * base[r] for r, sign in self.sources] + list(extra)
        return list(zip(self.rows, rhs, strict=True))


def certificate_systems(lattice: PeriodicLattice) -> list:
    """The certificate systems of every survival stratum of the block."""
    return [CertificateSystem(lattice, stratum)
            for stratum in survival_strata(tilde_kill_supports(lattice.diagram))]


def finiteness_certificate(lattice: PeriodicLattice, phi0, shift: int) -> int | None:
    """Bound on the total multiplicity sum_r D_r, hence on every coefficient,
    of the positive classes D = phi0 + P with mu(P) = shift and surviving
    tilde-monomial: per survival stratum, one ``linear_range`` of it on the
    slice mu = shift, base + K0 (``PeriodicLattice.slice_base``), whose
    integer base keeps every row integral; NotAdmissibleError on an
    unbounded stratum.  None when every stratum is empty, or when no lattice
    element has mu = shift.  ``lattice`` is the periodic lattice of the pair's
    Spin^c class, phi0 the pair's connecting domain and shift = j - mu(phi0)
    for the index j.  The stratum systems are compiled once per lattice; a
    pair supplies right-hand sides.
    """
    base = lattice.slice_base(phi0, shift)
    if base is None:
        return None
    best = None
    for system in lattice.compiled("certificate", certificate_systems):
        rng = linprog.linear_range(system.ineqs(base), len(system.total), system.total,
                                   system.recording)
        if rng is None:
            continue  # stratum empty
        if rng[1] is None:
            raise NotAdmissibleError(
                f"unbounded coefficients in stratum {sorted(system.stratum)}"
            )
        # sum_r D_r = sum(base) + total . s
        bound = math.floor(rng[1] + sum(base))
        best = bound if best is None else max(best, bound)
    return best
