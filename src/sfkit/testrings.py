"""Test rings: coefficient targets for tensoring complexes down.

A test ring is a ring together with a homomorphism from a suture algebra
(built-ins: the all-variables-to-zero map recovering sutured Floer homology
over Z, the U-power maps into F_p[U], and the quotient onto B_tau).  Each
target also knows how to do the exact linear algebra used by the homology
backends (field Gauss or PID Smith normal form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import algebra as alg
from . import snf


class HomError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


# -- target rings ----------------------------------------------------------


class Target:
    name = "?"
    kind = "field"  # "field" | "pid" | "algebra"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero()

    def power(self, a, n):
        out = self.one()
        for _ in range(n):
            out = self.mul(out, a)
        return out


class ZRing(Target):
    name = "Z"
    kind = "pid"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    domain = snf.ZZ


class QRing(Target):
    name = "Q"
    kind = "field"
    p = None  # characteristic zero: the Q branch of the snf field routines

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b


class ZpRing(Target):
    kind = "field"

    def __init__(self, p):
        self.p = p
        self.name = f"Z/{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


def _trim(t):
    while t and t[-1] == 0:
        t = t[:-1]
    return t


class FpUDomain(snf.EuclideanDomain):
    """F_p[U] as a Euclidean domain; elements are coefficient tuples."""

    def __init__(self, p):
        self.p = p
        self.zero = ()
        self.one = (1 % p,)

    def add(self, a, b):
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return _trim(tuple(out))

    def neg(self, a):
        return tuple((-c) % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not c:
                continue
            for j, e in enumerate(b):
                out[i + j] = (out[i + j] + c * e) % self.p
        return _trim(tuple(out))

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError
        a = list(a)
        q = [0] * max(len(a) - len(b) + 1, 0)
        inv = pow(b[-1], -1, self.p)
        for i in range(len(a) - len(b), -1, -1):
            c = (a[i + len(b) - 1] * inv) % self.p
            if c:
                q[i] = c
                for j, e in enumerate(b):
                    a[i + j] = (a[i + j] - c * e) % self.p
        return _trim(tuple(q)), _trim(tuple(a))

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1

    def norm(self, a):
        return len(a)

    def normalize_unit(self, a):
        if not a:
            return self.one, a
        lead = a[-1]
        if lead == 1:
            return self.one, a
        inv = pow(lead, -1, self.p)
        return (lead,), tuple((c * inv) % self.p for c in a)

    def unit_inverse(self, u):
        return (pow(u[0], -1, self.p),)


class FpURing(Target):
    kind = "pid"

    def __init__(self, p=2):
        self.p = p
        self.name = f"F{p}[U]"
        self.domain = FpUDomain(p)

    def zero(self):
        return ()

    def one(self):
        return (1 % self.p,)

    def from_int(self, n):
        return _trim(((n % self.p),))

    def U(self, k=1):
        if k == 0:
            return self.one()
        return tuple([0] * k + [1])

    def add(self, a, b):
        return self.domain.add(a, b)

    def neg(self, a):
        return self.domain.neg(a)

    def mul(self, a, b):
        return self.domain.mul(a, b)


class AlgebraTarget(Target):
    kind = "algebra"

    def __init__(self, spec: alg.AlgebraSpec, name=None):
        self.spec = spec
        self.name = name or f"quotient({spec.variant})"

    def zero(self):
        return {}

    def one(self):
        return {alg.one(self.spec.nvars): 1}

    def from_int(self, n):
        return {alg.one(self.spec.nvars): n} if n else {}

    def add(self, a, b):
        return self.spec.add(a, b)

    def neg(self, a):
        return self.spec.normal_form(alg.poly_scale(a, -1))

    def mul(self, a, b):
        return self.spec.mul(a, b)

    def is_zero(self, a):
        return not self.spec.normal_form(a)


# -- homomorphisms ----------------------------------------------------------


@dataclass
class TestRingHom:
    source: alg.AlgebraSpec
    target: Target
    images: list
    name: str
    filtration_compatible: bool | None = None
    u_grading: int | None = None  # grading of U for F_p[U] targets

    def apply_monomial(self, m):
        out = self.target.one()
        for i, a in enumerate(m):
            if a:
                out = self.target.mul(out, self.target.power(self.images[i], a))
        return out

    def apply(self, p):
        out = self.target.zero()
        for m, c in p.items():
            term = self.target.mul(self.target.from_int(c), self.apply_monomial(m))
            out = self.target.add(out, term)
        return out

    def verify(self):
        for m in self.source.kill:
            if not self.target.is_zero(self.apply_monomial(m)):
                raise HomError("RELATION_NOT_KILLED", f"kill monomial {m} survives")
        for rel in self.source.relations:
            img = self.apply({m: c for m, c in rel})
            if not self.target.is_zero(img):
                raise HomError("RELATION_NOT_KILLED", f"relation {rel} survives")
        return self


def all_zero(spec: alg.AlgebraSpec, target: Target | None = None) -> TestRingHom:
    """lambda_i -> 0: the Juhasz specialization (SFH over the target)."""
    target = target or ZRing()
    hom = TestRingHom(
        source=spec,
        target=target,
        images=[target.zero()] * spec.nvars,
        name=f"all-zero/{target.name}",
        filtration_compatible=True,
        u_grading=None,
    )
    return hom.verify()


def to_U(spec: alg.AlgebraSpec, weights=None, p=2) -> TestRingHom:
    """lambda_i -> U^{w_i} in F_p[U] (weights default to all ones)."""
    target = FpURing(p)
    weights = list(weights) if weights is not None else [1] * spec.nvars
    hom = TestRingHom(
        source=spec,
        target=target,
        images=[target.U(w) for w in weights],
        name=f"to-U/{target.name}",
        filtration_compatible=_u_compatible(spec, weights),
        u_grading=_u_grading(spec, weights),
    )
    return hom.verify()


def _u_compatible(spec, weights):
    """Does some psi: H -> Z send chi(lambda_i) to w_i?"""
    if spec.chi_group is None:
        return None
    group = spec.chi_group
    free = [i for i, m in enumerate(group.moduli) if m == 0]
    # psi kills torsion, so the equations only see the free coordinates
    rows = []
    rhs = []
    for k in range(spec.nvars):
        cls = spec.chi_classes[k]
        rows.append([cls[i] for i in free])
        rhs.append(weights[k])
    if not free:
        return all(w == 0 for w in rhs)
    sol = snf.solve_integer(rows, rhs)
    return sol is not None


def _u_grading(spec, weights):
    """gr(U) making the map grading-compatible, if one exists."""
    if spec.gr_weights is None or any(w is None for w in spec.gr_weights):
        return None
    val = None
    for w, g in zip(weights, spec.gr_weights):
        if w == 0:
            if g != 0:
                return None
            continue
        if g % w != 0:
            return None
        if val is None:
            val = g // w
        elif val != g // w:
            return None
    return 0 if val is None else val


def btau_hom(spec: alg.AlgebraSpec, homology) -> TestRingHom:
    """The quotient map onto B_tau (torsion-free homology kill-list)."""
    bt = alg.AlgebraSpec(
        names=spec.names,
        variant=alg.B_TAU,
        kill=(),
        relations=(),
        kill_predicate=alg._btau_predicate(homology, spec.nvars),
        chi_classes=spec.chi_classes,
        chi_group=spec.chi_group,
    )
    target = AlgebraTarget(bt, name="B_tau")
    images = [target.spec.variable(i) for i in range(spec.nvars)]
    hom = TestRingHom(
        source=spec,
        target=target,
        images=images,
        name="b-tau",
        filtration_compatible=True,
    )
    return hom.verify()


def identity_hom(spec: alg.AlgebraSpec) -> TestRingHom:
    target = AlgebraTarget(spec, name="id")
    hom = TestRingHom(
        source=spec,
        target=target,
        images=[target.spec.variable(i) for i in range(spec.nvars)],
        name="identity",
        filtration_compatible=True,
    )
    return hom.verify()


def algebra_hom(source: alg.AlgebraSpec, target_spec: alg.AlgebraSpec, images,
                name="algebra-hom") -> TestRingHom:
    """Generic map into another suture algebra; images are element dicts."""
    target = AlgebraTarget(target_spec)
    hom = TestRingHom(
        source=source,
        target=target,
        images=[target_spec.normal_form(img) for img in images],
        name=name,
        filtration_compatible=None,
    )
    return hom.verify()


class BadRingLabel(ValueError):
    """A --coefficients label that names no supported ring."""


# Trial division decides primality in well under a second below this bound.
_MODULUS_LIMIT = 2 ** 40


def _prime_modulus(label: str, digits: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise BadRingLabel(f"unknown coefficient ring {label}")
    p = int(digits)
    if p >= _MODULUS_LIMIT:
        raise BadRingLabel(f"{label}: modulus {p} is not below 2^40")
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise BadRingLabel(f"{label}: modulus {p} is not prime, so Z/{p} is not a field")
    return p


def coefficient_ring(label: str) -> Target:
    """Parse a --coefficients flag: Z | Q | Zp:<p> | F<p>U with p prime."""
    if label == "Z":
        return ZRing()
    if label == "Q":
        return QRing()
    if label.startswith("Zp:"):
        return ZpRing(_prime_modulus(label, label[3:]))
    if label.endswith("U") and label.startswith("F"):
        return FpURing(_prime_modulus(label, label[1:-1]))
    raise BadRingLabel(
        f"unknown coefficient ring {label} (Z, Q, Zp:<p> or F<p>U with p prime)"
    )
