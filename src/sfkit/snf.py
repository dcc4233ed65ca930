"""Exact coefficient rings and Smith normal form, the one dense eliminator.

Each coefficient ring of the package is one ``Ring``: the same object
tensors complexes down and eliminates over.  ``ZZ`` (the integers),
``FpURing`` (F_p[U]) and the fields ``QRing`` and ``ZpRing`` are Euclidean,
so ranks, kernels (``kernel_basis``) and invariant factors over each come
from ``smith_normal_form``; the solvers (``solve_integer``,
``split_transformed``) work over the integers.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


class Ring:
    """A commutative coefficient ring.

    A ring gives ``zero()``, ``one()`` and ``from_int(n)``; ``add``, ``neg``
    and ``mul`` default to Python's operators, which serve Z and Q, and the
    row and column operations of an elimination (``addmul``,
    ``addmul_column``, ``scale``) to one ``add`` and ``mul`` per entry.  A
    Euclidean ring (a ``Field``, or ``kind`` "pid") also gives ``divmod(a,
    b)`` with a remainder of smaller ``norm`` (a size that is 0 only for 0,
    used to pick pivots), ``is_unit``, ``normalize_unit(a)`` = (u, b) with
    a = u*b, u a unit and b canonical, ``unit_inverse`` and, for a "pid",
    ``torsion_label(d)``, the name of a torsion summand R/d in homology.
    ``variable`` names the graded polynomial variable of F_p[U].
    """

    name = "?"
    kind = None  # "field" (a Field) | "pid" | "algebra"
    variable = None

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == self.zero()

    def power(self, a, n):
        out = self.one()
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def addmul(self, row, c, src):
        """row + c * src, entry by entry: a row operation."""
        return [self.add(a, self.mul(c, b)) for a, b in zip(row, src)]

    def addmul_column(self, m, dst, src, c):
        """Add c times column src of the matrix m to its column dst, in place."""
        for row in m:
            row[dst] = self.add(row[dst], self.mul(c, row[src]))

    def scale(self, c, row):
        """c * row, entry by entry."""
        return [self.mul(c, a) for a in row]


class ZRing(Ring):
    name = "Z"
    kind = "pid"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def is_zero(self, a):
        return a == 0

    def addmul(self, row, c, src):
        return [a + c * b for a, b in zip(row, src)]

    def addmul_column(self, m, dst, src, c):
        for row in m:
            row[dst] += c * row[src]

    def scale(self, c, row):
        return [c * a for a in row]

    def divmod(self, a, b):
        # round to nearest: python's r has the sign of b, so subtracting b
        # once (q += 1) always shrinks |r| when it exceeds |b|/2
        q, r = divmod(a, b)
        if abs(r) * 2 > abs(b):
            q += 1
            r -= b
        return q, r

    def is_unit(self, a):
        return a in (1, -1)

    def norm(self, a):
        return abs(a)

    def normalize_unit(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def unit_inverse(self, u):
        return u  # 1 and -1 are their own inverses

    def torsion_label(self, d):
        return abs(d)


ZZ = ZRing()


class Field(Ring):
    """A field as a Euclidean ring: ``divmod`` is exact, every nonzero
    element is a unit of norm 1 and ``normalize_unit`` takes it to 1, so
    every invariant factor of a Smith form over a field is 1."""

    kind = "field"

    def is_zero(self, a):
        return not a

    def divmod(self, a, b):
        return self.mul(a, self.unit_inverse(b)), self.zero()

    def is_unit(self, a):
        return not self.is_zero(a)

    def norm(self, a):
        return 1

    def normalize_unit(self, a):
        return a, self.one()


class QRing(Field):
    name = "Q"
    # Python's operators serve Q as they serve Z
    addmul, addmul_column, scale = ZRing.addmul, ZRing.addmul_column, ZRing.scale

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def unit_inverse(self, u):
        return 1 / Fraction(u)


QQ = QRing()


class ZpRing(Field):
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

    def addmul(self, row, c, src):
        p = self.p
        return [(a + c * b) % p for a, b in zip(row, src)]

    def addmul_column(self, m, dst, src, c):
        p = self.p
        for row in m:
            row[dst] = (row[dst] + c * row[src]) % p

    def scale(self, c, row):
        return [c * a % self.p for a in row]

    def divmod(self, a, b):
        return a * pow(b, -1, self.p) % self.p, 0

    def unit_inverse(self, u):
        return pow(u, -1, self.p)


def _trim(t):
    while t and t[-1] == 0:
        t = t[:-1]
    return t


class FpURing(Ring):
    """F_p[U]; elements are coefficient tuples, constant term first, with no
    trailing zeros."""

    kind = "pid"
    variable = "U"

    def __init__(self, p=2):
        self.p = p
        self.name = f"F{p}[U]"

    def zero(self):
        return ()

    def one(self):
        return (1 % self.p,)

    def from_int(self, n):
        return _trim(((n % self.p),))

    def U(self, k=1):
        return tuple([0] * k + [1])

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
        if not a or a[-1] == 1:
            return self.one(), a
        lead = a[-1]
        inv = pow(lead, -1, self.p)
        return (lead,), tuple((c * inv) % self.p for c in a)

    def unit_inverse(self, u):
        return (pow(u[0], -1, self.p),)

    def torsion_label(self, d):
        return f"U^{len(d) - 1}" if len(d) > 1 else "1"


def _identity(n, ring):
    zero, one = ring.zero(), ring.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


class SNFResult:
    """U * A * V = D with U, V invertible over the ring, D diagonal.

    ``diag`` lists the nonzero diagonal entries d_1 | d_2 | ... in order.
    """

    def __init__(self, U: list, V: list, D: list, diag: list, rank: int):
        self.U = U
        self.V = V
        self.D = D
        self.diag = diag
        self.rank = rank

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)


def _pivot(D, t, ring):
    """(i, j) of the first entry of least norm in the block D[t:][t:], or
    None when the block is zero.  A unit has the least norm, so the scan
    ends at the first unit: over a field, the first nonzero entry."""
    best = at = None
    for i in range(t, len(D)):
        row = D[i]
        for j in range(t, len(row)):
            a = row[j]
            if not ring.is_zero(a):
                if ring.is_unit(a):
                    return i, j
                n = ring.norm(a)
                if best is None or n < best:
                    best, at = n, (i, j)
    return at


def smith_normal_form(A, ring: Ring = ZZ, transforms=True) -> SNFResult:
    """U * A * V = D over a Euclidean ring.  Without ``transforms`` U and V
    are None and D is the same: for a caller that reads only D."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = _identity(rows, ring) if transforms else []
    V = _identity(cols, ring) if transforms else []
    left = (D, U) if transforms else (D,)  # what each row operation changes

    t = 0
    while True:
        if t >= rows or t >= cols:
            break
        found = _pivot(D, t, ring)
        if found is None:
            break
        pi, pj = found
        for m in left:
            m[t], m[pi] = m[pi], m[t]
        for row in D + V:
            row[t], row[pj] = row[pj], row[t]

        # clear row and column t; restart if a nonzero remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if ring.is_zero(D[i][t]):
                    continue
                q, r = ring.divmod(D[i][t], D[t][t])
                for m in left:
                    m[i] = ring.addmul(m[i], ring.neg(q), m[t])
                if not ring.is_zero(r):
                    for m in left:
                        m[t], m[i] = m[i], m[t]
                    dirty = True
            for j in range(t + 1, cols):
                if ring.is_zero(D[t][j]):
                    continue
                q, r = ring.divmod(D[t][j], D[t][t])
                for m in (D[t:], V):  # rows above t are zero in column t
                    ring.addmul_column(m, j, t, ring.neg(q))
                if not ring.is_zero(r):
                    for row in D + V:
                        row[t], row[j] = row[j], row[t]
                    dirty = True

        # enforce d_t | D[i][j] on the trailing block (a unit pivot divides all)
        offender = None
        for i in range(t + 1, rows) if not ring.is_unit(D[t][t]) else ():
            for j in range(t + 1, cols):
                if ring.is_zero(D[i][j]):
                    continue
                _, r = ring.divmod(D[i][j], D[t][t])
                if not ring.is_zero(r):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for m in left:
                m[t] = ring.addmul(m[t], ring.one(), m[offender])
            continue

        u, canon = ring.normalize_unit(D[t][t])
        if not ring.is_unit(u):
            raise ArithmeticError("unit normalization failed")
        if canon != D[t][t]:
            # multiply row t by u^{-1}
            inv = ring.unit_inverse(u)
            for m in left:
                m[t] = ring.scale(inv, m[t])
        t += 1

    diag = [D[i][i] for i in range(min(rows, cols)) if not ring.is_zero(D[i][i])]
    if not transforms:
        U = V = None
    return SNFResult(U=U, V=V, D=D, diag=diag, rank=len(diag))


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def _factored(A) -> SNFResult:
    return A if isinstance(A, SNFResult) else smith_normal_form(A)


def solve_integer(A, b):
    """One integer solution x of A x = b, or None if there is none.

    A is a list of rows or its ``smith_normal_form``, so a matrix used for
    many right-hand sides is factored once.  With U A V = D, x = V y where
    y_i = (U b)_i / d_i.
    """
    snf = _factored(A)
    y, rem = split_transformed(snf, mat_vec(snf.U, b))
    if any(rem):
        return None
    return mat_vec(snf.V, y)


def split_transformed(snf: SNFResult, ub):
    """(y, r) with (U b)_i = d_i y_i + r_i on the rank rows, r_i = (U b)_i and
    y_i = 0 beyond them: A x = b is solvable exactly when r = 0, by x = V y.
    ``ZZ.divmod`` leaves canonical remainders, so A x = b1 - b2 is solvable
    exactly when b1 and b2 leave equal r, by x = V y1 - V y2."""
    y = [0] * len(snf.V)
    rem = list(ub)
    for i, d in enumerate(snf.diag):
        if ub[i]:
            y[i], rem[i] = ZZ.divmod(ub[i], d)
    return y, rem


def kernel_basis(A):
    """Basis of the kernel {x : A x = 0}, as a list of vectors.

    A is a list of integer rows, or its ``smith_normal_form`` over any ring.
    """
    snf = _factored(A)
    cols = len(snf.V)
    return [[snf.V[i][j] for i in range(cols)] for j in range(snf.rank, cols)]


class AbelianGroup:
    """Finitely generated abelian group, presented by generators.

    Elements are tuples of length ``len(moduli)``; coordinate i lives in
    Z/moduli[i] (modulus 0 meaning Z).  ``subs`` writes each eliminated
    generator, in order, as x_p = sum c x_g over later and kept generators,
    and ``images[g]`` is the class of a kept generator g.  ``project`` maps
    a vector over the generators (a sequence or a sparse dict) to its class.
    """

    def __init__(self, moduli: tuple, images: list, subs: dict):
        self.moduli = moduli
        self.images = images
        self.subs = subs

    @property
    def rank(self) -> int:
        return sum(1 for m in self.moduli if m == 0)

    def zero(self):
        return tuple(0 for _ in self.moduli)

    def reduce(self, coords):
        return tuple(c % m if m else c for c, m in zip(coords, self.moduli))

    def project(self, vec):
        vec = dict(vec) if isinstance(vec, dict) else {g: c for g, c in enumerate(vec) if c}
        _substitute(vec, self.subs)
        return self.combination(vec.values(), [self.images[g] for g in vec])

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a):
        return self.reduce([-x for x in a])

    def combination(self, coeffs, elements):
        """sum_i coeffs[i] * elements[i], reduced once."""
        acc = [0] * len(self.moduli)
        for a, e in zip(coeffs, elements):
            if a:
                acc = [c + a * x for c, x in zip(acc, e)]
        return self.reduce(acc)

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{m}" for m in self.moduli if m > 1]
        return " + ".join(parts) if parts else "0"


def _substitute(vec, subs):
    """Make the substitutions ``subs``, in order, in the sparse ``vec``."""
    for p, sub in subs.items():
        f = vec.pop(p, 0)
        if f:
            for g, c in sub.items():
                v = vec.get(g, 0) + f * c
                if v:
                    vec[g] = v
                else:
                    del vec[g]


def cokernel(relations, n_generators) -> AbelianGroup:
    """Z^n / <relations>, each relation a column: a sequence, or a dict of
    its nonzero entries.

    Each relation in turn, the earlier substitutions made in it, with a unit
    entry u at generator p says x_p = -u * (the rest), and so removes p and
    itself; the others are retried while that removes more.  Only the
    relations left take a Smith normal form, over the generators they use.
    """
    pending = [dict(col) if isinstance(col, dict) else {g: c for g, c in enumerate(col) if c}
               for col in relations]
    subs = {}  # p -> {g: c} with x_p = sum c x_g, in order of elimination
    before = None
    while pending and len(subs) != before:
        before, left = len(subs), []
        for rel in pending:
            _substitute(rel, subs)
            for p, u in rel.items():
                if u == 1 or u == -1:
                    break
            else:
                if rel:
                    left.append(rel)
                continue
            del rel[p]
            subs[p] = rel if u == -1 else {g: -c for g, c in rel.items()}
        pending = left
    kept = {g for rel in pending for g in rel}
    free = [g for g in range(n_generators) if g not in subs and g not in kept]
    moduli, images = [], [None] * n_generators
    if pending:
        rows = sorted(kept)
        res = smith_normal_form([[rel.get(g, 0) for rel in pending] for g in rows])
        keep = [i for i, d in enumerate(res.diag) if d != 1] + list(range(res.rank, len(rows)))
        moduli = [res.diag[i] if i < res.rank else 0 for i in keep]
        for i, g in enumerate(rows):
            images[g] = [res.U[t][i] for t in keep] + [0] * len(free)
    group = AbelianGroup(moduli=tuple(moduli + [0] * len(free)), images=images, subs=subs)
    for g in kept:
        images[g] = group.reduce(images[g])
    for i, g in enumerate(free, len(moduli)):
        images[g] = (0,) * i + (1,) + (0,) * (len(group.moduli) - i - 1)
    return group


def rank_over_field(A, field: Ring = QQ):
    """Rank of A over a field, from its Smith form; the entries are integers
    or elements of the field, read by ``field.from_int``."""
    A = [[field.from_int(a) for a in row] for row in A]
    return smith_normal_form(A, field, transforms=False).rank
