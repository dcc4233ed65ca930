"""Exact Smith normal form, integer linear algebra and field elimination.

The Smith normal form and the solver work over a Euclidean domain given as
a small protocol object; the two instances used in the package are the
integers and F_p[U].  Ranks and kernels over Q and F_p come from one
Gauss-Jordan elimination.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul


class EuclideanDomain:
    """Protocol for the coefficient domains accepted by ``smith_normal_form``."""

    zero = 0
    one = 1

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def divmod(self, a, b):
        raise NotImplementedError

    def is_zero(self, a):
        raise NotImplementedError

    def is_unit(self, a):
        raise NotImplementedError

    def norm(self, a):
        """Non-negative size used for pivot selection; 0 only for 0."""
        raise NotImplementedError

    def normalize_unit(self, a):
        """Return (u, b) with a = u*b, u a unit and b in canonical form."""
        raise NotImplementedError


class IntegerDomain(EuclideanDomain):
    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def divmod(self, a, b):
        # round to nearest: python's r has the sign of b, so subtracting b
        # once (q += 1) always shrinks |r| when it exceeds |b|/2
        q, r = divmod(a, b)
        if abs(r) * 2 > abs(b):
            q += 1
            r -= b
        return q, r

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def norm(self, a):
        return abs(a)

    def normalize_unit(self, a):
        if a < 0:
            return -1, -a
        return 1, a


ZZ = IntegerDomain()


def _identity(n, dom):
    return [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m, dst, src, c, dom):
    row_d, row_s = m[dst], m[src]
    for k in range(len(row_d)):
        row_d[k] = dom.add(row_d[k], dom.mul(c, row_s[k]))


def _addmul_col(m, dst, src, c, dom):
    for row in m:
        row[dst] = dom.add(row[dst], dom.mul(c, row[src]))


@dataclass
class SNFResult:
    """U * A * V = D with U, V invertible over the domain, D diagonal.

    ``diag`` lists the nonzero diagonal entries d_1 | d_2 | ... in order.
    """

    U: list
    V: list
    D: list
    diag: list
    rank: int


def smith_normal_form(A, dom: EuclideanDomain = ZZ) -> SNFResult:
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = _identity(rows, dom)
    V = _identity(cols, dom)

    def pivot_search(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = D[i][j]
                if not dom.is_zero(a):
                    n = dom.norm(a)
                    if best is None or n < best[0]:
                        best = (n, i, j)
        return best

    t = 0
    while True:
        if t >= rows or t >= cols:
            break
        found = pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            _swap_rows(D, t, pi)
            _swap_rows(U, t, pi)
        if pj != t:
            _swap_cols(D, t, pj)
            _swap_cols(V, t, pj)

        # clear row and column t; restart if a nonzero remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if dom.is_zero(D[i][t]):
                    continue
                q, r = dom.divmod(D[i][t], D[t][t])
                _addmul_row(D, i, t, dom.neg(q), dom)
                _addmul_row(U, i, t, dom.neg(q), dom)
                if not dom.is_zero(r):
                    _swap_rows(D, t, i)
                    _swap_rows(U, t, i)
                    dirty = True
            for j in range(t + 1, cols):
                if dom.is_zero(D[t][j]):
                    continue
                q, r = dom.divmod(D[t][j], D[t][t])
                _addmul_col(D, j, t, dom.neg(q), dom)
                _addmul_col(V, j, t, dom.neg(q), dom)
                if not dom.is_zero(r):
                    _swap_cols(D, t, j)
                    _swap_cols(V, t, j)
                    dirty = True

        # enforce divisibility d_t | D[i][j] for the trailing block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if dom.is_zero(D[i][j]):
                    continue
                _, r = dom.divmod(D[i][j], D[t][t])
                if not dom.is_zero(r):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _addmul_row(D, t, offender, dom.one, dom)
            _addmul_row(U, t, offender, dom.one, dom)
            continue

        u, canon = dom.normalize_unit(D[t][t])
        if not dom.is_unit(u):
            raise ArithmeticError("unit normalization failed")
        if canon != D[t][t]:
            # multiply row t by u^{-1}: for our domains u is +-1 or a field scalar
            inv = _unit_inverse(u, dom)
            for k in range(cols):
                D[t][k] = dom.mul(inv, D[t][k])
            for k in range(rows):
                U[t][k] = dom.mul(inv, U[t][k])
        t += 1

    diag = [D[i][i] for i in range(min(rows, cols)) if not dom.is_zero(D[i][i])]
    return SNFResult(U=U, V=V, D=D, diag=diag, rank=len(diag))


def _unit_inverse(u, dom):
    if u == dom.one:
        return dom.one
    if dom is ZZ or isinstance(dom, IntegerDomain):
        return u  # only unit is -1, self-inverse
    # field-of-fractions style units implement their own inverse
    return dom.unit_inverse(u)


def mat_mul(A, B, dom: EuclideanDomain = ZZ):
    n, m = len(A), len(B[0]) if B else 0
    k = len(B)
    out = [[dom.zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if dom.is_zero(a):
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] = dom.add(row[j], dom.mul(a, Bt[j]))
    return out


def mat_vec(A, v, dom: EuclideanDomain = ZZ):
    return [
        _dot(row, v, dom)
        for row in A
    ]


def _dot(row, v, dom):
    if dom is ZZ:
        return sum(map(mul, row, v))
    acc = dom.zero
    for a, b in zip(row, v):
        if not dom.is_zero(a) and not dom.is_zero(b):
            acc = dom.add(acc, dom.mul(a, b))
    return acc


def _factored(A, dom=ZZ) -> SNFResult:
    return A if isinstance(A, SNFResult) else smith_normal_form(A, dom)


def solve_integer(A, b, dom: EuclideanDomain = ZZ):
    """One solution x of A x = b over the domain, or None if there is none.

    A is a list of rows or its ``smith_normal_form``, so a matrix used for
    many right-hand sides is factored once.  With U A V = D, x = V y where
    y_i = (U b)_i / d_i.
    """
    snf = _factored(A, dom)
    if not snf.U:
        return [dom.zero] * len(snf.V)
    return solve_transformed(snf, mat_vec(snf.U, b, dom), dom)


def solve_transformed(snf: SNFResult, ub, dom: EuclideanDomain = ZZ):
    """``solve_integer`` from U b instead of b, for a caller that keeps U b
    of the parts of its right-hand sides: x = V y with y_i = (U b)_i / d_i,
    or None when some division is not exact."""
    rows, cols = len(snf.U), len(snf.V)
    y = [dom.zero] * cols
    for i in range(rows):
        if dom.is_zero(ub[i]):
            continue  # y_i = 0 whatever d_i is
        d = snf.D[i][i] if i < min(rows, cols) else dom.zero
        if dom.is_zero(d):
            return None
        q, r = dom.divmod(ub[i], d)
        if not dom.is_zero(r):
            return None
        y[i] = q
    return mat_vec(snf.V, y, dom)


def kernel_basis(A):
    """Basis of the integer kernel {x : A x = 0}, as a list of vectors.

    A is a list of rows or its ``smith_normal_form``.
    """
    snf = _factored(A)
    cols = len(snf.V)
    return [[snf.V[i][j] for i in range(cols)] for j in range(snf.rank, cols)]


@dataclass
class AbelianGroup:
    """Finitely generated abelian group presented in Smith normal form.

    Elements are tuples of length ``len(moduli)``; coordinate i lives in
    Z/moduli[i] (modulus 0 meaning Z).  ``project`` maps a vector written in
    the original generator basis to its class.
    """

    moduli: tuple
    proj: list  # matrix: quotient coords from generator coords

    @property
    def rank(self) -> int:
        return sum(1 for m in self.moduli if m == 0)

    @property
    def torsion(self) -> tuple:
        return tuple(m for m in self.moduli if m > 1)

    @property
    def is_trivial(self) -> bool:
        return len(self.moduli) == 0

    def zero(self):
        return tuple(0 for _ in self.moduli)

    def reduce(self, coords):
        return tuple(
            c % m if m else c for c, m in zip(coords, self.moduli)
        )

    def project(self, vec):
        return self.reduce(mat_vec(self.proj, vec))

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a):
        return self.reduce([-x for x in a])

    def scale(self, n, a):
        return self.reduce([n * x for x in a])

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{m}" for m in self.moduli if m > 1]
        return " + ".join(parts) if parts else "0"


def cokernel(relations, n_generators) -> AbelianGroup:
    """Z^n / <column span of relations>, relations given as a list of columns."""
    if not relations:
        A = [[0] for _ in range(n_generators)] if n_generators else [[0]]
        if n_generators == 0:
            return AbelianGroup(moduli=(), proj=[])
        snf = smith_normal_form(A)
    else:
        A = [[col[i] for col in relations] for i in range(n_generators)]
        if n_generators == 0:
            return AbelianGroup(moduli=(), proj=[])
        snf = smith_normal_form(A)
    # U A V = D; quotient coords are (U x) entries beyond the unit diagonal part
    moduli = []
    keep = []
    ncols = len(relations) if relations else 1
    for i in range(n_generators):
        d = snf.D[i][i] if i < min(n_generators, ncols) else 0
        if d == 0:
            moduli.append(0)
            keep.append(i)
        elif abs(d) != 1:
            moduli.append(abs(d))
            keep.append(i)
    proj = [snf.U[i] for i in keep]
    return AbelianGroup(moduli=tuple(moduli), proj=proj)


def _gauss_jordan(A, p):
    """Reduced row echelon form of A over Q (p=None) or F_p.

    Returns the reduced rows and {pivot column: its row}.
    """
    if p is None:
        M = [[Fraction(x) for x in row] for row in A]
    else:
        M = [[x % p for x in row] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = {}
    for j in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if M[i][j]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        if p is None:
            inv = 1 / M[r][j]
            M[r] = [x * inv for x in M[r]]
        else:
            inv = pow(M[r][j], -1, p)
            M[r] = [x * inv % p for x in M[r]]
        for i in range(rows):
            c = M[i][j]
            if i != r and c:
                if p is None:
                    M[i] = [x - c * y for x, y in zip(M[i], M[r])]
                else:
                    M[i] = [(x - c * y) % p for x, y in zip(M[i], M[r])]
        pivots[j] = r
    return M, pivots


def rank_over_field(A, p=None):
    """Rank of A over Q (p=None) or over F_p."""
    return len(_gauss_jordan(A, p)[1])


def kernel_over_field(A, ncols, p=None):
    """Basis of {x : A x = 0} over Q (p=None) or F_p; A has ncols columns
    (it may have no rows).  Entries are Fractions over Q, ints mod p."""
    M, pivots = _gauss_jordan(A, p)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1 % p)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [zero] * ncols
        v[j] = one
        for pj, pr in pivots.items():
            v[pj] = -M[pr][j] if p is None else -M[pr][j] % p
        basis.append(v)
    return basis
