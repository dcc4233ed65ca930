"""Oracles that more than one test module checks sfkit against: plain
computations that no program path needs."""

from fractions import Fraction

from sfkit.snf import ZZ, AbelianGroup, smith_normal_form


def component_domain(d, comp) -> list:
    """A complement component as a domain vector (indicator of its regions)."""
    vec = [0] * len(d.regions)
    for r in comp.regions:
        vec[r] = 1
    return vec


def mat_mul(A, B, ring=ZZ):
    """The matrix product A B over ``ring``."""
    n, m = len(A), len(B[0]) if B else 0
    out = [[ring.zero()] * m for _ in range(n)]
    for i in range(n):
        row = out[i]
        for t, a in enumerate(A[i]):
            if ring.is_zero(a):
                continue
            for j, b in enumerate(B[t]):
                row[j] = ring.add(row[j], ring.mul(a, b))
    return out


def dense_cokernel(relations, n_generators):
    """Z^n / <relations> from one Smith normal form of the dense matrix of
    all the relations (columns: sequences or sparse dicts): the reference
    for ``snf.cokernel``.  With U A V = D, a vector's class is U x, reduced
    mod d_i beyond the unit part of the diagonal."""
    if n_generators == 0:
        return AbelianGroup(moduli=(), images=[], subs={})
    cols = [dense(col, n_generators) for col in relations] or [[0] * n_generators]
    res = smith_normal_form([[col[i] for col in cols] for i in range(n_generators)])
    moduli, keep = [], []
    for i in range(n_generators):
        d = res.D[i][i] if i < len(cols) else 0
        if abs(d) != 1:
            moduli.append(abs(d))
            keep.append(i)
    return AbelianGroup(moduli=tuple(moduli), subs={},
                        images=[[res.U[i][g] for i in keep] for g in range(n_generators)])


def dense(vec, n):
    """A sequence or a sparse {index: entry} dict as a list of n entries."""
    if not isinstance(vec, dict):
        return list(vec)
    out = [0] * n
    for i, c in vec.items():
        out[i] = c
    return out


def check_cokernel(group, relations, n_generators, probes):
    """Raise AssertionError unless ``group`` is Z^n / <relations>, as the
    dense reference computes it: equal moduli, every relation projects to 0,
    and any two of the probe vectors and their pairwise sums have equal
    classes in ``group`` exactly when they do in the reference.  Raises
    rather than asserts, so that ``python -O`` keeps the check."""
    ref = dense_cokernel(relations, n_generators)
    if group.moduli != ref.moduli:
        raise AssertionError(f"moduli {group.moduli}, reference {ref.moduli}")
    for rel in relations:
        if group.project(rel) != group.zero():
            raise AssertionError(f"relation {rel} projects to {group.project(rel)}")
    vecs = [dense(v, n_generators) for v in probes]
    vecs += [[a + b for a, b in zip(v, w)] for v in vecs for w in vecs]
    seen = {}  # reference class -> class in group
    for v in vecs:
        got, want = group.project(v), ref.project(v)
        if seen.setdefault(want, got) != got:
            raise AssertionError(f"{v}: class {got}, but {seen[want]} for an equal reference class")
    if len(set(seen.values())) != len(seen):
        raise AssertionError("probes with distinct reference classes share a class")


# -- ranks and kernels over a field by Gauss-Jordan elimination ----------------
# The field eliminator that the Smith form over ``QRing`` and ``ZpRing``
# replaced, kept as the reference for it.


def gauss_jordan(A, p):
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
    return len(gauss_jordan(A, p)[1])


def kernel_over_field(A, ncols, p=None):
    """Basis of {x : A x = 0} over Q (p=None) or F_p; A has ncols columns
    (it may have no rows).  Entries are Fractions over Q, ints mod p."""
    M, pivots = gauss_jordan(A, p)
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
