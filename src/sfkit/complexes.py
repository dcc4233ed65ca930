"""Filtered chain complexes over a coefficient ring and their homology.

A FilteredComplex is a free module over an ``snf.Ring`` with a sparse
differential {(target i, source j): ring element}.  The complex of a
diagram lives over its suture algebra (an ``AlgebraTarget``); there each
generator carries a relative Spin^c coset (an element of the H group,
measured from a base generator) and a relative grading, and the filtration
and grading axioms are checked.  Each entry's coset shift and grading drop
come from one generator, ``_offsets``, which also gives the constant shifts
of the maps that compare complexes (mapping cones, the exact triangle).
Tensoring with a test-ring homomorphism
maps a complex over the hom's source to the same kind of complex over its
target, whose homology is computed exactly from ranks and invariant factors.
Differentials and their composites go through one sparse product,
``_compose``.  ``homology`` splits a complex into pieces with bases (below,
here, above), one per (coset, grading) or one ungraded piece, after checking
that every entry maps its piece one grading lower in the same coset;
``_piece_matrix`` builds the matrix of d between two bases, and
``_piece_homology`` eliminates each distinct block of d once, by one Smith
normal form over whichever ring, and reads each piece's free rank
n - rank(out) - rank(in) and its torsion, the non-unit invariant factors of
the block into it (none over a field).  Chain maps, mapping cones and the graded
piece homologies, including the finite (chi, gr)-fiber linear algebra over
the multivariate algebras themselves, live in ``cones``, which reuses these
three.
"""

from __future__ import annotations

from . import algebra as alg
from . import snf
from .snf import Ring
from .testrings import TestRingHom


class ComplexError(RuntimeError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


class TaintRecord:
    def __init__(self, source: int, target: int, weight: tuple):
        self.source = source
        self.target = target
        self.weight = weight  # exponent vector of the unsupported class's monomial


def _compose(ring, f, g):
    """Entries of f o g, for sparse matrices {(row, column): element}."""
    f_by_col = {}
    for (i, k), e in f.items():
        f_by_col.setdefault(k, []).append((i, e))
    out = {}
    for (k, j), e1 in g.items():
        for i, e2 in f_by_col.get(k, ()):
            prod = ring.mul(e2, e1)
            out[(i, j)] = ring.add(out[(i, j)], prod) if (i, j) in out else prod
    return {key: v for key, v in out.items() if not ring.is_zero(v)}


def _offsets(src, tgt, entries, shifts=True, drops=True):
    """(i, j, m, shift, drop) for each monomial m of each entry (i, j) of a
    map src -> tgt over the suture algebra, in entry order.

    ``shift`` is the coset shift s(j) - s(i) - chi(m), None without a chi
    group or when a coset of src or tgt is unknown; ``drop`` is the grading
    drop gr(j) - gr(i) - gr(m), not reduced, None when a grading of src or
    tgt or gr(m) is unknown.  A differential has shift 0 and drop 1; a map
    that compares complexes shifts both by constants.  A caller that reads
    one of the two turns the other off, and it is then None throughout.
    """
    spec = src.algebra
    group = spec.chi_group
    filtered = shifts and group is not None and None not in src.cosets + tgt.cosets
    graded = drops and None not in src.gradings + tgt.gradings
    for (i, j), e in entries.items():
        for m in e:
            shift = drop = None
            if filtered:
                shift = group.reduce([a - b - c for a, b, c in
                                      zip(src.cosets[j], tgt.cosets[i], spec.chi(m))])
            gm = spec.gr(m) if graded else None
            if gm is not None:
                drop = src.gradings[j] - tgt.gradings[i] - gm
            yield i, j, m, shift, drop


class FilteredComplex:
    def __init__(self, ring: Ring, gen_names: list, cosets: list, gradings: list,
                 entries: dict, taints: list | None = None, u_grading: int | None = None):
        self.ring = ring
        self.gen_names = gen_names
        self.cosets = cosets  # H elements (relative to the block base) or None
        self.gradings = gradings  # ints (relative) or None
        self.entries = entries  # (target i, source j) -> ring element
        self.taints = [] if taints is None else taints
        self.u_grading = u_grading  # grading of U over F_p[U]

    @property
    def algebra(self) -> alg.AlgebraSpec:
        """The suture algebra of a complex over an AlgebraTarget."""
        return self.ring.spec

    @property
    def rank(self):
        return len(self.gen_names)

    def require_untainted(self):
        if self.taints:
            weights = sorted({tuple(t.weight) for t in self.taints}, reverse=True)
            raise ComplexError(
                "TAINTED",
                f"{len(self.taints)} unsupported classes survive in {self.ring.name}, "
                f"weights {', '.join(alg.mono_str(w) for w in weights)}",
            )

    # -- axioms ---------------------------------------------------------

    def verify_filtration(self):
        """chi-homogeneity: s(source) = s(target) + chi(entry monomial)."""
        for i, j, m, shift, _ in _offsets(self, self, self.entries, drops=False):
            if shift is not None and any(shift):
                raise ComplexError(
                    "FILTRATION", f"entry {j}->{i} monomial {m} breaks the coset rule"
                )
        return True

    def verify_grading_drop(self):
        """Every entry drops the grading by one (mod gr_modulus); None when a
        grading, or the grading of an entry's monomial, is unknown."""
        if any(g is None for g in self.gradings):
            return None
        mod = self.algebra.gr_modulus
        for i, j, _, _, drop in _offsets(self, self, self.entries, shifts=False):
            if drop is None:
                return None
            if mod:
                drop %= mod
            if drop != (1 % mod if mod else 1):
                raise ComplexError(
                    "GRADING", f"entry {j}->{i} drops grading by {drop}, not 1"
                )
        return True

    def d_squared(self):
        """Nonzero entries of the squared differential."""
        return _compose(self.ring, self.entries, self.entries)

    def require_d_squared_zero(self):
        """Raise D_SQUARED_NONZERO unless d o d = 0 exactly over the ring."""
        residues = self.d_squared()
        if residues:
            i, j = next(iter(residues))
            raise ComplexError("D_SQUARED_NONZERO", f"at ({i},{j})")

    def verify_d_squared(self) -> bool:
        """Whether d^2 = 0 mod 2 over the algebra."""
        return not any(c % 2 for v in self.d_squared().values() for c in v.values())

    # -- structure ------------------------------------------------------

    def decompose(self):
        """Split into summands by relative Spin^c coset."""
        groups = {}
        for i, c in enumerate(self.cosets):
            groups.setdefault(c, []).append(i)
        out = []
        for c in sorted(groups, key=lambda v: (v is None, v)):
            idx = groups[c]
            pos = {g: k for k, g in enumerate(idx)}
            sub = FilteredComplex(
                ring=self.ring,
                gen_names=[self.gen_names[g] for g in idx],
                cosets=[self.cosets[g] for g in idx],
                gradings=[self.gradings[g] for g in idx],
                entries={
                    (pos[i], pos[j]): e
                    for (i, j), e in self.entries.items()
                    if i in pos and j in pos
                },
                taints=[TaintRecord(pos[t.source], pos[t.target], t.weight)
                        for t in self.taints if t.source in pos and t.target in pos],
                u_grading=self.u_grading,
            )
            out.append(sub)
        return out

    def tensor(self, hom: TestRingHom) -> "FilteredComplex":
        """The complex over hom.target; self lives over hom.source."""
        entries = {}
        for (i, j), e in self.entries.items():
            img = hom.apply(e)
            if not hom.target.is_zero(img):
                entries[(i, j)] = img
        live_taints = []
        for t in self.taints:
            img = hom.apply_monomial(t.weight)
            if not hom.target.is_zero(img):
                live_taints.append(t)
        keep_cosets = bool(hom.filtration_compatible)
        return FilteredComplex(
            ring=hom.target,
            gen_names=list(self.gen_names),
            cosets=list(self.cosets) if keep_cosets else [None] * self.rank,
            gradings=list(self.gradings),
            entries=entries,
            taints=live_taints,
            u_grading=hom.u_grading,
        )


# -- homology ------------------------------------------------------------------


class HomologyResult:
    def __init__(self, ring_name: str, pieces: dict, graded: bool):
        self.ring_name = ring_name
        self.pieces = pieces  # label -> {"free_rank": int, "torsion": [..]} or {"dim": int}
        self.graded = graded

    def total_rank(self):
        total = 0
        for v in self.pieces.values():
            total += v.get("free_rank", v.get("dim", 0))
        return total

    def torsion_summands(self):
        out = []
        for v in self.pieces.values():
            out.extend(v.get("torsion", []))
        return out


def homology(tc: FilteredComplex) -> HomologyResult:
    tc.require_untainted()
    tc.require_d_squared_zero()
    ring = tc.ring
    if ring.kind not in ("field", "pid"):
        raise ComplexError(
            "UNSUPPORTED_COEFFICIENTS", f"no homology backend for {ring.name}"
        )
    graded = all(g is not None for g in tc.gradings) and tc.rank > 0
    if ring.variable and tc.entries:
        # U-powers may cross generator-grading blocks: compute the module
        # invariants ungraded (fpu_piece_dims gives the graded pieces)
        graded = False

    if graded:
        keys = list(zip(tc.cosets, tc.gradings))
        for (i, j), e in tc.entries.items():
            if not ring.is_zero(e) and keys[i] != (keys[j][0], keys[j][1] - 1):
                raise ComplexError(
                    "GRADING", f"entry {j}->{i} maps piece {keys[j]} to {keys[i]}, "
                    "not to the same coset one grading lower"
                )
        blocks = {}
        for i, key in enumerate(keys):
            blocks.setdefault(key, []).append(i)
        near = lambda coset, g: blocks.get((coset, g), [])
        pieces = {
            f"s={coset} gr={g}": (near(coset, g - 1), idx, near(coset, g + 1))
            for (coset, g), idx in sorted(blocks.items(), key=lambda kv: str(kv[0]))
        }
    else:
        idx = list(range(tc.rank))
        pieces = {"*": (idx, idx, idx)}
    homologies = _piece_homology(ring, pieces, _column_image(tc.entries))
    pieces = {
        key: {"dim": free} if ring.kind == "field" else {"free_rank": free, "torsion": torsion}
        for key, (free, torsion) in homologies.items()
        if free or torsion
    }
    return HomologyResult(ring_name=ring.name, pieces=pieces, graded=graded)


def _column_image(entries):
    """``image`` for ``_piece_matrix`` from sparse entries {(i, j): element}:
    the terms (i, element) of d(j)."""
    by_col = {}
    for (i, j), e in entries.items():
        by_col.setdefault(j, []).append((i, e))
    return lambda j: by_col.get(j, ())


def _piece_matrix(ring, src, dst, image):
    """Matrix of d from basis ``src`` to basis ``dst``; ``image(b)`` yields
    the (label, coefficient) terms of d(b), and labels outside ``dst`` drop."""
    index = {b: t for t, b in enumerate(dst)}
    M = [[ring.zero()] * len(src) for _ in dst]
    for col, b in enumerate(src):
        for label, coeff in image(b):
            row = index.get(label)
            if row is not None:
                M[row][col] = ring.add(M[row][col], coeff)
    return M


def _piece_homology(ring, pieces, image):
    """(free rank, torsion labels) of each piece of ``pieces``, which maps a
    key to the bases (below, here, above) of its piece; ``image`` is as for
    ``_piece_matrix``.

    Each distinct block of d (out: here -> below, in: above -> here) takes
    one ``smith_normal_form`` over the ring, whichever it is, with no
    transforms; neighbouring pieces share a block, as one's in is the next
    one's out.  The free rank is n - rank(out) - rank(in) and the torsion is
    the non-unit invariant factors of in, of which a field has none.  When
    out o in = 0 that is the homology ker(out)/im(in): ker(out) is a direct
    summand of R^n, since R^n/ker(out) = im(out) lies in a free module, so
    the torsion of ker(out)/im(in) is that of R^n/im(in).
    """
    eliminated = {}

    def eliminate(src, dst):
        """(rank, torsion labels) of the block of d from src to dst."""
        key = (tuple(src), tuple(dst))
        if key not in eliminated:
            diag = []
            if src and dst:
                M = _piece_matrix(ring, src, dst, image)
                diag = snf.smith_normal_form(M, ring, transforms=False).diag
            eliminated[key] = len(diag), [ring.torsion_label(d) for d in diag
                                          if not ring.is_unit(d)]
        return eliminated[key]

    out = {}
    for key, (below, here, above) in pieces.items():
        rank_in, torsion = eliminate(above, here)
        out[key] = len(here) - eliminate(here, below)[0] - rank_in, torsion
    return out
