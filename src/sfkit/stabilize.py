"""Simple stabilization: the diagram transform and the mapping-cone check.

Stabilizing at a suture gamma_k inserts a pair of crossing null-homotopic
curves next to the marked point z_k, with three new marked points placed in
the lens pattern.  The stabilized complex over R_tau[lambda_new] is
homology-equivalent to the mapping cone of multiplication by
(lambda_new - lambda), lambda the product of the other suture variables on
the R^+ component of gamma_k.  The verification builds both sides
independently: the stabilized side from honest class enumeration on the new
diagram (with the single boundary-degeneration class, whose count is not
combinatorially supported, set to one as the stabilization analysis
dictates), the cone side from the original diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import algebra as alg
from .cf import DiagramData, build_cf
from .complexes import (
    FilteredComplex,
    TaintRecord,
    fpu_piece_dims,
    homology,
    mapping_cone,
    multiplication_map,
)
from .diagram import ALPHA, BETA, HeegaardDiagram, Region, Crossing
from .testrings import TestRingHom, algebra_hom, to_U


class BadSutureError(ValueError):
    pass


def _component_of_mark(d: HeegaardDiagram, side, mark):
    for comp in d.complement_components(side):
        if mark in comp.marks:
            return comp
    raise ValueError(f"mark {mark} not found on side {side}")


def stabilize_diagram(d: HeegaardDiagram, mark: int) -> HeegaardDiagram:
    """Insert the stabilization curl in the region containing z_{mark}."""
    a_comp = _component_of_mark(d, ALPHA, mark)
    b_comp = _component_of_mark(d, BETA, mark)
    if a_comp.genus > 0 or b_comp.genus > 0:
        raise BadSutureError(
            f"suture {mark} does not bound two genus-zero components"
        )

    r_idx = d.mark_region[mark]
    ell = len(d.alpha)
    n_pts = len(d.crossings)
    n_reg = len(d.regions)
    kappa = d.num_marks

    a_out, a_in = f"a{ell}.0", f"a{ell}.1"
    b_in, b_out = f"b{ell}.0", f"b{ell}.1"
    p, q = f"x{n_pts}", f"x{n_pts + 1}"
    W, L, E = n_reg, n_reg + 1, n_reg + 2

    data = d.to_dict()
    data["alpha"].append([a_out, a_in])
    data["beta"].append([b_in, b_out])
    data["arcs"].update(
        {a_out: [p, q], a_in: [q, p], b_in: [p, q], b_out: [q, p]}
    )
    data["points"].append({"alpha": ell, "beta": ell, "quadrants": [E, r_idx, W, L]})
    data["points"].append({"alpha": ell, "beta": ell, "quadrants": [L, W, r_idx, E]})

    old = data["regions"][r_idx]
    old["cycles"].append([q, f"-{a_out}", p, f"-{b_out}"])
    old["marks"] = [m for m in old["marks"] if m != mark]

    data["regions"].append({"genus": 0, "cycles": [[p, a_out, q, f"-{b_in}"]], "marks": [kappa + 1]})
    data["regions"].append({"genus": 0, "cycles": [[q, a_in, p, b_in]], "marks": [kappa]})
    data["regions"].append({"genus": 0, "cycles": [[p, f"-{a_in}", q, b_out]], "marks": [mark]})
    data["marks"] = kappa + 2
    return HeegaardDiagram.from_dict(data)


def stabilization_products(d: HeegaardDiagram, mark: int):
    """(lambda exponents, new-variable index) data of the stabilization.

    lambda = product of the suture variables on the R^+ component of
    gamma_{mark} other than lambda_{mark}; the new polynomial variable is
    lambda_{kappa} (the mark in the lens).
    """
    b_comp = _component_of_mark(d, BETA, mark)
    kappa = d.num_marks
    lam = [0] * (kappa + 2)
    for m in b_comp.marks:
        if m != mark:
            lam[m] += 1
    return tuple(lam), kappa


def extended_plus_spec(d: HeegaardDiagram, gr_weights=None, gr_modulus=0):
    """R_tau[lambda_new]: the old boundary algebra with one polynomial
    variable adjoined (variables are indexed 0..kappa, new one last)."""
    kappa = d.num_marks
    comps = list(d.complement_components(ALPHA)) + list(d.complement_components(BETA))
    names = alg.default_names(kappa) + (f"λ{kappa + 1}",)
    kill = []
    minus, plus = {}, {}
    for c in comps:
        m = alg.component_monomial(c.marks, kappa) + (0,)
        target = minus if c.side == ALPHA else plus
        target[m] = target.get(m, 0) + 1
        if c.genus > 0:
            kill.append(m)
    relations = []
    rel = alg.poly_sub(plus, minus)
    if rel:
        relations.append(tuple(sorted(rel.items())))
    return alg.AlgebraSpec(
        names=names,
        variant=alg.CUSTOM,
        kill=tuple(sorted(set(kill), key=alg.mono_key)),
        relations=tuple(relations),
        gr_weights=tuple(gr_weights) if gr_weights is not None else None,
        gr_modulus=gr_modulus,
    )


@dataclass
class StabilizationReport:
    ok: bool
    stabilized_hom_pieces: dict
    cone_hom_pieces: dict
    graded_match: bool | None
    stabilized_dims: dict | None
    cone_dims: dict | None
    shift: int | None
    notes: list = field(default_factory=list)


def _lift_entries(entries, pad):
    out = {}
    for k, e in entries.items():
        out[k] = {m + (0,) * pad: c for m, c in e.items()}
    return out


def verify_stabilization(d: HeegaardDiagram, mark: int, block_index: int = 0,
                         p: int = 2, patch_weights=()) -> StabilizationReport:
    """Check the stabilized complex against cone(lambda_new - lambda).

    ``patch_weights``: marking monomials (exponent vectors over d's marks) of
    degeneration classes already known on d itself, e.g. from an earlier
    stabilization; they are counted once on both sides.
    """
    notes = []
    dhat = stabilize_diagram(d, mark)
    rep = dhat.validate()
    if not rep.ok:
        raise RuntimeError(f"stabilized diagram invalid: {rep.errors}")

    lam, new_var = stabilization_products(d, mark)
    kappa = d.num_marks
    patch_set = {tuple(w) for w in patch_weights}
    lifted_patches = {w + (0, 0) for w in patch_set}

    # stabilized side: honest enumeration with the orientation signs of the
    # stabilization analysis: the two new bigons carry opposite signs, and
    # the one unsupported class per generator pair is the boundary
    # degeneration, counted once with weight -lambda
    hat_data = DiagramData.build(dhat)
    n_reg = len(d.regions)
    W_domain = tuple(1 if i == n_reg else 0 for i in range(n_reg + 3))
    hat = build_cf(dhat, block_index, data=hat_data, signs={W_domain: -1})
    spec_hat = hat.algebra
    patched = dict(hat.entries)
    remaining = []
    for t in hat.taints:
        w = tuple(t.weight)
        if w == lam or w in lifted_patches:
            add = {w: -1}
            patched[(t.target, t.source)] = spec_hat.add(
                patched.get((t.target, t.source), {}), add
            )
            notes.append(
                f"degeneration class {t.source}->{t.target} counted once "
                "(stabilization analysis; not combinatorially supported)"
            )
        else:
            remaining.append(t)
    hat = FilteredComplex(
        algebra=spec_hat,
        gen_names=hat.gen_names,
        cosets=hat.cosets,
        gradings=hat.gradings,
        entries=patched,
        taints=remaining,
    )
    hat.verify_filtration()
    hat.verify_grading_drop()

    # push down to R_tau[lambda_new]: lambda_{kappa+2} -> lambda_{mark}
    weights_hat = spec_hat.gr_weights
    plus_weights = None
    if weights_hat is not None and all(w is not None for w in weights_hat):
        plus_weights = list(weights_hat[:kappa]) + [weights_hat[new_var]]
    plus_spec = extended_plus_spec(
        d, gr_weights=plus_weights, gr_modulus=spec_hat.gr_modulus
    )
    images = []
    for i in range(kappa + 2):
        m = [0] * (kappa + 1)
        if i == new_var + 1:  # lambda_{kappa+2} -> lambda_{mark}
            m[mark] = 1
        elif i == new_var:
            m[kappa] = 1
        else:
            m[i] = 1
        images.append({tuple(m): 1})
    fhat = algebra_hom(spec_hat, plus_spec, images, name="stabilization-pushdown")
    hat_plus = hat.tensor(fhat)
    # surviving unsupported classes leave d^2 undecidable: refuse, naming them
    hat_plus.require_untainted()
    hat_plus.verify_d_squared()

    # cone side: multiplication by (lambda_new - lambda) on the old complex
    old_data = DiagramData.build(d)
    old = build_cf(d, block_index, data=old_data)
    old_entries = dict(old.entries)
    old_taints = []
    for t in old.taints:
        if tuple(t.weight) in patch_set:
            old_entries[(t.target, t.source)] = old.algebra.add(
                old_entries.get((t.target, t.source), {}), {tuple(t.weight): -1}
            )
        else:
            old_taints.append(t)
    old_plus = FilteredComplex(
        algebra=plus_spec,
        gen_names=list(old.gen_names),
        cosets=[None] * old.rank,
        gradings=list(old.gradings),
        entries=_lift_entries(old_entries, 1),
        taints=[TaintRecord(t.source, t.target, t.weight + (0,), t.note) for t in old_taints],
    )
    u_mono = tuple([0] * kappa + [1])
    lam_plus = tuple(lam[:kappa]) + (0,)
    cone_map = multiplication_map(old_plus, {u_mono: 1, lam_plus: -1})
    cone = mapping_cone(cone_map)

    # compare over F_p[U] with exponents matched to the grading weights
    weights = _u_exponents(plus_spec.gr_weights)
    if weights is None:
        hom_plus = to_U_on_target(plus_spec, [1] * (kappa + 1), p)
    else:
        hom_plus = to_U_on_target(plus_spec, weights, p)

    hat_u = _retarget(hat_plus, hom_plus)
    cone_u = cone.tensor(hom_plus)

    hat_h = homology(hat_u)
    cone_h = homology(cone_u)
    ok = _module_invariants(hat_h) == _module_invariants(cone_h)

    graded_match = None
    hat_dims = cone_dims = None
    shift = None
    from .complexes import fpu_homogeneous

    if fpu_homogeneous(hat_u) and fpu_homogeneous(cone_u):
        window_h = _window(hat_u)
        window_c = _window(cone_u)
        hat_dims = fpu_piece_dims(hat_u, window_h)
        cone_dims = fpu_piece_dims(cone_u, window_c)
        graded_match, shift = _dims_match_up_to_shift(hat_dims, cone_dims)
        ok = ok and graded_match
    return StabilizationReport(
        ok=ok,
        stabilized_hom_pieces=hat_h.pieces,
        cone_hom_pieces=cone_h.pieces,
        graded_match=graded_match,
        stabilized_dims=hat_dims,
        cone_dims=cone_dims,
        shift=shift,
        notes=notes,
    )


def _u_exponents(gr_weights):
    if gr_weights is None or any(w is None for w in gr_weights):
        return None
    if all(w == 0 for w in gr_weights):
        return None
    if any(w > 0 or w % 2 for w in gr_weights):
        return None
    return [(-w) // 2 for w in gr_weights]


def to_U_on_target(spec, weights, p=2) -> TestRingHom:
    return to_U(spec, weights=weights, p=p)


def _retarget(tc_on_algebra, hom):
    """Apply a hom to a TargetComplex whose ring is an AlgebraTarget."""
    from .complexes import TargetComplex

    entries = {}
    for k, e in tc_on_algebra.entries.items():
        img = hom.apply(e)
        if not hom.target.is_zero(img):
            entries[k] = img
    return TargetComplex(
        ring=hom.target,
        gen_names=list(tc_on_algebra.gen_names),
        cosets=[None] * tc_on_algebra.rank,
        gradings=list(tc_on_algebra.gradings),
        entries=entries,
        taints=[
            t
            for t in tc_on_algebra.taints
            if not hom.target.is_zero(hom.apply_monomial(t.weight))
        ],
        u_grading=hom.u_grading,
    )


def _window(tc):
    gs = [g for g in tc.gradings if g is not None]
    if not gs:
        return range(0, 1)
    span = max(gs) - min(gs)
    pad = 2 * span + 8
    return range(min(gs) - pad, max(gs) + pad + 1)


def _module_invariants(h):
    free = h.total_rank()
    torsion = sorted(str(t) for t in h.torsion_summands())
    return (free, tuple(torsion))


def _dims_match_up_to_shift(a, b):
    """Compare two grading->dim dicts up to one global integer shift."""
    sa = {g: v for g, v in a.items() if v}
    sb = {g: v for g, v in b.items() if v}
    if not sa and not sb:
        return True, 0
    if not sa or not sb:
        return False, None
    shift = max(sa) - max(sb)
    shifted = {g + shift: v for g, v in sb.items()}
    keys = set(sa) | set(shifted)
    # only compare where both windows contain the grading
    lo = max(min(sa), min(shifted))
    hi = min(max(sa), max(shifted))
    for g in keys:
        if lo <= g <= hi and sa.get(g, 0) != shifted.get(g, 0):
            return False, shift
    return True, shift
