"""Simple stabilization: the diagram transform.

Stabilizing at a suture gamma_k inserts a pair of crossing null-homotopic
curves next to the marked point z_k, with three new marked points placed in
the lens pattern.  The mapping-cone check is ``cones.verify_stabilization``.
"""

from __future__ import annotations

from .diagram import ALPHA, BETA, HeegaardDiagram


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
