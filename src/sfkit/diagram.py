"""Combinatorial marked Heegaard diagrams.

A diagram is stored as a combinatorial map: curves are cyclic sequences of
arcs, crossings carry their four quadrants in counterclockwise order, and
regions are surfaces-with-corners given by genusetc. and boundary cycles.

Conventions
-----------
* Arc ids are strings ("a0.0" for the first arc of alpha_0, "b1.2", ...).
  ``arcs[arc] = (tail, head)`` names the endpoint crossings in the direction
  the owning curve traverses the arc; a closed curve disjoint from the other
  family has a single circle arc with ``arcs[arc] = None``.
* Crossing quadrants are listed counterclockwise and start so that the step
  from ``quadrants[0]`` to ``quadrants[1]`` crosses the beta curve.  With
  that normalization the corner operator of a domain D at a crossing p is

      c_p(D) = D[q1] + D[q3] - D[q0] - D[q2]

  and D connects the generator x to y exactly when c_p(D) = [p in x] - [p in y]
  at every crossing.
* Region boundary cycles alternate corner markers ("x3") and arc entries;
  an arc entry may be prefixed with "-" when traversed against its stored
  orientation (required for arcs whose endpoints coincide).  A cycle that is
  a free circle is the 1-tuple of its circle arc.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

ALPHA = "alpha"
BETA = "beta"


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class Crossing:
    alpha: int
    beta: int
    quadrants: tuple  # four region indices, counterclockwise


@dataclass(frozen=True)
class Region:
    genus: int
    cycles: tuple  # tuple of cycles; see module docstring
    marks: tuple  # indices of marked points contained in the region


@dataclass(frozen=True)
class Generator:
    """A tuple of crossings, one on each alpha curve.

    ``perm[i]`` is the beta curve matched with alpha_i and ``points[i]`` the
    crossing index used for that pair.
    """

    perm: tuple
    points: tuple

    @property
    def point_set(self):
        return frozenset(self.points)

    def label(self) -> str:
        return "{" + ",".join(f"x{p}" for p in self.points) + "}"


@dataclass(frozen=True)
class ComplementComponent:
    side: str  # ALPHA: component of Sigma - alpha (an R^- piece); BETA: R^+
    index: int
    regions: tuple
    genus: int
    marks: tuple  # boundary sutures = marked points inside the component

    def monomial_exponents(self, num_marks):
        exps = [0] * num_marks
        for m in self.marks:
            exps[m] += 1
        return tuple(exps)


@dataclass
class ValidationReport:
    ok: bool
    genus: int | None
    errors: list = field(default_factory=list)

    def error_codes(self):
        return sorted({code for code, _ in self.errors})


def _arc_entry(entry):
    """Split an arc entry into (arc id, reversed flag)."""
    if entry.startswith("-"):
        return entry[1:], True
    return entry, False


@dataclass(frozen=True)
class HeegaardDiagram:
    alpha: tuple
    beta: tuple
    arcs: tuple  # tuple of (arc id, endpoints or None) pairs, defines order
    crossings: tuple
    regions: tuple
    num_marks: int

    # -- construction -------------------------------------------------

    @staticmethod
    def from_dict(data) -> "HeegaardDiagram":
        alpha = tuple(tuple(c) for c in data["alpha"])
        beta = tuple(tuple(c) for c in data["beta"])
        arcs = tuple(
            (name, tuple(ends) if ends is not None else None)
            for name, ends in sorted(data["arcs"].items())
        )
        crossings = tuple(
            Crossing(alpha=pt["alpha"], beta=pt["beta"], quadrants=tuple(pt["quadrants"]))
            for pt in data["points"]
        )
        regions = tuple(
            Region(
                genus=r.get("genus", 0),
                cycles=tuple(tuple(c) for c in r["cycles"]),
                marks=tuple(r.get("marks", ())),
            )
            for r in data["regions"]
        )
        return HeegaardDiagram(
            alpha=alpha,
            beta=beta,
            arcs=arcs,
            crossings=crossings,
            regions=regions,
            num_marks=data["marks"],
        )

    @staticmethod
    def from_json(path) -> "HeegaardDiagram":
        with open(path) as fh:
            return HeegaardDiagram.from_dict(json.load(fh))

    def to_dict(self):
        return {
            "alpha": [list(c) for c in self.alpha],
            "beta": [list(c) for c in self.beta],
            "arcs": {name: (list(e) if e is not None else None) for name, e in self.arcs},
            "points": [
                {"alpha": p.alpha, "beta": p.beta, "quadrants": list(p.quadrants)}
                for p in self.crossings
            ],
            "regions": [
                {"genus": r.genus, "cycles": [list(c) for c in r.cycles], "marks": list(r.marks)}
                for r in self.regions
            ],
            "marks": self.num_marks,
        }

    # -- basic lookups -------------------------------------------------

    @cached_property
    def arc_map(self):
        return dict(self.arcs)

    @cached_property
    def ell(self) -> int:
        return len(self.alpha)

    @cached_property
    def arc_side(self):
        """arc id -> ALPHA or BETA."""
        side = {}
        for curves, tag in ((self.alpha, ALPHA), (self.beta, BETA)):
            for curve in curves:
                for arc in curve:
                    side[arc] = tag
        return side

    @cached_property
    def point_index(self):
        return {f"x{i}": i for i in range(len(self.crossings))}

    @cached_property
    def mark_region(self):
        """mark index -> region index."""
        out = {}
        for ri, r in enumerate(self.regions):
            for m in r.marks:
                out[m] = ri
        return out

    @cached_property
    def region_corner_count(self):
        counts = [0] * len(self.regions)
        for pt in self.crossings:
            for q in pt.quadrants:
                counts[q] += 1
        return counts

    @cached_property
    def region_chi(self):
        out = []
        for r in self.regions:
            out.append(2 - 2 * r.genus - len(r.cycles))
        return out

    @cached_property
    def euler_measures_x4(self):
        """4 e(region) = 4 chi(region) - corners(region), as ints."""
        return [
            4 * chi - corners
            for chi, corners in zip(self.region_chi, self.region_corner_count)
        ]

    @cached_property
    def crossing_quadrants(self):
        return [pt.quadrants for pt in self.crossings]

    @cached_property
    def arc_region_sides(self):
        """arc id -> incidences (region, from corner, to corner, direction).

        ``direction`` is +1 when the cycle traverses the arc along its stored
        orientation and -1 for a "-arc" entry; corners are as written in the
        cycle (None for circle arcs).
        """
        sides = {name: [] for name, _ in self.arcs}
        for ri, region in enumerate(self.regions):
            for cycle in region.cycles:
                if len(cycle) == 1:
                    arc, reversed_ = _arc_entry(cycle[0])
                    sides[arc].append((ri, None, None, -1 if reversed_ else 1))
                    continue
                k = len(cycle)
                for pos in range(1, k, 2):
                    arc, reversed_ = _arc_entry(cycle[pos])
                    frm = cycle[pos - 1]
                    to = cycle[(pos + 1) % k]
                    sides[arc].append((ri, frm, to, -1 if reversed_ else 1))
        return sides

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        errors = []
        genus = None

        if len(self.alpha) != len(self.beta):
            errors.append(("UNBALANCED", f"{len(self.alpha)} alpha vs {len(self.beta)} beta curves"))

        errors.extend(self._structural_errors())
        if not errors:
            genus = self._surface_genus(errors)
        if not errors:
            self._check_marked_components(errors)
            self._check_independence(errors)
        return ValidationReport(ok=not errors, genus=genus, errors=errors)

    def _structural_errors(self):
        errors = []
        arc_map = self.arc_map
        # curve structure: consecutive arcs share endpoints head-to-tail
        for curves, tag in ((self.alpha, ALPHA), (self.beta, BETA)):
            for ci, curve in enumerate(curves):
                if len(curve) == 1 and arc_map.get(curve[0]) is None:
                    continue
                for k, arc in enumerate(curve):
                    ends = arc_map.get(arc)
                    if ends is None:
                        errors.append(("MALFORMED", f"circle arc {arc} inside multi-arc curve {tag}{ci}"))
                        continue
                    nxt = arc_map.get(curve[(k + 1) % len(curve)])
                    if nxt is not None and ends[1] != nxt[0]:
                        errors.append(("MALFORMED", f"curve {tag}{ci}: {arc} head != next tail"))
        # each crossing hit by exactly two endpoint slots per incident curve
        incident = {i: {"tails": 0, "heads": 0} for i in range(len(self.crossings))}
        for name, ends in self.arcs:
            if ends is None:
                continue
            for pt, key in ((ends[0], "tails"), (ends[1], "heads")):
                if pt not in self.point_index:
                    errors.append(("MALFORMED", f"arc {name} endpoint {pt} unknown"))
                else:
                    incident[self.point_index[pt]][key] += 1
        for i, counts in incident.items():
            if counts["tails"] != 2 or counts["heads"] != 2:
                errors.append(("MALFORMED", f"crossing x{i} has endpoint slots {counts}"))
        # quadrants reference valid regions
        for i, pt in enumerate(self.crossings):
            if len(pt.quadrants) != 4 or any(
                not (0 <= q < len(self.regions)) for q in pt.quadrants
            ):
                errors.append(("MALFORMED", f"crossing x{i} quadrants invalid"))
        if errors:
            return errors

        # each arc bounds exactly two region sides, traversed in opposite
        # directions (so the region 2-chains close up to the oriented surface)
        for name, ends in self.arcs:
            sides = self.arc_region_sides[name]
            if len(sides) != 2:
                errors.append(("MALFORMED", f"arc {name} has {len(sides)} region sides"))
                continue
            if sides[0][3] * sides[1][3] != -1:
                errors.append(("MALFORMED", f"arc {name} traversed twice in the same direction"))
            if ends is not None:
                for _, frm, to, direction in sides:
                    expected = ends if direction == 1 else (ends[1], ends[0])
                    if (frm, to) != expected:
                        errors.append(("MALFORMED", f"arc {name} cycle endpoints mismatch"))

        # corner incidences from cycles match quadrant lists
        from collections import Counter

        cycle_corners = Counter()
        for ri, region in enumerate(self.regions):
            for cycle in region.cycles:
                if len(cycle) == 1:
                    continue
                for pos in range(0, len(cycle), 2):
                    cycle_corners[(cycle[pos], ri)] += 1
        quad_corners = Counter()
        for i, pt in enumerate(self.crossings):
            for q in pt.quadrants:
                quad_corners[(f"x{i}", q)] += 1
        if cycle_corners != quad_corners:
            diff = (cycle_corners - quad_corners) + (quad_corners - cycle_corners)
            errors.append(("MALFORMED", f"corner/quadrant mismatch: {sorted(diff)}"))

        # marks: each of 0..num_marks-1 in exactly one region
        seen = [0] * self.num_marks
        for region in self.regions:
            for m in region.marks:
                if not (0 <= m < self.num_marks):
                    errors.append(("MALFORMED", f"mark {m} out of range"))
                else:
                    seen[m] += 1
        if any(c != 1 for c in seen):
            errors.append(("MALFORMED", f"mark multiplicities {seen}"))
        return errors

    def _surface_genus(self, errors):
        n_points = len(self.crossings)
        n_segment_arcs = sum(1 for _, ends in self.arcs if ends is not None)
        chi = n_points - n_segment_arcs + sum(self.region_chi)
        if chi % 2 != 0 or chi > 2:
            errors.append(("EULER_MISMATCH", f"chi(Sigma) = {chi}"))
            return None
        return (2 - chi) // 2

    def _check_marked_components(self, errors):
        for side in (ALPHA, BETA):
            for comp in self.complement_components(side):
                if not comp.marks:
                    errors.append(
                        ("UNMARKED_COMPONENT", f"{side} component {comp.index} has no marked point")
                    )

    def _check_independence(self, errors):
        from . import homology1

        for side in (ALPHA, BETA):
            if not homology1.curves_independent(self, side):
                errors.append(("DEPENDENT_CURVES", f"{side} classes dependent in H1(Sigma - z)"))

    # -- complement components ------------------------------------------

    def complement_components(self, side) -> tuple:
        """Components of Sigma - alpha (side=ALPHA) or Sigma - beta."""
        glue_side = BETA if side == ALPHA else ALPHA
        parent = list(range(len(self.regions)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for name, _ in self.arcs:
            if self.arc_side[name] != glue_side:
                continue
            sides = self.arc_region_sides[name]
            union(sides[0][0], sides[1][0])

        groups = {}
        for ri in range(len(self.regions)):
            groups.setdefault(find(ri), []).append(ri)

        comps = []
        for idx, root in enumerate(sorted(groups)):
            regions = tuple(sorted(groups[root]))
            in_comp = set(regions)
            chi = sum(self.region_chi[r] for r in regions)
            for name, ends in self.arcs:
                if self.arc_side[name] != glue_side or ends is None:
                    continue
                if self.arc_region_sides[name][0][0] in in_comp:
                    chi -= 1
            boundary_circles = 0
            for curve_arcs in (self.alpha if side == ALPHA else self.beta):
                pairs = set()
                for arc in curve_arcs:
                    rs = [s[0] for s in self.arc_region_sides[arc]]
                    pairs.add(tuple(sorted(find(r) for r in rs)))
                if len(pairs) != 1:
                    raise DiagramError(f"inconsistent sides along a {side} curve")
                for root_side in pairs.pop():
                    if root_side in in_comp:
                        boundary_circles += 1
            genus2 = 2 - boundary_circles - chi
            if genus2 % 2 != 0 or genus2 < 0:
                raise DiagramError(
                    f"component genus not integral: chi={chi} b={boundary_circles}"
                )
            marks = tuple(sorted(m for r in regions for m in self.regions[r].marks))
            comps.append(
                ComplementComponent(
                    side=side,
                    index=idx,
                    regions=regions,
                    genus=genus2 // 2,
                    marks=marks,
                )
            )
        return tuple(comps)

    def component_domain(self, comp) -> list:
        """The component as a domain vector (indicator of its regions)."""
        vec = [0] * len(self.regions)
        for r in comp.regions:
            vec[r] = 1
        return vec

    # -- generators ------------------------------------------------------

    @cached_property
    def crossing_table(self):
        """(alpha index, beta index) -> sorted crossing indices."""
        table = {}
        for i, pt in enumerate(self.crossings):
            table.setdefault((pt.alpha, pt.beta), []).append(i)
        return table

    def generators(self) -> tuple:
        ell = self.ell
        table = self.crossing_table
        out = []

        def extend(i, used, perm, points):
            if i == ell:
                out.append(Generator(perm=tuple(perm), points=tuple(points)))
                return
            for j in range(ell):
                if j in used:
                    continue
                for pt in table.get((i, j), ()):
                    used.add(j)
                    perm.append(j)
                    points.append(pt)
                    extend(i + 1, used, perm, points)
                    used.remove(j)
                    perm.pop()
                    points.pop()

        extend(0, set(), [], [])
        out.sort(key=lambda g: (g.perm, g.points))
        return tuple(out)
