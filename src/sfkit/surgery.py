"""Surgery-ring scaffolding: the rings R-hat, R, B and Ring_m.

From the boundary algebra of a sutured manifold carrying two distinguished
parallel sutures (variables zeta_1, zeta_2, appearing in relations only
through the product zeta_1 zeta_2), the surgery construction replaces the
product by lambda_0 lambda_1 lambda_2 and adjoins the triangle-region
variable lambda_p.  With surgery multiplicities (m_0, m_1, m_2):

    R  = R-hat / < lambda_p - lambda_0^{m_0-1} lambda_1^{m_1-1} lambda_2^{m_2-1} >
    B  = R[xi_p] / < 1 - lambda_p xi_p >
    Ring_m = R-hat / < lambda_p - lambda_0^{m-1}, lambda_0^m - 1 >

together with the three embeddings iota^i of the base ring and the
filtration extension chi(lambda_p) = -(chi_0 + chi_1 + chi_2).
"""

from __future__ import annotations

from . import algebra as alg
from . import snf
from .testrings import algebra_hom


class BadMultiplicityError(ValueError):
    pass


class SurgeryRings:
    def __init__(self, base: alg.AlgebraSpec, rhat: alg.AlgebraSpec, r: alg.AlgebraSpec,
                 b: alg.AlgebraSpec, multiplicities: tuple, iotas: list,
                 chi_relation_cols: list):
        self.base = base  # the ring shared by all three surgered manifolds
        self.rhat = rhat  # lambda_p free
        self.r = r  # lambda_p identified with the multiplicity monomial
        self.b = b  # xi_p adjoined, xi_p lambda_p = 1
        self.multiplicities = multiplicities
        self.iotas = iotas  # three TestRingHom base -> B
        self.chi_relation_cols = chi_relation_cols  # presentation of H used for the filtration

    def ring_m(self, m: int) -> alg.AlgebraSpec:
        """R-hat / <lambda_p - lambda_0^{m-1}, lambda_0^m - 1>, filtered by
        H / <m chi_0>."""
        if m < 1:
            raise BadMultiplicityError(f"m = {m}")
        nv = self.rhat.nvars
        kappa = nv - 2
        lam_p = _unit_vector(nv, 0)
        lam_0 = _unit_vector(nv, 1)
        rel1 = alg.poly_sub({lam_p: 1}, {_scale_vec(lam_0, m - 1): 1})
        rel2 = alg.poly_sub({_scale_vec(lam_0, m): 1}, {alg.one(nv): 1})
        relations = tuple(
            tuple(sorted(rel.items())) for rel in (rel1, rel2) if rel
        )
        extra = [m] + [0] * kappa
        group, classes = _chi_classes(
            [list(c) for c in self.chi_relation_cols] + [extra], kappa + 1
        )
        return alg.AlgebraSpec(
            names=self.rhat.names,
            variant="RING_M",
            kill=self.rhat.kill,
            relations=self.rhat.relations + relations,
            chi_group=group,
            chi_classes=classes,
        )


def _unit_vector(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _scale_vec(v, c):
    return tuple(c * x for x in v)


def _substituted_ideal(components, kappa):
    """Kill monomials and the plus-minus relation of the base, with
    zeta_1 zeta_2 -> lambda_p lambda_0 lambda_1 lambda_2 and zeta_j -> lambda_j.

    Base variables are 1-indexed sutures 1..kappa (marks 0..kappa-1); the
    new exponent order is (lambda_p, lambda_0, lambda_1, ..., lambda_kappa),
    so the pair of marks {0, 1} becomes {0, 1, 2, 3} (matching
    iota^i(zeta_1 zeta_2); the m = (1,1,1) case collapses lambda_p) and
    every other mark k becomes 2 + k.  ``build_algebra`` over the kappa + 2
    new variables assembles the ideal.
    """
    comps = []
    for side, genus, marks in components:
        if (0 in marks) != (1 in marks):
            raise ValueError(
                "component uses exactly one of the distinguished sutures"
            )
        pair = (0, 1, 2, 3) if 0 in marks else ()
        comps.append((side, genus, pair + tuple(2 + k for k in marks if k >= 2)))
    spec = alg.build_algebra(comps, kappa + 2)
    return spec.kill, spec.relations


def _chi_classes(cols, ngens):
    """H generated by chi_0..chi_kappa (ngens = kappa + 1) modulo the
    relation columns ``cols``, and the classes of (lambda_p, lambda_0, ...,
    lambda_kappa), with chi(lambda_p) = -(chi_0 + chi_1 + chi_2)."""
    group = snf.cokernel(cols, ngens)
    classes = [group.project([1 if i == k else 0 for i in range(ngens)]) for k in range(ngens)]
    chi_p = group.neg(group.add(classes[0], group.add(classes[1], classes[2])))
    return group, tuple([chi_p] + classes)


def _component_chi_relations(components, kappa):
    # the pair-substituted monomial lambda_p l0 l1 l2 has trivial chi by the
    # definition chi(lambda_p) = -(chi_0+chi_1+chi_2), so only the remaining
    # suture classes enter the boundary relation of a pair component
    out = []
    for side, genus, marks in components:
        row = [0] * (kappa + 1)
        for k in marks:
            if k >= 2:
                row[k + 1] += 1
        out.append(tuple(row))
    return out


def build_surgery_rings(base_components, kappa, m0, m1, m2) -> SurgeryRings:
    """Assemble the surgery rings from base component data.

    ``base_components``: (side, genus, marks) for the sutured manifold
    whose sutures gamma_1, gamma_2 (marks 0, 1) are the parallel pair being
    resolved; every component must contain both or neither.
    """
    for m in (m0, m1, m2):
        if m < 1:
            raise BadMultiplicityError(f"multiplicity {m} < 1")

    base = alg.build_algebra(
        base_components, kappa, names=tuple(f"ζ{i + 1}" for i in range(kappa)))

    nv = kappa + 2
    names = ("λp",) + tuple(f"λ{i}" for i in range(kappa + 1))
    kill, relations = _substituted_ideal(base_components, kappa)
    # m0 chi_0 + m1 chi_1 + m2 chi_2 = 0 and the component-boundary relations
    chi_cols = [[m0, m1, m2] + [0] * (kappa - 2)]
    chi_cols += [list(rel) for rel in _component_chi_relations(base_components, kappa)]
    chi_group, chi_classes = _chi_classes(chi_cols, kappa + 1)

    rhat = alg.AlgebraSpec(
        names=names, variant="SURGERY_RHAT", kill=kill, relations=relations,
        chi_group=chi_group, chi_classes=chi_classes,
    )
    rhat.assert_homogeneous_relations()

    lam_p = _unit_vector(nv, 0)
    mult_mono = tuple(
        [0] + [m0 - 1, m1 - 1, m2 - 1] + [0] * (kappa - 2)
    )
    r_rel = alg.poly_sub({lam_p: 1}, {mult_mono: 1})
    r = alg.AlgebraSpec(
        names=names, variant="SURGERY_R", kill=kill,
        relations=relations + (tuple(sorted(r_rel.items())),),
        chi_group=chi_group, chi_classes=chi_classes,
    )
    r.assert_homogeneous_relations()

    b_names = ("ξp",) + names
    b_kill = tuple((0,) + k for k in kill)
    b_relations = tuple(
        tuple((tuple([0] + list(m)), c) for m, c in rel) for rel in r.relations
    )
    xi_lam_p = tuple([1, 1] + [0] * kappa + [0])  # xi_p * lambda_p
    xi_rel = alg.poly_sub({xi_lam_p: 1}, {alg.one(nv + 1): 1})
    b_chi_classes = None
    if chi_group is not None:
        b_chi_classes = (chi_group.neg(chi_classes[0]),) + chi_classes
    b = alg.AlgebraSpec(
        names=b_names, variant="SURGERY_B", kill=b_kill,
        relations=b_relations + (tuple(sorted(xi_rel.items())),),
        chi_group=chi_group, chi_classes=b_chi_classes,
    )
    b.assert_homogeneous_relations()

    # B variable positions: 0 = xi_p, 1 = lambda_p, 2 + t = lambda_t
    iotas = []
    for i in range(3):
        images = []
        for j in range(kappa):
            m = [0] * (nv + 1)
            if j == 0:  # zeta_1 -> lambda_i
                m[2 + i] = 1
            elif j == 1:  # zeta_2 -> lambda_p lambda_0 lambda_1 lambda_2 / lambda_i
                m[1] = 1
                for t in range(3):
                    if t != i:
                        m[2 + t] = 1
            else:  # zeta_{j+1} -> lambda_{j+1}
                m[2 + j + 1] = 1
            images.append({tuple(m): 1})
        iotas.append(
            algebra_hom(base, b, images, name=f"iota^{i}")
        )

    return SurgeryRings(
        base=base, rhat=rhat, r=r, b=b, multiplicities=(m0, m1, m2),
        iotas=iotas, chi_relation_cols=chi_cols,
    )
