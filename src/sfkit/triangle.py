"""The mapping-cone comparison machinery for 3-periodic systems.

Given complexes A_1, A_2, A_3, ... (cyclic mod 3), chain maps
f_i: A_i -> A_{i+1} and homotopies H_i: A_i -> A_{i+2} with

    (1)  f_{i+1} f_i = H_i d_i + d_{i+2} H_i,
    (2)  phi_i := f_{i+2} H_i - H_{i+1} f_i   a homology equivalence,

the comparison maps

    alpha_i(a_i, a_{i+1}) = f_{i+1}(a_{i+1}) - H_i(a_i)
    beta_i(a_i)           = (f_i(a_i), H_i(a_i))

exhibit M(f_i) as homology-equivalent to A_{i+2} over every coefficient
homomorphism under which the phi_i are equivalences.  All identities are
verified as exact matrix computations; maps are allowed to be chain maps up
to a global sign (the phi_i anticommute with the differentials over Z),
with mapping cones twisted accordingly.
"""

from __future__ import annotations

from . import algebra as alg
from .complexes import ComplexError, _compose, _offsets
from .cones import ChainMap, _maps_equal, mapping_cone, quasi_iso_over


class HypothesisFailed(RuntimeError):
    def __init__(self, identity):
        super().__init__(f"HYPOTHESIS_FAILED: {identity}")


class TriangleSystem:
    def __init__(self, complexes: list, maps: list, homotopies: list):
        self.complexes = complexes  # [A0, A1, A2]
        self.maps = maps  # entry dicts: maps[i]: A_i -> A_{i+1}
        self.homotopies = homotopies  # entry dicts: homotopies[i]: A_i -> A_{i+2}

    def complex(self, i):
        return self.complexes[i % 3]

    def map_entries(self, i):
        return self.maps[i % 3]

    def homotopy_entries(self, i):
        return self.homotopies[i % 3]


class TriangleResult:
    def __init__(self, phi_parity: list, alpha_quasi_iso: list):
        self.phi_parity = phi_parity
        self.alpha_quasi_iso = alpha_quasi_iso


def triangle_machine(system: TriangleSystem, homs) -> TriangleResult:
    spec = system.complexes[0].algebra
    ring = system.complexes[0].ring
    for i in range(3):
        A, B = system.complex(i), system.complex(i + 1)
        f = ChainMap(source=A, target=B, entries=system.map_entries(i))
        if f.chain_parity() != 1:
            raise HypothesisFailed(f"f_{i} is not a chain map")

    # (1) f_{i+1} f_i = H_i d_i + d_{i+2} H_i
    for i in range(3):
        A, C = system.complex(i), system.complex(i + 2)
        ff = _compose(ring, system.map_entries(i + 1), system.map_entries(i))
        Hd = _compose(ring, system.homotopy_entries(i), A.entries)
        dH = _compose(ring, C.entries, system.homotopy_entries(i))
        rhs = {}
        for k in set(Hd) | set(dH):
            rhs[k] = spec.add(Hd.get(k, {}), dH.get(k, {}))
        if not _maps_equal(spec, ff, rhs):
            raise HypothesisFailed(
                f"null-homotopy identity f_{(i + 1) % 3} f_{i} = H_{i} d + d H_{i}"
            )

    # phi_i = f_{i+2} H_i - H_{i+1} f_i, chain up to sign, equivalence over homs
    phis = []
    phi_parity = []
    for i in range(3):
        A, D = system.complex(i), system.complex(i + 3)
        fH = _compose(ring, system.map_entries(i + 2), system.homotopy_entries(i))
        Hf = _compose(ring, system.homotopy_entries(i + 1), system.map_entries(i))
        phi = {}
        for k in set(fH) | set(Hf):
            phi[k] = spec.add(fH.get(k, {}), alg.poly_scale(Hf.get(k, {}), -1))
        phi_map = ChainMap(source=A, target=D, entries=phi)
        parity = phi_map.chain_parity()
        if parity is None:
            raise HypothesisFailed(f"phi_{i} is not a chain map up to sign")
        if not quasi_iso_over(phi_map, homs):
            raise HypothesisFailed(f"phi_{i} is not a homology equivalence")
        phis.append(phi_map)
        phi_parity.append(parity)

    alphas = []  # ChainMap M(f_i) -> A_{i+2}
    betas = []  # entry dicts A_i -> M(f_{i+1})
    alpha_qis = []
    for i in range(3):
        A, B, C = system.complex(i), system.complex(i + 1), system.complex(i + 2)
        fmap = ChainMap(source=A, target=B, entries=system.map_entries(i))
        cone = mapping_cone(fmap)
        # alpha_i(a_i, a_{i+1}) = f_{i+1}(a_{i+1}) - H_i(a_i)
        entries = {}
        for (t, j), e in system.homotopy_entries(i).items():
            entries[(t, j)] = spec.normal_form(alg.poly_scale(e, -1))
        for (t, j), e in system.map_entries(i + 1).items():
            entries[(t, A.rank + j)] = e
        alpha = ChainMap(source=cone, target=C, entries=entries)
        if alpha.chain_parity() is None:
            raise HypothesisFailed(f"alpha_{i} is not a chain map up to sign")
        alphas.append(alpha)
        alpha_qis.append(quasi_iso_over(alpha, homs))

        # beta_i: A_i -> M(f_{i+1}) = A_{i+1} + A_{i+2}
        b_entries = {}
        for (t, j), e in system.map_entries(i).items():
            b_entries[(t, j)] = e
        for (t, j), e in system.homotopy_entries(i).items():
            b_entries[(B.rank + t, j)] = e
        betas.append(b_entries)

    # alpha_{i+1} o beta_i = +- phi_i
    for i in range(3):
        comp = _compose(ring, alphas[(i + 1) % 3].entries, betas[i])
        if not any(_maps_equal(spec, comp, phis[i].entries, sign) for sign in (1, -1)):
            raise HypothesisFailed(f"alpha_{(i + 1) % 3} beta_{i} != +-phi_{i}")

    if not all(alpha_qis):
        raise HypothesisFailed("alpha not a homology equivalence despite hypotheses")
    return TriangleResult(phi_parity=phi_parity, alpha_quasi_iso=alpha_qis)


def verify_filtered_system(system: TriangleSystem):
    """chi-homogeneity of all complexes, maps and homotopies (constant shift)."""
    for i in range(3):
        system.complex(i).verify_filtration()
    for i in range(3):
        _assert_constant_shift(system.complex(i), system.complex(i + 1), system.map_entries(i), f"f_{i}")
        _assert_constant_shift(system.complex(i), system.complex(i + 2), system.homotopy_entries(i), f"H_{i}")
    return True


def _assert_constant_shift(src, tgt, entries, label):
    # the shifts are all None when a coset is unknown
    shifts = {shift for _, _, _, shift, _ in _offsets(src, tgt, entries, drops=False)}
    if len(shifts) > 1:
        raise ComplexError("FILTRATION", f"{label} has inhomogeneous chi-shift {shifts}")
