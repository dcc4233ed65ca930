"""Command-line interface: every operation over the JSON diagram format.

Exit codes: 0 success, 1 verification failure, 2 malformed input.
Output is deterministic; --json switches to machine-readable JSON.
``coefficient_ring`` parses a --coefficients label.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isqrt

from . import algebra as alg
from .admissibility import (
    NotAdmissibleError,
    check_s_admissible,
    check_strong_admissible,
    check_weak_admissible,
)
from .cf import DiagramData, build_cf, diagram_algebra
from .complexes import ComplexError, homology
from .diagram import ALPHA, BETA, HeegaardDiagram
from .diskcount import enumerate_mu1_classes, niceness_report
from .snf import ZZ, FpURing, QRing, Ring, ZpRing
from .stabilize import BadSutureError, stabilize_diagram
from .surgery import BadMultiplicityError, build_surgery_rings
from .testrings import HomError, all_zero, btau_hom, to_U

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


class BadArgument(ValueError):
    """A command-line value outside what the diagram or the options allow."""


def _index_arg(flag, value, count, what, first=0):
    """The 0-based index of ``value`` among ``count`` items numbered from
    ``first``; values below ``first`` are refused, not counted from the end."""
    if not first <= value < first + count:
        raise BadArgument(f"{flag} {value} is out of range {first}..{first + count - 1}"
                          if count else f"{flag} {value}: the diagram has no {what}")
    return value - first


class InvalidDiagram(ValueError):
    """A diagram that fails ``HeegaardDiagram.validate``."""

    def __init__(self, errors):
        super().__init__("\n".join(f"  {code}: {msg}" for code, msg in errors))
        self.errors = errors


def read_diagram(path) -> HeegaardDiagram:
    """A diagram checked against the JSON schema only."""
    import jsonschema
    from importlib import resources

    with open(path) as fh:
        data = json.load(fh)
    schema = json.loads(
        (resources.files("sfkit") / "schema.json").read_text()
    )
    jsonschema.validate(data, schema)
    return HeegaardDiagram.from_dict(data)


def load_diagram(path) -> HeegaardDiagram:
    """A diagram that passed validation; raises InvalidDiagram otherwise."""
    d = read_diagram(path)
    rep = d.validate()
    if not rep.ok:
        raise InvalidDiagram(rep.errors)
    return d


def emit(payload, args, text_lines=None):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines if text_lines is not None else [str(payload)]:
            print(line)


def _hom_for(name, spec, homology):
    if name in (None, "all-zero"):
        return all_zero(spec)
    if name == "to-U":
        return to_U(spec)
    if name == "b-tau":
        return btau_hom(spec, homology)
    if name == "identity":
        from .testrings import identity_hom

        return identity_hom(spec)
    raise BadArgument(
        f"--hom {name}: unknown hom (all-zero, to-U, b-tau or identity)"
    )


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


def coefficient_ring(label: str) -> Ring:
    """Parse a --coefficients flag: Z | Q | Zp:<p> | F<p>U with p prime."""
    if label == "Z":
        return ZZ
    if label == "Q":
        return QRing()
    if label.startswith("Zp:"):
        return ZpRing(_prime_modulus(label, label[3:]))
    if label.endswith("U") and label.startswith("F"):
        return FpURing(_prime_modulus(label, label[1:-1]))
    raise BadRingLabel(
        f"unknown coefficient ring {label} (Z, Q, Zp:<p> or F<p>U with p prime)"
    )


def _tensor_hom(args):
    """The hom named by --hom and --coefficients, as a function of the
    algebra and the diagram's H1.  --coefficients picks the target ring of the
    all-zero hom, the one hom with a choice of ring; both flags are checked
    before the diagram is read."""
    if args.coefficients is None:
        return lambda spec, homology: _hom_for(args.hom, spec, homology)
    ring = coefficient_ring(args.coefficients)
    if args.hom not in (None, "all-zero"):
        raise BadArgument(
            f"--coefficients {args.coefficients} applies to the all-zero hom, not --hom {args.hom}"
        )
    return lambda spec, homology: all_zero(spec, ring)


def cmd_validate(args):
    d = read_diagram(args.diagram)
    rep = d.validate()
    payload = {
        "ok": rep.ok,
        "genus": rep.genus,
        "marks": d.num_marks,
        "errors": [list(e) for e in rep.errors],
    }
    emit(
        payload, args,
        [
            f"{'OK' if rep.ok else 'INVALID'}  g(Sigma)={rep.genus}  kappa={d.num_marks}"
        ]
        + [f"  {code}: {msg}" for code, msg in rep.errors],
    )
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_components(args):
    d = load_diagram(args.diagram)
    rows = []
    payload = []
    for side in (ALPHA, BETA):
        for c in d.complement_components(side):
            label = ("A" if side == ALPHA else "B") + str(c.index + 1)
            mono = alg.mono_str(alg.component_monomial(c.marks, d.num_marks))
            payload.append(
                {
                    "component": label,
                    "side": side,
                    "regions": list(c.regions),
                    "genus": c.genus,
                    "sutures": [m + 1 for m in c.marks],
                    "monomial": mono,
                }
            )
            rows.append(
                f"{label}: regions={list(c.regions)} genus={c.genus} lambda={mono}"
            )
    emit(payload, args, rows)
    return EXIT_OK


def cmd_generators(args):
    d = load_diagram(args.diagram)
    gens = d.generators()
    payload = [
        {"index": i, "points": list(g.points), "perm": list(g.perm)}
        for i, g in enumerate(gens)
    ]
    emit(payload, args, [f"{len(gens)} generators"] + [
        f"  g{i} = {g.label()}" for i, g in enumerate(gens)
    ])
    return EXIT_OK


def cmd_algebra(args):
    n = args.knot_sutures
    variant = {"tilde": alg.TILDE, "plain": alg.PLAIN, "hat": alg.HAT}[args.variant]
    if n is not None:
        if args.diagram is not None:
            raise BadArgument("algebra takes a diagram or --knot-sutures N, not both")
        if n < 1:
            raise BadArgument(f"--knot-sutures {n}: N must be at least 1")
        spec = alg.build_algebra(alg.knot_components(n), 2 * n, variant=variant)
    elif args.diagram is None:
        raise BadArgument("algebra needs a diagram or --knot-sutures N")
    else:
        spec = diagram_algebra(load_diagram(args.diagram), variant=variant)
    emit(spec.to_json_dict(), args, [spec.describe()])
    return EXIT_OK


def cmd_admissible(args):
    if args.hom is not None and args.criterion != "weak":
        raise BadArgument(f"--hom applies to --criterion weak, not to --criterion {args.criterion}")
    d = load_diagram(args.diagram)
    data = DiagramData.build(d)
    lattice = data.lattices[0]
    if args.criterion == "s":
        rep = check_s_admissible(lattice)
    elif args.criterion == "strong":
        rep = check_strong_admissible(lattice)
    else:
        spec = diagram_algebra(d, variant=alg.PLAIN, homology=data.homology)
        rep = check_weak_admissible(lattice, _hom_for(args.hom, spec, data.homology))
    payload = {
        "criterion": rep.criterion,
        "verdict": rep.verdict,
        "witness": rep.witness,
        "witness_marks": list(rep.witness_marks) if rep.witness_marks else None,
        "witness_mu": rep.witness_mu,
        "strata": rep.strata,
        "no_generators": rep.vacuous_generators,
    }
    lines = [f"{rep.verdict} ({rep.criterion}, {rep.strata} strata)"]
    if rep.witness:
        lines.append(f"  witness domain: {rep.witness}")
        lines.append(f"  marked multiplicities: {list(rep.witness_marks)}")
        lines.append(f"  mu = {rep.witness_mu}")
    if rep.vacuous_generators:
        lines.append("  note: diagram has no generators; mu evaluated by Euler measure")
    emit(payload, args, lines)
    return EXIT_OK if rep.admissible else EXIT_FAIL


def cmd_classes(args):
    d = load_diagram(args.diagram)
    data = DiagramData.build(d)
    gens = d.generators()
    i = _index_arg("--from", args.from_gen, len(gens), "generators")
    x = gens[i]
    y = gens[_index_arg("--to", args.to_gen, len(gens), "generators")]
    classes = enumerate_mu1_classes(data.lattice_of(i), [x], [y], data.tilde)
    payload = [
        {
            "domain": list(c.domain),
            "mu": c.mu,
            "n_z": list(c.n_z),
            "classification": c.classification,
            "count_mod2": c.count,
        }
        for c in classes
    ]
    emit(payload, args, [f"{len(classes)} classes {x.label()} -> {y.label()}"] + [
        f"  {c.classification}: D={list(c.domain)} n_z={list(c.n_z)}" for c in classes
    ])
    return EXIT_OK


def cmd_niceness(args):
    d = load_diagram(args.diagram)
    data = DiagramData.build(d)
    rep = niceness_report(data)
    payload = {
        "regions": rep.region_shapes,
        "classes": rep.total_classes,
        "unsupported": len(rep.unsupported),
        "hat_countable": rep.hat_countable,
        "minus_countable": rep.minus_countable,
    }
    emit(payload, args, [
        f"classes={rep.total_classes} unsupported={len(rep.unsupported)} "
        f"hat_countable={rep.hat_countable} minus_countable={rep.minus_countable}"
    ])
    return EXIT_OK


def _homology_payload(res):
    return {
        "ring": res.ring_name,
        "graded": res.graded,
        "pieces": {str(k): v for k, v in res.pieces.items()},
        "total_rank": res.total_rank(),
        "torsion": [str(t) for t in res.torsion_summands()],
    }


def cmd_complex(args):
    if args.action in ("build", "d2") and (args.hom, args.coefficients) != (None, None):
        raise BadArgument(f"complex {args.action} takes neither --hom nor --coefficients")
    if args.action != "cone" and args.cone_variable is not None:
        raise BadArgument(f"--cone-variable applies to complex cone, not to {args.action}")
    tensor_hom = _tensor_hom(args)
    d = load_diagram(args.diagram)
    data = DiagramData.build(d)
    block = _index_arg("--spinc", args.spinc, len(data.lattices), "Spin^c blocks")
    c = build_cf(d, block, data=data)
    spec = c.algebra
    if args.action == "build":
        payload = {
            "generators": c.gen_names,
            "gradings": c.gradings,
            "cosets": [list(x) if x is not None else None for x in c.cosets],
            "entries": {
                f"{j}->{i}": spec.poly_str(e) for (i, j), e in sorted(c.entries.items())
            },
            "taints": [
                {"source": t.source, "target": t.target, "weight": list(t.weight)}
                for t in c.taints
            ],
        }
        lines = [f"{c.rank} generators over {spec.describe()}"]
        for (i, j), e in sorted(c.entries.items()):
            lines.append(f"  d({c.gen_names[j]}) += ({spec.poly_str(e)}) {c.gen_names[i]}")
        for t in c.taints:
            lines.append(
                f"  TAINT {c.gen_names[t.source]}->{c.gen_names[t.target]} weight {list(t.weight)}"
            )
        emit(payload, args, lines)
        return EXIT_OK
    if args.action == "homology":
        hom = tensor_hom(spec, data.homology)
        tc = c.tensor(hom)
        res = homology(tc)
        payload = _homology_payload(res)
        lines = [f"H over {res.ring_name} (hom {hom.name}): total rank {res.total_rank()}"]
        for k, v in sorted(res.pieces.items()):
            lines.append(f"  {k}: {v}")
        emit(payload, args, lines)
        return EXIT_OK
    if args.action == "d2":
        rep = c.verify_d_squared(plain_spec=spec)
        payload = {"ok": rep["ok"]}
        emit(payload, args, [f"d^2 = 0 mod 2: {rep['ok']}"])
        return EXIT_OK if rep["ok"] else EXIT_FAIL
    if args.action == "cone":
        from .cones import les_check, mapping_cone, multiplication_map

        given = 1 if args.cone_variable is None else args.cone_variable
        var = _index_arg("--cone-variable", given, spec.nvars, "suture variables", first=1)
        exps = [0] * spec.nvars
        exps[var] = 1
        f = multiplication_map(c, {tuple(exps): 1})
        cone = mapping_cone(f)
        les = les_check(f, all_zero(spec, QRing()))
        tc = cone.tensor(tensor_hom(spec, data.homology))
        res = homology(tc)
        payload = {
            "cone_of": spec.names[var],
            "les_exact_over_Q": les["ok"],
            "les_dims": les["dims"],
            "homology": _homology_payload(res),
        }
        lines = [
            f"cone(multiplication by {spec.names[var]}): LES exact over Q: {les['ok']}",
            f"H over {res.ring_name}: total rank {res.total_rank()} torsion {res.torsion_summands()}",
        ]
        emit(payload, args, lines)
        return EXIT_OK if les["ok"] else EXIT_FAIL
    raise ValueError(f"unknown action {args.action}")


def cmd_triangle(args):
    """Run the mapping-cone comparison on the bundled synthetic system."""
    from .cones import ChainMap, free_complex, mapping_cone
    from .triangle import HypothesisFailed, TriangleSystem, triangle_machine

    spec = alg.AlgebraSpec(names=())
    B = free_complex(spec, ["e0", "e1"])
    C = free_complex(spec, ["e0", "e1"])
    g = {(i, i): {(): args.multiplier} for i in range(2)}
    cone = mapping_cone(ChainMap(B, C, g))
    one = {(): 1}
    system = TriangleSystem(
        complexes=[B, C, cone],
        maps=[g, {(2 + i, i): one for i in range(2)}, {(i, i): one for i in range(2)}],
        homotopies=[{(i, i): one for i in range(2)}, {},
                    {(i, 2 + i): one for i in range(2)}],
    )
    if args.sabotage:
        system.homotopies[0] = {}
    homs = [all_zero(spec), all_zero(spec, ZpRing(2))]
    try:
        res = triangle_machine(system, homs)
        payload = {
            "ok": True,
            "alpha_quasi_iso": res.alpha_quasi_iso,
            "phi_parity": res.phi_parity,
        }
        emit(payload, args, [
            f"triangle hypotheses verified; alpha quasi-isomorphisms: {res.alpha_quasi_iso}"
        ])
        return EXIT_OK
    except HypothesisFailed as e:
        emit({"ok": False, "error": str(e)}, args, [str(e)])
        return EXIT_FAIL


def cmd_stabilize(args):
    d = load_diagram(args.diagram)
    suture = _index_arg("--suture", args.suture, d.num_marks, "sutures", first=1)
    if args.check:
        from .cones import verify_stabilization

        rep = verify_stabilization(d, suture)
        payload = {
            "ok": rep.ok,
            "graded_match": rep.graded_match,
            "shift": rep.shift,
            "stabilized": {str(k): v for k, v in rep.stabilized_hom_pieces.items()},
            "cone": {str(k): v for k, v in rep.cone_hom_pieces.items()},
            "notes": rep.notes,
        }
        emit(payload, args, [
            f"stabilization vs cone: {'MATCH' if rep.ok else 'MISMATCH'}"
        ] + [f"  {n}" for n in rep.notes])
        return EXIT_OK if rep.ok else EXIT_FAIL
    dhat = stabilize_diagram(d, suture)
    print(json.dumps(dhat.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_surgery(args):
    sr = build_surgery_rings(alg.knot_components(1), 2, *args.multiplicities)
    payload = {
        "R_hat": sr.rhat.describe(),
        "R": sr.r.describe(),
        "B": sr.b.describe(),
        "iota_images": {
            f"iota^{i}": [sr.b.poly_str(img) for img in sr.iotas[i].images]
            for i in range(3)
        },
    }
    emit(payload, args, [
        f"R_hat = {sr.rhat.describe()}",
        f"R     = {sr.r.describe()}",
        f"B     = {sr.b.describe()}",
    ])
    return EXIT_OK


def cmd_corpus_check(args):
    from .corpuscheck import NothingCompared, run_corpus_check

    try:
        ok, lines = run_corpus_check()
    except NothingCompared as e:
        print(f"corpus error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    emit({"ok": ok, "log": lines}, args, lines)
    return EXIT_OK if ok else EXIT_FAIL


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sfk",
        description="exact combinatorics of marked Heegaard diagrams and suture algebras",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("components")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("generators")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("algebra")
    p.add_argument("diagram", nargs="?")
    p.add_argument("--variant", choices=["plain", "tilde", "hat"], default="plain")
    p.add_argument("--knot-sutures", type=int, metavar="N",
                   help="synthetic 2N-suture torus boundary instead of a diagram")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("admissible")
    p.add_argument("diagram")
    p.add_argument("--criterion", choices=["s", "weak", "strong"], default="s")
    p.add_argument("--hom", default=None)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("classes")
    p.add_argument("diagram")
    p.add_argument("--from", dest="from_gen", type=int, required=True)
    p.add_argument("--to", dest="to_gen", type=int, required=True)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("niceness")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_niceness)

    p = sub.add_parser("complex")
    p.add_argument("action", choices=["build", "homology", "d2", "cone"])
    p.add_argument("diagram")
    p.add_argument("--hom", default=None)
    p.add_argument("--coefficients", default=None)
    p.add_argument("--spinc", type=int, default=0)
    p.add_argument("--cone-variable", type=int, default=None,
                   help="1-based suture variable for the cone action (default 1)")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("triangle")
    p.add_argument("--multiplier", type=int, default=2)
    p.add_argument("--sabotage", action="store_true")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("homology")
    p.add_argument("diagram")
    p.add_argument("--hom", default=None)
    p.add_argument("--coefficients", default=None)
    p.add_argument("--spinc", type=int, default=0)
    p.set_defaults(func=cmd_complex, action="homology", cone_variable=None)

    p = sub.add_parser("stabilize")
    p.add_argument("diagram")
    p.add_argument("--suture", type=int, required=True, help="1-based suture index")
    p.add_argument("--check", action="store_true",
                   help="verify the mapping-cone formula instead of printing the diagram")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("surgery")
    p.add_argument("multiplicities", type=int, nargs=3, metavar="m")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("corpus-check")
    p.set_defaults(func=cmd_corpus_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvalidDiagram as e:
        print(f"invalid diagram:\n{e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (BadArgument, BadRingLabel) as e:
        print(f"bad argument: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:
        import jsonschema

        if isinstance(e, jsonschema.ValidationError):
            print(f"schema error: {e.message}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if isinstance(
            e,
            (
                NotAdmissibleError,
                ComplexError,
                HomError,
                BadSutureError,
                BadMultiplicityError,
            ),
        ):
            print(f"verification failure: {e}", file=sys.stderr)
            return EXIT_FAIL
        raise


if __name__ == "__main__":
    sys.exit(main())
