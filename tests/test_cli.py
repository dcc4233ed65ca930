import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkit import cli
from sfkit.corpus import corpus_names, corpus_path


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_validate_ok():
    code, out = run("validate", corpus_path("unknot"))
    assert code == 0
    assert out == "OK  g(Sigma)=1  kappa=2\n"


def test_validate_json_mode():
    code, out = run("--json", "validate", corpus_path("unknot"))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"ok": True, "genus": 1, "marks": 2, "errors": []}


def test_validate_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run("validate", str(bad))
    assert code == 2
    schema_bad = tmp_path / "schema_bad.json"
    schema_bad.write_text(json.dumps({"alpha": []}))
    code, _ = run("validate", str(schema_bad))
    assert code == 2


def _break_quadrant(data):
    data["points"][0]["quadrants"][0] = 99


def _break_marks(data):
    data["marks"] = 5


def _break_endpoint(data):
    data["arcs"]["a0.0"][0] = "x77"


def _orphan_arc(data):
    # a0.0 lies on no curve and b0.0 on two
    data["alpha"][0][0] = "b0.0"


def _unknown_cycle_arc(data):
    data["regions"][0]["cycles"][0][1] = "a9.9"


DIAGRAM_COMMANDS = [
    ("components", "DIAGRAM"),
    ("generators", "DIAGRAM"),
    ("algebra", "DIAGRAM"),
    ("admissible", "DIAGRAM"),
    ("classes", "DIAGRAM", "--from", "0", "--to", "0"),
    ("niceness", "DIAGRAM"),
    ("complex", "build", "DIAGRAM"),
    ("complex", "homology", "DIAGRAM"),
    ("complex", "d2", "DIAGRAM"),
    ("complex", "cone", "DIAGRAM"),
    ("homology", "DIAGRAM"),
    ("stabilize", "DIAGRAM", "--suture", "1"),
]


@pytest.mark.parametrize("command", DIAGRAM_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("mutate", [_break_quadrant, _break_marks, _break_endpoint,
                                    _orphan_arc, _unknown_cycle_arc])
def test_malformed_diagram_exits_2(tmp_path, capsys, mutate, command):
    # each mutation of the trefoil passes the schema but not validation
    with open(corpus_path("trefoil")) as fh:
        data = json.load(fh)
    mutate(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out = run(*(str(path) if a == "DIAGRAM" else a for a in command))
    assert code == 2
    assert out == ""
    assert "MALFORMED" in capsys.readouterr().err
    # validate itself still reports the diagram rather than refusing it
    code, out = run("validate", str(path))
    assert code == 1 and "MALFORMED" in out


# each value is refused by name; before these refusals the out-of-range
# indices, unknown labels, a missing algebra diagram and --knot-sutures 0
# raised tracebacks, and -1, --cone-variable 0, Zp:4, F4U,
# --knot-sutures -1, a diagram beside --knot-sutures, --coefficients
# beside a hom other than all-zero, --hom or --coefficients given to complex
# build or d2, --cone-variable given to an action other than cone, and --hom
# given to admissible without --criterion weak answered with one input ignored
BAD_ARGUMENTS = [
    ("homology", "DIAGRAM", "--spinc", "5"),
    ("homology", "DIAGRAM", "--spinc", "-1"),
    ("classes", "DIAGRAM", "--from", "0", "--to", "9"),
    ("classes", "DIAGRAM", "--from", "-1", "--to", "0"),
    ("homology", "DIAGRAM", "--coefficients", "W"),
    ("homology", "DIAGRAM", "--coefficients", "F2"),
    ("homology", "DIAGRAM", "--coefficients", "Zp:4"),
    ("homology", "DIAGRAM", "--coefficients", "F4U"),
    ("homology", "DIAGRAM", "--hom", "nonsense"),
    ("complex", "cone", "DIAGRAM", "--cone-variable", "0"),
    ("complex", "cone", "DIAGRAM", "--cone-variable", "5"),
    ("stabilize", "DIAGRAM", "--suture", "0"),
    ("stabilize", "DIAGRAM", "--suture", "5", "--check"),
    ("algebra",),
    ("algebra", "--knot-sutures", "0"),
    ("algebra", "--knot-sutures", "-1"),
    ("algebra", "/nonexistent.json", "--knot-sutures", "1"),
    ("algebra", "DIAGRAM", "--knot-sutures", "2"),
    ("homology", "DIAGRAM", "--hom", "to-U", "--coefficients", "Q"),
    ("homology", "DIAGRAM", "--hom", "b-tau", "--coefficients", "F2U"),
    ("complex", "cone", "DIAGRAM", "--hom", "identity", "--coefficients", "Z"),
    ("complex", "d2", "DIAGRAM", "--hom", "to-U"),
    ("complex", "build", "DIAGRAM", "--hom", "bogus", "--cone-variable", "7"),
    ("complex", "build", "DIAGRAM", "--coefficients", "Q"),
    ("complex", "d2", "DIAGRAM", "--coefficients", "Zp:3"),
    ("complex", "homology", "DIAGRAM", "--cone-variable", "7"),
    ("complex", "d2", "DIAGRAM", "--cone-variable", "1"),
    ("admissible", "DIAGRAM", "--hom", "to-U"),
    ("admissible", "DIAGRAM", "--criterion", "strong", "--hom", "nonsense"),
]


@pytest.mark.parametrize("command", BAD_ARGUMENTS, ids=" ".join)
def test_bad_argument_exits_2(capsys, command):
    code, out = run(*(corpus_path("grid2") if a == "DIAGRAM" else a for a in command))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("bad argument: ") and "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "1", "2", "-1"])
def test_surgery_has_no_knot_sutures_option(capsys, n):
    # only the default 1 ever worked; the option is gone, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        run("surgery", "1", "1", "1", "--knot-sutures", n)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --knot-sutures" in err and "Traceback" not in err


def test_prime_moduli_are_accepted():
    for label, ring in (("Zp:3", "Z/3"), ("F3U", "F3[U]")):
        code, out = run("--json", "homology", corpus_path("grid2"), "--coefficients", label)
        assert code == 0 and json.loads(out)["ring"] == ring


def test_cone_takes_coefficients():
    # the cone's homology was over Z whatever --coefficients said
    for extra, ring in (((), "Z"), (("--coefficients", "Zp:3"), "Z/3"),
                        (("--hom", "all-zero", "--coefficients", "Q"), "Q")):
        code, out = run("--json", "complex", "cone", corpus_path("unknot"), *extra)
        assert code == 0 and json.loads(out)["homology"]["ring"] == ring


def test_components_output():
    code, out = run("components", corpus_path("trefoil"))
    assert code == 0
    assert out.splitlines() == [
        "A1: regions=[0, 1, 2] genus=0 lambda=λ1*λ2",
        "B1: regions=[0, 1, 2] genus=0 lambda=λ1*λ2",
    ]


def test_generators_output():
    code, out = run("generators", corpus_path("trefoil"))
    assert code == 0
    assert out.startswith("3 generators")


def test_algebra_knot_presets():
    code, out = run("algebra", "--knot-sutures", "2")
    assert code == 0
    assert out.strip() == "Z[λ1,λ2,λ3,λ4] / < λ1*λ2 + λ3*λ4 = λ1*λ4 + λ2*λ3 >"
    code, out = run("algebra", "--knot-sutures", "1")
    assert out.strip() == "Z[λ1,λ2]"


def test_algebra_knot_sutures_takes_variant():
    # --variant was ignored beside --knot-sutures
    from sfkit import algebra as alg

    for name, variant in (("plain", alg.PLAIN), ("tilde", alg.TILDE), ("hat", alg.HAT)):
        code, out = run("algebra", "--knot-sutures", "2", "--variant", name)
        want = alg.build_algebra(alg.knot_components(2), 4, variant=variant).describe()
        assert code == 0 and out.strip() == want
    _, plain = run("algebra", "--knot-sutures", "2")
    _, hat = run("algebra", "--knot-sutures", "2", "--variant", "hat")
    assert plain != hat


def test_admissible_exit_codes():
    code, out = run("admissible", corpus_path("sphere_bad"), "--criterion", "s")
    assert code == 1
    assert "NOT_ADMISSIBLE" in out
    code, out = run("admissible", corpus_path("trefoil"), "--criterion", "s")
    assert code == 0
    code, out = run("admissible", corpus_path("trefoil"), "--criterion", "strong")
    assert code == 0
    code, out = run("admissible", corpus_path("sphere_bad"), "--criterion", "weak",
                    "--hom", "all-zero")
    assert code == 0


def test_homology_trefoil():
    code, out = run("homology", corpus_path("trefoil"), "--hom", "all-zero",
                    "--coefficients", "Z")
    assert code == 0
    assert "total rank 3" in out


def test_classes_dump():
    code, out = run("--json", "classes", corpus_path("trefoil"),
                    "--from", "1", "--to", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "domain": [1, 0, 0],
            "mu": 1,
            "n_z": [0, 1],
            "classification": "EMPTY_BIGON",
            "count_mod2": 1,
        }
    ]


def test_complex_build_tainted_report():
    code, out = run("complex", "build", corpus_path("trefoil"))
    assert code == 0
    assert "TAINT" in out


def test_complex_d2():
    code, out = run("complex", "d2", corpus_path("grid2"))
    assert code == 0


def test_stabilize_check():
    code, out = run("stabilize", corpus_path("unknot"), "--suture", "2", "--check")
    assert code == 0
    assert "MATCH" in out


def test_stabilize_check_refuses_surviving_unsupported_classes(capsys):
    # unsupported classes of weight λ1 and λ4 survive the push-down, so d^2
    # on the stabilized side is undecidable: a named refusal, not a d^2 failure
    code, out = run("stabilize", corpus_path("trefoil"), "--suture", "1", "--check")
    err = capsys.readouterr().err
    assert code == 1
    assert out == ""
    assert "TAINTED" in err and "D_SQUARED_NONZERO" not in err
    assert "weights λ1, λ4" in err


def test_stabilize_check_unknot_suture_1():
    code, out = run("stabilize", corpus_path("unknot"), "--suture", "1", "--check")
    assert code == 0
    assert out.startswith("stabilization vs cone: MATCH")


def test_surgery_output():
    code, out = run("surgery", "1", "1", "1")
    assert code == 0
    assert "B     = Z[ξp,λp,λ0,λ1,λ2] / < λp = 1 ; ξp*λp = 1 >" in out


def test_corpus_check():
    code, out = run("corpus-check")
    assert code == 0
    assert all(line.endswith(": ok") or "SKIP" in line for line in out.splitlines())


@pytest.mark.parametrize("with_diagrams", [False, True])
def test_corpus_check_refuses_to_compare_nothing(tmp_path, monkeypatch, capsys, with_diagrams):
    # an empty corpus, or one whose diagrams have no expected records, is
    # refused: an "ok" that checked nothing would read as a pass
    import shutil

    if with_diagrams:
        for name in ("unknot", "trefoil"):
            shutil.copy(corpus_path(name), tmp_path / f"{name}.json")
    monkeypatch.setenv("SFK_CORPUS", str(tmp_path))
    code, out = run("--json", "corpus-check")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"corpus error: no diagram in {tmp_path} has an expected record; "
        "nothing was compared\n")


def test_corpus_check_skips_beside_a_compared_diagram(tmp_path, monkeypatch):
    import shutil

    for name in ("unknot", "trefoil"):
        shutil.copy(corpus_path(name), tmp_path / f"{name}.json")
    (tmp_path / "expected").mkdir()
    shutil.copy(os.path.join(os.path.dirname(corpus_path("unknot")), "expected", "unknot.json"),
                tmp_path / "expected" / "unknot.json")
    monkeypatch.setenv("SFK_CORPUS", str(tmp_path))
    code, out = run("corpus-check")
    assert (code, out) == (0, "trefoil: SKIP (no expected record)\nunknot: ok\n")


def test_complex_build_refuses_a_diagram_that_is_not_s_admissible(capsys):
    code, out = run("complex", "build", corpus_path("nomatch_genus2"))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "verification failure: diagram is not s-admissible: witness [0, 1]\n")


def test_determinism():
    # byte-identical output across runs
    for argv in (
        ("--json", "homology", corpus_path("trefoil")),
        ("--json", "complex", "build", corpus_path("grid2")),
        ("corpus-check",),
        ("--json", "admissible", corpus_path("sphere_bad")),
    ):
        a = run(*argv)
        b = run(*argv)
        assert a == b


def test_corpus_env_override(tmp_path, monkeypatch):
    # SFK_CORPUS points the loader elsewhere
    import shutil

    shutil.copy(corpus_path("unknot"), tmp_path / "unknot.json")
    monkeypatch.setenv("SFK_CORPUS", str(tmp_path))
    from sfkit import corpus as corpus_mod

    assert corpus_mod.corpus_names() == ["unknot"]


def test_corpus_env_override_is_read_per_call(tmp_path, monkeypatch):
    # the bundled directory is resolved once, at import; SFK_CORPUS is read
    # on every call, so setting or clearing it later still applies
    from importlib import resources

    from sfkit import corpus as corpus_mod

    bundled = str(resources.files("sfkit") / "corpus")
    monkeypatch.delenv("SFK_CORPUS", raising=False)
    assert corpus_mod.corpus_dir() == bundled
    data = corpus_mod.load_diagram("unknot").to_dict()
    data["regions"][0]["genus"] += 1
    (tmp_path / "unknot.json").write_text(json.dumps(data))
    monkeypatch.setenv("SFK_CORPUS", str(tmp_path))
    assert corpus_mod.corpus_path("unknot") == str(tmp_path / "unknot.json")
    assert corpus_mod.load_diagram("unknot").to_dict() == data
    assert corpus_mod.load_expected("unknot") is None
    monkeypatch.delenv("SFK_CORPUS")
    assert corpus_mod.corpus_path("unknot") == os.path.join(bundled, "unknot.json")
    assert corpus_mod.load_diagram("unknot").to_dict() != data


# -- fuzzing: mutated corpus diagrams -----------------------------------------


def _mutation_sites(data):
    """(path, values) for every value of a diagram that a mutation may replace:
    a curve arc, a region-cycle entry, a quadrant, a crossing's alpha or beta
    index, an arc endpoint or a region's marks."""
    arcs = sorted(data["arcs"])
    points = [f"x{i}" for i in range(len(data["points"]))]
    entries = st.sampled_from(arcs + ["-" + a for a in arcs] + points + ["a9.9", "x99"])
    sites = []
    for side in ("alpha", "beta"):
        for ci, curve in enumerate(data[side]):
            sites += [((side, ci, k), st.sampled_from(arcs + ["a9.9"])) for k in range(len(curve))]
    for ri, region in enumerate(data["regions"]):
        sites.append((("regions", ri, "marks"), st.lists(st.integers(0, data["marks"]), max_size=3)))
        for cj, cycle in enumerate(region["cycles"]):
            sites += [(("regions", ri, "cycles", cj, k), entries) for k in range(len(cycle))]
    for pi in range(len(points)):
        sites += [(("points", pi, "quadrants", k), st.integers(0, len(data["regions"])))
                  for k in range(4)]
        sites += [(("points", pi, side), st.integers(0, len(data["alpha"])))
                  for side in ("alpha", "beta")]
    for name in arcs:
        if data["arcs"][name] is not None:
            sites += [(("arcs", name, k), st.sampled_from(points + ["x99"])) for k in range(2)]
    return sites


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_diagrams_exit_0_1_or_2(data):
    name = data.draw(st.sampled_from(corpus_names()))
    with open(corpus_path(name)) as fh:
        diagram = json.load(fh)
    path, values = data.draw(st.sampled_from(_mutation_sites(diagram)))
    target = diagram
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, "mutated.json")
        with open(mutated, "w") as fh:
            json.dump(diagram, fh)
        for command in ("validate", "homology"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main([command, mutated])
            assert code in (0, 1, 2), (name, path, command)


# -- fuzzing: mutated command-line arguments ----------------------------------

FUZZ_DIAGRAMS = ["unknot", "trefoil", "torus_min", "torus_lens", "sphere_bad", "grid2"]

# (words, options the subcommand takes); "D" stands for a diagram path and
# "N" for a number
_COMPLEX_OPTIONS = ("--hom", "--coefficients", "--spinc")
FUZZ_COMMANDS = [
    (("validate", "D"), ()),
    (("components", "D"), ()),
    (("generators", "D"), ()),
    (("algebra", "D"), ("--variant", "--knot-sutures")),
    (("algebra", "--knot-sutures", "N"), ("--variant",)),
    (("admissible", "D"), ("--criterion", "--hom")),
    (("classes", "D", "--from", "N", "--to", "N"), ()),
    (("niceness", "D"), ()),
    (("complex", "build", "D"), _COMPLEX_OPTIONS + ("--cone-variable",)),
    (("complex", "homology", "D"), _COMPLEX_OPTIONS + ("--cone-variable",)),
    (("complex", "d2", "D"), _COMPLEX_OPTIONS + ("--cone-variable",)),
    (("complex", "cone", "D"), _COMPLEX_OPTIONS + ("--cone-variable",)),
    (("homology", "D"), _COMPLEX_OPTIONS),
    (("triangle",), ("--multiplier", "--sabotage")),
    (("stabilize", "D", "--suture", "N"), ("--check",)),
    (("surgery", "N", "N", "N"), ()),
]

_numbers = st.sampled_from([str(i) for i in range(-3, 10)] + ["", "x", "1.5"])
_rings = st.sampled_from([
    "Q", "Z", "F2", "F2U", "F3U", "F4U", "Zp:2", "Zp:3", "Zp:4", "Zp:0",
    "Zp:-3", "Zp:x", "W", "",
])
_VALUES = {
    "--spinc": _numbers, "--from": _numbers, "--to": _numbers,
    "--suture": _numbers, "--cone-variable": _numbers, "--knot-sutures": _numbers,
    "--multiplier": _numbers, "--coefficients": _rings,
    "--hom": st.sampled_from(["all-zero", "to-U", "b-tau", "identity", "nonsense", ""]),
    "--criterion": st.sampled_from(["s", "weak", "strong", "nonsense"]),
    "--variant": st.sampled_from(["plain", "tilde", "hat", "nonsense"]),
}
_ALL_OPTIONS = sorted(_VALUES) + ["--check", "--sabotage"]


@st.composite
def _argument_vectors(draw):
    """A subcommand's argument vector with its values replaced (out-of-range
    numbers, unknown labels, missing diagrams), now and then a word dropped,
    and options added: mostly ones the subcommand takes, sometimes any."""
    paths = [corpus_path(n) for n in FUZZ_DIAGRAMS]
    paths += ["/nonexistent.json", os.path.dirname(paths[0])]  # no file; a directory
    words, options = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = []
    for word in words:
        if word == "D":
            word = draw(st.sampled_from(paths))
        elif word == "N":
            word = draw(_numbers)
        argv.append(word)
    if len(argv) > 1 and draw(st.integers(0, 5)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        foreign = draw(st.integers(0, 4)) == 0
        if not (foreign or options):
            continue
        option = draw(st.sampled_from(_ALL_OPTIONS if foreign else options))
        argv.append(option)
        if option in _VALUES:
            argv.append(draw(_VALUES[option]))
    if draw(st.booleans()):
        argv.insert(0, "--json")
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argument_vectors())
def test_mutated_arguments_exit_0_1_or_2(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses what it cannot parse
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue(), argv
