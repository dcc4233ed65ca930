import io
import json
import os
from contextlib import redirect_stdout

import pytest

from sfkit import cli
from sfkit.corpus import corpus_path


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


def test_corpus_check_threads():
    code, out = run("--threads", "2", "corpus-check")
    assert code == 0


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
