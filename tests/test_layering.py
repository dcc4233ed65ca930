"""Import layering: each layer loads only the sfkit modules it uses.

Every check runs in a fresh interpreter, since the test process has long
since imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfkit

SRC = str(Path(sfkit.__file__).resolve().parents[1])


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(statement):
    return set(_run(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sfkit')))"
    ))


@pytest.mark.parametrize("statement, loaded", [
    ("import sfkit", {"sfkit"}),
    ("import sfkit.algebra", {"sfkit", "sfkit.algebra"}),
    ("import sfkit.linprog", {"sfkit", "sfkit.linprog"}),
    ("import sfkit.snf", {"sfkit", "sfkit.snf"}),
    ("import sfkit.testrings", {"sfkit", "sfkit.algebra", "sfkit.snf", "sfkit.testrings"}),
])
def test_import_loads_only_its_layer(statement, loaded):
    assert _loaded_after(statement) == loaded


@pytest.mark.parametrize("statement, absent", [
    # the pipeline: no dataclass machinery, no chain-map toolkit
    ("import sfkit.cf, sfkit.corpuscheck, sfkit.stabilize",
     {"dataclasses", "sfkit.cones", "sfkit.triangle"}),
    ("import sfkit.algebra", {"dataclasses"}),
    ("import sfkit.cli", {"sfkit.cones"}),
])
def test_import_leaves_out(statement, absent):
    loaded = _run(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    assert absent.isdisjoint(loaded)


def test_package_names_resolve_on_first_use():
    got = _run("""
import json
import sfkit
from sfkit import ALPHA, BETA, ComplementComponent, Generator, HeegaardDiagram
from sfkit import diagram

names = {}
exec("from sfkit import *", names)
try:
    sfkit.nope
    missing = None
except AttributeError as e:
    missing = str(e)
print(json.dumps({
    "same": [getattr(sfkit, n) is getattr(diagram, n) for n in sfkit.__all__],
    "star": sorted(n for n in names if n != "__builtins__"),
    "all": sorted(sfkit.__all__),
    "missing": missing,
}))
""")
    assert got["same"] == [True] * 5
    assert got["star"] == got["all"] == sorted(
        ["HeegaardDiagram", "Generator", "ComplementComponent", "ALPHA", "BETA"])
    assert got["missing"] == "module 'sfkit' has no attribute 'nope'"
