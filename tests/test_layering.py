"""Import layering: each layer loads only the sfkit modules it uses.

Every import check runs in a fresh interpreter, since the test process has
long since imported the whole package.  The last checks read the source:
every public name in src/sfkit has a caller outside the tests, and every
attribute set on ``self`` there has a reader outside the tests.
"""

import ast
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
    # the transform alone: the mapping-cone check lives in sfkit.cones
    ("import sfkit.stabilize", {"sfkit", "sfkit.diagram", "sfkit.stabilize"}),
])
def test_import_loads_only_its_layer(statement, loaded):
    assert _loaded_after(statement) == loaded


def test_algebra_imports_nothing_from_sfkit():
    # also inside functions: the diagram bridge is cf.diagram_algebra
    tree = ast.parse((Path(SRC) / "sfkit" / "algebra.py").read_text())
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("sfkit"))
             or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "sfkit" for a in node.names)]
    assert found == []


@pytest.mark.parametrize("statement, absent", [
    # the pipeline: no dataclass machinery, no chain-map toolkit
    ("import sfkit.cf, sfkit.corpuscheck, sfkit.stabilize",
     {"dataclasses", "sfkit.cones", "sfkit.triangle"}),
    ("import sfkit.algebra", {"dataclasses"}),
    ("import sfkit.cli", {"sfkit.cones"}),
    # the ladder benchmark worker's setup imports
    ("import sfkit.cf, sfkit.complexes, sfkit.diagram, sfkit.stabilize, sfkit.testrings",
     {"sfkit.cones", "sfkit.cli", "sfkit.surgery", "sfkit.triangle"}),
    # the corpus reports: only the command line checks the schema, since the
    # jsonschema import costs about three corpus benchmark passes
    ("import sfkit.corpus, sfkit.corpuscheck\nsfkit.corpuscheck.diagram_report('unknot')",
     {"jsonschema"}),
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


# -- every public name in src/sfkit has a caller outside the tests -------------

ROOT = Path(__file__).resolve().parents[1]

# Public names that only tests call, kept in src/sfkit as paper constructions
# that tests/test_acceptance.py checks: name -> reason.
TEST_ONLY_KEPT = {
    "surgery:SurgeryRings.ring_m": "the ring R_m of the surgery exact triangle",
    "triangle:verify_filtered_system": "the filtered-map identities of the triangle",
    "complexes:FilteredComplex.decompose": "the splitting of a complex into summands",
    "cones:piecewise_homology": "the homology of each (chi, gr) piece over the algebra",
}


def _sites(tree, prefix):
    """(site, nodes) pairs: each top-level function, each method, the rest of
    each class body and the rest of the module, with the nodes of each."""
    rest = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + (node.name,), [node]
        elif isinstance(node, ast.ClassDef):
            body = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield prefix + (node.name, item.name), [item]
                else:
                    body.append(item)
            yield prefix + (node.name,), body + node.decorator_list + node.bases
        else:
            rest.append(node)
    yield prefix, rest


def _class_name(node):
    """The class an annotation or a base names: Ring, snf.Ring or "Ring"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _lineage(trees):
    """Class name -> the names of its ancestors, itself and its descendants
    among the classes defined in ``trees``: the classes whose methods a
    receiver of that class can reach."""
    bases = {node.name: {_class_name(b) for b in node.bases}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def ancestors(name):
        out = {name}
        for base in bases.get(name, ()):
            if base in bases:
                out |= ancestors(base)
        return out

    up = {name: ancestors(name) for name in bases}
    return {name: {other for other in bases if name in up[other]} | up[name] for name in bases}


def _used_names(nodes, receivers=None):
    """Names read as variables, and names read as attributes: (name, None),
    or (name, classes) when the receiver is one of ``receivers`` (receiver
    name -> the classes whose methods it reaches)."""
    receivers = receivers or {}
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = receivers.get(node.value.id) if isinstance(node.value, ast.Name) else None
                attrs.add((node.attr, owner))
    return names, attrs


def _receivers(site, nodes, lineage):
    """``self`` in a method, and each parameter annotated with an sfkit class,
    mapped to the classes whose methods it reaches."""
    out = {"self": frozenset(lineage[site[1]])} if len(site) == 3 else {}
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.arg) and _class_name(node.annotation) in lineage:
                out[node.arg] = frozenset(lineage[_class_name(node.annotation)])
    return out


def _span_targets(tracing):
    """The names in the "module:function" and "module:Class.method" targets
    of ``SPANS`` in the benchmark's tracing.py."""
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return {part for targets in ast.literal_eval(node.value).values()
                    for target in targets for part in target.split(":")[1].split(".")}
    return set()


def uncalled_names(root):
    """Public functions, classes and methods of ``root``/src/sfkit that no
    other definition there, and no file under scripts/ or bench/, uses.

    A function or class is used when its name is read, as a variable or as
    a module attribute; a method when its name is read as an attribute.  A
    read on ``self``, or on a parameter annotated with an sfkit class,
    reaches only the methods of that class's ancestors and descendants; any
    other attribute read reaches every method of that name.  The targets of
    the benchmark's span table count as uses of both kinds."""
    root = Path(root)
    paths = sorted((root / "src" / "sfkit").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    lineage = _lineage(trees.values())
    defined, uses = [], []  # (key, name, class, site), (site, names, attrs)
    for path, tree in trees.items():
        mod = path.stem
        for site, nodes in _sites(tree, (mod,)):
            uses.append((site, *_used_names(nodes, _receivers(site, nodes, lineage))))
            if len(site) > 1 and not site[-1].startswith("_"):
                owner = site[1] if len(site) == 3 else None
                defined.append((f"{mod}:{'.'.join(site[1:])}", site[-1], owner, site))
    for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        uses.append(((str(path),), *_used_names([ast.parse(path.read_text())])))
    spans = _span_targets(root / "bench" / "tracing.py")
    uses.append((("SPANS",), spans, {(name, None) for name in spans}))

    def reads(name, owner, names, attrs):
        if owner is None:
            return name in names or any(attr == name for attr, _ in attrs)
        return any(attr == name and (classes is None or owner in classes)
                   for attr, classes in attrs)

    return sorted(
        key for key, name, owner, site in defined
        if not any(other[:len(site)] != site and reads(name, owner, names, attrs)
                   for other, names, attrs in uses))


def test_src_names_have_a_program_caller():
    assert uncalled_names(ROOT) == sorted(TEST_ONLY_KEPT)


def test_uncalled_names_reads_callers_spans_and_methods(tmp_path):
    pkg = tmp_path / "src" / "sfkit"
    pkg.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "bench").mkdir()
    (pkg / "a.py").write_text(
        "def called():\n    return loose()\n\n"
        "def loose():\n    return loose()\n\n"
        "def spanned():\n    pass\n\n"
        "class C:\n    def m(self):\n        return self.m()\n\n"
        "    def n(self):\n        return self.m()\n"
    )
    (pkg / "b.py").write_text("from .a import called\n\ndef user():\n    return called()\n")
    (tmp_path / "scripts" / "s.py").write_text("import sfkit.b\nsfkit.b.user()\n")
    (tmp_path / "bench" / "tracing.py").write_text('SPANS = {"x": ["a:spanned"]}\n')
    assert uncalled_names(tmp_path) == ["a:C", "a:C.n"]


def test_uncalled_names_resolves_self_and_annotated_receivers(tmp_path):
    # ring.scale on a parameter annotated Ring reaches Ring and its
    # subclasses, so it no longer hides Group.scale, which nothing calls; a
    # read on self reaches its class's ancestors and descendants; a read on
    # an unannotated receiver still reaches every method of its name
    pkg = tmp_path / "src" / "sfkit"
    pkg.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "bench").mkdir()
    (pkg / "a.py").write_text(
        "class Ring:\n    def scale(self, c):\n        return c\n\n"
        "    def unit(self):\n        return 1\n\n"
        "class ZRing(Ring):\n    def scale(self, c):\n        return self.unit() * c\n\n"
        "class Group:\n    def scale(self, c):\n        return c\n\n"
        "    def unit(self):\n        return 0\n\n"
        "    def add(self, a):\n        return a\n\n"
        "def smith(A, ring: Ring):\n    return ring.scale(A)\n\n"
        "def total(g):\n    return g.add(1)\n"
    )
    (tmp_path / "scripts" / "s.py").write_text(
        "from sfkit.a import Group, ZRing, smith, total\n"
        "smith(1, ZRing())\ntotal(Group())\n")
    (tmp_path / "bench" / "tracing.py").write_text("SPANS = {}\n")
    assert uncalled_names(tmp_path) == ["a:Group.scale", "a:Group.unit"]


# -- every instance attribute in src/sfkit has a reader outside the tests -----

# Attributes set on self in src/sfkit that only tests read, kept as part of
# what a result or an error reports: "module:Class.attribute" -> the test
# (file::function) that reads it.
TEST_ONLY_ATTRIBUTES = {
    "snf:SNFResult.D": "test_snf.py::test_snf_factorization",
    "surgery:SurgeryRings.base": "test_surgery.py::test_iota_base_relation_killed",
    "homology1:ChainModel.vertices":
        "test_homology1.py::test_forest_coordinates_form_a_basis",
    "cones:StabilizationReport.stabilized_dims": "test_acceptance.py::test_a6_stabilization",
    "cones:StabilizationReport.cone_dims": "test_acceptance.py::test_a6_stabilization",
    "admissibility:WitnessError.condition":
        "test_admissibility.py::test_witness_errors_name_the_condition",
    "algebra:CompletionError.code": "test_algebra.py::test_completion_nonunit_escape",
    "complexes:ComplexError.code":
        "test_complexes.py::test_monomial_fiber_empty_despite_a_recession_direction",
    "testrings:HomError.code": "test_testrings.py::test_to_U_rejects_killed_monomials",
}


def _attribute_reads(nodes):
    return {node.attr for top in nodes for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_attributes(root):
    """The attributes that a class of ``root``/src/sfkit sets on ``self``
    (``self.x = ...``) and that no attribute read in src/sfkit, or in a file
    under scripts/ or bench/, names.  A read counts whatever its receiver."""
    root = Path(root)
    paths = sorted((root / "src" / "sfkit").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    others = sorted((root / "scripts").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    reads = _attribute_reads(list(trees.values()) + [ast.parse(p.read_text()) for p in others])
    set_on_self = {
        f"{path.stem}:{cls.name}.{node.attr}"
        for path, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    return sorted(key for key in set_on_self if key.rsplit(".", 1)[1] not in reads)


def test_src_attributes_have_a_program_reader():
    assert unread_attributes(ROOT) == sorted(TEST_ONLY_ATTRIBUTES)


@pytest.mark.parametrize("key, test", sorted(TEST_ONLY_ATTRIBUTES.items()))
def test_test_only_attributes_are_read_by_their_test(key, test):
    filename, function = test.split("::")
    tree = ast.parse((ROOT / "tests" / filename).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    assert key.rsplit(".", 1)[1] in _attribute_reads([node])


def test_unread_attributes_reads_src_scripts_and_bench(tmp_path):
    pkg = tmp_path / "src" / "sfkit"
    pkg.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "bench").mkdir()
    (pkg / "a.py").write_text(
        "class R:\n"
        "    def __init__(self, x):\n"
        "        self.used, self.scripted, self.benched = x, x, x\n"
        "        self.unread = x\n"
        "        self._own = x\n\n"
        "    def total(self):\n"
        "        return self._own\n\n"
        "def user(r):\n    return r.used\n"
    )
    (tmp_path / "scripts" / "s.py").write_text("import sfkit.a\nprint(sfkit.a.R(1).scripted)\n")
    (tmp_path / "bench" / "b.py").write_text("def f(r):\n    return r.benched\n")
    assert unread_attributes(tmp_path) == ["a:R.unread"]


# -- every imported name in src/sfkit, tests and scripts is read --------------


def unused_imports(root):
    """"path:name" for each name that a file under ``root``/src/sfkit,
    ``root``/tests or ``root``/scripts imports and never reads as a variable.
    ``import a.b`` binds ``a``; ``from __future__`` imports are exempt."""
    root = Path(root)
    paths = [path for folder in ("src/sfkit", "tests", "scripts")
             for path in sorted((root / folder).glob("*.py"))]
    out = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{path.relative_to(root).as_posix()}:{name}" for name in imported - read]
    return sorted(out)


def test_no_unused_imports():
    assert unused_imports(ROOT) == []


def test_unused_imports_reads_every_folder(tmp_path):
    for folder in ("src/sfkit", "tests", "scripts"):
        (tmp_path / folder).mkdir(parents=True)
    (tmp_path / "src" / "sfkit" / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nfrom math import gcd, lcm as least\n\n"
        "def f(x: gcd):\n    return os.path.join(x)\n")
    (tmp_path / "tests" / "t.py").write_text("import json\nimport sys\nprint(sys.argv)\n")
    (tmp_path / "scripts" / "s.py").write_text("from sfkit.a import f\nf = 1\n")
    assert unused_imports(tmp_path) == [
        "scripts/s.py:f", "src/sfkit/a.py:least", "tests/t.py:json"]
