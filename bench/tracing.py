"""Spans and counts around the calls into sfkit's modules.

``install`` wraps each traced function where its callers look it up: the
defining module, every sfkit module that imported it by name, or the class
that owns it.  A span records its parent, so that a layer's self time
excludes the spans it caused (build_cf -> enumerate_mu1_classes ->
finiteness_certificate -> linear_range).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict

# span name -> targets; "module:function" or "module:Class.method".
SPANS = {
    "linprog.linear_range": ["linprog:linear_range"],
    "linprog.feasible_point": ["linprog:feasible_point"],
    "admissibility.finiteness_certificate": ["admissibility:finiteness_certificate"],
    "admissibility.check": [
        "admissibility:check_s_admissible",
        "admissibility:check_weak_admissible",
        "admissibility:check_strong_admissible",
    ],
    "diskcount.enumerate_mu1_classes": ["diskcount:enumerate_mu1_classes"],
    "domains.calculator": ["domains:DomainCalculator.__init__"],
    "domains.connecting": ["domains:DomainCalculator.connecting"],
    "domains.maslov_index": ["domains:maslov_index"],
    "snf": ["snf:smith_normal_form", "snf:rank_over_field"],
    "diagram.load": ["diagram:HeegaardDiagram.from_json", "diagram:HeegaardDiagram.from_dict"],
    "diagram.validate": ["diagram:HeegaardDiagram.validate"],
    "diagram.generators": ["diagram:HeegaardDiagram.generators"],
    "homology1": [
        "homology1:h1_presentation",
        "homology1:surface_h1",
        "homology1:curves_independent",
    ],
    "spinc.spinc_partition": ["spinc:spinc_partition"],
    "spinc.grading_data": ["spinc:grading_data"],
    "algebra.build": ["algebra:build_algebra"],
    "algebra.normal_form": ["algebra:AlgebraSpec.normal_form"],
    "cf.build_cf": ["cf:build_cf"],
    "complexes.tensor": ["complexes:FilteredComplex.tensor"],
    "complexes.homology": ["complexes:homology"],
    "stabilize.stabilize_diagram": ["stabilize:stabilize_diagram"],
}

# The per-layer metrics, in report order: (name, unit, better).
TIMED = [
    "linprog.linear_range", "linprog.feasible_point",
    "admissibility.finiteness_certificate", "admissibility.check",
    "diskcount.enumerate_mu1_classes",
    "domains.calculator", "domains.connecting", "domains.maslov_index",
    "snf", "diagram.load", "diagram.validate", "diagram.generators",
    "homology1", "spinc.spinc_partition", "spinc.grading_data",
    "algebra.build", "algebra.normal_form", "cf.build_cf",
    "complexes.tensor", "complexes.homology", "stabilize.stabilize_diagram",
]
CALLED = [
    "linprog.linear_range", "linprog.feasible_point",
    "admissibility.finiteness_certificate", "admissibility.check",
    "diskcount.enumerate_mu1_classes", "domains.connecting",
    "domains.maslov_index", "snf", "homology1", "spinc.grading_data",
    "algebra.build", "algebra.normal_form", "cf.build_cf", "complexes.homology",
]
COUNTED = [
    "linprog.rows_in", "diskcount.classes", "diskcount.unsupported",
    "algebra.terms_out", "cf.entries", "complexes.homology.refusals",
]


def metric_specs():
    specs = []
    for name in TIMED:
        specs.append((f"{name}.s", "s", "lower"))
        if name in CALLED:
            specs.append((f"{name}.calls", "count", "lower"))
    specs += [(name, "count", "lower") for name in COUNTED]
    specs.append(("diskcount.yield", "classes/test", "higher"))
    return specs


class Tracer:
    """Span stack with per-name self time, call counts and work counts."""

    def __init__(self, clock):
        self.clock = clock
        self.stack = []  # [name, start, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.before(name, args)
            tracer.stack.append([name, tracer.clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.failed(name, exc)
                raise
            finally:
                span, start, children = tracer.stack.pop()
                took = tracer.clock() - start
                tracer.self_s[span] += took - children
                tracer.calls[span] += 1
                if tracer.stack:
                    tracer.stack[-1][2] += took
            tracer.after(name, result)
            return result

        return traced

    def before(self, name, args):
        if name in ("linprog.linear_range", "linprog.feasible_point"):
            self.counts["linprog.rows_in"] += len(args[0])
        elif name == "domains.maslov_index" and self.parent() == "diskcount.enumerate_mu1_classes":
            self.counts["diskcount.index_tests"] += 1

    def after(self, name, result):
        if name == "diskcount.enumerate_mu1_classes":
            self.counts["diskcount.classes"] += len(result)
            self.counts["diskcount.unsupported"] += sum(1 for c in result if not c.supported)
        elif name == "algebra.normal_form":
            self.counts["algebra.terms_out"] += len(result)
        elif name == "cf.build_cf":
            self.counts["cf.entries"] += len(result.entries)

    def failed(self, name, exc):
        if name == "complexes.homology" and type(exc).__name__ == "ComplexError":
            self.counts["complexes.homology.refusals"] += 1

    def fired(self):
        return {name for name, n in self.calls.items() if n}

    def counts_snapshot(self):
        """Every count of the trace, for comparing passes and runs."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update(sorted(self.counts.items()))
        return out

    def metrics(self, scale):
        """Per-layer metrics of one pass; times scaled to nominal speed."""
        out = {}
        for name, unit, _ in metric_specs():
            if unit == "s":
                out[name] = self.self_s.get(name[:-2], 0.0) * scale
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[:-6], 0)
            elif name == "diskcount.yield":
                tests = self.counts.get("diskcount.index_tests", 0)
                out[name] = self.counts.get("diskcount.classes", 0) / tests if tests else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out


def install(tracer):
    """Replace every traced function by its wrapper in all loaded sfkit modules."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sfkit" or name.startswith("sfkit.")]
    for span, targets in SPANS.items():
        for target in targets:
            modname, attr = target.split(":")
            module = importlib.import_module(f"sfkit.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(tracer.wrap(span, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(span, raw))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
