"""One pass of a workload in a fresh interpreter.

Reads a request (mode, workload, inputs) as JSON on stdin and prints one
JSON object on stdout.  Modes:

* ``setup``: import sfkit and load the inputs, timed; nothing else.
* ``pass``: set up, then run the workload's task list once, timing each task
  against the speed probe; report times, outputs and peak memory.
* ``trace``: a pass with spans around the calls into sfkit (see tracing.py).
* ``check``: set up, then run the sfkit-side property checks on a pass's
  outputs (untimed).

Passes share no program state: every pass is its own process.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys

from probe import SpeedProbe, TaskTimer


def _poly(terms):
    return {tuple(m): c for m, c in terms}


def _terms(poly):
    return sorted([list(m), c] for m, c in poly.items())


# -- corpus -----------------------------------------------------------------

def corpus_setup(inputs):
    corpuscheck = importlib.import_module("sfkit.corpuscheck")
    corpus = importlib.import_module("sfkit.corpus")
    diagram = importlib.import_module("sfkit.diagram")
    for name in inputs["names"]:
        diagram.HeegaardDiagram.from_json(corpus.corpus_path(name))
    return {"report": corpuscheck.diagram_report}


def corpus_tasks(state, inputs):
    report = state["report"]
    return [(name, (lambda name=name: report(name)), lambda r: r)
            for name in inputs["names"]]


# -- ladder -----------------------------------------------------------------

def ladder_setup(inputs):
    mods = {name: importlib.import_module(f"sfkit.{name}")
            for name in ("cf", "complexes", "diagram", "stabilize", "testrings")}
    load = mods["diagram"].HeegaardDiagram.from_json
    mods["bases"] = {name: load(path) for name, path in inputs["bases"].items()}
    return mods


def ladder_run(m, name, k):
    d = m["bases"][name]
    for _ in range(k):
        d = m["stabilize"].stabilize_diagram(d, 0)
    data = m["cf"].DiagramData.build(d)
    c = m["cf"].build_cf(d, 0, data=data)
    tc = c.tensor(m["testrings"].all_zero(c.algebra))
    h = m["complexes"].homology(tc)
    return d, data, tc, h


def ladder_output(result):
    d, data, tc, h = result
    return {
        "diagram": d.to_dict(),
        "generators": len(data.partition.generators),
        "block": len(data.partition.blocks[0]),
        "rank": h.total_rank(),
        "entries": sorted([i, j, int(v)] for (i, j), v in tc.entries.items()),
    }


def ladder_tasks(state, inputs):
    return [(f"{name}+{k}", (lambda name=name, k=k: ladder_run(state, name, k)),
             ladder_output)
            for name, k in inputs["tasks"]]


def ladder_check(state, inputs, outputs):
    from_dict = state["diagram"].HeegaardDiagram.from_dict
    return {"valid": [from_dict(out["diagram"]).validate().ok for out in outputs]}


# -- knot algebra -----------------------------------------------------------

def knot_setup(inputs):
    algebra = importlib.import_module("sfkit.algebra")
    sizes = [
        {"n": size["n"], "pairs": [(_poly(a), _poly(b)) for a, b in size["pairs"]]}
        for size in inputs["sizes"]
    ]
    return {"algebra": algebra, "sizes": sizes, "specs": {}}


def knot_build(state, n):
    algebra = state["algebra"]
    spec = algebra.build_algebra(algebra.knot_components(n), 2 * n)
    state["specs"][n] = spec
    return spec


def knot_tasks(state, inputs):
    tasks = []
    for size in state["sizes"]:
        n = size["n"]
        tasks.append((f"build n={n}", (lambda n=n: knot_build(state, n)),
                      lambda spec: list(spec.names)))
        for k, (a, b) in enumerate(size["pairs"]):
            tasks.append((f"n={n} product {k}",
                          (lambda n=n, a=a, b=b: state["specs"][n].mul(a, b)),
                          _terms))
    return tasks


# Products per size checked for canonical form, and triples for associativity.
CANONICAL_CHECKS = 4
ASSOCIATIVITY_CHECKS = {2: 4, 3: 0}


def knot_check(state, inputs, outputs):
    """nf(a b) = nf(b a) = nf(nf(a) nf(b)), nf is idempotent, and
    nf(nf(a b) c) = nf(a nf(b c)) on a subset of the products."""
    failures = []
    nfs = iter(outputs)
    for size in state["sizes"]:
        n = size["n"]
        spec = knot_build(state, n)
        next(nfs)  # the build task
        products = [_poly(next(nfs)) for _ in size["pairs"]]
        pairs = size["pairs"]
        for k in range(min(CANONICAL_CHECKS, len(pairs))):
            a, b = pairs[k]
            nf = products[k]
            if spec.mul(b, a) != nf:
                failures.append(f"n={n} product {k}: nf(ab) != nf(ba)")
            if spec.mul(spec.normal_form(a), spec.normal_form(b)) != nf:
                failures.append(f"n={n} product {k}: nf(ab) != nf(nf(a) nf(b))")
            if spec.normal_form(nf) != nf:
                failures.append(f"n={n} product {k}: nf is not idempotent")
        for k in range(min(ASSOCIATIVITY_CHECKS[n], len(pairs) - 1)):
            a, b = pairs[k]
            c = pairs[k + 1][0]
            if spec.mul(products[k], c) != spec.mul(a, spec.mul(b, c)):
                failures.append(f"n={n} triple {k}: (ab)c != a(bc)")
    return {"failures": failures}


WORKLOADS = {
    "corpus": (corpus_setup, corpus_tasks, None),  # checked by oracles alone
    "ladder": (ladder_setup, ladder_tasks, ladder_check),
    "knot-algebra": (knot_setup, knot_tasks, knot_check),
}


def main():
    request = json.loads(sys.stdin.read())
    mode = request["mode"]
    setup, make_tasks, check = WORKLOADS[request["workload"]]
    inputs = request["inputs"]

    probe = SpeedProbe()
    probe.start()
    timer = TaskTimer(probe)
    timer.begin()
    state = setup(inputs)
    setup_wall, setup_s, _ = timer.end()
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall}
    if mode == "check":
        probe.stop()
        result.update(check(state, inputs, request["outputs"]))
    elif mode in ("pass", "trace"):
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer(probe.clock)
            tracing.install(tracer)
        tasks, outputs = [], []
        first_sample = len(probe.durations)
        for label, run, output in make_tasks(state, inputs):
            timer.begin()
            try:
                value = run()
            except Exception as exc:  # a failed operation is counted, not fatal
                timer.end()
                tasks.append({"task": label, "error": f"{type(exc).__name__}: {exc}"})
                outputs.append(None)
                continue
            wall, corrected, speed = timer.end()
            tasks.append({"task": label, "wall_s": wall, "s": corrected, "speed": speed})
            # Keep each output as one string and drop the result before the
            # next task: many small long-lived objects made between a task's
            # temporaries pin the allocator's arenas, and then the peak memory
            # of a pass varied by half between runs of the same inputs.
            outputs.append(json.dumps(output(value)))
            del value
        probe.stop()
        scale = probe.speed(first_sample)
        result.update(
            tasks=tasks,
            outputs=outputs,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            result["trace"] = {
                "metrics": tracer.metrics(scale),
                "counts": tracer.counts_snapshot(),
                "fired": sorted(tracer.fired()),
            }
    else:
        probe.stop()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
