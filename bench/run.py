"""sfkit benchmark: one workload, one seed, one single-core process at a time.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(bench/worker.py) while this process waits, so load comes from one process
with no worker threads.  The last line of stdout is the result object;
the lines before it give the raw figures beside the reported ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as inputs_mod
import oracles
import tracing
from probe import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 10  # setup-only interpreters per run, besides one warm-up
MIN_PASSES = 2
DEADLINE_S = 170  # the whole run ends well within 180 s

# Layers each workload must reach (table in README.md); "none" layers must not fire.
DIAGRAM_LAYERS = {
    "linprog.linear_range", "linprog.feasible_point",
    "admissibility.finiteness_certificate", "admissibility.check",
    "diskcount.enumerate_mu1_classes", "domains.calculator",
    "domains.connecting", "domains.maslov_index", "snf", "diagram.load",
    "diagram.generators", "homology1", "spinc.spinc_partition",
    "spinc.grading_data", "algebra.build", "algebra.normal_form",
    "cf.build_cf", "complexes.tensor", "complexes.homology",
}
EXPECTED = {
    "corpus": (DIAGRAM_LAYERS | {"diagram.validate"}, {"stabilize.stabilize_diagram"}),
    "ladder": (DIAGRAM_LAYERS | {"stabilize.stabilize_diagram"}, set()),
    "knot-algebra": ({"algebra.build", "algebra.normal_form"},
                     set(tracing.SPANS) - {"algebra.build", "algebra.normal_form"}),
}


class BenchError(RuntimeError):
    pass


class Run:
    def __init__(self, workload, seed, inputs):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.started = time.monotonic()

    def child(self, mode, **extra):
        request = {"mode": mode, "workload": self.workload, "inputs": self.inputs, **extra}
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("SFK_CORPUS", None)
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py")],
                input=json.dumps(request), capture_output=True, text=True,
                cwd=ROOT, env=env, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} interpreter passed the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} interpreter failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def passes(self, mode, seconds, start):
        """Whole passes until the next one would end after ``seconds``."""
        done = []
        while True:
            done.append(self.child(mode))
            elapsed = time.monotonic() - start
            if len(done) >= MIN_PASSES and elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def check_outputs(run, passes):
    """Oracle checks on the first pass; every pass must give the same outputs."""
    errors = []
    if any(p["outputs"] != passes[0]["outputs"] for p in passes[1:]):
        errors.append("passes gave different outputs")
    if any(out is None for out in passes[0]["outputs"]):
        return errors  # failed operations are counted, not checked
    first = [json.loads(out) for out in passes[0]["outputs"]]
    if run.workload == "corpus":
        return errors + oracles.check_corpus(ROOT, run.inputs, first)
    sfkit_side = run.child("check", outputs=first)
    if run.workload == "ladder":
        base = {name: oracles.generator_count(json.loads((ROOT / path).read_text()))
                for name, path in run.inputs["bases"].items()}
        for out, valid in zip(first, sfkit_side["valid"]):
            out["valid"] = valid
        return errors + oracles.check_ladder(run.inputs, first, base)
    nfs, it = [], iter(first)
    for size in run.inputs["sizes"]:
        next(it)  # the build task
        nfs.append([next(it) for _ in size["pairs"]])
    return errors + oracles.check_knot(run.inputs, nfs, run.seed) + sfkit_side["failures"]


def pass_seconds(p):
    return sum(t["s"] for t in p["tasks"] if "s" in t)


def pass_wall(p):
    return sum(t["wall_s"] for t in p["tasks"] if "wall_s" in t)


def trace_checks(run, traced):
    """Every expected layer fired, no 'none' layer did, and the counts
    repeat across passes and across traced runs of the same inputs."""
    errors = []
    must, must_not = EXPECTED[run.workload]
    fired = set(traced[0]["trace"]["fired"])
    for name in sorted(must - fired):
        errors.append(f"trace: {name} never fired on {run.workload}")
    for name in sorted(must_not & fired):
        errors.append(f"trace: {name} fired on {run.workload}")
    counts = traced[0]["trace"]["counts"]
    if any(p["trace"]["counts"] != counts for p in traced[1:]):
        errors.append("trace: counts differ between passes")
    key = hashlib.sha256(json.dumps(
        [run.workload, sorted(map(json.dumps, _unordered(run)))]).encode()).hexdigest()[:16]
    record = OUT / f"trace-counts-{run.workload}-{key}.json"
    if record.is_file():
        if json.loads(record.read_text()) != counts:
            errors.append(f"trace: counts differ from the earlier traced run in {record.name}")
    else:
        OUT.mkdir(exist_ok=True)
        record.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return errors


def _unordered(run):
    """The workload's inputs without their seeded order."""
    if run.workload == "corpus":
        return run.inputs["names"]
    if run.workload == "ladder":
        return run.inputs["tasks"]
    return [run.inputs]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sfkit" / "__init__.py").is_file():
        print(f"error: no sfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed,
              inputs_mod.WORKLOADS[args.workload](ROOT, args.seed))

    try:
        run.child("setup")  # warm-up: byte-code caches and file cache
        setups = [] if args.trace else [run.child("setup") for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        untraced = [run.child("pass")] if args.trace else []
        passes = untraced + run.passes("trace" if args.trace else "pass",
                                       args.seconds, start)
        errors = check_outputs(run, passes)
        if args.trace:
            errors += trace_checks(run, passes[1:])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(1 for p in passes for t in p["tasks"] if "error" in t)
    for p in passes:
        for t in p["tasks"]:
            if "error" in t:
                print(f"failed: {t['task']}: {t['error']}")
    for e in errors:
        print(f"check failed: {e}")

    if args.trace:
        traced = passes[1:]
        metrics = {}
        for name, unit, _ in tracing.metric_specs():
            values = [p["trace"]["metrics"][name] for p in traced]
            # counts repeat exactly across passes (checked above); times vary
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
        print(f"trace overhead: traced pass_s.p50 {statistics.median(map(pass_seconds, traced)):.4f} s "
              f"vs untraced {pass_seconds(untraced[0]):.4f} s; "
              f"{len(traced)} traced passes")
    else:
        setups += passes
        setup_s = statistics.median(s["setup_s"] for s in setups)
        setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
        pass_s = statistics.median(pass_seconds(p) for p in passes)
        wall = statistics.median(pass_wall(p) for p in passes)
        rss = statistics.median(p["peak_rss_mb"] for p in passes)
        metrics = {
            "pass_s.p50": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
        print(f"{args.workload} seed {args.seed}: {len(passes)} passes; "
              f"pass_s.p50 {pass_s:.4f} s (raw wall {wall:.4f} s); "
              f"setup_s {setup_s:.4f} s (raw wall {setup_wall:.4f} s, {len(setups)} samples)")
        speed = statistics.median(pass_seconds(p) / pass_wall(p) for p in passes)
        print(f"reference loop: median pass speed {speed:.3f} x nominal "
              f"(loop time {NOMINAL_S * 1e3 / speed:.3f} ms; nominal {NOMINAL_S * 1e3:.3f} ms)")
        print("passes (corrected s / raw wall s): " + ", ".join(
            f"{pass_seconds(p):.3f}/{pass_wall(p):.3f}" for p in passes))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
