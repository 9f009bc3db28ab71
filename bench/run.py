"""Benchmark for tsw: one workload per run, end-to-end or traced.

Run from the root of a checkout (the directory holding ``src/tsw``):

    python3 bench/run.py --workload point_queries --seed 1 --seconds 20 --trace 0

The run makes the workload's inputs from the seed (untimed: that is the
benchmark's own generator and oracle), imports ``tsw`` from ``./src``, sets
the workload up on it several times (fresh import, inputs bound to the
package, warm-up) and keeps the median as ``setup_s``.  It then runs whole
rounds of the workload's operations, one at a time, until ``--seconds``
have passed and at least ``MIN_SAMPLES`` operations have succeeded.
Results of the first round are checked against the oracle; later rounds
must repeat them exactly, and an operation may fail only if the workload
keeps it as a known failure.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  A copy with more detail goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, CliCalls  # noqa: E402

SETUP_REPEATS = 7
MIN_SAMPLES = 100
PROBE_LAUNCHES = 5
CLI_PROBES = ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms")


def fresh_import():
    """Import ``tsw`` (and ``tsw.cli``) as a new process would."""
    for name in [m for m in sys.modules if m == "tsw" or m.startswith("tsw.")]:
        del sys.modules[name]
    api = importlib.import_module("tsw")
    importlib.import_module("tsw.cli")
    return api


def call(op):
    """Run one operation; return (seconds, result, error name or None)."""
    t0 = perf_counter()
    try:
        result = op()
    except Exception as exc:  # a failing operation is counted, not fatal
        return perf_counter() - t0, None, type(exc).__name__
    return perf_counter() - t0, result, None


def setup(workload):
    """Fresh import, inputs bound to it and warm-up, repeated; returns the
    median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        api = fresh_import()
        workload.prepare(api)
        for i in workload.warm:
            call(workload.ops[i])
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_round(workload, ops, tracer=None):
    """One pass over ``ops``: (digests, successful latencies, busy seconds, failures)."""
    digests, latencies, busy, failures = [], [], 0.0, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        dt, result, error = call(op)
        busy += dt
        if error is None:
            latencies.append(dt)
            digests.append(workload.digest(i, result))
        else:
            failures.append(i)
            digests.append(("error", error))
    return digests, latencies, busy, failures


def timed_phase(workload, seconds):
    first, latencies, busy, rounds, attempted, failed = None, array("d"), 0.0, 0, 0, 0
    unstable = 0
    start = perf_counter()
    while True:
        digests, lat, b, failures = run_round(workload, workload.ops)
        latencies.extend(lat)
        busy += b
        rounds += 1
        attempted += len(workload.ops)
        failed += len(failures)
        if first is None:
            first, first_failures = digests, failures
        elif digests != first:
            unstable += 1
        elapsed = perf_counter() - start
        # a run whose operations mostly fail still ends, and is not correct
        if elapsed >= seconds and (
            len(latencies) >= MIN_SAMPLES or not lat or elapsed >= max(2 * seconds, 60)
        ):
            break
    return {
        "first": first,
        "first_failures": first_failures,
        "latencies": latencies,
        "busy": busy,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "unstable_rounds": unstable,
        "wall": perf_counter() - start,
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCalls) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(phase, setup_s, rss):
    lat = phase["latencies"]
    rate = len(lat) / phase["busy"] if phase["busy"] else 0.0
    if len(lat) < 2:  # too few samples; the run already reports a problem
        lat = array("d", [0.0, 0.0])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def probe_cli(root, workload):
    """Interpreter start, ``import tsw.cli`` and in-process ``main`` over the
    script of ``workload`` (a set-up ``CliCalls``)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import time; t = time.perf_counter(); import tsw.cli; print(time.perf_counter() - t)"
    bare, imports = [], []
    for _ in range(PROBE_LAUNCHES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append(perf_counter() - t0)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60,
            capture_output=True, text=True,
        )
        imports.append(float(out.stdout))
    mains = [call(op)[0] for op in workload.inprocess_ops()]
    values = (statistics.median(bare), statistics.median(imports), statistics.median(mains))
    return {name: {"value": v * 1e3, "unit": "ms"} for name, v in zip(CLI_PROBES, values)}


def traced_run(workload, out_dir, tag):
    """Set up once more with tracing on, then run the in-process operations
    untraced, traced and untraced again.  Returns the per-layer metrics and
    the traced round's digests."""
    api = fresh_import()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.prepare(api)
    finally:
        tracer.uninstall()
    ops = workload.inprocess_ops()
    _, before, busy_before, _ = run_round(workload, ops)
    tracer.install()
    try:
        digests, traced, busy_traced, _ = run_round(workload, ops, tracer)
    finally:
        tracer.uninstall()
    _, after, busy_after, _ = run_round(workload, ops)
    tracer.write(os.path.join(out_dir, f"spans-{tag}.tsv"))
    metrics = tracing.layer_metrics(tracer)
    plain = (len(before) + len(after)) / (busy_before + busy_after)
    overhead = (plain / (len(traced) / busy_traced) - 1) * 100
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    for name, value in workload.layer_metrics(digests).items():
        metrics[name] = {"value": value, "unit": "vectors/context"}
    return metrics, digests


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tsw", "__init__.py")):
        print("bench: no tsw sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}" + ("-trace" if args.trace else "")

    workload = WORKLOADS[args.workload](args.seed, root)
    workload.build()
    try:
        setup_s = setup(workload)
        phase = timed_phase(workload, args.seconds)
        rss = peak_rss_mb(workload)
        problems = workload.check(phase["first"])
        if len(phase["latencies"]) < MIN_SAMPLES:
            problems.append(f"only {len(phase['latencies'])} operations succeeded")
        for i in phase["first_failures"]:
            if i not in workload.kept_failures:
                problems.append(f"operation {i} failed: {phase['first'][i][1]}")
        if args.trace:
            if isinstance(workload, CliCalls):
                metrics = probe_cli(root, workload)
            else:
                metrics = {name: {"value": 0.0, "unit": "ms"} for name in CLI_PROBES}
            layers, digests = traced_run(workload, out_dir, tag)
            metrics.update(layers)
            if digests != phase["first"]:
                problems.append("the traced round gave other results than the timed phase")
        else:
            metrics = end_to_end(phase, setup_s, rss)
    finally:
        if isinstance(workload, CliCalls):
            workload.cleanup()
    if phase["unstable_rounds"]:
        problems.append(f"{phase['unstable_rounds']} rounds gave other results than the first")
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for i in phase["first_failures"]:
        if i in workload.kept_failures:
            print(f"bench: kept failure {i}: {phase['first'][i][1]}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        rounds=phase["rounds"],
        samples=len(phase["latencies"]),
        timed_wall_s=phase["wall"],
        problems=problems,
    )
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    print(
        f"{args.workload} seed {args.seed}: {phase['rounds']} rounds, "
        f"{len(phase['latencies'])} timed samples, {phase['failed']} failed of "
        f"{phase['attempted']}, {len(problems)} check problems"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
