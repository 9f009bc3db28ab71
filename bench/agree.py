"""Run-to-run agreement: run the benchmark twice per seed, in two sets that
alternate which goes first, and report for each end-to-end metric each
set's median and its spread between the first and third quartile as a
share of the median, how far the second set's median moved from the
first one's, and the bound in BENCHMARK.json.

    python3 bench/agree.py --workload point_queries --seeds 1-10 --seconds 20

Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"run failed ({out.returncode}): {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    runs = ([], [])
    for seed in seeds(args.seeds):
        for k in ((0, 1) if seed % 2 else (1, 0)):
            res = one_run(args.workload, seed, args.seconds, 0)
            runs[k].append(res)
            print(f"set {k} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)
    for name, m in spec.items():
        line = f"{name:>12}"
        meds = []
        for k in (0, 1):
            med, iqr = spread([r["metrics"][name]["value"] for r in runs[k]])
            meds.append(med)
            line += f"  set {k}: median {med:.4g} {m['unit']}, IQR/median {iqr:.3f}"
        worse = (meds[1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
        line += f"  second set worse by {worse:+.3f}"
        print(f"{line}  (bound {m['bound']})")
    shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
    print(f"failed shares seen: {sorted(shares)}")
    print(f"every run correct: {all(r['correct'] for rs in runs for r in rs)}")


if __name__ == "__main__":
    main()
