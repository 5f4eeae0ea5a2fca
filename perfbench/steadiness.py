#!/usr/bin/env python3
"""Repeats each benchmark workload and reports how steady its metrics are.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--report FILE]

For every workload in BENCHMARK.json it runs perfbench/run.py on seeds 1..10,
each seed once untraced and once traced, and prints:

- per end-to-end metric (untraced runs): the median, the first and third
  quartiles (statistics.quantiles with n=4) and the relative spread
  (q3 - q1) / median next to the metric's bound. A spread above its bound
  fails the report (exit code 1); "steady" means below a third of it.
- the tracing overhead: the median over the ten seeds of the traced run's
  display p50 minus the untraced run's on the same seed.
- per per-layer metric (traced runs): the median and quartiles, which
  record the traffic mix the workloads are meant to have (shares served
  from the cache or in-flight dedup, sampled selects, pruned chunks).

--report also writes the tables as Markdown, labelled with nproc.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - start
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: incorrect result %s" % (workload, seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]

    out = ["# Benchmark steadiness report", "",
           "nproc = %d; per workload seeds %d..%d, each run once untraced and "
           "once traced; run_seconds = %d; spread = (q3 - q1) / median; "
           "steady = spread below a third of the bound."
           % (os.cpu_count() or 0, SEEDS[0], SEEDS[-1], bench["run_seconds"])]
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        plain, traced, walls = {}, {}, []
        for seed in SEEDS:
            for trace, samples in ((0, plain), (1, traced)):
                metrics, wall = run_once(workload, seed, bench["run_seconds"], trace)
                if not trace:
                    walls.append(wall)
                for name, value in metrics.items():
                    samples.setdefault(name, []).append(value)
                print("%s seed %d trace %d: %.1f s" % (workload, seed, trace, wall),
                      file=sys.stderr)
        section = ["", "## %s" % workload, "",
                   "untraced run wall time: median %.1f s, max %.1f s"
                   % (statistics.median(walls), max(walls)), "",
                   "| metric | median | q1 | q3 | spread | bound | verdict |",
                   "|---|---|---|---|---|---|---|"]
        for name, bound in bounds.items():
            med, q1, q3 = quartiles(plain[name])
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                all_ok = False
            section.append("| %s | %.6g | %.6g | %.6g | %.3f | %.2f | %s |"
                           % (name, med, q1, q3, spread, bound, verdict))
        overhead = [(t - u) / u for t, u in
                    zip(traced["trace.display_p50_ms"], plain["display_p50_ms"])]
        med, q1, q3 = quartiles(overhead)
        section += ["", "tracing overhead (traced minus untraced display p50 on the "
                    "same seed, over %d seeds): median %+.1f%%, q1 %+.1f%%, q3 %+.1f%%"
                    % (len(overhead), 100 * med, 100 * q1, 100 * q3), "",
                    "| per-layer metric (traced) | median | q1 | q3 |",
                    "|---|---|---|---|"]
        for name in layers:
            med, q1, q3 = quartiles(traced[name])
            section.append("| %s | %.6g | %.6g | %.6g |" % (name, med, q1, q3))
        shared = [c + d for c, d in zip(traced["service.cache_hit_frac"],
                                        traced["service.coalesced_frac"])]
        section += ["", "served from shared work (cache_hit_frac + coalesced_frac): "
                    "median %.3f" % statistics.median(shared)]
        out += section
        print("\n".join(section), file=sys.stderr)
    text = "\n".join(out) + "\n"
    print(text)
    if args.report:
        with open(args.report, "w") as f:
            f.write(text)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
