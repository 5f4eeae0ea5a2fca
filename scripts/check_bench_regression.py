#!/usr/bin/env python3
"""Fail CI when the newest trajectory record regresses vs its history.

Reads bench/history/BENCH_trajectory.jsonl (written per run by
scripts/bench_history.py), takes the NEWEST record, and compares each gated
metric of scripts/bench_catalog.py against the rolling median of up to
--window prior records with the same `quick` flag: full-size and quick runs
appended to one history never share a baseline. The median — not the
immediately preceding run — is the baseline, so one noisy run can neither
mask a real regression nor manufacture a fake one.

A metric regresses when it moves beyond --tolerance in its bad direction:

  higher is better:  value < median * (1 - tolerance)
  lower is better:   value > median * (1 + tolerance) + slack
                     (the catalog's absolute slack absorbs ~0 baselines
                     where any jitter is an infinite ratio)

Exit 1 on any regression, 0 otherwise. With --quick (the CI quick-bench
path, where absolute numbers are noisy) regressions only WARN. Fewer than
2 records, or no prior record with the newest one's `quick` flag, is a
pass — there is no history to regress against yet.

Usage:
  scripts/check_bench_regression.py [--history PATH] [--window N]
                                    [--tolerance F] [--quick]

Standard library only.
"""

import argparse
import statistics
import sys

import bench_catalog as catalog


def baseline_records(records: list[dict], window: int) -> list[dict]:
    """Up to `window` records before the newest with its `quick` flag."""
    quick = records[-1].get("quick", False)
    return [r for r in records[:-1]
            if r.get("quick", False) == quick][-window:]


def check(records: list[dict], window: int, tolerance: float) -> list[str]:
    current = records[-1]
    prior = baseline_records(records, window)
    failures = []
    for metric in catalog.gated():
        value = current.get(metric.key)
        baseline = [r[metric.key] for r in prior
                    if catalog.is_number(r.get(metric.key))]
        if not catalog.is_number(value) or not baseline:
            continue
        median = statistics.median(baseline)
        if metric.better == catalog.HIGHER:
            floor = median * (1.0 - tolerance)
            if value < floor:
                failures.append(
                    f"{metric.key}: {value:.6g} fell below {floor:.6g} "
                    f"(median of {len(baseline)} runs: {median:.6g}, "
                    f"tolerance {tolerance:.0%})")
        else:
            ceiling = median * (1.0 + tolerance) + metric.slack
            if value > ceiling:
                failures.append(
                    f"{metric.key}: {value:.6g} rose above {ceiling:.6g} "
                    f"(median of {len(baseline)} runs: {median:.6g}, "
                    f"tolerance {tolerance:.0%} + slack {metric.slack:g})")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history",
                        default="bench/history/BENCH_trajectory.jsonl")
    parser.add_argument("--window", type=int, default=5,
                        help="prior records in the rolling median")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative move in the bad direction")
    parser.add_argument("--quick", action="store_true",
                        help="warn instead of failing (noisy quick benches)")
    args = parser.parse_args(argv[1:])

    try:
        rows, errors = catalog.read_history(args.history)
    except FileNotFoundError:
        rows, errors = [], []
    for error in errors:
        print(f"check_bench_regression: {args.history}: {error}",
              file=sys.stderr)
    records = [record for _, record in rows]
    if len(records) < 2:
        print(f"check_bench_regression: OK — {len(records)} record(s) in "
              f"{args.history}, nothing to compare yet")
        return 0

    failures = check(records, args.window, args.tolerance)
    tail = records[-1]
    label = f"{tail.get('sha', '?')} @ {tail.get('timestamp', '?')}"
    if not failures:
        print(f"check_bench_regression: OK — {label} within tolerance of "
              f"the prior {len(baseline_records(records, args.window))}-run "
              f"median (quick={tail.get('quick', False)})")
        return 0
    for failure in failures:
        print(f"check_bench_regression: {label}: {failure}", file=sys.stderr)
    if args.quick:
        print("check_bench_regression: WARN only (--quick): quick-bench "
              "numbers are noisy, not failing the job", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
