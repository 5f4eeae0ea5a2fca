#!/usr/bin/env python3
"""Schema check for the bench artifacts (CI `stress`, `scale-smoke` and
`ops-smoke` jobs).

Downstream consumers (the perf trajectory, the regression gate and the
observability artifacts) depend on records with stable keys. The required
keys come from scripts/bench_catalog.py: its RECORD_KEYS plus every source
field a tracked trajectory metric reads, so anything scripts/bench_history.py
extracts or scripts/check_bench_regression.py gates is required here by
construction. A refactor of a bench therefore cannot silently stop
exporting a tracked number (docs/OBSERVABILITY.md documents the schema).

  BENCH_serving.json (positional) — the serving bench's records, plus
    sanity: span_coverage is a ratio and at least one staged trace exists,
  --metrics METRICS_serving.json — the registry dump carries the
    instrument catalog and pipeline.latency recorded samples; the ops-smoke
    CI job runs it on /statusz's `engine` object, which is the same dump,
  --trajectory bench/history/BENCH_trajectory.jsonl — every line is a JSON
    object with sha/timestamp, and timestamps never go backwards (an
    out-of-order append corrupts the regression baseline),
  --scale BENCH_scale.json — the workload-forge scaling curves
    (bench/bench_scale.cc): >= 3 `scale_sweep` points with shed fractions
    in [0, 1], and every `scale_knee` record demonstrated.

When artifact flags are given without the serving-bench positional, only
those artifacts are checked: the scale-smoke CI job runs bench_scale alone,
and the ops-smoke job checks a /statusz scrape alone.

Usage: scripts/check_bench_schema.py [BENCH_serving.json]
                                     [--metrics PATH] [--trajectory PATH]
                                     [--scale PATH]
Exit code 0 = schema intact, 1 = a record or key is missing.
Standard library only.
"""

import argparse
import os
import sys

import bench_catalog as catalog


def _is_ratio(value) -> bool:
    return catalog.is_number(value) and 0.0 <= value <= 1.0


def _serving_sanity(grouped: dict) -> list[str]:
    failures = []
    for summary in grouped.get("trace_summary", [])[:1]:
        coverage = summary.get("span_coverage")
        if "span_coverage" in summary and not _is_ratio(coverage):
            failures.append(f"span_coverage {coverage!r} is not a ratio in "
                            "[0, 1]")
        if summary.get("staged_traces", 0) <= 0:
            failures.append("trace_summary.staged_traces is not positive — "
                            "the bench retained no staged traces")
    return failures


def _metrics_sanity(grouped: dict) -> list[str]:
    histograms = grouped.get("histograms", [{}])[0]
    latency = histograms.get("pipeline.latency")
    if isinstance(latency, dict) and latency.get("count", 0) <= 0:
        return ["pipeline.latency recorded no samples — the bench served "
                "nothing"]
    return []


def _scale_sanity(grouped: dict) -> list[str]:
    sweeps = grouped.get("scale_sweep", [])
    failures = []
    if len(sweeps) < 3:
        failures.append(f"{len(sweeps)} scale_sweep record(s); the sweep "
                        "must cover >= 3 rate points")
    failures += [f"shed_fraction {r.get('shed_fraction')!r} is not a ratio "
                 "in [0, 1]" for r in sweeps
                 if not _is_ratio(r.get("shed_fraction"))]
    failures += ["a scale_knee record reports the knee NOT demonstrated — "
                 "shed did not rise past saturation or admitted p95 broke "
                 "its queue bound" for r in grouped.get("scale_knee", [])
                 if not r.get("knee_demonstrated")]
    return failures


SANITY = {catalog.SERVING: _serving_sanity, catalog.METRICS: _metrics_sanity,
          catalog.SCALE: _scale_sanity}


def check_artifact(path: str, artifact: str) -> list[str]:
    """Failures of one bench artifact against the catalog."""
    if not os.path.exists(path):
        return ["not found"]
    grouped, _ = catalog.read_artifact(path, artifact)
    failures = []
    for name, keys in catalog.required_keys(artifact).items():
        if not grouped.get(name):
            failures.append(f"`{name}` missing")
            continue
        for record in grouped[name]:
            missing = [key for key in keys if key not in record]
            if missing:
                failures.append(f"a `{name}` record lost keys: "
                                f"{', '.join(missing)}")
                break
    for metric in catalog.metrics_of(artifact):
        if grouped.get(metric.record) and \
                not catalog.candidates(metric, grouped):
            failures.append(f"no `{metric.record}` record for "
                            f"`{metric.key}` ({metric.pick} pick)")
    return failures + SANITY[artifact](grouped)


def check_trajectory(path: str) -> list[str]:
    """Failures of a bench-history JSONL."""
    try:
        rows, failures = catalog.read_history(path)
    except FileNotFoundError:
        return ["not found"]
    if not rows and not failures:
        return ["is empty"]
    previous_ts = ""
    for line_no, record in rows:
        missing = [key for key in ("sha", "timestamp") if key not in record]
        if missing:
            failures.append(f"line {line_no}: missing {', '.join(missing)}")
            continue
        # ISO-8601 UTC stamps compare correctly as strings.
        if previous_ts and record["timestamp"] < previous_ts:
            failures.append(f"line {line_no}: timestamp "
                            f"{record['timestamp']} precedes {previous_ts} "
                            "— history must be append-only")
        previous_ts = record["timestamp"]
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", nargs="?", default=None)
    parser.add_argument("--metrics", default=None,
                        help="also validate a METRICS_serving.json dump")
    parser.add_argument("--trajectory", default=None,
                        help="also validate a BENCH_trajectory.jsonl history")
    parser.add_argument("--scale", default=None,
                        help="also validate a BENCH_scale.json scaling sweep")
    args = parser.parse_args(argv[1:])

    checks = []
    if args.metrics is not None:
        checks.append((args.metrics, check_artifact(args.metrics,
                                                     catalog.METRICS)))
    if args.trajectory is not None:
        checks.append((args.trajectory, check_trajectory(args.trajectory)))
    if args.scale is not None:
        checks.append((args.scale, check_artifact(args.scale, catalog.SCALE)))
    if args.bench is not None or not checks:
        # Artifact-only invocations skip the serving bench.
        bench = args.bench or "BENCH_serving.json"
        checks.append((bench, check_artifact(bench, catalog.SERVING)))

    failed = 0
    for path, failures in checks:
        for failure in failures:
            print(f"check_bench_schema: {path}: {failure}", file=sys.stderr)
        if failures:
            failed += 1
        else:
            print(f"check_bench_schema: OK — {path} passes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
