#!/usr/bin/env python3
"""Append one trajectory record per bench run to BENCH_trajectory.jsonl.

The benches emit point-in-time artifacts; this script folds a run's
headline numbers into an append-only history file so perf moves ACROSS
commits are visible and checkable (scripts/check_bench_regression.py
compares the newest record against the rolling median of its
predecessors).

One JSONL record per run: sha, timestamp and quick (provenance) plus every
metric scripts/bench_catalog.py lists for the folded artifacts:
BENCH_serving.json with the METRICS_serving.json registry dump when it
exists, or with --scale a BENCH_scale.json sweep (typically appended to
its own history file via --out). The catalog says where each metric comes
from; add new tracked metrics there.

Usage:
  scripts/bench_history.py [--bench BENCH_serving.json]
                           [--metrics METRICS_serving.json]
                           [--scale BENCH_scale.json]
                           [--out bench/history/BENCH_trajectory.jsonl]
                           [--sha SHA]

Standard library only. Exit 0 on append, 1 when the bench artifact is
missing or carries none of the catalog's metrics.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

import bench_catalog as catalog


def git_sha(explicit: str | None) -> str:
    if explicit:
        return explicit
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_record(sources: list[tuple[str, str]], sha: str) -> dict | None:
    """One trajectory record from [(artifact, path)...]; the first source is
    the run's bench artifact and sets `quick`. None when it yields no
    metric."""
    grouped, quick = catalog.read_artifact(sources[0][1], sources[0][0])
    metrics = catalog.extract(sources[0][0], grouped)
    if not metrics:
        return None
    for artifact, path in sources[1:]:
        metrics.update(catalog.extract(
            artifact, catalog.read_artifact(path, artifact)[0]))
    return {
        "sha": sha,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "quick": quick,
        **metrics,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCH_serving.json")
    parser.add_argument("--metrics", default="METRICS_serving.json")
    parser.add_argument("--scale", default=None,
                        help="fold a BENCH_scale.json sweep instead of the "
                             "serving artifacts")
    parser.add_argument("--out",
                        default="bench/history/BENCH_trajectory.jsonl")
    parser.add_argument("--sha", default=None,
                        help="override `git rev-parse` (e.g. in CI)")
    args = parser.parse_args(argv[1:])

    if args.scale is not None:
        sources = [(catalog.SCALE, args.scale)]
    else:
        sources = [(catalog.SERVING, args.bench)]
        if os.path.exists(args.metrics):
            sources.append((catalog.METRICS, args.metrics))
    artifact, path = sources[0]
    if not os.path.exists(path):
        print(f"bench_history: {path} not found — run the {artifact} bench "
              "first", file=sys.stderr)
        return 1
    record = build_record(sources, git_sha(args.sha))
    if record is None:
        print(f"bench_history: {path} carried none of the {artifact} "
              "metrics in scripts/bench_catalog.py", file=sys.stderr)
        return 1

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    metric_count = len(record) - len(catalog.PROVENANCE)
    print(f"bench_history: appended {record['sha']} @ {record['timestamp']} "
          f"({metric_count} {artifact} metrics) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
