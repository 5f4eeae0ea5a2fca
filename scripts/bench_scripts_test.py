#!/usr/bin/env python3
"""Tests for the bench scripts over tiny artifacts written to a temp dir.

Covers the contract scripts/bench_catalog.py gives the three CLIs: the
history records every catalog metric, the regression gate flags moves in
each bad direction against a same-`quick` baseline only, and the schema
check requires every field the history extracts or the gate reads.

Run: python3 scripts/bench_scripts_test.py (CTest runs it as
bench_scripts_test). Standard library only.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_catalog as catalog  # noqa: E402
import bench_history  # noqa: E402
import check_bench_regression  # noqa: E402
import check_bench_schema  # noqa: E402


def run(main, *args: str) -> int:
    """Runs a script's main() quietly; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["script", *args])


def bench_artifact(artifact: str) -> dict:
    """A minimal artifact carrying every key the catalog requires."""
    if artifact == catalog.METRICS:
        return {section: {name: {"count": 3} if section == "histograms" else 7
                          for name in names}
                for section, names in catalog.required_keys(artifact).items()}
    records = []
    for name, keys in catalog.required_keys(artifact).items():
        copies = {"scale_sweep": 3, "serving_drilldown": 2}.get(name, 1)
        for i in range(copies):
            record = {"bench": name, **{key: 0.5 for key in keys}}
            record.update(staged_traces=4, knee_demonstrated=True,
                          rate_rps=100.0 * (i + 1), containment=i)
            records.append(record)
    return {"bench": artifact, "quick": True, "records": records}


class BenchScriptsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def path(self, name: str) -> str:
        return os.path.join(self.tmp.name, name)

    def write(self, name: str, data) -> str:
        with open(self.path(name), "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return self.path(name)

    def write_history(self, records: list[dict]) -> str:
        with open(self.path("history.jsonl"), "w", encoding="utf-8") as out:
            for i, record in enumerate(records):
                stamped = {"sha": f"s{i}",
                           "timestamp": f"2026-01-01T00:00:{i:02d}Z",
                           **record}
                out.write(json.dumps(stamped) + "\n")
        return self.path("history.jsonl")

    def read_history(self, name: str) -> list[dict]:
        rows, errors = catalog.read_history(self.path(name))
        self.assertEqual(errors, [])
        return [record for _, record in rows]

    def test_history_record_carries_every_catalog_key(self):
        bench = self.write("bench.json", bench_artifact(catalog.SERVING))
        metrics = self.write("metrics.json", bench_artifact(catalog.METRICS))
        scale = self.write("scale.json", bench_artifact(catalog.SCALE))
        out = self.path("trajectory.jsonl")
        self.assertEqual(run(bench_history.main, "--bench", bench,
                             "--metrics", metrics, "--out", out), 0)
        self.assertEqual(run(bench_history.main, "--scale", scale,
                             "--out", out), 0)
        serving, sweep = self.read_history("trajectory.jsonl")
        for record, artifacts in ((serving, (catalog.SERVING,
                                             catalog.METRICS)),
                                  (sweep, (catalog.SCALE,))):
            expected = {m.key for m in catalog.TRAJECTORY
                        if m.artifact in artifacts}
            self.assertEqual(set(record), expected | set(catalog.PROVENANCE))
        self.assertTrue(serving["quick"])
        # The pick rules: the containment == 1 drill-down, the largest rps,
        # the top offered rate.
        self.assertIn("containment_hit_rate", serving)
        self.assertIn("scale_p95_ms", sweep)
        self.assertEqual(run(check_bench_schema.main, "--trajectory", out), 0)

    def test_history_fails_without_any_catalog_metric(self):
        bench = self.write("bench.json", {"records": [{"bench": "other"}]})
        self.assertEqual(run(bench_history.main, "--bench", bench, "--out",
                             self.path("t.jsonl")), 1)
        self.assertFalse(os.path.exists(self.path("t.jsonl")))

    def test_gate_flags_drop_and_rise_in_the_bad_direction(self):
        base = {"quick": False, "rps": 1000.0, "select_p95_ms": 10.0}
        cases = (({"rps": 500.0}, "rps"),
                 ({"select_p95_ms": 30.0}, "select_p95_ms"))
        for move, metric in cases:
            records = [dict(base) for _ in range(3)] + [{**base, **move}]
            failures = check_bench_regression.check(records, 5, 0.25)
            self.assertEqual(len(failures), 1, failures)
            self.assertTrue(failures[0].startswith(metric + ":"), failures)
            history = self.write_history(records)
            self.assertEqual(run(check_bench_regression.main,
                                 "--history", history), 1)
            self.assertEqual(run(check_bench_regression.main,
                                 "--history", history, "--quick"), 0)
        # Moves in the good direction, and recorded-only metrics, pass.
        records = [dict(base) for _ in range(3)] + [
            {**base, "rps": 5000.0, "select_p95_ms": 1.0,
             "queue_select_p50_ms": 99.0}]
        self.assertEqual(check_bench_regression.check(records, 5, 0.25), [])

    def test_gate_ignores_baselines_with_another_quick_flag(self):
        full = {"quick": False, "rps": 9000.0, "select_p95_ms": 1.0}
        quick = {"quick": True, "rps": 1000.0, "select_p95_ms": 10.0}
        # A quick run after full-size runs in one history is compared with
        # the earlier quick run only; a shared median would flag it.
        records = [full, quick, full, full, dict(quick)]
        self.assertEqual(check_bench_regression.check(records, 5, 0.25), [])
        self.assertEqual(run(check_bench_regression.main, "--history",
                             self.write_history(records)), 0)
        # No same-flag predecessor: nothing to compare against.
        self.assertEqual(
            check_bench_regression.check([full, full, quick], 5, 0.25), [])
        # A full-size regression is still caught past interleaved quick runs.
        failures = check_bench_regression.check(
            [full, quick, full, quick, {**full, "rps": 1000.0}], 5, 0.25)
        self.assertEqual(len(failures), 1, failures)
        self.assertTrue(failures[0].startswith("rps:"), failures)

    def test_schema_accepts_complete_artifacts(self):
        bench = self.write("bench.json", bench_artifact(catalog.SERVING))
        metrics = self.write("metrics.json", bench_artifact(catalog.METRICS))
        scale = self.write("scale.json", bench_artifact(catalog.SCALE))
        self.assertEqual(run(check_bench_schema.main, bench, "--metrics",
                             metrics, "--scale", scale), 0)

    def test_schema_fails_when_any_tracked_source_field_is_missing(self):
        flags = {catalog.SERVING: [], catalog.METRICS: ["--metrics"],
                 catalog.SCALE: ["--scale"]}
        for metric in catalog.TRAJECTORY:
            with self.subTest(metric=metric.key):
                data = bench_artifact(metric.artifact)
                if metric.artifact == catalog.METRICS:
                    del data[metric.record][metric.source]
                else:
                    for record in data["records"]:
                        if record["bench"] == metric.record:
                            del record[metric.source]
                path = self.write("artifact.json", data)
                self.assertEqual(run(check_bench_schema.main,
                                     *flags[metric.artifact], path), 1)

    def test_schema_fails_on_missing_drilldown_hit_rate_or_records(self):
        def without(predicate, field=None):
            data = bench_artifact(catalog.SERVING)
            for record in data["records"]:
                if predicate(record) and field:
                    del record[field]
            data["records"] = [r for r in data["records"]
                               if field or not predicate(r)]
            return run(check_bench_schema.main,
                       self.write("bench.json", data))

        def drilldown_on(r):
            return r["bench"] == "serving_drilldown" and r["containment"] == 1

        self.assertEqual(without(drilldown_on, "containment_hit_rate"), 1)
        self.assertEqual(without(drilldown_on), 1)
        for name in ("serving_throughput", "serving_overload"):
            self.assertEqual(without(lambda r: r["bench"] == name), 1)


if __name__ == "__main__":
    unittest.main()
