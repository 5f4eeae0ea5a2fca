"""The one catalog of bench metrics tracked across commits.

scripts/bench_history.py extracts, scripts/check_bench_regression.py gates
and scripts/check_bench_schema.py requires exactly what this module lists,
so a new tracked metric is one `Metric` entry in TRAJECTORY: the schema
check then requires its source field, the history records it and the gate
compares it, by construction.

Artifacts (the benches write them into their working directory):

  serving  BENCH_serving.json, bench/bench_serving_throughput.cc
  metrics  METRICS_serving.json, the engine's MetricsRegistry dump; its
           counters / gauges / histograms sections read as one record each
  scale    BENCH_scale.json, bench/bench_scale.cc (its own history file)

Standard library only.
"""

import json
from typing import NamedTuple

SERVING, METRICS, SCALE = "serving", "metrics", "scale"

# Pick rules: which source record(s) a metric's value comes from.
FIRST = "first"          # the first record of its name
MAX = "max"              # the largest value over every record of its name
TOP_RATE = "top_rate"    # the record at the highest offered `rate_rps`
CONTAINED = "contained"  # the drill-down record with `containment == 1`

# Directions: which way is a regression, or None when only recorded.
HIGHER, LOWER = "higher", "lower"

# Keys every trajectory record carries besides its metrics.
PROVENANCE = ("sha", "timestamp", "quick")


class Metric(NamedTuple):
    key: str                  # trajectory key in the history JSONL
    artifact: str             # SERVING, METRICS or SCALE
    record: str               # `bench` record name, or registry section
    field: str | None = None  # source field; None means the same as `key`
    pick: str = FIRST
    better: str | None = LOWER
    # Added to a lower-is-better ceiling, so a ~0 baseline cannot turn
    # jitter into an infinite ratio.
    slack: float = 0.05

    @property
    def source(self) -> str:
        return self.field or self.key


def _stage(key: str, better: str | None = LOWER) -> Metric:
    return Metric(key, SERVING, "trace_summary", better=better)


TRAJECTORY = [
    # Best serving_throughput phase (1/4/16 threads).
    Metric("rps", SERVING, "serving_throughput", pick=MAX, better=HIGHER),
    # Per-stage latency from the request traces.
    _stage("queue_scan_p50_ms", better=None),
    _stage("queue_scan_p95_ms"),
    _stage("scan_p50_ms"),
    _stage("scan_p95_ms"),
    _stage("queue_select_p50_ms", better=None),
    _stage("queue_select_p95_ms"),
    _stage("select_p50_ms"),
    _stage("select_p95_ms"),
    Metric("shed_rate", SERVING, "serving_overload"),
    # Drill-down with containment reuse ON (the OFF record is the control).
    Metric("containment_hit_rate", SERVING, "serving_drilldown",
           pick=CONTAINED, better=HIGHER),
    Metric("tracing_overhead", SERVING, "tracing_overhead", "overhead",
           slack=0.02),
    Metric("sampled_select_p95_ms", SERVING, "selection_sampling"),
    Metric("sample_quality_ratio", SERVING, "selection_sampling",
           "quality_ratio", better=HIGHER),
    Metric("pruned_chunk_fraction", SERVING, "scan_pruning", better=HIGHER),
    Metric("pruned_scan_p95_ms", SERVING, "scan_pruning",
           "scan_p95_pruned_ms"),
    # Scale witness: how many requests the serving run submitted.
    Metric("engine_requests_submitted", METRICS, "counters",
           "engine.requests.submitted", better=None),
    # Workload-forge sweep: best served throughput; admitted p95 and shed
    # fraction at the past-saturation rate (bounded-queue health, where
    # bucketed p95s move in ~2x steps); O(rows) generation cost.
    Metric("scale_rps", SCALE, "scale_sweep", "rps", MAX, HIGHER),
    Metric("scale_p95_ms", SCALE, "scale_sweep", "p95_ms", TOP_RATE,
           slack=100.0),
    Metric("scale_shed_fraction", SCALE, "scale_sweep", "shed_fraction",
           TOP_RATE, better=None),
    Metric("generator_ns_per_row", SCALE, "generator_scaling",
           "ns_per_row_large", slack=100.0),
]


def _names(prefix: str, *names: str) -> list[str]:
    return [f"{prefix}.{name}" for name in names]


# Keys each record must carry beyond the fields TRAJECTORY reads, which
# required_keys() adds. For METRICS this is the registry's instrument
# catalog (docs/OBSERVABILITY.md): METRICS_serving.json, /statusz's
# `engine` object and Prometheus /metrics all render that one registry.
RECORD_KEYS = {
    SERVING: {
        "trace_summary": [
            "staged_traces", "containment_hit_traces", "span_coverage",
            "traces_committed", "exemplars_pinned", "exemplar_threshold_ms"],
        "tracing_overhead": ["rps_traced", "rps_untraced"],
        "selection_sampling": [
            "scope_rows", "sample_rows", "exact_select_p95_ms", "speedup",
            "worst_quality_ratio", "quality_checks", "quality_fallbacks"],
        "scan_pruning": [
            "table_rows", "chunks", "queries", "scan_p95_full_ms", "speedup",
            "code_eval_predicates", "bit_identical"],
    },
    METRICS: {
        "counters": (
            _names("engine.requests", "completed", "failed", "coalesced")
            + _names("pipeline", "shed.global_queue", "shed.tenant",
                     "scan_busy_ns", "select_busy_ns")
            + _names("scan", "rows_visited", "rows_matched", "chunks_scanned",
                     "chunks_pruned", "code_eval_predicates")
            + _names("containment", "hits", "misses", "restricted_scan_rows",
                     "full_scan_rows", "scope_invalidations")
            + _names("selection", "sampled", "exact", "sample_rows",
                     "scope_rows_sampled", "sample_quality_checks",
                     "sample_quality_fallbacks")
            + ["streaming.cache_invalidations"]),
        "gauges": (
            _names("engine", "threads", "queue_depth", "tables")
            + _names("pipeline", "workers_active", "worker_utilization",
                     "tenants_tracked", "effective_max_queue_depth",
                     "max_queue_depth_configured", "max_pending_per_tenant")
            + ["containment.scope_entries"]
            + _names("selection", "last_quality_ratio", "min_quality_ratio")
            + _names("selection_cache", "hits", "misses", "insertions",
                     "evictions", "entries")
            + _names("registry", "hits", "misses", "evictions", "entries",
                     "loads", "fits", "coalesced")
            + _names("memory", "tables", "chunks", "logical_bytes",
                     "resident_bytes", "shared_saved_bytes")
            + _names("streaming", "streams", "appends", "rows_appended",
                     "fold_ins", "incremental_refreshes", "full_refits",
                     "fold_in_seconds", "incremental_seconds",
                     "refit_seconds", "deferred_upgrades",
                     "upgrades_completed", "upgrades_discarded")
            + _names("trace", "committed", "ring_evicted", "exemplars_pinned",
                     "exemplars_evicted", "threshold_ms")),
        "histograms": (
            ["pipeline.latency"]
            + _names("pipeline.stage", "queue_scan", "scan", "queue_select",
                     "select")),
    },
    SCALE: {
        "scale_sweep": [
            "rows", "threads", "tenants", "arrival", "rate_rps", "fired",
            "duration_s", "p50_ms", "p99_ms", "queue_scan_p95_ms",
            "scan_p95_ms", "queue_select_p95_ms", "select_p95_ms",
            "max_lag_ms"],
        "generator_scaling": [
            "rows_small", "rows_large", "ns_per_row_small", "per_row_ratio",
            "flat"],
        "scale_knee": [
            "rows", "threads", "low_rate_rps", "top_rate_rps",
            "low_shed_fraction", "top_shed_fraction", "admitted_p95_ms",
            "p95_bound_ms", "knee_demonstrated"],
    },
}


def metrics_of(artifact: str) -> list[Metric]:
    return [metric for metric in TRAJECTORY if metric.artifact == artifact]


def gated() -> list[Metric]:
    return [metric for metric in TRAJECTORY if metric.better is not None]


def required_keys(artifact: str) -> dict[str, list[str]]:
    """{record: keys} an artifact must carry: RECORD_KEYS plus every field
    a TRAJECTORY metric reads from it."""
    required = {name: list(keys)
                for name, keys in RECORD_KEYS.get(artifact, {}).items()}
    for metric in metrics_of(artifact):
        required.setdefault(metric.record, []).append(metric.source)
    return required


def is_number(value) -> bool:
    return isinstance(value, (int, float))


def read_artifact(path: str, artifact: str) -> tuple[dict, bool]:
    """({record name: [records...]}, quick flag) of a bench artifact."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        return {}, False
    if artifact == METRICS:
        return {section: [table] for section, table in data.items()
                if isinstance(table, dict)}, False
    grouped: dict = {}
    records = data.get("records")
    for record in records if isinstance(records, list) else []:
        if isinstance(record, dict) and "bench" in record:
            grouped.setdefault(record["bench"], []).append(record)
    return grouped, bool(data.get("quick", False))


def candidates(metric: Metric, grouped: dict) -> list[dict]:
    """The source records `metric`'s pick rule reads its value from."""
    records = grouped.get(metric.record, [])
    if metric.pick == FIRST:
        return records[:1]
    if metric.pick == CONTAINED:
        return [r for r in records if r.get("containment") == 1]
    if metric.pick == TOP_RATE and records:
        return [max(records, key=lambda r: r.get("rate_rps", 0.0))]
    return records


def extract(artifact: str, grouped: dict) -> dict:
    """{trajectory key: value} for every metric of `artifact` found."""
    values = {}
    for metric in metrics_of(artifact):
        found = [r[metric.source] for r in candidates(metric, grouped)
                 if is_number(r.get(metric.source))]
        if found:
            values[metric.key] = max(found) if metric.pick == MAX else found[0]
    return values


def read_history(path: str) -> tuple[list[tuple[int, dict]], list[str]]:
    """([(line number, record)...], [bad-line messages]) of a JSONL history.
    Raises FileNotFoundError when `path` does not exist."""
    records, errors = [], []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                errors.append(f"line {line_no}: bad JSON ({err})")
                continue
            if isinstance(record, dict):
                records.append((line_no, record))
            else:
                errors.append(f"line {line_no}: not a JSON object")
    return records, errors
