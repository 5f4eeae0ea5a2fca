#ifndef SUBTAB_UTIL_METRICS_H_
#define SUBTAB_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "subtab/util/latency_histogram.h"

/// \file metrics.h
/// The unified metrics registry — the serving engine's one stats store and
/// JSON renderer: counters, gauges, and latency histograms under stable
/// dotted names ("pipeline.stage.scan", "containment.hits", ...).
/// Instruments are registered once (a mutexed map lookup at construction
/// time), then updated lock-free on the request path via the returned
/// stable pointers — registration cost never touches a hot path. The
/// naming scheme is cataloged in docs/OBSERVABILITY.md; the typed
/// service::EngineStats is a snapshot of these instruments, not a second
/// set of counters.
///
/// Snapshots support deltas: Snapshot() captures every instrument, and
/// Delta(earlier) subtracts counters and histogram buckets (gauges pass
/// through), so a bench phase or an ops scrape window can report exactly
/// what happened inside it — the per-stage p50/p95 attribution in
/// BENCH_serving.json's trace_summary is a delta over the drill-down phase.

namespace subtab {

/// Monotonic counter; relaxed atomics, safe from any thread.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins double gauge (queue depth, utilization, resident bytes).
class Gauge {
 public:
  void Set(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double Value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Point-in-time capture of every registered instrument, keyed by name
/// (sorted — ToJson output is deterministic).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencyHistogram::Snapshot> histograms;

  /// This snapshot minus `earlier`: counters and histogram buckets
  /// subtract (clamped at 0 — instruments registered mid-window simply
  /// contribute their full value); gauges keep this snapshot's value.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{count,mean_ms,p50_ms,p95_ms,p99_ms}}}.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Pointers are stable for the registry's lifetime — cache them at
  /// construction time and update through them lock-free. Names should be
  /// dotted section.metric paths (see docs/OBSERVABILITY.md).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LatencyHistogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace subtab

#endif  // SUBTAB_UTIL_METRICS_H_
