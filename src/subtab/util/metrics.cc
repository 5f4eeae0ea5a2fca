#include "subtab/util/metrics.h"

#include "subtab/util/string_util.h"

namespace subtab {
namespace {

/// Bucket-wise histogram-snapshot subtraction (clamped), recomputing count
/// and sum so percentiles over the delta answer "inside this window".
LatencyHistogram::Snapshot SnapshotDelta(
    const LatencyHistogram::Snapshot& now,
    const LatencyHistogram::Snapshot& earlier) {
  LatencyHistogram::Snapshot delta;
  for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    delta.buckets[b] = now.buckets[b] >= earlier.buckets[b]
                           ? now.buckets[b] - earlier.buckets[b]
                           : 0;
    delta.count += delta.buckets[b];
  }
  delta.sum_seconds = now.sum_seconds >= earlier.sum_seconds
                          ? now.sum_seconds - earlier.sum_seconds
                          : 0.0;
  return delta;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    const uint64_t base = it == earlier.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= base ? value - base : 0;
  }
  delta.gauges = gauges;
  for (const auto& [name, snap] : histograms) {
    auto it = earlier.histograms.find(name);
    delta.histograms[name] = it == earlier.histograms.end()
                                 ? snap
                                 : SnapshotDelta(snap, it->second);
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) json += ",";
    first = false;
    json += StrFormat("\"%s\":%llu", name.c_str(), (unsigned long long)value);
  }
  json += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) json += ",";
    first = false;
    // %.15g: integral gauges (entry and byte counts) render exactly.
    json += StrFormat("\"%s\":%.15g", name.c_str(), value);
  }
  json += "},\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : histograms) {
    if (!first) json += ",";
    first = false;
    json += StrFormat(
        "\"%s\":{\"count\":%llu,\"mean_ms\":%.6g,\"p50_ms\":%.6g,"
        "\"p95_ms\":%.6g,\"p99_ms\":%.6g}",
        name.c_str(), (unsigned long long)snap.count, snap.MeanSeconds() * 1e3,
        snap.Percentile(0.50) * 1e3, snap.Percentile(0.95) * 1e3,
        snap.Percentile(0.99) * 1e3);
  }
  json += "}}";
  return json;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<LatencyHistogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->TakeSnapshot();
  }
  return snap;
}

}  // namespace subtab
