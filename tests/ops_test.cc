// Tests for the ops plane (src/subtab/ops/): Prometheus text-exposition
// conformance (a dependency-free mini-parser checks name/label grammar,
// cumulative histogram buckets ending in +Inf, _sum/_count consistency, and
// that every MetricsRegistry instrument appears exactly once), SloMonitor
// multi-window burn-rate math + hysteresis under a synthetic metrics feed,
// SLO-adaptive admission (tighten while burning, restore on recovery, and
// shed messages / stats agreeing on the EFFECTIVE bound), and an end-to-end
// admin-server session over a real loopback socket: all five endpoints,
// with /healthz flipping under induced shedding and recovering.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "subtab/ops/admin_server.h"
#include "subtab/ops/prometheus.h"
#include "subtab/ops/slo_monitor.h"
#include "subtab/service/engine.h"
#include "subtab/util/metrics.h"

namespace subtab {
namespace {

using ops::AdminServer;
using ops::AdminServerOptions;
using ops::HealthState;
using ops::SloMonitor;
using ops::SloOptions;
using service::EngineOptions;
using service::SelectRequest;
using service::SelectResponse;
using service::ServingEngine;

Table SmallTable() {
  std::vector<double> a, b;
  std::vector<std::string> c;
  for (int i = 0; i < 400; ++i) {
    a.push_back(static_cast<double>(i % 97));
    b.push_back(static_cast<double>(i % 13) * 1.5);
    c.push_back(i % 4 == 0 ? "w" : i % 4 == 1 ? "x" : i % 4 == 2 ? "y" : "z");
  }
  Result<Table> table = Table::Make({Column::Numeric("a", a),
                                     Column::Numeric("b", b),
                                     Column::Categorical("c", c)});
  SUBTAB_CHECK(table.ok());
  return std::move(*table);
}

SubTabConfig SmallConfig(uint64_t seed = 3) {
  SubTabConfig config;
  config.k = 5;
  config.l = 3;
  config.embedding.dim = 8;
  config.embedding.epochs = 1;
  config.seed = seed;
  return config;
}

// ------------------------------------------------- Prometheus mini-parser --

bool LegalMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':';
    const bool digit = std::isdigit(static_cast<unsigned char>(c));
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

struct Sample {
  std::string name;    ///< Metric name without labels.
  std::string labels;  ///< Raw text between {} ("" when absent).
  double value = 0.0;
};

/// Parsed exposition document. Fails the current test (ADD_FAILURE) on any
/// grammar violation, so conformance checks read as plain assertions.
struct Exposition {
  std::map<std::string, std::string> types;  ///< family -> counter/gauge/...
  std::set<std::string> helped;
  std::vector<Sample> samples;

  static Exposition Parse(const std::string& text) {
    Exposition doc;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line.rfind("# TYPE ", 0) == 0;
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        if (sp == std::string::npos) {
          ADD_FAILURE() << "malformed header: " << line;
          continue;
        }
        const std::string family = rest.substr(0, sp);
        EXPECT_TRUE(LegalMetricName(family)) << family;
        if (is_type) {
          EXPECT_EQ(doc.types.count(family), 0u)
              << "duplicate TYPE for " << family;
          doc.types[family] = rest.substr(sp + 1);
        } else {
          EXPECT_EQ(doc.helped.count(family), 0u)
              << "duplicate HELP for " << family;
          doc.helped.insert(family);
        }
        continue;
      }
      if (line[0] == '#') continue;  // Other comments are legal.
      Sample sample;
      const size_t brace = line.find('{');
      const size_t value_sp = line.rfind(' ');
      if (value_sp == std::string::npos) {
        ADD_FAILURE() << "sample without value: " << line;
        continue;
      }
      if (brace != std::string::npos && brace < value_sp) {
        const size_t close = line.rfind('}', value_sp);
        if (close == std::string::npos) {
          ADD_FAILURE() << "unterminated labels: " << line;
          continue;
        }
        sample.name = line.substr(0, brace);
        sample.labels = line.substr(brace + 1, close - brace - 1);
      } else {
        sample.name = line.substr(0, value_sp);
      }
      EXPECT_TRUE(LegalMetricName(sample.name)) << sample.name;
      sample.value = std::strtod(line.c_str() + value_sp + 1, nullptr);
      doc.samples.push_back(std::move(sample));
    }
    return doc;
  }

  std::vector<Sample> Of(const std::string& name) const {
    std::vector<Sample> out;
    for (const Sample& s : samples) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }
};

/// Full conformance check of a rendered snapshot: every instrument exactly
/// once, under its family's HELP/TYPE, histograms cumulative and
/// +Inf-terminated, _sum/_count matching the snapshot.
void CheckExposition(const MetricsSnapshot& snap, const std::string& text) {
  const Exposition doc = Exposition::Parse(text);

  size_t families = 0;
  for (const auto& [dotted, value] : snap.counters) {
    const std::string name = "subtab_" + ops::SanitizeMetricName(dotted);
    ++families;
    ASSERT_EQ(doc.types.count(name), 1u) << name;
    EXPECT_EQ(doc.types.at(name), "counter") << name;
    EXPECT_EQ(doc.helped.count(name), 1u) << name;
    const std::vector<Sample> samples = doc.Of(name);
    ASSERT_EQ(samples.size(), 1u) << name << " must appear exactly once";
    EXPECT_EQ(samples[0].value, static_cast<double>(value)) << name;
  }
  for (const auto& [dotted, value] : snap.gauges) {
    const std::string name = "subtab_" + ops::SanitizeMetricName(dotted);
    ++families;
    ASSERT_EQ(doc.types.count(name), 1u) << name;
    EXPECT_EQ(doc.types.at(name), "gauge") << name;
    const std::vector<Sample> samples = doc.Of(name);
    ASSERT_EQ(samples.size(), 1u) << name << " must appear exactly once";
    EXPECT_DOUBLE_EQ(samples[0].value, value) << name;
  }
  for (const auto& [dotted, hist] : snap.histograms) {
    const std::string name =
        "subtab_" + ops::SanitizeMetricName(dotted) + "_seconds";
    ++families;
    ASSERT_EQ(doc.types.count(name), 1u) << name;
    EXPECT_EQ(doc.types.at(name), "histogram") << name;

    const std::vector<Sample> buckets = doc.Of(name + "_bucket");
    ASSERT_EQ(buckets.size(), LatencyHistogram::kBuckets) << name;
    double previous = -1.0;
    for (const Sample& bucket : buckets) {
      EXPECT_EQ(bucket.labels.rfind("le=\"", 0), 0u) << bucket.labels;
      EXPECT_GE(bucket.value, previous) << name << " buckets not cumulative";
      previous = bucket.value;
    }
    EXPECT_EQ(buckets.back().labels, "le=\"+Inf\"") << name;

    const std::vector<Sample> count = doc.Of(name + "_count");
    ASSERT_EQ(count.size(), 1u) << name;
    EXPECT_EQ(count[0].value, static_cast<double>(hist.count)) << name;
    // The +Inf bucket IS the total count.
    EXPECT_EQ(buckets.back().value, count[0].value) << name;

    const std::vector<Sample> sum = doc.Of(name + "_sum");
    ASSERT_EQ(sum.size(), 1u) << name;
    EXPECT_NEAR(sum[0].value, hist.sum_seconds, 1e-9) << name;
  }
  // Nothing extra: every family in the document maps back to an instrument.
  EXPECT_EQ(doc.types.size(), families);
}

TEST(PrometheusTest, NameSanitizationAndEscaping) {
  EXPECT_EQ(ops::SanitizeMetricName("pipeline.stage.queue_scan"),
            "pipeline_stage_queue_scan");
  EXPECT_EQ(ops::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(ops::SanitizeMetricName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(ops::SanitizeMetricName(""), "_");
  EXPECT_EQ(ops::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(ops::EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(ops::EscapeHelpText("line1\nline2 \\ \"quoted\""),
            "line1\\nline2 \\\\ \"quoted\"");
}

TEST(PrometheusTest, BucketBoundsMatchLatencyHistogram) {
  // Bucket b holds microsecond values below 2^b; the renderer's le bounds
  // must agree with LatencyHistogram::Record's bit_width bucketing.
  EXPECT_DOUBLE_EQ(ops::LatencyBucketUpperBoundSeconds(0), 1e-6);
  EXPECT_DOUBLE_EQ(ops::LatencyBucketUpperBoundSeconds(10), 1024e-6);
  EXPECT_TRUE(std::isinf(
      ops::LatencyBucketUpperBoundSeconds(LatencyHistogram::kBuckets - 1)));

  LatencyHistogram h;
  h.Record(0.0005);  // 500us -> bucket bit_width(500)=9, below 2^9us.
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (snap.buckets[b] == 0) continue;
    EXPECT_LE(0.0005, ops::LatencyBucketUpperBoundSeconds(b));
  }
}

TEST(PrometheusTest, RenderedRegistryConforms) {
  MetricsRegistry registry;
  registry.counter("engine.requests.submitted")->Add(42);
  registry.counter("9starts.with.digit")->Add(1);
  registry.gauge("pipeline.worker_utilization")->Set(0.75);
  LatencyHistogram* h = registry.histogram("pipeline.latency");
  h->Record(0.001);
  h->Record(0.010);
  h->Record(3.5);

  const MetricsSnapshot snap = registry.Snapshot();
  const std::string text = ops::RenderPrometheus(snap);
  CheckExposition(snap, text);
  EXPECT_NE(text.find("subtab_engine_requests_submitted 42"),
            std::string::npos);
  EXPECT_NE(text.find("subtab_pipeline_latency_seconds_bucket"),
            std::string::npos);
}

TEST(PrometheusTest, LiveEngineRegistryConformsWithEveryInstrumentOnce) {
  EngineOptions options;
  options.num_threads = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", SmallTable(), SmallConfig()).ok());
  for (int i = 0; i < 4; ++i) {
    SelectRequest request;
    request.table_id = "t";
    request.query.filters = {
        Predicate::Num("a", CmpOp::kGe, static_cast<double>(i))};
    EXPECT_TRUE(engine.Select(request).status.ok());
  }
  // A monitor adds its slo.* gauges into the SAME registry; the scrape must
  // cover them too.
  SloMonitor monitor(&engine);
  monitor.TickWithSnapshotForTesting(engine.metrics().Snapshot(), 0.0);

  engine.Stats();  // Refresh gauges like /metrics does.
  const MetricsSnapshot snap = engine.metrics().Snapshot();
  CheckExposition(snap, ops::RenderPrometheus(snap));
  EXPECT_GE(snap.counters.size() + snap.gauges.size() + snap.histograms.size(),
            30u);  // The engine's instrument catalog plus slo.*.
}

// --------------------------------------------------------------- SloMonitor --

/// Synthetic cumulative metrics feed: each Tick() adds traffic and returns
/// the registry-shaped snapshot the monitor would scrape.
struct SyntheticFeed {
  uint64_t submitted = 0;
  uint64_t shed = 0;
  LatencyHistogram latency;

  MetricsSnapshot Tick(uint64_t add_submitted, uint64_t add_shed,
                       size_t latency_records, double latency_seconds) {
    submitted += add_submitted;
    shed += add_shed;
    for (size_t i = 0; i < latency_records; ++i) {
      latency.Record(latency_seconds);
    }
    MetricsSnapshot snap;
    snap.counters["engine.requests.submitted"] = submitted;
    snap.counters["pipeline.shed.global_queue"] = shed;
    snap.counters["pipeline.shed.tenant"] = 0;
    snap.histograms["pipeline.latency"] = latency.TakeSnapshot();
    return snap;
  }
};

SloOptions TestSloOptions() {
  SloOptions slo;
  slo.short_window_seconds = 2.0;
  slo.long_window_seconds = 6.0;
  slo.latency_p95_objective_seconds = 0.1;
  slo.shed_rate_objective = 0.01;
  slo.recovery_ticks = 2;
  return slo;
}

TEST(SloMonitorTest, BurnEscalatesAndHysteresisRecovers) {
  ServingEngine engine;  // Host for the slo.* gauges and the trace sink.
  SloMonitor monitor(&engine, TestSloOptions());
  SyntheticFeed feed;
  double now = 0.0;

  // Healthy baseline: plenty of traffic, fast, nothing shed.
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 0.001), now++);
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 0.001), now++);
  EXPECT_EQ(monitor.health(), HealthState::kOk);
  EXPECT_EQ(monitor.status().transitions, 0u);

  // Latency blows through the objective (1s >> 0.1s): both windows burn
  // (the long window falls back to the oldest retained sample), health
  // escalates ONE level per tick — never straight to unhealthy.
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 1.0), now++);
  EXPECT_EQ(monitor.health(), HealthState::kDegraded);
  EXPECT_GT(monitor.status().burn_latency_short, 1.0);
  EXPECT_GT(monitor.status().burn_latency_long, 1.0);
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 1.0), now++);
  EXPECT_EQ(monitor.health(), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.status().transitions, 2u);

  // Load drops. The short window still covers the slow records for a tick
  // or two (that's the point of window math), then runs clean; recovery
  // needs recovery_ticks clean ticks PER LEVEL — no flapping straight back.
  size_t ticks_to_ok = 0;
  while (monitor.health() != HealthState::kOk && ticks_to_ok < 20) {
    monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 0.001), now++);
    ++ticks_to_ok;
  }
  EXPECT_EQ(monitor.health(), HealthState::kOk);
  // Two levels x recovery_ticks=2, plus the ticks the short window needed
  // to age the slow records out.
  EXPECT_GE(ticks_to_ok, 4u);
  EXPECT_EQ(monitor.status().transitions, 4u);

  // The transitions were committed as traces into the engine's sink.
  ASSERT_NE(engine.trace_sink(), nullptr);
  size_t transition_traces = 0;
  for (const auto& trace : engine.trace_sink()->Peek()) {
    if (trace->name == "slo.transition") ++transition_traces;
  }
  EXPECT_EQ(transition_traces, 4u);

  // And exported as slo.* gauges in the engine's registry.
  const MetricsSnapshot snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.gauges.at("slo.health"), 0.0);
  EXPECT_EQ(snap.counters.at("slo.transitions"), 4u);
  EXPECT_GE(snap.counters.at("slo.ticks"), 6u);
}

TEST(SloMonitorTest, ShedRateBurnsIndependentlyOfLatency) {
  ServingEngine engine;
  SloMonitor monitor(&engine, TestSloOptions());
  SyntheticFeed feed;
  double now = 0.0;
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 0.001), now++);
  // 10% shed against a 1% objective, latency fine.
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 10, 90, 0.001), now++);
  EXPECT_EQ(monitor.health(), HealthState::kDegraded);
  const ops::SloStatus status = monitor.status();
  EXPECT_GT(status.burn_shed_short, 1.0);
  EXPECT_LT(status.burn_latency_short, 1.0);
}

TEST(SloMonitorTest, SpikeInShortWindowOnlyDoesNotFlipHealth) {
  SloOptions slo = TestSloOptions();
  slo.long_window_seconds = 60.0;
  ServingEngine engine;
  SloMonitor monitor(&engine, slo);
  SyntheticFeed feed;
  // A long healthy history, so the long window has a real (old) reference
  // sample and a one-tick spike dilutes to nothing across it.
  double now = 0.0;
  for (int i = 0; i < 70; ++i) {
    monitor.TickWithSnapshotForTesting(feed.Tick(1000, 0, 1000, 0.001), now++);
  }
  EXPECT_EQ(monitor.health(), HealthState::kOk);
  // One burst of slow requests — big enough to push the SHORT window's p95
  // into the slow bucket (the window also covers the previous healthy
  // tick), yet diluted to <5% across the ~60s long window -> no transition.
  monitor.TickWithSnapshotForTesting(feed.Tick(200, 0, 200, 1.0), now++);
  EXPECT_GT(monitor.status().burn_latency_short, 1.0);
  EXPECT_EQ(monitor.health(), HealthState::kOk);
}

// ------------------------------------------------------ adaptive admission --

TEST(AdaptiveAdmissionTest, TightensWhileBurningAndRestoresOnRecovery) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 64;
  options.slo_adaptive_admission = true;
  ServingEngine engine(options);
  EXPECT_EQ(engine.effective_max_queue_depth(), 64u);

  SloOptions slo = TestSloOptions();
  slo.adaptive_admission = true;
  slo.min_queue_depth = 4;
  SloMonitor monitor(&engine, slo);
  SyntheticFeed feed;
  double now = 0.0;
  monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 0.001), now++);
  // Sustained burn halves the effective bound toward the floor each tick.
  for (int i = 0; i < 6; ++i) {
    monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 1.0), now++);
  }
  EXPECT_EQ(engine.effective_max_queue_depth(), 4u);  // 64/2^4, floored.
  EXPECT_EQ(engine.configured_max_queue_depth(), 64u);
  EXPECT_EQ(monitor.status().adaptive_queue_depth, 4u);

  // Recovery to ok restores the configured bound.
  for (int i = 0; i < 20 && monitor.health() != HealthState::kOk; ++i) {
    monitor.TickWithSnapshotForTesting(feed.Tick(100, 0, 100, 0.001), now++);
  }
  EXPECT_EQ(monitor.health(), HealthState::kOk);
  EXPECT_EQ(engine.effective_max_queue_depth(), 64u);
  EXPECT_EQ(monitor.status().adaptive_queue_depth, 0u);
}

TEST(AdaptiveAdmissionTest, RefusedWithoutOptInOrWithoutConfiguredBound) {
  {
    EngineOptions options;
    options.max_queue_depth = 16;  // Bounded, but adaptation not opted in.
    ServingEngine engine(options);
    EXPECT_FALSE(engine.SetEffectiveMaxQueueDepth(8));
    EXPECT_EQ(engine.effective_max_queue_depth(), 16u);
  }
  {
    EngineOptions options;
    options.slo_adaptive_admission = true;  // Opted in, but unbounded queue.
    ServingEngine engine(options);
    EXPECT_FALSE(engine.SetEffectiveMaxQueueDepth(8));
    EXPECT_EQ(engine.effective_max_queue_depth(), 0u);
  }
  {
    EngineOptions options;
    options.max_queue_depth = 16;
    options.slo_adaptive_admission = true;
    ServingEngine engine(options);
    // Clamped into [1, configured]: tightening only, never loosening.
    EXPECT_TRUE(engine.SetEffectiveMaxQueueDepth(1000));
    EXPECT_EQ(engine.effective_max_queue_depth(), 16u);
    EXPECT_TRUE(engine.SetEffectiveMaxQueueDepth(0));
    EXPECT_EQ(engine.effective_max_queue_depth(), 1u);
    EXPECT_TRUE(engine.SetEffectiveMaxQueueDepth(8));
    EXPECT_EQ(engine.effective_max_queue_depth(), 8u);
  }
}

TEST(AdaptiveAdmissionTest, ShedMessageAndStatsReportEffectiveBound) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 4;
  options.slo_adaptive_admission = true;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", SmallTable(), SmallConfig()).ok());
  ASSERT_TRUE(engine.SetEffectiveMaxQueueDepth(2));

  // Hold the worker, then fill the queue past the TIGHTENED bound.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });
  std::vector<std::shared_future<SelectResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    SelectRequest request;
    request.table_id = "t";
    request.query.filters = {
        Predicate::Num("a", CmpOp::kGe, static_cast<double>(i))};
    futures.push_back(engine.SubmitSelect(request));
  }

  // Regression (the shed message used to cite the configured bound): the
  // kUnavailable message and /statusz must agree on the EFFECTIVE bound.
  const service::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.pipeline.max_queue_depth_effective, 2u);
  EXPECT_EQ(stats.pipeline.max_queue_depth_configured, 4u);
  const std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"pipeline.effective_max_queue_depth\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"pipeline.max_queue_depth_configured\":4"),
            std::string::npos);

  gate.set_value();
  engine.Drain();
  size_t shed = 0;
  for (auto& future : futures) {
    const SelectResponse response = future.get();
    if (response.status.code() != StatusCode::kUnavailable) continue;
    ++shed;
    EXPECT_NE(response.status.message().find("effective bound (2)"),
              std::string::npos)
        << response.status.message();
  }
  EXPECT_GT(shed, 0u);
}

// ------------------------------------------------------------ AdminServer --

/// Minimal blocking HTTP/1.0 client for the e2e test: one request, read to
/// EOF.
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SUBTAB_CHECK(fd >= 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  SUBTAB_CHECK(::send(fd, request.data(), request.size(), 0) ==
               static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

int StatusCodeOf(const std::string& response) {
  if (response.rfind("HTTP/1.0 ", 0) != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(AdminServerTest, ServesAllEndpointsAndHealthzFlipsUnderShedding) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", SmallTable(), SmallConfig()).ok());
  for (int i = 0; i < 3; ++i) {
    SelectRequest request;
    request.table_id = "t";
    request.query.filters = {
        Predicate::Num("a", CmpOp::kGe, static_cast<double>(i))};
    EXPECT_TRUE(engine.Select(request).status.ok());
  }

  // Monitor driven by hand (real snapshots, synthetic clock) so the flip is
  // deterministic; the ticker thread is simply never started.
  SloOptions slo;
  slo.short_window_seconds = 1.0;
  slo.long_window_seconds = 2.0;
  slo.shed_rate_objective = 0.01;
  slo.latency_p95_objective_seconds = 1e9;  // Only the shed SLO matters here.
  slo.recovery_ticks = 1;
  SloMonitor monitor(&engine, slo);
  AdminServer server(&engine, &monitor);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // --- The endpoint catalog. ---
  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(StatusCodeOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  // The body is a conformant exposition of the live registry (monitor
  // gauges included), non-empty.
  engine.Stats();
  const MetricsSnapshot snap = engine.metrics().Snapshot();
  CheckExposition(snap, ops::RenderPrometheus(snap));
  EXPECT_NE(BodyOf(metrics).find("subtab_engine_requests_submitted"),
            std::string::npos);

  const std::string statusz = HttpGet(server.port(), "/statusz");
  EXPECT_EQ(StatusCodeOf(statusz), 200);
  EXPECT_NE(statusz.find("\"engine\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"slo\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"pipeline.effective_max_queue_depth\":"),
            std::string::npos);
  EXPECT_NE(statusz.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"build\":{"), std::string::npos);

  const std::string traces = HttpGet(server.port(), "/traces?n=2");
  EXPECT_EQ(StatusCodeOf(traces), 200);
  const std::string traces_body = BodyOf(traces);
  EXPECT_FALSE(traces_body.empty());
  EXPECT_EQ(traces_body[0], '{');  // JSONL: every line one trace object.
  EXPECT_EQ(std::count(traces_body.begin(), traces_body.end(), '\n'), 2);

  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/readyz")), 200);
  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(healthz), 200);
  EXPECT_NE(healthz.find("ok"), std::string::npos);
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/nope")), 404);
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/metricsextra")), 404);

  // --- Induce shedding, tick the monitor, watch /healthz flip. ---
  double now = 0.0;
  engine.Stats();
  monitor.TickWithSnapshotForTesting(engine.metrics().Snapshot(), now++);
  {
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });
    std::vector<std::shared_future<SelectResponse>> futures;
    for (int i = 0; i < 30; ++i) {
      SelectRequest request;
      request.table_id = "t";
      request.query.filters = {
          Predicate::Num("b", CmpOp::kLe, static_cast<double>(i) * 0.1)};
      futures.push_back(engine.SubmitSelect(request));
    }
    gate.set_value();
    engine.Drain();
    size_t shed = 0;
    for (auto& future : futures) {
      if (future.get().status.code() == StatusCode::kUnavailable) ++shed;
    }
    ASSERT_GT(shed, 0u) << "no overload induced, nothing to monitor";
  }
  engine.Stats();
  monitor.TickWithSnapshotForTesting(engine.metrics().Snapshot(), now++);
  EXPECT_EQ(monitor.health(), HealthState::kDegraded);
  const std::string degraded = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(degraded), 503);
  EXPECT_NE(degraded.find("degraded"), std::string::npos);
  // The flip is visible as slo.* gauges on the same scrape.
  const std::string burning = BodyOf(HttpGet(server.port(), "/metrics"));
  EXPECT_NE(burning.find("subtab_slo_health 1"), std::string::npos);
  EXPECT_NE(burning.find("subtab_slo_burn_shed_short"), std::string::npos);

  // --- Clean ticks recover it. ---
  for (int i = 0; i < 10 && monitor.health() != HealthState::kOk; ++i) {
    engine.Stats();
    monitor.TickWithSnapshotForTesting(engine.metrics().Snapshot(), now++);
  }
  EXPECT_EQ(monitor.health(), HealthState::kOk);
  EXPECT_EQ(StatusCodeOf(HttpGet(server.port(), "/healthz")), 200);

  server.Stop();
  EXPECT_FALSE(server.running());
  // Stopped: connections are refused (empty response from our client).
  EXPECT_EQ(HttpGet(server.port(), "/healthz"), "");
}

TEST(AdminServerTest, TricklingClientCannotBlockHealthz) {
  ServingEngine engine;
  AdminServerOptions admin;
  admin.read_timeout_seconds = 0.3;
  AdminServer server(&engine, nullptr, admin);
  ASSERT_TRUE(server.Start().ok());

  // A slowloris client: connected first, then one byte every 0.1 s — each
  // recv sees data well inside the timeout, so only a bound on the whole
  // read lets the serve thread move on.
  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    for (int i = 0; i < 40 && !done.load(); ++i) {
      if (::send(slow, "G", 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  const std::string healthz = HttpGet(server.port(), "/healthz");
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  done.store(true);
  trickle.join();
  ::close(slow);
  EXPECT_EQ(StatusCodeOf(healthz), 200);
  EXPECT_LT(elapsed, 1.0) << "/healthz waited behind a trickling client";
}

TEST(AdminServerTest, RoutingWithoutSockets) {
  ServingEngine engine;
  AdminServer server(&engine);  // No monitor: /healthz is unconditionally ok.
  EXPECT_EQ(StatusCodeOf(server.HandleRequest("GET", "/healthz")), 200);
  EXPECT_EQ(StatusCodeOf(server.HandleRequest("POST", "/metrics")), 405);
  EXPECT_EQ(StatusCodeOf(server.HandleRequest("GET", "/")), 404);
  const std::string metrics = server.HandleRequest("GET", "/metrics");
  EXPECT_EQ(StatusCodeOf(metrics), 200);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
}

}  // namespace
}  // namespace subtab
