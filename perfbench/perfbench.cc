// End-to-end benchmark program: one workload per process, through the
// library's public API only (ServingEngine, StreamSession, the SubTab facade
// and the layer functions of the fit path). perfbench/run.py builds this
// binary and is the command to run; see perfbench/README.md for why each
// workload exists and what each metric is expected to move.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --state-dir <dir> [--trace-dir <dir>]
//
// Every run follows the same lifecycle, so every end-to-end metric is
// measured on every workload:
//   set-up   generate the workload's inputs (timed again at points spread
//            over the run; median = setup_s)
//   open     register each table cold (fit) and show its first display
//   main     the workload's own traffic (drill-down displays, appends)
//   ingest   appends to a stream bound to the engine (the main phase itself
//            on stream_ingest, a small side stream elsewhere)
//   restart  a fresh engine on the same persist_dir reopens every table
// After the timed phases and the peak-RSS reading the served views are
// checked against the serial facade path and scored with the paper's
// combined metric (Eq. 3).
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 prints the end-to-end metrics; --trace 1
// runs with engine tracing and per-request explain on, times each layer
// call from here, and prints the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "subtab/binning/binned_table.h"
#include "subtab/core/model_io.h"
#include "subtab/core/subtab.h"
#include "subtab/embed/corpus.h"
#include "subtab/embed/word2vec.h"
#include "subtab/metrics/combined.h"
#include "subtab/rules/miner.h"
#include "subtab/service/engine.h"
#include "subtab/stream/stream_session.h"
#include "subtab/util/rng.h"
#include "subtab/workload/synthetic_table.h"

namespace {

using namespace subtab;
using service::EngineOptions;
using service::SelectRequest;
using service::SelectResponse;
using service::ServingEngine;
using stream::RefreshAction;
using stream::StreamSession;
using stream::StreamSessionOptions;
using workload::ColumnDataDistribution;
using workload::PlantedRule;
using workload::SyntheticColumnSpec;
using workload::SyntheticTableSpec;
using Clock = std::chrono::steady_clock;

constexpr size_t kK = 10;
constexpr size_t kL = 4;
constexpr size_t kEngineWorkers = 2;
constexpr size_t kSetupRepeats = 9;
constexpr size_t kTailBeyond = 10;
constexpr size_t kChunkRows = 1024;
// The data and models are fixed per workload: structure seeds of the forge
// populations, the seed of the row draws and model configs, and the fixed
// Zipf draw of shared_drilldown's session order. The run seed drives the
// requests (categories, display seeds, session contents).
constexpr uint64_t kDataSeed = 6000;
constexpr uint64_t kColdStructure = 1000;
constexpr uint64_t kWarmStructure = 2000;
constexpr uint64_t kSideStructure = 3000;
constexpr uint64_t kStreamStructure = 4000;
constexpr uint64_t kPickSeed = 5000;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x;
}

/// The display seed of table `i`'s first display. It is fixed, not drawn
/// from the run seed: opening or reopening a table shows the same first
/// display on every run, so the open and reopen metrics time the same work
/// each run (k-means work varies with the seed). The run seed drives the
/// drill-down requests.
uint64_t FirstSeed(uint64_t i) { return Mix(kDataSeed, 800 + i); }

// ------------------------------------------------------------ arguments --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string state_dir;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--state-dir") {
      args->state_dir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->state_dir.empty();
}

// ----------------------------------------------------------- statistics --

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The mean, for the open metrics: the same open (same table, model and
/// display seed) takes one of two times, e.g. 0.22 s or 0.35 s for a
/// reopen, with no difference in page faults or context switches. The median
/// of such a mix jumps from one mode to the other as their shares shift
/// between runs; the mean moves only in proportion to the shift.
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest percentile with at least kTailBeyond samples beyond it: the
/// sorted sample at index n - 1 - kTailBeyond (the maximum when n is small).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t count = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.count = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t idx = n > kTailBeyond ? n - 1 - kTailBeyond : n - 1;
  tail.value = v[idx];
  tail.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return tail;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------- spans --

/// The benchmark's own trace: one span per public-layer call it makes
/// (name, start, end, parent, trace id), kept in memory and written out as
/// JSONL at exit. Engine stage spans returned through trace_explain are
/// imported under the display span that issued the request.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  uint64_t NewTrace() { return next_trace_.fetch_add(1); }

  /// Opens a span; returns its id (0 when tracing is off).
  uint64_t Begin(const std::string& name, uint64_t trace, uint64_t parent) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, trace, parent, Ns(Clock::now()), 0});
    return spans_.size();
  }

  void End(uint64_t id) {
    if (id == 0) return;
    const uint64_t now = Ns(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  /// Records an already-finished span (imported engine stage spans).
  uint64_t AddFinished(const std::string& name, uint64_t trace, uint64_t parent,
                       uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, trace, parent, start_ns, end_ns});
    return spans_.size();
  }

  uint64_t StartNs(uint64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return id == 0 ? 0 : spans_[id - 1].start_ns;
  }

  /// Self time per span name: each span's duration minus the part of its
  /// interval its children cover.
  std::map<std::string, std::pair<double, size_t>> SelfSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
    }
    std::map<std::string, std::pair<double, size_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<uint64_t, uint64_t>> iv;
      for (size_t c : children[i]) {
        const uint64_t lo = std::max(s.start_ns, spans_[c].start_ns);
        const uint64_t hi = std::min(s.end_ns, spans_[c].end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
      for (const auto& [lo, hi] : iv) {
        if (cur_hi <= lo) {
          covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += cur_hi - cur_lo;
      const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      auto& slot = out[s.name];
      slot.first += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
      slot.second += 1;
    }
    return out;
  }

  bool WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i + 1 << ",\"trace\":" << s.trace
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

  uint64_t Ns(Clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
  }

 private:
  struct Span {
    std::string name;
    uint64_t trace = 0;
    uint64_t parent = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_trace_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t trace,
             uint64_t parent)
      : log_(log), id_(log->Begin(name, trace, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

// ----------------------------------------------------------------- data --

/// The forge table every workload draws from: heavy-tailed and skewed
/// numerics, planted rules over the categorical triplet, and profile-driven
/// cluster structure, so coverage and diversity mean something.
SyntheticTableSpec ForgeSpec(size_t rows, uint64_t seed) {
  SyntheticTableSpec spec;
  spec.name = "forge";
  spec.num_rows = rows;
  spec.chunk_rows = 8192;
  spec.seed = seed;
  auto amount = ColumnDataDistribution::Pareto(1.0, 1.3);
  amount.null_fraction = 0.04;
  spec.columns = {
      SyntheticColumnSpec::Numeric("amount", amount),
      SyntheticColumnSpec::Numeric(
          "score", ColumnDataDistribution::NormalSkewed(50.0, 12.0, 4.0)),
      SyntheticColumnSpec::Numeric(
          "age", ColumnDataDistribution::Uniform(18.0, 90.0, 64), 0.35),
      SyntheticColumnSpec::Categorical(
          "region", ColumnDataDistribution::Uniform(0.0, 1.0, 4)),
      SyntheticColumnSpec::Categorical(
          "device", ColumnDataDistribution::Uniform(0.0, 1.0, 4), 0.5),
      SyntheticColumnSpec::Categorical(
          "outcome", ColumnDataDistribution::Uniform(0.0, 1.0, 4)),
      SyntheticColumnSpec::Categorical(
          "plan", ColumnDataDistribution::Pareto(1.0, 1.1, 6)),
  };
  spec.rules = {
      PlantedRule{{{"region", 1}, {"device", 2}}, {"outcome", 0}, 0.12, 0.9},
      PlantedRule{{{"region", 2}, {"device", 0}}, {"outcome", 3}, 0.08, 0.85},
  };
  spec.num_profiles = 8;
  spec.profile_zipf = 1.1;
  return spec;
}

/// A forge table that a workload draws its tables from: the structure seed
/// fixes the population (profiles, planted rules, marginals), the draw seed
/// which rows each drawn table gets, and draws never share a row, so stream
/// batches are fresh rows of the same distribution as their base.
class Population {
 public:
  Population(size_t rows, uint64_t structure_seed, uint64_t run_seed)
      : table_(workload::GenerateSyntheticTable(ForgeSpec(rows, structure_seed)).table),
        order_(rows) {
    Rng rng(run_seed);
    for (size_t r = 0; r < rows; ++r) order_[r] = r;
    for (size_t r = rows; r > 1; --r) std::swap(order_[r - 1], order_[rng.Uniform(r)]);
  }

  /// The next `rows` unused rows, clustered on `score` as tables ingested
  /// in order of a slowly moving attribute are: chunk zone maps then refute
  /// whole chunks for score bands, so the scan's pruning has work to do.
  Table Draw(size_t rows) {
    SUBTAB_CHECK(next_ + rows <= order_.size());
    std::vector<size_t> rows_taken(order_.begin() + next_, order_.begin() + next_ + rows);
    next_ += rows;
    const Column& score = table_.column("score");
    auto key = [&](size_t r) { return score.is_null(r) ? -1e300 : score.num_value(r); };
    std::stable_sort(rows_taken.begin(), rows_taken.end(),
                     [&](size_t a, size_t b) { return key(a) < key(b); });
    return table_.TakeRows(rows_taken).Rechunked(kChunkRows);
  }

 private:
  Table table_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// One drill-down step: the query and the display seed it is shown with.
struct Step {
  SpQuery query;
  uint64_t seed = 0;
};
using Chain = std::vector<Step>;

/// Quantiles of the numeric columns the chains cut on: bands are set at
/// fractions of the data, not of its range, so scope sizes do not depend on
/// the extremes a sample happened to draw.
class Bands {
 public:
  explicit Bands(const Table& table)
      : score_(Sorted(table, "score")), age_(Sorted(table, "age")) {}
  double Score(double f) const { return At(score_, f); }
  double Age(double f) const { return At(age_, f); }

 private:
  static std::vector<double> Sorted(const Table& table, const char* name) {
    const Column& column = table.column(name);
    std::vector<double> v;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!column.is_null(r)) v.push_back(column.num_value(r));
    }
    std::sort(v.begin(), v.end());
    return v;
  }
  static double At(const std::vector<double>& v, double f) {
    return v[std::min(v.size() - 1, static_cast<size_t>(f * static_cast<double>(v.size())))];
  }
  std::vector<double> score_, age_;
};

/// A narrowing drill-down chain in the style of Smart Drill-Down: a score
/// band, then a region, a tighter band, an age cut and (every other chain)
/// a device. Each step is a conjunctive refinement of the one before, so
/// containment reuse and zone-map pruning see the shape they were built for.
/// The band of chain c follows a fixed low-discrepancy schedule, so the mix
/// of scope sizes is the same for every seed; the seed picks categories.
Chain MakeChain(const Bands& bands, Rng* rng, uint64_t chain_index) {
  const double golden = 0.6180339887498949;
  const double phase = std::fmod(static_cast<double>(chain_index + 1) * golden, 1.0);
  const double lo = 0.05 + 0.30 * phase;
  Chain chain;
  SpQuery q;
  q.filters = {Predicate::Num("score", CmpOp::kGe, bands.Score(lo))};
  chain.push_back({q, 0});
  q.filters.push_back(Predicate::Str("region", CmpOp::kEq,
                                     workload::CategoryOfIndex(rng->Uniform(4))));
  chain.push_back({q, 0});
  q.filters[0] = Predicate::Num("score", CmpOp::kGe, bands.Score(lo + 0.1));
  chain.push_back({q, 0});
  q.filters.push_back(Predicate::Num("age", CmpOp::kLe, bands.Age(0.85)));
  chain.push_back({q, 0});
  if (chain_index % 2 == 0) {
    q.filters.push_back(Predicate::Str(
        "device", CmpOp::kEq, workload::CategoryOfIndex(rng->Uniform(4))));
    chain.push_back({q, 0});
  }
  return chain;
}

/// Chains whose steps together hold exactly `displays` steps, each with a
/// display seed unique within the run (so no two displays share a cache or
/// dedup key).
std::vector<Chain> MakeChains(const Table& table, size_t displays, uint64_t seed) {
  const Bands bands(table);
  Rng rng(seed);
  std::vector<Chain> chains;
  size_t total = 0;
  for (uint64_t c = 0; total < displays; ++c) {
    Chain chain = MakeChain(bands, &rng, c);
    if (chain.size() > displays - total) chain.resize(displays - total);
    for (Step& step : chain) step.seed = Mix(seed, total++);
    chains.push_back(std::move(chain));
  }
  return chains;
}

SubTabConfig Config(uint64_t seed) {
  SubTabConfig config;
  config.k = kK;
  config.l = kL;
  config.embedding.dim = 32;
  config.embedding.epochs = 3;
  config.embedding.num_threads = 1;
  config.seed = seed;
  return config;
}

SelectionSamplingOptions Sampling() {
  const EngineOptions defaults;
  SelectionSamplingOptions sampling;
  sampling.min_rows = defaults.sampled_selection_min_rows;
  sampling.sample_rows = defaults.selection_sample_rows;
  return sampling;
}

// ------------------------------------------------------------------ run --

/// One served display kept for the post-run checks: a key naming the model
/// that served it (the table id, or the stream version) and what came back.
/// Only the key is kept, so the checks hold no model alive during the run
/// that the program itself would have dropped; the workload maps keys to
/// models after the timed phases (Run::check_models).
struct Served {
  std::string model_key;
  SpQuery query;
  uint64_t seed = 0;
  std::shared_ptr<const SubTabView> view;
};

/// Receives one (model key, model) pair of the post-run checks.
using ModelSink =
    std::function<void(const std::string& key, std::shared_ptr<const SubTab> model)>;

/// Per-request engine attribution gathered from trace_explain.
struct EngineTraceSample {
  double queue_ms = 0.0;
  double scan_ms = -1.0;
  double select_ms = -1.0;
  uint64_t rows_visited = 0;
  uint64_t table_rows = 0;
};

struct Run {
  explicit Run(const Args& a) : args(a), spans(a.trace) {}

  Args args;
  SpanLog spans;
  uint64_t root_span = 0;

  std::vector<double> setup_s;
  std::vector<double> first_display_s;
  std::vector<double> reopen_display_s;
  std::vector<double> display_ms;  // Main-phase displays.
  double display_wall_s = 0.0;
  std::vector<double> append_ms;

  std::mutex mu;  // Guards the vectors below (shared_drilldown's analysts).
  std::vector<Served> served;
  std::map<uint64_t, EngineTraceSample> engine_traces;  // By engine trace id.
  uint64_t displays_attempted = 0;
  uint64_t displays_ok = 0;
  uint64_t other_attempted = 0;
  uint64_t other_failed = 0;
  std::vector<std::string> errors;

  // Per-layer samples (trace mode).
  std::map<std::string, std::vector<double>> layer;

  // Set by the workload: hands the model of every served key to the sink,
  // one at a time, after the timed phases and the peak-RSS reading.
  std::function<void(const ModelSink&)> check_models;

  void Error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 20) errors.push_back(what);
  }
  void Other(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++other_attempted;
    if (!ok) {
      ++other_failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
  void Layer(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu);
    layer[name].push_back(value);
  }
};

EngineOptions MakeEngineOptions(const Run& run, const std::string& persist_dir) {
  EngineOptions options;
  options.num_threads = kEngineWorkers;
  options.scan_threads = 1;
  options.persist_dir = persist_dir;
  options.tracing = run.args.trace;
  return options;
}

/// Submits one display, waits for it, and records latency, outcome and (in
/// trace mode) the engine's stage spans. The view is checked against the
/// model of `model_key` (default: the table id). Returns the latency in ms.
double Display(Run& run, ServingEngine& engine, const std::string& table_id,
               const Step& step, uint64_t parent_span,
               const std::string& model_key = "") {
  SelectRequest request;
  request.table_id = table_id;
  request.query = step.query;
  request.k = kK;
  request.l = kL;
  request.seed = step.seed;
  request.trace_explain = run.args.trace;

  const uint64_t trace = run.spans.NewTrace();
  ScopedSpan span(&run.spans, "display", trace, parent_span);
  const Clock::time_point start = Clock::now();
  SelectResponse response = engine.SubmitSelect(request).get();
  const double ms = Seconds(start, Clock::now()) * 1e3;

  std::lock_guard<std::mutex> lock(run.mu);
  ++run.displays_attempted;
  if (!response.status.ok() || !response.view) {
    if (run.errors.size() < 20) {
      run.errors.push_back("display on " + table_id + " failed: " +
                           response.status.ToString());
    }
    return ms;
  }
  ++run.displays_ok;
  run.served.push_back(
      Served{model_key.empty() ? table_id : model_key, step.query, step.seed, response.view});
  if (response.trace && !response.trace->spans.empty()) {
    const CompletedTrace& done = *response.trace;
    const uint64_t base = run.spans.StartNs(span.id());
    const bool fresh = run.engine_traces.count(done.trace_id) == 0;
    EngineTraceSample sample;
    uint64_t engine_root = 0;
    for (size_t i = 0; i < done.spans.size(); ++i) {
      const TraceSpan& s = done.spans[i];
      std::string name = "service.request";
      if (i > 0) {
        if (s.name == "queue.scan" || s.name == "queue.select") {
          name = "service.queue";
          sample.queue_ms += s.duration_ns * 1e-6;
        } else if (s.name == "scan") {
          name = "table.scan";
          sample.scan_ms = s.duration_ns * 1e-6;
          if (const std::string* v = s.FindAttr("rows_visited")) {
            sample.rows_visited = std::strtoull(v->c_str(), nullptr, 10);
          }
          if (const std::string* v = s.FindAttr("table_rows")) {
            sample.table_rows = std::strtoull(v->c_str(), nullptr, 10);
          }
        } else if (s.name == "select") {
          name = "core.select";
          sample.select_ms = s.duration_ns * 1e-6;
        } else {
          name = "service." + s.name;
        }
      }
      // Coalesced waiters share the initiating request's trace: import it
      // once, under the display that started the computation.
      if (fresh) {
        const uint64_t id = run.spans.AddFinished(
            name, trace, i == 0 ? span.id() : engine_root, base + s.start_ns,
            base + s.start_ns + s.duration_ns);
        if (i == 0) engine_root = id;
      }
    }
    if (fresh) run.engine_traces[done.trace_id] = sample;
  }
  return ms;
}

/// Registers a table (fit, or load from persist_dir) and shows its first
/// display: the time a user waits to see a table they just opened.
double OpenTable(Run& run, ServingEngine& engine, const std::string& table_id,
                 const Table& table, uint64_t config_seed, uint64_t display_seed) {
  const uint64_t trace = run.spans.NewTrace();
  ScopedSpan open(&run.spans, "open", trace, run.root_span);
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan reg(&run.spans, "service.register", trace, open.id());
    const Status status = engine.RegisterTable(table_id, table, Config(config_seed));
    run.Other(status.ok(), "register " + table_id + ": " + status.ToString());
  }
  Display(run, engine, table_id, Step{SpQuery{}, display_seed}, open.id());
  return Seconds(start, Clock::now());
}

/// Registry-hit registration cost: the table is already resident, so this
/// is fingerprinting plus lookup (trace mode only).
void TimeRegistryHits(Run& run, ServingEngine& engine, const Table& table,
                      uint64_t config_seed, int repeats) {
  if (!run.args.trace) return;
  for (int i = 0; i < repeats; ++i) {
    const std::string id = "hit-" + std::to_string(i);
    ScopedSpan span(&run.spans, "service.register", run.spans.NewTrace(),
                    run.root_span);
    const Clock::time_point start = Clock::now();
    const Status status = engine.RegisterTable(id, table, Config(config_seed));
    run.Layer("service.register_ms", Seconds(start, Clock::now()) * 1e3);
    run.Other(status.ok(), "registry-hit register: " + status.ToString());
  }
}

/// Re-times the fit path layer by layer on `table` with the engine's config
/// (bin -> corpus -> SGNS), then rule mining and the artifact round trip.
void RetimeFit(Run& run, const Table& table, uint64_t config_seed,
               const std::string& artifact_path) {
  if (!run.args.trace) return;
  const SubTabConfig config = Config(config_seed);
  const uint64_t trace = run.spans.NewTrace();
  ScopedSpan fit(&run.spans, "fit", trace, run.root_span);
  auto timed = [&](const char* span_name, auto&& fn) {
    ScopedSpan span(&run.spans, span_name, trace, fit.id());
    const Clock::time_point start = Clock::now();
    fn();
    return Seconds(start, Clock::now());
  };

  std::unique_ptr<BinnedTable> binned;
  const double bin_s = timed("binning.compute", [&] {
    binned = std::make_unique<BinnedTable>(BinnedTable::Compute(table, config.binning));
  });
  std::unique_ptr<Corpus> corpus;
  const double corpus_s = timed("embed.corpus", [&] {
    Rng rng(config.seed);
    corpus = std::make_unique<Corpus>(Corpus::Build(*binned, config.corpus, &rng));
  });
  Word2VecModel model;
  Word2VecOptions w2v = config.embedding;
  w2v.seed = config.seed;
  const double train_s = timed("embed.train", [&] { model = Word2VecModel::Train(*corpus, w2v); });
  const double tokens = static_cast<double>(corpus->total_words());
  run.Layer("binning.compute_s", bin_s);
  run.Layer("embed.corpus_s", corpus_s);
  run.Layer("embed.corpus_tokens", tokens);
  run.Layer("embed.train_s", train_s);
  run.Layer("embed.train_ns_per_token",
            train_s * 1e9 / (tokens * static_cast<double>(w2v.epochs)));

  PreprocessTimings timings;
  timings.binning_seconds = bin_s;
  timings.corpus_seconds = corpus_s;
  timings.training_seconds = train_s;
  PreprocessedTable pre(std::move(*binned), std::move(model), timings);

  size_t rule_count = 0;
  const double mine_s = timed("rules.mine", [&] {
    rule_count = MineRules(pre.binned(), RuleMiningOptions{}).size();
  });
  run.Layer("rules.mine_ms", mine_s * 1e3);
  run.Layer("rules.count", static_cast<double>(rule_count));

  Status saved;
  const double save_s = timed("core.model_save", [&] { saved = SaveModel(pre, table, artifact_path); });
  run.Other(saved.ok(), "SaveModel: " + saved.ToString());
  bool loaded = false;
  const double load_s = timed("core.model_load", [&] {
    loaded = LoadModel(table, artifact_path).ok();
  });
  run.Other(loaded, "LoadModel failed");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(artifact_path, ec);
  run.Layer("core.model_save_ms", save_s * 1e3);
  run.Layer("core.model_load_ms", load_s * 1e3);
  run.Layer("core.artifact_bytes", ec ? 0.0 : static_cast<double>(bytes));
  std::filesystem::remove(artifact_path, ec);
}

/// Engine counters of the main phase, as per-layer ratios (trace mode).
void RecordEngineCounters(Run& run, const ServingEngine& engine) {
  if (!run.args.trace) return;
  const service::EngineStats stats = engine.Stats();
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double submitted = static_cast<double>(stats.requests_submitted);
  run.Layer("service.cache_hit_frac",
            frac(static_cast<double>(stats.selection_cache.hits), submitted));
  run.Layer("service.coalesced_frac",
            frac(static_cast<double>(stats.requests_coalesced), submitted));
  run.Layer("service.containment_hit_frac",
            frac(static_cast<double>(stats.containment.containment_hits),
                 static_cast<double>(stats.containment.containment_hits +
                                     stats.containment.containment_misses)));
  run.Layer("table.chunks_pruned_frac",
            frac(static_cast<double>(stats.scan.chunks_pruned),
                 static_cast<double>(stats.scan.chunks_pruned + stats.scan.chunks_scanned)));
  run.Layer("core.sampled_frac",
            frac(static_cast<double>(stats.selection.sampled),
                 static_cast<double>(stats.selection.sampled + stats.selection.exact)));
  run.Layer("core.quality_checks", static_cast<double>(stats.selection.quality_checks));
  run.Layer("core.quality_fallbacks",
            static_cast<double>(stats.selection.quality_fallbacks));
}

// --------------------------------------------------------------- ingest --

/// The stream every workload ingests: `appends` batches of `batch` rows on
/// a `base`-row table, with inline refresh. The policy thresholds are set
/// from the sizes so the refresh actions are a fixed pattern: every
/// `train_every`-th append runs incremental SGNS epochs, the last one a full
/// refit, and the rest fold in. With `train_every` above 1 most appends fold
/// in, so the median sits inside the fold-in mode and the tail (10 samples
/// beyond it) inside the training mode, never on the boundary between them;
/// with 1 every append trains.
struct IngestPlan {
  size_t base_rows = 0;
  size_t batch_rows = 0;
  size_t appends = 0;
  size_t displays_per_append = 0;
  size_t train_every = 3;
};

StreamSessionOptions StreamOptions(const IngestPlan& plan, uint64_t config_seed) {
  StreamSessionOptions options;
  options.config = Config(config_seed);
  const double b = static_cast<double>(plan.batch_rows);
  const double base = static_cast<double>(plan.base_rows);
  options.policy.incremental_threshold = (static_cast<double>(plan.train_every) - 0.5) * b / base;
  options.policy.staleness_budget = (static_cast<double>(plan.appends) - 0.5) * b / base;
  options.background_refresh = false;
  return options;
}

struct IngestInputs {
  Table base;
  std::vector<Table> batches;
  std::vector<Chain> chains;  // Display steps after each append.
};

IngestInputs MakeIngestInputs(const IngestPlan& plan, uint64_t structure_seed,
                              uint64_t draw_seed, uint64_t seed = 0) {
  IngestInputs in;
  Population population(2 * (plan.base_rows + plan.appends * plan.batch_rows),
                        structure_seed, draw_seed);
  in.base = population.Draw(plan.base_rows);
  for (size_t i = 0; i < plan.appends; ++i) {
    in.batches.push_back(population.Draw(plan.batch_rows));
  }
  // After each append, narrow drill-down steps (scopes under the sampling
  // threshold, so exact). After every third append the first display is the
  // whole table instead: sampled, so the new version pays the quality
  // gate's exact re-run. That is a fixed 1 in 9 of the displays, so the
  // display tail sits inside the gated mode and the median far from it.
  if (plan.displays_per_append > 0) {
    const Bands bands(in.base);
    Rng rng(Mix(seed, 77));
    for (size_t i = 0; i < plan.appends; ++i) {
      const Chain chain = MakeChain(bands, &rng, 2 * i);  // Five steps.
      Chain shown(chain.begin() + 2, chain.begin() + 2 + plan.displays_per_append);
      if (i % 3 == 1) shown.front() = Step{SpQuery{}, 0};
      for (size_t s = 0; s < shown.size(); ++s) shown[s].seed = Mix(seed, 5000 + i * 16 + s);
      in.chains.push_back(std::move(shown));
    }
  }
  return in;
}

/// Binds `session` under `table_id` and shows the first display.
double OpenStream(Run& run, ServingEngine& engine, const std::string& table_id,
                  const Table& base, const StreamSessionOptions& options,
                  uint64_t display_seed, const std::string& model_key,
                  std::shared_ptr<StreamSession>* out) {
  const uint64_t trace = run.spans.NewTrace();
  ScopedSpan open(&run.spans, "open", trace, run.root_span);
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(&run.spans, "stream.open", trace, open.id());
    auto session = StreamSession::Open(base, options);
    run.Other(session.ok(), "StreamSession::Open: " + session.status().ToString());
    if (!session.ok()) return Seconds(start, Clock::now());
    *out = *session;
  }
  {
    ScopedSpan span(&run.spans, "service.register", trace, open.id());
    const Status status = engine.RegisterStream(table_id, *out);
    run.Other(status.ok(), "RegisterStream: " + status.ToString());
  }
  Display(run, engine, table_id, Step{SpQuery{}, display_seed}, open.id(), model_key);
  return Seconds(start, Clock::now());
}

/// The check key of a stream's version `version` (0 = the base).
std::string VersionKey(const std::string& table_id, size_t version) {
  return table_id + "@" + std::to_string(version);
}

/// Drives one stream's appends through the engine one at a time, so a
/// workload can spread them over its run. After each append the planned
/// displays of the new version are shown.
class Ingestor {
 public:
  Ingestor(Run& run, ServingEngine& engine, std::string table_id,
           const IngestInputs& in)
      : run_(run), engine_(engine), table_id_(std::move(table_id)), in_(in) {}

  size_t done() const { return next_; }
  size_t total() const { return in_.batches.size(); }

  /// Appends the next batch and shows its displays (recorded as main-phase
  /// displays when `main_phase`). Returns the wall time of the displays.
  double Next(bool main_phase) {
    const size_t i = next_++;
    {
      ScopedSpan span(&run_.spans, "stream.append", run_.spans.NewTrace(), run_.root_span);
      const Clock::time_point start = Clock::now();
      auto event = engine_.Append(table_id_, in_.batches[i]);
      const double ms = Seconds(start, Clock::now()) * 1e3;
      run_.append_ms.push_back(ms);
      run_.Other(event.ok(), "Append: " + event.status().ToString());
      if (event.ok()) {
        (event->action == RefreshAction::kFoldIn        ? fold_in_
         : event->action == RefreshAction::kIncremental ? incremental_
                                                        : refit_)
            .push_back(ms);
      }
    }
    if (i >= in_.chains.size()) return 0.0;
    const Clock::time_point start = Clock::now();
    for (const Step& step : in_.chains[i]) {
      const double ms =
          Display(run_, engine_, table_id_, step, run_.root_span, VersionKey(table_id_, i + 1));
      if (main_phase) run_.display_ms.push_back(ms);
    }
    return Seconds(start, Clock::now());
  }

  /// Records the refresh actions' costs as per-layer metrics.
  void Finish() {
    if (!run_.args.trace) return;
    run_.Layer("stream.fold_in_ms", Median(fold_in_));
    run_.Layer("stream.incremental_ms", Median(incremental_));
    run_.Layer("stream.refit_s", Median(refit_) * 1e-3);
    run_.Layer("stream.incrementals", static_cast<double>(incremental_.size()));
    run_.Layer("stream.refits", static_cast<double>(refit_.size()));
  }

 private:
  Run& run_;
  ServingEngine& engine_;
  const std::string table_id_;
  const IngestInputs& in_;
  size_t next_ = 0;
  std::vector<double> fold_in_, incremental_, refit_;
};

/// The side stream of the non-stream workloads: display-free, its appends
/// spread over the run between the workload's own displays, one at a time
/// where the workload allows. Every append trains (incremental SGNS; the
/// last one a full refit), so both append metrics sit inside one mode of
/// compute-bound work: folded-in appends (0.1-0.3 ms, mostly copying)
/// moved with the machine's memory speed. Appends run back to back take
/// the same time to within a few percent, while slices at different points
/// of a run differ by up to 1.7x, so many small slices sample the run
/// better than a few large ones.
constexpr IngestPlan kSideIngest{8000, 50, 80, 0, 1};

/// Opens the side stream and binds it as "side"; false on failure.
bool OpenSideStream(Run& run, ServingEngine& engine, const IngestInputs& in) {
  const StreamSessionOptions options = StreamOptions(kSideIngest, kDataSeed);
  std::shared_ptr<StreamSession> session;
  {
    ScopedSpan span(&run.spans, "stream.open", run.spans.NewTrace(), run.root_span);
    auto opened = StreamSession::Open(in.base, options);
    run.Other(opened.ok(), "side StreamSession::Open: " + opened.status().ToString());
    if (!opened.ok()) return false;
    session = *opened;
  }
  const Status status = engine.RegisterStream("side", session);
  run.Other(status.ok(), "side RegisterStream: " + status.ToString());
  return status.ok();
}

/// Whether the `done`-th of `total` events is due after step `step` of
/// `steps`: spreads events evenly over a loop.
bool Due(size_t done, size_t total, size_t step, size_t steps) {
  return done < total && done < (step + 1) * total / steps;
}

// ------------------------------------------------------------ workloads --

std::filesystem::path PersistDir(const Run& run) {
  return std::filesystem::path(run.args.state_dir) / "models";
}

/// Times the generation of the workload's inputs. setup_s is the median of
/// kSetupRepeats timings: Generate makes the inputs the run uses, and Spread
/// times the same generation again (its result dropped) at points spread
/// over the run. The machine's speed drifts over seconds, so back-to-back
/// repeats at the start would all sample the same moment; spread out, the
/// median samples the whole run, as the other metrics do.
template <typename T>
class Setup {
 public:
  Setup(Run& run, std::function<T()> generate)
      : run_(run), generate_(std::move(generate)) {}

  T Generate() {
    T out{};
    Time([&] { out = generate_(); });
    return out;
  }

  /// Called after each of the `steps` steps of the workload's main loop.
  void Spread(size_t step, size_t steps) {
    while (Due(run_.setup_s.size() - 1, kSetupRepeats - 1, step, steps)) {
      Time([&] { generate_(); });
    }
  }

 private:
  template <typename F>
  void Time(F&& fn) {
    ScopedSpan span(&run_.spans, "workload.gen", run_.spans.NewTrace(), run_.root_span);
    const Clock::time_point start = Clock::now();
    fn();
    const double s = Seconds(start, Clock::now());
    run_.setup_s.push_back(s);
    if (run_.args.trace) run_.Layer("workload.gen_s", s);
  }

  Run& run_;
  const std::function<T()> generate_;
};

/// The post-run check models of a workload whose views all come from tables
/// its engine still holds. Views shown after a restart are checked against
/// the same model: the reopen loads the artifact saved from it, bit for bit.
std::function<void(const ModelSink&)> ResidentModels(const ServingEngine& engine,
                                                     const std::vector<std::string>& ids) {
  std::vector<std::pair<std::string, std::shared_ptr<const SubTab>>> models;
  for (const std::string& id : ids) models.emplace_back(id, engine.GetModel(id));
  return [models](const ModelSink& sink) {
    for (const auto& [id, model] : models) sink(id, model);
  };
}

/// One more cold open of `table`: a fresh engine with no persist_dir fits
/// it again (the fit is deterministic, so the views match the resident
/// model) and shows its first display. A single fit per run would leave
/// first_display_s at the mercy of the machine's speed in one two-second
/// window, so shared_drilldown and stream_ingest open their table kOpens
/// times, spread over the run, and report the mean.
void OpenAgain(Run& run, const std::string& table_id, const Table& table,
               uint64_t config_seed, uint64_t display_seed) {
  ServingEngine engine(MakeEngineOptions(run, ""));
  run.first_display_s.push_back(
      OpenTable(run, engine, table_id, table, config_seed, display_seed));
  run.Other(engine.Stats().registry.fits == 1, "cold open of " + table_id + " did not fit");
}

constexpr size_t kOpens = 5;

/// One restart: a fresh engine on the same persist_dir registers `table`,
/// which must load from disk rather than refit, and shows its first
/// display. Fresh engines are built while the workload's engine is still up,
/// so restarts can be spread over the run like every other sample.
void ReopenOnce(Run& run, const std::string& table_id, const Table& table,
                uint64_t config_seed, uint64_t display_seed) {
  ServingEngine engine(MakeEngineOptions(run, PersistDir(run).string()));
  run.reopen_display_s.push_back(
      OpenTable(run, engine, table_id, table, config_seed, display_seed));
  const service::EngineStats stats = engine.Stats();
  run.Other(stats.registry.fits == 0 && stats.registry.loads == 1,
            "reopen of " + table_id + " refit instead of loading from persist_dir");
}

std::string RetimePath(const Run& run) {
  return (std::filesystem::path(run.args.state_dir) / "retime.stm").string();
}

struct ColdInputs {
  std::vector<Table> tables;
  std::vector<std::vector<Chain>> chains;
  IngestInputs side;
};

/// cold_open: analysts open several new tables (distinct populations); each
/// gets a first display and a short drill-down with the side stream's
/// appends spread between its displays, and then three restarts that reopen
/// it from persist_dir.
void RunColdOpen(Run& run) {
  const size_t num_tables = std::max<size_t>(3, static_cast<size_t>(run.args.seconds) * 6 / 10);
  constexpr size_t kRows = 12000;
  constexpr size_t kDisplaysPerTable = 20;
  const uint64_t seed = run.args.seed;
  std::vector<uint64_t> table_seeds;
  for (size_t i = 0; i < num_tables; ++i) table_seeds.push_back(Mix(kDataSeed, 10 + i));

  Setup<ColdInputs> setup(run, [&] {
    ColdInputs c;
    for (size_t i = 0; i < num_tables; ++i) {
      c.tables.push_back(Population(2 * kRows, kColdStructure + i, table_seeds[i]).Draw(kRows));
      c.chains.push_back(MakeChains(c.tables.back(), kDisplaysPerTable, Mix(seed, 30 + i)));
    }
    c.side = MakeIngestInputs(kSideIngest, kSideStructure, Mix(kDataSeed, 4));
    return c;
  });
  const ColdInputs in = setup.Generate();

  ServingEngine engine(MakeEngineOptions(run, PersistDir(run).string()));
  if (!OpenSideStream(run, engine, in.side)) return;
  Ingestor side(run, engine, "side", in.side);
  std::vector<std::string> ids;
  const size_t steps = num_tables * kDisplaysPerTable;
  for (size_t i = 0; i < num_tables; ++i) {
    const std::string id = "cold-" + std::to_string(i);
    ids.push_back(id);
    run.first_display_s.push_back(
        OpenTable(run, engine, id, in.tables[i], table_seeds[i], FirstSeed(i)));
    size_t step_index = i * kDisplaysPerTable;
    for (const Chain& chain : in.chains[i]) {
      for (const Step& step : chain) {
        const Clock::time_point start = Clock::now();
        run.display_ms.push_back(Display(run, engine, id, step, run.root_span));
        run.display_wall_s += Seconds(start, Clock::now());
        while (Due(side.done(), side.total(), step_index++, steps)) side.Next(false);
      }
    }
    for (size_t r = 0; r < 3; ++r) {
      ReopenOnce(run, id, in.tables[i], table_seeds[i], FirstSeed(i));
    }
    setup.Spread(i, num_tables);
  }
  side.Finish();
  run.check_models = ResidentModels(engine, ids);
  RecordEngineCounters(run, engine);
  TimeRegistryHits(run, engine, in.tables[0], table_seeds[0], 5);
  for (size_t i = 0; i < num_tables; ++i) {
    RetimeFit(run, in.tables[i], table_seeds[i], RetimePath(run));
  }
}

constexpr size_t kWarmRows = 12000;

/// shared_drilldown: four closed-loop analysts on two workers, each walking
/// sessions drawn in a fixed order from one Zipf-popular pool. Popular
/// sessions repeat, so the selection cache, in-flight dedup and containment
/// reuse all engage, under queueing. The pool is sized so about 30% of
/// displays are served from shared work: the median sits among the computed
/// displays, far from the hit/miss boundary. The analysts run in 16 rounds;
/// between rounds a slice of the side stream's appends, one restart and
/// (between some rounds) one more cold open of the table run alone, so they
/// neither contend with the analysts nor cluster in time.
void RunSharedDrilldown(Run& run) {
  constexpr size_t kAnalysts = 4;
  constexpr double kZipf = 0.9;
  constexpr size_t rounds = 16;
  const size_t displays = static_cast<size_t>(run.args.seconds) * 40;
  const size_t pool_sessions = displays * 2 / 3;
  const uint64_t seed = run.args.seed;
  const uint64_t config_seed = Mix(kDataSeed, 20);

  struct Inputs {
    Table table;
    IngestInputs side;
    // Per round, per analyst: the steps it walks in order.
    std::vector<std::vector<std::vector<Step>>> steps;
  };
  // The pool's chains come from MakeChains (unique seeds per step). The
  // analysts' order is one fixed Zipf draw over pool ranks, the same for
  // every seed, so the share of repeated sessions does not move with it.
  Setup<Inputs> setup(run, [&] {
    Inputs s;
    s.table = Population(2 * kWarmRows, kWarmStructure, Mix(kDataSeed, 20)).Draw(kWarmRows);
    s.side = MakeIngestInputs(kSideIngest, kSideStructure, Mix(kDataSeed, 4));
    const std::vector<Chain> pool = MakeChains(s.table, pool_sessions * 5, Mix(seed, 22));
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t r = 0; r < pool.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
      cdf.push_back(total);
    }
    Rng rng(kPickSeed);
    s.steps.assign(rounds, std::vector<std::vector<Step>>(kAnalysts));
    const size_t per_round = displays / rounds;
    for (size_t round = 0; round < rounds; ++round) {
      for (size_t i = 0, a = 0; i < per_round; a = (a + 1) % kAnalysts) {
        const double u = rng.UniformDouble() * total;
        const size_t pick = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        for (const Step& step : pool[std::min(pick, pool.size() - 1)]) {
          if (i == per_round) break;
          s.steps[round][a].push_back(step);
          ++i;
        }
      }
    }
    return s;
  });
  const Inputs in = setup.Generate();

  ServingEngine engine(MakeEngineOptions(run, PersistDir(run).string()));
  run.first_display_s.push_back(
      OpenTable(run, engine, "warm", in.table, config_seed, FirstSeed(0)));
  if (!OpenSideStream(run, engine, in.side)) return;
  Ingestor side(run, engine, "side", in.side);
  size_t opens = 1;
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::vector<double>> latencies(kAnalysts);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> analysts;
    for (size_t a = 0; a < kAnalysts; ++a) {
      analysts.emplace_back([&, a] {
        for (const Step& step : in.steps[round][a]) {
          latencies[a].push_back(Display(run, engine, "warm", step, run.root_span));
        }
      });
    }
    for (std::thread& t : analysts) t.join();
    run.display_wall_s += Seconds(start, Clock::now());
    for (const auto& l : latencies) run.display_ms.insert(run.display_ms.end(), l.begin(), l.end());
    while (Due(side.done(), side.total(), round, rounds)) side.Next(false);
    ReopenOnce(run, "warm", in.table, config_seed, FirstSeed(0));
    while (Due(opens - 1, kOpens - 1, round, rounds)) {
      ++opens;
      OpenAgain(run, "warm", in.table, config_seed, FirstSeed(0));
    }
    setup.Spread(round, rounds);
  }
  side.Finish();
  run.check_models = ResidentModels(engine, {"warm"});
  RecordEngineCounters(run, engine);
  TimeRegistryHits(run, engine, in.table, config_seed, 5);
  RetimeFit(run, in.table, config_seed, RetimePath(run));
}

/// One restart of the stream: a fresh engine on the same persist_dir opens
/// it again from `content` and shows its first display. Streams are not
/// persisted, so the reopen refits.
void ReopenStream(Run& run, const Table& content, const StreamSessionOptions& options,
                  uint64_t display_seed) {
  ServingEngine engine(MakeEngineOptions(run, PersistDir(run).string()));
  std::shared_ptr<StreamSession> session;
  run.reopen_display_s.push_back(OpenStream(run, engine, "stream", content, options,
                                            display_seed, "reopen", &session));
}

/// stream_ingest: writes beside reads. One client alternates an Append with
/// a few drill-down displays on the version it published; every publication
/// invalidates the cache and every third new version pays the quality
/// check. Five restarts are spread over the run, and each reopens the same
/// snapshot, the stream's content at the first restart: the growing content
/// would give each restart a different amount of work. Four more cold
/// opens of the base are spread over the run for first_display_s, as on
/// shared_drilldown.
void RunStreamIngest(Run& run) {
  constexpr size_t kRestarts = 5;
  const IngestPlan plan{10000, 80, static_cast<size_t>(run.args.seconds) * 54 / 10, 3};
  const uint64_t config_seed = Mix(kDataSeed, 30);
  Setup<IngestInputs> setup(
      run, [&] { return MakeIngestInputs(plan, kStreamStructure, Mix(kDataSeed, 31), run.args.seed); });
  const auto in = std::make_shared<const IngestInputs>(setup.Generate());
  const StreamSessionOptions options = StreamOptions(plan, config_seed);
  Table snapshot = in->base;
  for (size_t i = 0; i < plan.appends / kRestarts; ++i) {
    Result<Table> grown = snapshot.AppendRows(in->batches[i]);
    SUBTAB_CHECK(grown.ok());
    snapshot = std::move(*grown);
  }

  {
    ServingEngine engine(MakeEngineOptions(run, PersistDir(run).string()));
    std::shared_ptr<StreamSession> session;
    run.first_display_s.push_back(OpenStream(run, engine, "stream", in->base, options,
                                             FirstSeed(0), VersionKey("stream", 0),
                                             &session));
    if (!session) return;
    Ingestor ingest(run, engine, "stream", *in);
    size_t restarts = 0, opens = 1;
    while (ingest.done() < ingest.total()) {
      run.display_wall_s += ingest.Next(true);
      const size_t step = ingest.done() - 1;
      while (Due(restarts, kRestarts, step, ingest.total())) {
        ++restarts;
        ReopenStream(run, snapshot, options, FirstSeed(0));
      }
      // More cold opens of the base, as on shared_drilldown (OpenAgain).
      while (Due(opens - 1, kOpens - 1, step, ingest.total())) {
        ++opens;
        ServingEngine fresh(MakeEngineOptions(run, ""));
        std::shared_ptr<StreamSession> again;
        run.first_display_s.push_back(OpenStream(run, fresh, "stream", in->base, options,
                                                 FirstSeed(0),
                                                 VersionKey("stream", 0), &again));
      }
      setup.Spread(step, ingest.total());
    }
    ingest.Finish();
    RecordEngineCounters(run, engine);
    if (run.args.trace) {
      for (int i = 0; i < 5; ++i) {
        ScopedSpan span(&run.spans, "service.register", run.spans.NewTrace(), run.root_span);
        const Clock::time_point start = Clock::now();
        const Status status = engine.RegisterStream("hit-" + std::to_string(i), session);
        run.Layer("service.register_ms", Seconds(start, Clock::now()) * 1e3);
        run.Other(status.ok(), "RegisterStream: " + status.ToString());
      }
    }
  }
  RetimeFit(run, in->base, config_seed, RetimePath(run));

  // No version is kept through the run: the checks replay the stream (inline
  // refresh with one SGNS thread is deterministic) and refit the restarts'
  // snapshot, and see each model once, after the timed phases.
  run.check_models = [in, options, snapshot](const ModelSink& sink) {
    {
      auto session = StreamSession::Open(in->base, options);
      if (!session.ok()) return;
      sink(VersionKey("stream", 0), (*session)->model());
      for (size_t i = 0; i < in->batches.size(); ++i) {
        if (!(*session)->Append(in->batches[i]).ok()) return;
        sink(VersionKey("stream", i + 1), (*session)->model());
      }
    }
    auto reopened = StreamSession::Open(snapshot, options);
    if (reopened.ok()) sink("reopen", (*reopened)->model());
  };
}

// -------------------------------------------------------------- checks --

bool SameView(const SubTabView& a, const SubTabView& b) {
  return a.row_ids == b.row_ids && a.col_ids == b.col_ids && a.sampled == b.sampled &&
         a.sample_rows == b.sample_rows;
}

/// Checks one served view against `model`; returns what is wrong, or "".
/// The view must be k x l (fewer rows only when the scope has fewer) with
/// ascending in-range ids, and bit-identical to the facade's serial path
/// with the engine's sampling options — or, where the quality gate fell
/// back, to the exact path.
std::string CheckView(const SubTab& model, const Served& s) {
  const SubTabView& view = *s.view;
  Result<SelectionScope> scope = model.ResolveScope(s.query, QueryExecOptions{});
  if (!scope.ok()) return "serial ResolveScope failed: " + scope.status().ToString();
  const size_t rows = model.table().num_rows();
  const size_t cols = model.table().num_columns();
  const size_t scope_rows = scope->rows.empty() ? rows : scope->rows.size();
  const size_t scope_cols = scope->cols.empty() ? cols : scope->cols.size();
  auto strictly_ascending = [](const std::vector<size_t>& ids, size_t limit) {
    for (size_t j = 0; j < ids.size(); ++j) {
      if (ids[j] >= limit || (j > 0 && ids[j] <= ids[j - 1])) return false;
    }
    return true;
  };
  const bool shape_ok = view.row_ids.size() == std::min(kK, scope_rows) &&
                        view.col_ids.size() == std::min(kL, scope_cols) &&
                        view.table.num_rows() == view.row_ids.size() &&
                        view.table.num_columns() == view.col_ids.size() &&
                        strictly_ascending(view.row_ids, rows) &&
                        strictly_ascending(view.col_ids, cols);
  if (!shape_ok) return "wrong shape or out-of-range ids for " + s.query.ToString();
  const SubTabView serial = model.SelectScoped(*scope, kK, kL, s.seed, Sampling());
  bool same = SameView(serial, view);
  if (!same && serial.sampled && !view.sampled) {
    same = SameView(model.SelectScoped(*scope, kK, kL, s.seed), view);
  }
  if (!same) return "served view differs from the serial path for " + s.query.ToString();
  return "";
}

/// Checks every served view (CheckView) against the model of its key, and
/// scores it with Eq. 3 against rules mined over that model's binned table.
/// Runs after the timed phases; each model's views are checked on as many
/// threads as there are cores. A view whose key gets no model fails.
double CheckAndScore(Run& run) {
  std::map<std::string, std::vector<size_t>> by_key;
  for (size_t i = 0; i < run.served.size(); ++i) by_key[run.served[i].model_key].push_back(i);
  std::vector<double> quality(run.served.size(), 0.0);
  std::vector<std::string> failure(run.served.size(), "no model to check the view against");

  const size_t threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  auto check = [&](const std::string& key, std::shared_ptr<const SubTab> model) {
    const auto it = by_key.find(key);
    if (it == by_key.end() || !model) return;
    const std::vector<size_t>& views = it->second;
    const RuleSet rules = MineRules(model->preprocessed().binned(), RuleMiningOptions{});
    const CoverageEvaluator evaluator(model->preprocessed().binned(), rules);
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (size_t t = 0; t < std::min(threads, views.size()); ++t) {
      pool.emplace_back([&] {
        for (size_t j = next++; j < views.size(); j = next++) {
          const Served& s = run.served[views[j]];
          failure[views[j]] = CheckView(*model, s);
          if (failure[views[j]].empty()) {
            quality[views[j]] =
                ScoreSubTable(evaluator, s.view->row_ids, s.view->col_ids, 0.5).combined;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  };
  if (run.check_models) run.check_models(check);

  double sum = 0.0;
  size_t scored = 0;
  for (size_t i = 0; i < run.served.size(); ++i) {
    if (!failure[i].empty()) {
      run.Error(failure[i]);
      ++run.other_failed;
    } else {
      sum += quality[i];
      ++scored;
    }
  }
  return scored > 0 ? sum / static_cast<double>(scored) : 0.0;
}

// -------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_open|shared_drilldown|"
                 "stream_ingest> --seed <n> --seconds <s> --trace <0|1> "
                 "--state-dir <dir> [--trace-dir <dir>]\n");
    return 2;
  }
  const std::map<std::string, std::function<void(Run&)>> workloads = {
      {"cold_open", RunColdOpen},
      {"shared_drilldown", RunSharedDrilldown},
      {"stream_ingest", RunStreamIngest},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(args.state_dir) / "models", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.state_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Run run(args);
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan root(&run.spans, "run", run.spans.NewTrace(), 0);
    run.root_span = root.id();
    it->second(run);
  }
  // Read before the checks, which mine rules and replay streams of their own.
  const double peak_rss_mb = PeakRssMb();
  const double quality = CheckAndScore(run);

  const uint64_t attempted = run.displays_attempted + run.other_attempted;
  const uint64_t failed = (run.displays_attempted - run.displays_ok) + run.other_failed;
  const double served_frac = run.displays_attempted > 0
                                 ? static_cast<double>(run.displays_ok) /
                                       static_cast<double>(run.displays_attempted)
                                 : 0.0;
  const bool correct = failed == 0 && run.errors.empty() && served_frac == 1.0;
  for (const std::string& e : run.errors) std::fprintf(stderr, "error: %s\n", e.c_str());

  const Tail display_tail = TailOf(run.display_ms);
  const Tail append_tail = TailOf(run.append_ms);
  std::printf("workload %s seed %llu: %zu displays (tail = p%.1f, %zu samples), "
              "%zu appends (tail = p%.1f, %zu samples), %.1f s wall\n",
              args.workload.c_str(), (unsigned long long)args.seed, display_tail.count,
              display_tail.percentile, display_tail.count, append_tail.count,
              append_tail.percentile, append_tail.count,
              Seconds(start, Clock::now()));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(run.setup_s), "s"},
        {"first_display_s", Mean(run.first_display_s), "s"},
        {"reopen_display_s", Mean(run.reopen_display_s), "s"},
        {"display_p50_ms", Median(run.display_ms), "ms"},
        {"display_tail_ms", display_tail.value, "ms"},
        {"displays_per_s",
         run.display_wall_s > 0 ? static_cast<double>(run.display_ms.size()) / run.display_wall_s : 0.0,
         "1/s"},
        {"served_frac", served_frac, "fraction"},
        {"display_quality", quality, "score"},
        {"append_p50_ms", Median(run.append_ms), "ms"},
        {"append_tail_ms", append_tail.value, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    std::vector<double> queue_ms, scan_ms, select_ms;
    double rows_visited = 0.0, table_rows = 0.0;
    for (const auto& [id, t] : run.engine_traces) {
      if (t.scan_ms < 0 && t.select_ms < 0) continue;  // Cache hit: no stages.
      queue_ms.push_back(t.queue_ms);
      if (t.scan_ms >= 0) {
        scan_ms.push_back(t.scan_ms);
        rows_visited += static_cast<double>(t.rows_visited);
        table_rows += static_cast<double>(t.table_rows);
      }
      if (t.select_ms >= 0) select_ms.push_back(t.select_ms);
    }
    auto layer = [&](const std::string& name) { return Median(run.layer[name]); };
    auto layer_sum = [&](const std::string& name) {
      double s = 0.0;
      for (double v : run.layer[name]) s += v;
      return s;
    };
    metrics = {
        {"workload.gen_s", layer("workload.gen_s"), "s"},
        {"binning.compute_s", layer("binning.compute_s"), "s"},
        {"embed.corpus_s", layer("embed.corpus_s"), "s"},
        {"embed.corpus_tokens", layer("embed.corpus_tokens"), "count"},
        {"embed.train_s", layer("embed.train_s"), "s"},
        {"embed.train_ns_per_token", layer("embed.train_ns_per_token"), "ns"},
        {"rules.mine_ms", layer("rules.mine_ms"), "ms"},
        {"rules.count", layer("rules.count"), "count"},
        {"core.model_save_ms", layer("core.model_save_ms"), "ms"},
        {"core.model_load_ms", layer("core.model_load_ms"), "ms"},
        {"core.artifact_bytes", layer("core.artifact_bytes"), "bytes"},
        {"service.register_ms", layer("service.register_ms"), "ms"},
        {"service.queue_wait_p50_ms", Median(queue_ms), "ms"},
        {"service.queue_wait_p95_ms", Percentile(queue_ms, 0.95), "ms"},
        {"service.cache_hit_frac", layer("service.cache_hit_frac"), "fraction"},
        {"service.coalesced_frac", layer("service.coalesced_frac"), "fraction"},
        {"service.containment_hit_frac", layer("service.containment_hit_frac"), "fraction"},
        {"table.scan_p50_ms", Median(scan_ms), "ms"},
        {"table.scan_p95_ms", Percentile(scan_ms, 0.95), "ms"},
        {"table.rows_visited_per_row", table_rows > 0 ? rows_visited / table_rows : 0.0, "ratio"},
        {"table.chunks_pruned_frac", layer("table.chunks_pruned_frac"), "fraction"},
        {"core.select_p50_ms", Median(select_ms), "ms"},
        {"core.select_p95_ms", Percentile(select_ms, 0.95), "ms"},
        {"core.sampled_frac", layer("core.sampled_frac"), "fraction"},
        {"core.quality_checks", layer_sum("core.quality_checks"), "count"},
        {"core.quality_fallbacks", layer_sum("core.quality_fallbacks"), "count"},
        {"stream.fold_in_ms", layer("stream.fold_in_ms"), "ms"},
        {"stream.incremental_ms", layer("stream.incremental_ms"), "ms"},
        {"stream.refit_s", layer("stream.refit_s"), "s"},
        {"stream.incrementals", layer("stream.incrementals"), "count"},
        {"stream.refits", layer("stream.refits"), "count"},
        {"trace.display_p50_ms", Median(run.display_ms), "ms"},
    };
    for (const auto& [name, self] : run.spans.SelfSeconds()) {
      std::printf("self_time %-22s %10.4f s over %zu spans\n", name.c_str(), self.first,
                  self.second);
    }
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir, ec);
      const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".jsonl";
      if (!run.spans.WriteJsonl(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
