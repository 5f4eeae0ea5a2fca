#ifndef SUBTAB_BENCH_BENCH_COMMON_H_
#define SUBTAB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "subtab/baselines/naive_clustering.h"
#include "subtab/baselines/random_baseline.h"
#include "subtab/core/subtab.h"
#include "subtab/data/datasets.h"
#include "subtab/eda/session.h"
#include "subtab/rules/miner.h"
#include "subtab/util/metrics.h"
#include "subtab/util/parallel.h"

/// \file bench_common.h
/// Shared scaffolding for the per-figure/table benchmark harnesses. Every
/// harness prints (a) what the paper reports and (b) what this reproduction
/// measures, using scaled synthetic datasets (DESIGN.md §4). Budgeted
/// baselines get budgets scaled with the data (the paper's 60 s of RAN
/// against 6M rows becomes a bounded draw count here); each harness states
/// its scaling in its header line.
///
/// Every harness accepts `--quick` (ParseBenchArgs): CI-sized runs with the
/// same shape at ~1/4 of the data, so a workflow can smoke every bench in
/// minutes instead of hardcoding full-report sizes.

namespace subtab::bench {

/// Command-line options common to all harnesses.
struct BenchArgs {
  /// CI-sized run: datasets shrink (see Sized), variant sweeps may narrow.
  bool quick = false;
};

/// Parses harness arguments; exits with a usage message on unknown flags so
/// a typo never silently runs the full-size report.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n  --quick  CI-sized run\n",
                   argv[0]);
      std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
    }
  }
  return args;
}

/// Centralized --quick sizing. Quick CI runs derive from ONE scale factor —
/// 1/4 of the full-report data — instead of ad-hoc per-bench constants, so
/// every harness shrinks consistently and quick CI wall-clock stays bounded
/// (<60 s per bench) by construction as full sizes grow. Per-site floors
/// keep sizes above structural thresholds (e.g. the 10k sampled-selection
/// cutoff needs a >10k quick scope); Pick is the explicit escape hatch for
/// the few benches whose quick size is deliberately deeper than 1/4 (the
/// runtime-dominated fig9 harness).
struct BenchScale {
  bool quick = false;
  double factor = 1.0;  ///< Data-size multiplier applied under --quick.

  /// `full` scaled by the factor under --quick, never below `quick_floor`.
  size_t Rows(size_t full, size_t quick_floor = 1) const {
    if (!quick) return full;
    const auto scaled =
        static_cast<size_t>(static_cast<double>(full) * factor);
    return std::max(quick_floor, std::max<size_t>(1, scaled));
  }
  /// Same scaling for non-row counts (sessions, batches, sweep widths);
  /// reads better at call sites.
  size_t Count(size_t full, size_t quick_floor = 1) const {
    return Rows(full, quick_floor);
  }
  /// Explicit quick-size override (the pre-centralization Sized semantics).
  size_t Pick(size_t full, size_t quick_size) const {
    return quick ? quick_size : full;
  }
};

/// The one place the quick factor is defined.
inline BenchScale ScaleFor(bool quick) {
  return BenchScale{quick, quick ? 0.25 : 1.0};
}

/// The full-report size, or the explicit CI size under --quick (routes
/// through BenchScale::Pick; prefer ScaleFor(...).Rows for new call sites).
inline size_t Sized(const BenchArgs& args, size_t full, size_t quick) {
  return ScaleFor(args.quick).Pick(full, quick);
}

/// Flattens generated analyst sessions into their step queries — the
/// request stream the serving/streaming harnesses replay. Each session's
/// final step has no next-step to capture, so harnesses that score capture
/// pass include_final_step = false.
inline std::vector<SpQuery> StepQueries(const std::vector<Session>& sessions,
                                        bool include_final_step = true) {
  std::vector<SpQuery> queries;
  for (const Session& session : sessions) {
    const size_t count = include_final_step || session.steps.empty()
                             ? session.steps.size()
                             : session.steps.size() - 1;
    for (size_t i = 0; i < count; ++i) {
      queries.push_back(session.steps[i].query);
    }
  }
  return queries;
}

/// Indices [begin, end) — batch/base slicing in the streaming harnesses.
inline std::vector<size_t> RowRange(size_t begin, size_t end) {
  std::vector<size_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), begin);
  return rows;
}

/// Standard reproduction config (paper defaults; multithreaded training).
inline SubTabConfig DefaultConfig(uint64_t seed = 42) {
  SubTabConfig config;
  config.k = 10;
  config.l = 10;
  config.embedding.dim = 32;
  config.embedding.epochs = 3;
  // Single-threaded training: with our few-hundred-token vocabularies,
  // hogwild updates collide on the same vectors and cost quality (the
  // paper's gensim runs face the same trade-off at much larger vocabs).
  config.embedding.num_threads = 1;
  config.seed = seed;
  return config;
}

/// Paper-default rule mining (Sec. 6.1): support 0.1, confidence 0.6,
/// minimum rule size 3.
inline RuleMiningOptions DefaultMining() {
  RuleMiningOptions mining;
  mining.apriori.min_support = 0.1;
  mining.min_confidence = 0.6;
  mining.min_rule_size = 3;
  return mining;
}

/// Bench-scale dataset sizes (~1/10 of the already-scaled library defaults,
/// so each harness stays within a couple of minutes).
inline GeneratedDataset LoadDataset(const std::string& name, size_t rows) {
  if (name == "FL") return MakeFlights(rows);
  if (name == "CY") return MakeCyber(rows);
  if (name == "SP") return MakeSpotify(rows);
  if (name == "CC") return MakeCreditCard(rows);
  if (name == "USF") return MakeUsFunds(rows);
  if (name == "BL") return MakeBankLoans(rows);
  SUBTAB_CHECK(false);
  return MakeFlights(rows);
}

/// Prints a section header.
inline void Header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Prints the paper-reported reference line for a figure/table.
inline void PaperRef(const std::string& text) {
  std::printf("paper    | %s\n", text.c_str());
}

/// Prints one measured line, aligned with PaperRef.
inline void Measured(const std::string& text) {
  std::printf("measured | %s\n", text.c_str());
}

/// Collects a run's JSON records and writes them as one machine-readable
/// document — BENCH_<name>.json in the working directory — so the repo
/// accumulates a perf trajectory (CI uploads these artifacts from --quick
/// runs). Records are whatever JsonLine::Emit(&file) rendered, in order.
class BenchJsonFile {
 public:
  BenchJsonFile(std::string bench, bool quick)
      : bench_(std::move(bench)), quick_(quick) {}

  void Add(const std::string& record) { records_.push_back(record); }

  /// Writes {"bench":...,"quick":...,"records":[...]}; warns (but does not
  /// fail the bench) when the file cannot be opened.
  void Write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"quick\":%s,\"records\":[",
                 bench_.c_str(), quick_ ? "true" : "false");
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", records_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string bench_;
  bool quick_;
  std::vector<std::string> records_;
};

/// The repo's standard machine-readable bench record: one JSON object per
/// line, prefixed "json | " so downstream tooling can grep it out of the
/// human-readable report:
///
///   JsonLine("serving_throughput").Field("threads", 4).Field("rps", r).Emit();
///
/// Emit(&file) additionally appends the record to a BenchJsonFile, feeding
/// the BENCH_<name>.json artifact. Keys are emitted in insertion order;
/// strings are assumed not to need escaping (bench names and phases only).
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    body_ = "{\"bench\":\"" + bench + "\"";
  }
  JsonLine& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  /// Any integer type (the template avoids int-literal overload ambiguity
  /// between the double and a fixed-width integer overload).
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonLine& Field(const std::string& key, T value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Field(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  /// Embeds pre-rendered JSON verbatim (e.g. ServingEngine::MetricsJson()).
  JsonLine& RawField(const std::string& key, const std::string& json) {
    return Raw(key, json);
  }
  std::string Render() const { return body_ + "}"; }
  void Emit(BenchJsonFile* file = nullptr) {
    if (file != nullptr) file->Add(Render());
    std::printf("json | %s\n", Render().c_str());
  }

 private:
  JsonLine& Raw(const std::string& key, const std::string& value) {
    body_ += ",\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// Percentile `p` of a registry histogram in milliseconds (0 when absent),
/// e.g. HistMs(engine.metrics().Snapshot(), "pipeline.stage.scan", 0.95).
inline double HistMs(const MetricsSnapshot& snapshot, const std::string& name,
                     double p) {
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0
                                         : it->second.Percentile(p) * 1e3;
}

/// One fitted pipeline: dataset + SubTab model + mined rules + evaluator.
/// Heap-allocated so every member's address is stable (the evaluator keeps
/// pointers into the binned table and rule set).
struct Pipeline {
  GeneratedDataset data;
  SubTab subtab;
  RuleSet rules;
  std::unique_ptr<CoverageEvaluator> evaluator;

  const CoverageEvaluator& eval() const { return *evaluator; }

  static std::unique_ptr<Pipeline> Build(const std::string& dataset, size_t rows,
                                         SubTabConfig config = DefaultConfig(),
                                         RuleMiningOptions mining = DefaultMining()) {
    GeneratedDataset data = LoadDataset(dataset, rows);
    Result<SubTab> st = SubTab::Fit(data.table, config);
    SUBTAB_CHECK(st.ok());
    auto pipeline = std::unique_ptr<Pipeline>(
        new Pipeline{std::move(data), std::move(*st), RuleSet{}, nullptr});
    pipeline->rules = MineRules(pipeline->subtab.preprocessed().binned(), mining);
    pipeline->evaluator = std::make_unique<CoverageEvaluator>(
        pipeline->subtab.preprocessed().binned(), pipeline->rules);
    return pipeline;
  }
};

/// Scaled RAN baseline: the paper's 60 s on full dumps becomes a bounded
/// number of draws against the scaled tables.
inline RandomBaselineOptions ScaledRan(size_t k, size_t l,
                                       std::vector<size_t> targets = {},
                                       uint64_t seed = 7) {
  RandomBaselineOptions ran;
  ran.k = k;
  ran.l = l;
  ran.target_cols = std::move(targets);
  ran.max_iterations = 100;
  ran.time_budget_seconds = 10.0;
  ran.seed = seed;
  return ran;
}

}  // namespace subtab::bench

#endif  // SUBTAB_BENCH_BENCH_COMMON_H_
