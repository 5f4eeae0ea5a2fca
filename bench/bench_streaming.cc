// Streaming ingestion bench — the workload ISSUE/ROADMAP call "incremental
// / streaming tables": an append-mostly table ingests batches while analyst
// selects keep flowing. The paper's architecture pays pre-processing once
// (Fig. 9); without the streaming subsystem every appended batch would
// re-pay it in full. This harness measures, per batch:
//
//   * which refresh the policy chose (fold-in / incremental / full refit)
//     and what it cost,
//   * select throughput against the freshly republished version,
//
// then compares the total refresh cost against the naive baseline (full
// refit per batch) and sanity-checks fold-in selection quality against a
// full refit of the final table (stated tolerance below). Two chunked-store
// acceptance checks ride along: resident-memory stats must show the model
// and the snapshot sharing one table (double residency gone), and the
// snapshot-cost series must show per-batch append cost flat (+-20%) as the
// base table grows 10x — O(batch), not O(rows).

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "subtab/eda/session_generator.h"
#include "subtab/metrics/combined.h"
#include "subtab/service/engine.h"
#include "subtab/stream/stream_session.h"
#include "subtab/util/stopwatch.h"
#include "subtab/util/string_util.h"

namespace subtab::bench {
namespace {

/// Fold-in quality must stay within this fraction of the full-refit
/// combined score (coverage + diversity, Eq. 3) on the final table.
constexpr double kFoldInQualityTolerance = 0.7;
/// Incremental maintenance must cost at most this fraction of refitting
/// after every batch.
constexpr double kRefreshCostTolerance = 0.5;

}  // namespace
}  // namespace subtab::bench

int main(int argc, char** argv) {
  using namespace subtab::bench;
  using namespace subtab;

  const BenchArgs args = ParseBenchArgs(argc, argv);
  BenchJsonFile file("streaming", args.quick);
  Header("Streaming ingestion: appends interleaved with selects (CY)");
  PaperRef("(no paper figure; the paper's one-off pre-processing, Fig. 9,");
  PaperRef("assumes frozen content. Target: selects stay interactive over");
  PaperRef(">= 10 append batches at a small fraction of full-refit cost.)");

  const size_t base_rows = ScaleFor(args.quick).Rows(6000);
  const size_t num_batches = 10;
  const size_t batch_rows = base_rows / 10;
  const size_t total_rows = base_rows + num_batches * batch_rows;

  GeneratedDataset full = MakeCyber(total_rows);
  const Table base = full.table.TakeRows(RowRange(0, base_rows));

  SessionGeneratorOptions session_options;
  session_options.num_sessions = 20;
  session_options.seed = 13;
  const std::vector<SpQuery> queries =
      StepQueries(GenerateSessions(full, session_options),
                  /*include_final_step=*/false);
  std::printf("\nbase %zu rows + %zu batches x %zu rows; %zu step queries "
              "between batches\n\n",
              base_rows, num_batches, batch_rows, queries.size());

  const SubTabConfig config = DefaultConfig();

  // ---- Streaming path: policy-driven refresh, selects between batches. ----
  stream::StreamSessionOptions stream_options;
  stream_options.config = config;
  Stopwatch open_watch;
  Result<std::shared_ptr<stream::StreamSession>> session =
      stream::StreamSession::Open(base, stream_options);
  SUBTAB_CHECK(session.ok());
  const double open_seconds = open_watch.ElapsedSeconds();

  service::EngineOptions engine_options;
  engine_options.num_threads = 4;
  service::ServingEngine engine(engine_options);
  SUBTAB_CHECK(engine.RegisterStream("cy", *session).ok());

  double stream_refresh_seconds = 0.0;
  std::printf("%-6s %-12s %10s %10s %9s %9s\n", "batch", "refresh", "cost(s)",
              "selects", "ok", "req/s");
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t begin = base_rows + b * batch_rows;
    const Table batch = full.table.TakeRows(RowRange(begin, begin + batch_rows));
    Result<stream::RefreshEvent> event = engine.Append("cy", batch);
    SUBTAB_CHECK(event.ok());
    stream_refresh_seconds += event->seconds;

    size_t ok = 0;
    std::vector<double> latencies;
    latencies.reserve(queries.size());
    Stopwatch select_watch;
    for (const SpQuery& query : queries) {
      service::SelectRequest request;
      request.table_id = "cy";
      request.query = query;
      Stopwatch one;
      if (engine.Select(request).status.ok()) ++ok;
      latencies.push_back(one.ElapsedSeconds());
    }
    const double select_seconds = select_watch.ElapsedSeconds();
    const double rps = static_cast<double>(queries.size()) / select_seconds;
    std::sort(latencies.begin(), latencies.end());
    const double p50 = latencies[latencies.size() / 2] * 1e3;
    const double p95 = latencies[latencies.size() * 95 / 100] * 1e3;
    std::printf("%-6zu %-12s %10.3f %10zu %9zu %9.1f\n", b + 1,
                stream::RefreshActionName(event->action), event->seconds,
                queries.size(), ok, rps);
    JsonLine("streaming")
        .Field("batch", static_cast<uint64_t>(b + 1))
        .Field("version", static_cast<uint64_t>(event->version))
        .Field("action", stream::RefreshActionName(event->action))
        .Field("refresh_seconds", event->seconds)
        .Field("selects_ok", static_cast<uint64_t>(ok))
        .Field("select_rps", rps)
        .Field("select_p50_ms", p50)
        .Field("select_p95_ms", p95)
        .Emit(&file);
  }
  const service::EngineStats stats = engine.Stats();
  JsonLine("engine_stats").RawField("stats", engine.MetricsJson()).Emit(&file);
  SUBTAB_CHECK(stats.streaming.appends == num_batches);

  // ---- Resident memory: the zero-copy snapshot path must have removed the
  // ---- double residency (model copy + snapshot copy of the live version).
  SUBTAB_CHECK(stats.memory.tables == 1);  // Model and snapshot share one table.
  SUBTAB_CHECK(stats.memory.resident_bytes < stats.memory.logical_bytes);
  Measured(StrFormat("resident tables %zu, %.1f KiB resident vs %.1f KiB "
                     "logical (%.1f KiB shared away)",
                     stats.memory.tables,
                     stats.memory.resident_bytes / 1024.0,
                     stats.memory.logical_bytes / 1024.0,
                     stats.memory.shared_saved_bytes / 1024.0));

  // ---- Background refresh: the appender publishes a fold-in immediately
  // ---- and the worker upgrades the same version in the background. Every
  // ---- batch must be servable the moment Append returns, and selects
  // ---- issued while an upgrade trains must keep succeeding against the
  // ---- latest published version (never blocking on training).
  {
    stream::StreamSessionOptions bg_options = stream_options;
    bg_options.background_refresh = true;
    bg_options.policy.incremental_threshold = 0.0;  // Upgrade every batch...
    bg_options.policy.max_background_lag = 1e9;     // ...always deferred.
    Result<std::shared_ptr<stream::StreamSession>> bg_session =
        stream::StreamSession::Open(base, bg_options);
    SUBTAB_CHECK(bg_session.ok());
    service::ServingEngine bg_engine(engine_options);
    SUBTAB_CHECK(bg_engine.RegisterStream("cybg", *bg_session).ok());

    double publish_seconds_total = 0.0;
    double publish_seconds_max = 0.0;
    size_t bg_selects_ok = 0;
    size_t bg_selects = 0;
    for (size_t b = 0; b < num_batches; ++b) {
      const size_t begin = base_rows + b * batch_rows;
      const Table batch =
          full.table.TakeRows(RowRange(begin, begin + batch_rows));
      Result<stream::RefreshEvent> event = bg_engine.Append("cybg", batch);
      SUBTAB_CHECK(event.ok());
      // Publication is the cheap fold-in; the trained upgrade is deferred.
      SUBTAB_CHECK(event->action == stream::RefreshAction::kFoldIn);
      SUBTAB_CHECK(event->upgrade_deferred);
      publish_seconds_total += event->seconds;
      publish_seconds_max = std::max(publish_seconds_max, event->seconds);
      // The new version is servable the moment Append returned.
      SUBTAB_CHECK(bg_engine.GetModel("cybg")->table().num_rows() ==
                   base_rows + (b + 1) * batch_rows);
      // Selects race the in-flight upgrade; none may block or fail oddly.
      for (const SpQuery& query : queries) {
        service::SelectRequest request;
        request.table_id = "cybg";
        request.query = query;
        const Status status = bg_engine.Select(request).status;
        SUBTAB_CHECK(status.ok() ||
                     status.code() == StatusCode::kInvalidArgument);
        bg_selects_ok += status.ok() ? 1 : 0;
        ++bg_selects;
      }
    }
    (*bg_session)->WaitForUpgrades();
    const stream::StreamStats bg_stats = (*bg_session)->Stats();
    SUBTAB_CHECK(bg_stats.deferred_upgrades == num_batches);
    SUBTAB_CHECK(bg_stats.upgrades_completed + bg_stats.upgrades_discarded >= 1);
    const double inline_per_batch =
        stream_refresh_seconds / static_cast<double>(num_batches);
    Measured(StrFormat(
        "background refresh: publication %.1f ms/batch max %.1f ms (inline "
        "mode averaged %.1f ms/batch); %zu/%zu selects ok during in-flight "
        "upgrades; %llu upgrades completed, %llu discarded",
        1e3 * publish_seconds_total / num_batches, 1e3 * publish_seconds_max,
        1e3 * inline_per_batch, bg_selects_ok, bg_selects,
        (unsigned long long)bg_stats.upgrades_completed,
        (unsigned long long)bg_stats.upgrades_discarded));
    JsonLine("background_refresh")
        .Field("batches", static_cast<uint64_t>(num_batches))
        .Field("publish_seconds_total", publish_seconds_total)
        .Field("publish_seconds_max", publish_seconds_max)
        .Field("inline_refresh_seconds_per_batch", inline_per_batch)
        .Field("selects_ok", static_cast<uint64_t>(bg_selects_ok))
        .Field("selects_total", static_cast<uint64_t>(bg_selects))
        .Field("deferred_upgrades", bg_stats.deferred_upgrades)
        .Field("upgrades_completed", bg_stats.upgrades_completed)
        .Field("upgrades_discarded", bg_stats.upgrades_discarded)
        .Field("final_refresh_generation", bg_stats.refresh_generation)
        .Emit(&file);
  }

  // ---- Snapshot-cost series: per-batch append cost must be O(batch), i.e.
  // ---- flat as the base table grows 10x. Measures StreamingTable alone
  // ---- (the snapshot primitive), excluding model refresh and data
  // ---- generation. The two sizes are measured INTERLEAVED (one append to
  // ---- each per round) so allocator/frequency drift hits both equally, and
  // ---- the minimum over reps estimates the true cost of the (identical)
  // ---- per-append work with noise suppressed; a real O(rows) term would be
  // ---- paid by every rep and survive the min.
  const size_t series_base = ScaleFor(args.quick).Rows(6000, 3000);
  const size_t series_batch = ScaleFor(args.quick).Rows(3000, 2000);
  const size_t series_reps = 25;
  struct SnapshotSeries {
    std::unique_ptr<stream::StreamingTable> table;
    std::vector<Table> batches;
    double min_seconds = 1e30;
  };
  auto open_series = [&](size_t rows) {
    GeneratedDataset d = MakeCyber(rows + series_batch * series_reps);
    Result<std::unique_ptr<stream::StreamingTable>> st =
        stream::StreamingTable::Open(d.table.TakeRows(RowRange(0, rows)));
    SUBTAB_CHECK(st.ok());
    SnapshotSeries series;
    series.table = std::move(*st);
    for (size_t i = 0; i < series_reps; ++i) {
      const size_t begin = rows + i * series_batch;
      series.batches.push_back(
          d.table.TakeRows(RowRange(begin, begin + series_batch)));
    }
    return series;
  };
  SnapshotSeries small_series = open_series(series_base);
  SnapshotSeries large_series = open_series(series_base * 10);
  for (size_t rep = 0; rep < series_reps; ++rep) {
    for (SnapshotSeries* series : {&small_series, &large_series}) {
      Stopwatch w;
      SUBTAB_CHECK(series->table->Append(series->batches[rep]).ok());
      const double seconds = w.ElapsedSeconds();
      // Skip the first rounds: they warm the allocator and branch caches.
      if (rep >= 3 && seconds < series->min_seconds) {
        series->min_seconds = seconds;
      }
    }
  }
  const double small_seconds = small_series.min_seconds;
  const double large_seconds = large_series.min_seconds;
  const double flatness = large_seconds / small_seconds;
  std::printf("\nsnapshot cost, %zu-row batches: %.3f ms at %zu rows vs "
              "%.3f ms at %zu rows (ratio %.2f)\n",
              series_batch, small_seconds * 1e3, series_base,
              large_seconds * 1e3, series_base * 10, flatness);
  JsonLine("append_cost_series")
      .Field("batch_rows", static_cast<uint64_t>(series_batch))
      .Field("base_rows_small", static_cast<uint64_t>(series_base))
      .Field("base_rows_large", static_cast<uint64_t>(series_base * 10))
      .Field("append_seconds_small", small_seconds)
      .Field("append_seconds_large", large_seconds)
      .Field("flatness_ratio", flatness)
      .Emit(&file);
  Measured(StrFormat("per-batch snapshot cost flat across 10x rows: "
                     "ratio %.2f (tolerance 0.80..1.20)",
                     flatness));
  SUBTAB_CHECK(flatness > 0.8 && flatness < 1.2);

  // ---- Baseline: the pre-streaming architecture refits after every batch. --
  double refit_baseline_seconds = 0.0;
  double final_fit_seconds = 0.0;
  Result<SubTab> refit_model = Status::Internal("unset");
  for (size_t b = 0; b < num_batches; ++b) {
    const Table upto =
        full.table.TakeRows(RowRange(0, base_rows + (b + 1) * batch_rows));
    Stopwatch fit_watch;
    refit_model = SubTab::Fit(upto, config);
    SUBTAB_CHECK(refit_model.ok());
    final_fit_seconds = fit_watch.ElapsedSeconds();
    refit_baseline_seconds += final_fit_seconds;
  }

  // ---- Quality: pure fold-in (no refresh ever) vs full refit. --------------
  stream::StreamSessionOptions fold_in_only = stream_options;
  fold_in_only.policy.max_out_of_range_rate = 1.0;
  fold_in_only.policy.max_new_category_rate = 1.0;
  fold_in_only.policy.staleness_budget = 1e9;
  fold_in_only.policy.incremental_threshold = 1e9;
  Result<std::shared_ptr<stream::StreamSession>> fold_in =
      stream::StreamSession::Open(base, fold_in_only);
  SUBTAB_CHECK(fold_in.ok());
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t begin = base_rows + b * batch_rows;
    SUBTAB_CHECK((*fold_in)
                     ->Append(full.table.TakeRows(
                         RowRange(begin, begin + batch_rows)))
                     .ok());
  }
  const BinnedTable& refit_binned = refit_model->preprocessed().binned();
  const RuleSet rules = MineRules(refit_binned, DefaultMining());
  const CoverageEvaluator evaluator(refit_binned, rules);
  const SubTabView fold_in_view = (*fold_in)->model()->Select();
  const SubTabView refit_view = refit_model->Select();
  const SubTableScore fold_in_score =
      ScoreSubTable(evaluator, fold_in_view.row_ids, fold_in_view.col_ids);
  const SubTableScore refit_score =
      ScoreSubTable(evaluator, refit_view.row_ids, refit_view.col_ids);
  const double quality_ratio =
      refit_score.combined > 0.0 ? fold_in_score.combined / refit_score.combined
                                 : 1.0;

  std::printf("\none-off fit of the base: %.2fs\n", open_seconds);
  Measured(StrFormat("stream refresh total %.2fs (%llu fold-in, %llu "
                     "incremental, %llu refit) vs refit-per-batch %.2fs "
                     "(%.1f%%)",
                     stream_refresh_seconds,
                     (unsigned long long)stats.streaming.fold_ins,
                     (unsigned long long)stats.streaming.incremental_refreshes,
                     (unsigned long long)stats.streaming.full_refits,
                     refit_baseline_seconds,
                     100.0 * stream_refresh_seconds / refit_baseline_seconds));
  Measured(StrFormat("fold-in combined %.3f vs full-refit %.3f (ratio %.2f, "
                     "tolerance %.2f)",
                     fold_in_score.combined, refit_score.combined,
                     quality_ratio, kFoldInQualityTolerance));
  JsonLine("streaming_summary")
      .Field("refresh_seconds", stream_refresh_seconds)
      .Field("refit_baseline_seconds", refit_baseline_seconds)
      .Field("final_fit_seconds", final_fit_seconds)
      .Field("fold_in_combined", fold_in_score.combined)
      .Field("refit_combined", refit_score.combined)
      .Field("quality_ratio", quality_ratio)
      .Emit(&file);

  file.Write();
  SUBTAB_CHECK(stream_refresh_seconds <
               kRefreshCostTolerance * refit_baseline_seconds);
  SUBTAB_CHECK(quality_ratio >= kFoldInQualityTolerance);
  std::printf("\nOK: %zu batches sustained, refresh cost %.1f%% of "
              "refit-per-batch, fold-in within tolerance\n",
              num_batches,
              100.0 * stream_refresh_seconds / refit_baseline_seconds);
  return 0;
}
