// Streaming ingestion demo — the append-mostly counterpart of serving_demo:
// open a stream on the cyber-security dataset, ingest batches through the
// engine while displays keep being served, and watch the refresh policy
// escalate. The demo verifies the subsystem's core promises:
//
//   1. in-distribution batches are absorbed by fold-in / incremental
//      refresh — never a full refit — and selects stay served;
//   2. a drifted batch (out-of-range numerics, unseen categories) trips the
//      drift counters and forces a full refit, re-anchoring the bin spec;
//   3. version isolation: a model handle obtained before an append keeps
//      selecting over its own version's rows;
//   4. superseded versions' cached selections are invalidated, and the
//      engine's metrics registry reports the refresh activity (one
//      "json |" line of MetricsJson).

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "subtab/data/datasets.h"
#include "subtab/eda/session_generator.h"
#include "subtab/service/engine.h"
#include "subtab/stream/stream_session.h"

using namespace subtab;

namespace {

std::vector<size_t> RowRange(size_t begin, size_t end) {
  std::vector<size_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), begin);
  return rows;
}

// A batch the fit-time spec misrepresents: numerics pushed far outside the
// observed range, one categorical column full of unseen values.
Table DriftedBatch(const Table& batch) {
  std::vector<Column> columns;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const Column& col = batch.column(c);
    if (col.is_numeric()) {
      std::vector<double> values;
      for (size_t r = 0; r < col.size(); ++r) {
        values.push_back(col.is_null(r) ? std::nan("")
                                        : col.num_value(r) * 10.0 + 1e6);
      }
      columns.push_back(Column::Numeric(col.name(), values));
    } else {
      std::vector<std::string> values;
      for (size_t r = 0; r < col.size(); ++r) {
        values.push_back(col.is_null(r)
                             ? std::string()
                             : "novel_" + std::string(col.cat_value(r)));
      }
      columns.push_back(Column::Categorical(col.name(), values));
    }
  }
  Result<Table> table = Table::Make(std::move(columns));
  SUBTAB_CHECK(table.ok());
  return std::move(*table);
}

}  // namespace

int main() {
  constexpr size_t kBaseRows = 3000;
  constexpr size_t kBatchRows = 300;
  constexpr size_t kBatches = 4;

  std::printf("Generating the cyber-security dataset...\n");
  GeneratedDataset cyber = MakeCyber(kBaseRows + kBatches * kBatchRows);
  const Table base = cyber.table.TakeRows(RowRange(0, kBaseRows));

  stream::StreamSessionOptions options;
  options.config.embedding.dim = 32;
  options.config.embedding.epochs = 3;
  std::printf("Fitting the base (%zu rows) and opening the stream...\n",
              kBaseRows);
  Result<std::shared_ptr<stream::StreamSession>> session =
      stream::StreamSession::Open(base, options);
  SUBTAB_CHECK(session.ok());

  service::ServingEngine engine;
  SUBTAB_CHECK(engine.RegisterStream("cyber", *session).ok());

  // Hold version 0's model: later appends must not affect it.
  std::shared_ptr<const SubTab> v0_model = engine.GetModel("cyber");
  SUBTAB_CHECK(v0_model->table().num_rows() == kBaseRows);

  // ---- 1. In-distribution batches: no full refit. --------------------------
  std::printf("\nAppending %zu in-distribution batches of %zu rows...\n",
              kBatches, kBatchRows);
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t begin = kBaseRows + b * kBatchRows;
    const Table batch =
        cyber.table.TakeRows(RowRange(begin, begin + kBatchRows));
    Result<stream::RefreshEvent> event = engine.Append("cyber", batch);
    SUBTAB_CHECK(event.ok());
    SUBTAB_CHECK(event->action != stream::RefreshAction::kFullRefit);

    service::SelectRequest request;
    request.table_id = "cyber";
    service::SelectResponse response = engine.Select(request);
    SUBTAB_CHECK(response.status.ok());
    std::printf("  v%llu: %-11s %6.3fs  oor %.3f  newcat %.3f  "
                "(select over %zu rows ok)\n",
                (unsigned long long)event->version,
                stream::RefreshActionName(event->action), event->seconds,
                event->drift.out_of_range_rate,
                event->drift.new_category_rate,
                engine.GetModel("cyber")->table().num_rows());
  }
  const auto after_inline = engine.Stats();
  SUBTAB_CHECK(after_inline.streaming.full_refits == 0);
  SUBTAB_CHECK(after_inline.streaming.fold_ins +
                   after_inline.streaming.incremental_refreshes ==
               kBatches);

  // ---- 2. A drifted batch forces a full refit. -----------------------------
  std::printf("\nAppending a drifted batch (values x10 + 1e6, novel "
              "categories)...\n");
  const Table drifted = DriftedBatch(
      cyber.table.TakeRows(RowRange(kBaseRows, kBaseRows + kBatchRows)));
  Result<stream::RefreshEvent> refit = engine.Append("cyber", drifted);
  SUBTAB_CHECK(refit.ok());
  std::printf("  v%llu: %-11s %6.3fs  oor %.3f  newcat %.3f\n",
              (unsigned long long)refit->version,
              stream::RefreshActionName(refit->action), refit->seconds,
              refit->drift.out_of_range_rate, refit->drift.new_category_rate);
  SUBTAB_CHECK(refit->action == stream::RefreshAction::kFullRefit);

  // ---- 3. Version isolation + zero-copy residency. -------------------------
  SUBTAB_CHECK(v0_model->table().num_rows() == kBaseRows);
  SUBTAB_CHECK(engine.GetModel("cyber")->table().num_rows() ==
               kBaseRows + (kBatches + 1) * kBatchRows);
  std::printf("\nVersion isolation: v0 handle still selects over %zu rows, "
              "latest over %zu\n",
              v0_model->table().num_rows(),
              engine.GetModel("cyber")->table().num_rows());
  SubTabView old_view = v0_model->Select();
  SUBTAB_CHECK(!old_view.row_ids.empty());
  // The served model and the stream's snapshot are the SAME table object —
  // the live version's rows are resident once, not once per holder (use
  // shared_table(), never a by-value copy of table(), to keep it that way).
  SUBTAB_CHECK(engine.GetModel("cyber")->shared_table().get() ==
               (*session)->current_version().table.get());
  const service::MemoryStats memory = engine.Stats().memory;
  SUBTAB_CHECK(memory.resident_bytes < memory.logical_bytes);
  std::printf("Zero-copy snapshots: %.1f KiB resident vs %.1f KiB logical "
              "across bindings (%zu chunks shared)\n",
              memory.resident_bytes / 1024.0, memory.logical_bytes / 1024.0,
              memory.chunks);

  // ---- 4. Stats: refresh activity + invalidations, machine-readable. -------
  const auto stats = engine.Stats();
  SUBTAB_CHECK(stats.streaming.full_refits == 1);
  SUBTAB_CHECK(stats.streaming.appends == kBatches + 1);
  std::printf("\n=== engine stats ===\n");
  std::printf("json | %s\n", engine.MetricsJson().c_str());

  std::printf("\nOK: %llu appends (%llu fold-in, %llu incremental, %llu "
              "refit), drift detected, versions isolated\n",
              (unsigned long long)stats.streaming.appends,
              (unsigned long long)stats.streaming.fold_ins,
              (unsigned long long)stats.streaming.incremental_refreshes,
              (unsigned long long)stats.streaming.full_refits);
  return 0;
}
