// Tests for the streaming ingestion subsystem (stream/ + the incremental
// seams it grew in binning/, embed/, core/ and service/): versioned
// snapshots and chained fingerprints, frozen-spec incremental binning with
// drift counters, the refresh policy, incremental SGNS, the StreamSession
// facade (fold-in quality vs full refit, version isolation), and the
// engine's streaming path (republish, cache invalidation, concurrent
// append+select — the TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "subtab/binning/incremental.h"
#include "subtab/core/fingerprint.h"
#include "subtab/data/datasets.h"
#include "subtab/metrics/combined.h"
#include "subtab/rules/miner.h"
#include "subtab/service/engine.h"
#include "subtab/stream/refresh_policy.h"
#include "subtab/stream/stream_session.h"
#include "subtab/stream/streaming_table.h"

namespace subtab {
namespace {

using service::SelectRequest;
using service::SelectResponse;
using service::ServingEngine;
using stream::DriftSnapshot;
using stream::RefreshAction;
using stream::RefreshEvent;
using stream::RefreshPolicyOptions;
using stream::StreamSession;
using stream::StreamSessionOptions;
using stream::StreamingTable;
using stream::TableVersion;

/// Deterministic little table: numeric a in [0, n), numeric b cycling,
/// categorical c over {x, y, z}, starting at row `offset`.
Table LittleTable(size_t n, size_t offset = 0) {
  std::vector<double> a, b;
  std::vector<std::string> c;
  for (size_t i = offset; i < offset + n; ++i) {
    a.push_back(static_cast<double>(i % 60));
    b.push_back(static_cast<double>(i % 7) * 2.5);
    c.push_back(i % 3 == 0 ? "x" : i % 3 == 1 ? "y" : "z");
  }
  Result<Table> table = Table::Make({Column::Numeric("a", a),
                                     Column::Numeric("b", b),
                                     Column::Categorical("c", c)});
  SUBTAB_CHECK(table.ok());
  return std::move(*table);
}

SubTabConfig LittleConfig(uint64_t seed = 7) {
  SubTabConfig config;
  config.k = 4;
  config.l = 3;
  config.embedding.dim = 8;
  config.embedding.epochs = 1;
  config.seed = seed;
  return config;
}

// -------------------------------------------------------- StreamingTable --

TEST(StreamingTableTest, VersionsAndChainedFingerprints) {
  auto stream = StreamingTable::Open(LittleTable(30));
  ASSERT_TRUE(stream.ok());
  const TableVersion v0 = (*stream)->Current();
  EXPECT_EQ(v0.version, 0u);
  EXPECT_EQ(v0.num_rows, 30u);
  EXPECT_EQ(v0.fingerprint, TableFingerprint(LittleTable(30)));

  auto v1 = (*stream)->Append(LittleTable(10, 30));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->num_rows, 40u);
  EXPECT_EQ(v1->delta_rows, 10u);
  EXPECT_NE(v1->fingerprint, v0.fingerprint);

  // A parallel stream fed the same base + batches agrees on every version's
  // fingerprint (the cross-process registry-sharing property).
  auto replay = StreamingTable::Open(LittleTable(30));
  ASSERT_TRUE(replay.ok());
  auto r1 = (*replay)->Append(LittleTable(10, 30));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->fingerprint, v1->fingerprint);
  EXPECT_EQ(r1->delta_fp, v1->delta_fp);
}

TEST(StreamingTableTest, AppendOrderChangesTheChain) {
  auto ab = StreamingTable::Open(LittleTable(20));
  auto ba = StreamingTable::Open(LittleTable(20));
  ASSERT_TRUE(ab.ok() && ba.ok());
  ASSERT_TRUE((*ab)->Append(LittleTable(5, 100)).ok());
  auto ab2 = (*ab)->Append(LittleTable(5, 200));
  ASSERT_TRUE((*ba)->Append(LittleTable(5, 200)).ok());
  auto ba2 = (*ba)->Append(LittleTable(5, 100));
  ASSERT_TRUE(ab2.ok() && ba2.ok());
  EXPECT_NE(ab2->fingerprint, ba2->fingerprint);
}

TEST(StreamingTableTest, SliceFingerprintMatchesStandaloneBatch) {
  // The batch's hash must equal the hash of the same rows inside the grown
  // table, even though the categorical dictionary codes differ.
  std::vector<std::string> base_cats = {"x", "x", "y"};
  std::vector<std::string> batch_cats = {"z", "y", "w"};  // w, z unseen/reordered.
  Result<Table> base = Table::Make({Column::Categorical("c", base_cats)});
  Result<Table> batch = Table::Make({Column::Categorical("c", batch_cats)});
  ASSERT_TRUE(base.ok() && batch.ok());
  auto stream = StreamingTable::Open(std::move(*base));
  ASSERT_TRUE(stream.ok());
  auto v1 = (*stream)->Append(*batch);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->delta_fp, TableSliceFingerprint(*batch, 0, batch->num_rows()));
}

TEST(StreamingTableTest, RejectsSchemaMismatchAndEmptyBatch) {
  auto stream = StreamingTable::Open(LittleTable(10));
  ASSERT_TRUE(stream.ok());
  Result<Table> renamed = Table::Make({Column::Numeric("other", {1.0})});
  ASSERT_TRUE(renamed.ok());
  EXPECT_FALSE((*stream)->Append(*renamed).ok());
  Result<Table> empty = Table::Make({Column::Numeric("a", {}),
                                     Column::Numeric("b", {}),
                                     Column::Categorical("c", {})});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE((*stream)->Append(*empty).ok());
  EXPECT_EQ((*stream)->version(), 0u);  // Nothing was published.
}

TEST(StreamingTableTest, SnapshotsAreIsolatedFromLaterAppends) {
  auto stream = StreamingTable::Open(LittleTable(12));
  ASSERT_TRUE(stream.ok());
  const TableVersion v0 = (*stream)->Current();
  ASSERT_TRUE((*stream)->Append(LittleTable(6, 12)).ok());
  EXPECT_EQ(v0.table->num_rows(), 12u);  // Held snapshot unchanged.
  EXPECT_EQ((*stream)->Current().num_rows, 18u);
}

TEST(StreamingTableTest, AppendSharesParentChunks) {
  // Zero-copy snapshots: every append adds exactly one chunk per column and
  // shares the parent's chunks by pointer identity.
  auto stream = StreamingTable::Open(LittleTable(20));
  ASSERT_TRUE(stream.ok());
  const TableVersion v0 = (*stream)->Current();
  EXPECT_EQ(v0.table->num_chunks(), 1u);
  ASSERT_TRUE((*stream)->Append(LittleTable(5, 20)).ok());
  ASSERT_TRUE((*stream)->Append(LittleTable(5, 25)).ok());
  const TableVersion v2 = (*stream)->Current();
  EXPECT_EQ(v2.table->num_chunks(), 3u);
  for (size_t c = 0; c < v0.table->num_columns(); ++c) {
    EXPECT_EQ(v2.table->column(c).chunks()[0].get(),
              v0.table->column(c).chunks()[0].get());
  }
}

// ---------------------------------------------------- IncrementalBinner --

TEST(IncrementalBinnerTest, MatchesFullRebinWithoutDrift) {
  // Base rows 0..59 span the full value universe (a = i % 60), so the 30
  // appended rows of `full` repeat in-range values: zero drift expected.
  const Table base = LittleTable(60);
  const Table full = LittleTable(90);
  BinningOptions options;
  const TableBinning binning = TableBinning::Compute(base, options);
  BinnedTable incremental = BinnedTable::FromTable(base, binning);
  IncrementalBinner binner(base, binning);
  binner.AppendRows(full, 60, &incremental);

  // Every appended cell tokenizes exactly as a full re-bin (against the same
  // frozen spec) would tokenize it.
  const BinnedTable rebinned = BinnedTable::FromTable(full, binning);
  ASSERT_EQ(incremental.num_rows(), rebinned.num_rows());
  for (size_t r = 0; r < rebinned.num_rows(); ++r) {
    for (size_t c = 0; c < rebinned.num_columns(); ++c) {
      ASSERT_EQ(incremental.token(r, c), rebinned.token(r, c));
    }
  }
  EXPECT_EQ(binner.rows_appended(), 30u);
  EXPECT_EQ(binner.OutOfRangeRate(), 0.0);
  EXPECT_EQ(binner.NewCategoryRate(), 0.0);
}

TEST(IncrementalBinnerTest, CountsOutOfRangeAndNewCategories) {
  std::vector<double> base_vals = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<std::string> base_cats = {"x", "y", "x", "y", "x"};
  Result<Table> base = Table::Make({Column::Numeric("n", base_vals),
                                    Column::Categorical("c", base_cats)});
  ASSERT_TRUE(base.ok());
  const TableBinning binning = TableBinning::Compute(*base, BinningOptions{});
  BinnedTable binned = BinnedTable::FromTable(*base, binning);
  IncrementalBinner binner(*base, binning);

  // Append via a stream so dictionary codes grow like production.
  auto stream = StreamingTable::Open(*base);
  ASSERT_TRUE(stream.ok());
  std::vector<double> batch_vals = {2.5, 100.0, -7.0};  // 2 outside [1, 5].
  std::vector<std::string> batch_cats = {"x", "zz", "y"};  // 1 unseen.
  Result<Table> batch = Table::Make({Column::Numeric("n", batch_vals),
                                     Column::Categorical("c", batch_cats)});
  ASSERT_TRUE(batch.ok());
  auto v1 = (*stream)->Append(*batch);
  ASSERT_TRUE(v1.ok());
  binner.AppendRows(*v1->table, base->num_rows(), &binned);

  EXPECT_EQ(binner.drift()[0].out_of_range, 2u);
  EXPECT_EQ(binner.drift()[1].new_categories, 1u);
  EXPECT_DOUBLE_EQ(binner.OutOfRangeRate(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(binner.NewCategoryRate(), 1.0 / 3.0);
  // The base column had both categories under max_cat_bins, so there is no
  // "other" bin; the unseen category degrades to the null bin.
  const Token zz = binned.token(6, 1);
  EXPECT_EQ(TokenBin(zz), binning.column(1).null_bin());
  // Out-of-range numerics still land in the unbounded edge bins.
  EXPECT_EQ(TokenBin(binned.token(6, 0)),
            binning.column(0).BinOfNumeric(100.0));
  binner.ResetDrift();
  EXPECT_EQ(binner.OutOfRangeRate(), 0.0);
}

// ------------------------------------------------------- Refresh policy --

TEST(RefreshPolicyTest, EscalatesByDriftStalenessAndLag) {
  RefreshPolicyOptions options;  // Defaults: oor/newcat 0.10, budget 0.5,
                                 // incremental 0.1, min drift rows 64.
  DriftSnapshot drift;
  drift.fitted_rows = 1000;

  drift.rows_since_refit = 50;
  drift.rows_since_refresh = 50;
  EXPECT_EQ(DecideRefresh(options, drift), RefreshAction::kFoldIn);

  drift.rows_since_refresh = 150;  // > 10% of fitted rows.
  EXPECT_EQ(DecideRefresh(options, drift), RefreshAction::kIncremental);

  drift.rows_since_refit = 600;  // > 50% of fitted rows.
  EXPECT_EQ(DecideRefresh(options, drift), RefreshAction::kFullRefit);

  // Drift rates trump everything once enough rows accumulated...
  drift.rows_since_refit = 100;
  drift.rows_since_refresh = 0;
  drift.out_of_range_rate = 0.5;
  EXPECT_EQ(DecideRefresh(options, drift), RefreshAction::kFullRefit);
  // ...but not on a tiny sample.
  drift.rows_since_refit = 10;
  EXPECT_EQ(DecideRefresh(options, drift), RefreshAction::kFoldIn);
}

TEST(RefreshPolicyTest, BackgroundLagBudgetAndEscalation) {
  RefreshPolicyOptions options;  // max_background_lag defaults to 0.3.
  DriftSnapshot drift;
  drift.fitted_rows = 1000;
  drift.rows_since_refresh = 250;
  EXPECT_FALSE(stream::BackgroundLagExceeded(options, drift));
  drift.rows_since_refresh = 350;
  EXPECT_TRUE(stream::BackgroundLagExceeded(options, drift));
  drift.fitted_rows = 0;  // No fit baseline: never force inline.
  EXPECT_FALSE(stream::BackgroundLagExceeded(options, drift));

  using stream::EscalateRefresh;
  EXPECT_EQ(EscalateRefresh(RefreshAction::kFoldIn, RefreshAction::kIncremental),
            RefreshAction::kIncremental);
  EXPECT_EQ(EscalateRefresh(RefreshAction::kFullRefit, RefreshAction::kIncremental),
            RefreshAction::kFullRefit);
  EXPECT_EQ(EscalateRefresh(RefreshAction::kFoldIn, RefreshAction::kFoldIn),
            RefreshAction::kFoldIn);
}

// ------------------------------------------------- Incremental training --

TEST(Word2VecTest, ContinueTrainingIsDeterministicAndMovesVectors) {
  const Table table = LittleTable(50);
  const BinnedTable binned = BinnedTable::Compute(table);
  Rng rng(3);
  const Corpus corpus = Corpus::Build(binned, CorpusOptions{}, &rng);
  Word2VecOptions options;
  options.dim = 8;
  options.epochs = 1;
  const Word2VecModel trained = Word2VecModel::Train(corpus, options);

  Word2VecModel continued_a = trained;
  Word2VecModel continued_b = trained;
  continued_a.ContinueTraining(corpus, options);
  continued_b.ContinueTraining(corpus, options);

  bool moved = false;
  for (size_t w = 0; w < trained.vocab_size(); ++w) {
    auto before = trained.vector(w);
    auto a = continued_a.vector(w);
    auto b = continued_b.vector(w);
    for (size_t d = 0; d < trained.dim(); ++d) {
      EXPECT_EQ(a[d], b[d]);  // Same inputs, same result.
      if (a[d] != before[d]) moved = true;
    }
  }
  EXPECT_TRUE(moved);  // Training actually updated something.
}

// --------------------------------------------------------- StreamSession --

StreamSessionOptions FoldInOnlyOptions(SubTabConfig config) {
  StreamSessionOptions options;
  options.config = std::move(config);
  options.policy.max_out_of_range_rate = 1.0;
  options.policy.max_new_category_rate = 1.0;
  options.policy.staleness_budget = 1e9;
  options.policy.incremental_threshold = 1e9;
  return options;
}

TEST(StreamSessionTest, PublishesVersionedModelsAndKeys) {
  auto session = StreamSession::Open(LittleTable(40),
                                     FoldInOnlyOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  const ModelKey k0 = (*session)->model_key();
  EXPECT_EQ(k0.version, 0u);

  ASSERT_TRUE((*session)->Append(LittleTable(10, 40)).ok());
  const ModelKey k1 = (*session)->model_key();
  EXPECT_EQ(k1.version, 1u);
  EXPECT_NE(k1.table_fp, k0.table_fp);
  EXPECT_EQ(k1.config_fp, k0.config_fp);
  EXPECT_NE(k1.Digest(), k0.Digest());

  // The published model serves the appended rows; the spec stayed frozen.
  std::shared_ptr<const SubTab> model = (*session)->model();
  EXPECT_EQ(model->table().num_rows(), 50u);
  EXPECT_EQ(model->preprocessed().binned().num_rows(), 50u);
  // Double residency gone: the model holds the snapshot's table — the very
  // same object, not a copy.
  EXPECT_EQ(model->shared_table().get(),
            (*session)->current_version().table.get());
  const auto stats = (*session)->Stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.fold_ins, 1u);
  EXPECT_EQ(stats.full_refits, 0u);
}

TEST(StreamSessionTest, StalenessBudgetTriggersRefitAndResetsCounters) {
  StreamSessionOptions options;
  options.config = LittleConfig();
  options.policy.staleness_budget = 0.25;
  options.policy.incremental_threshold = 1e9;
  options.policy.min_rows_for_drift = 1u << 30;
  auto session = StreamSession::Open(LittleTable(40), std::move(options));
  ASSERT_TRUE(session.ok());

  // +8 rows: 20% of 40 fitted rows, under budget -> fold-in.
  auto e1 = (*session)->Append(LittleTable(8, 40));
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1->action, RefreshAction::kFoldIn);
  // +8 more: 40% since refit -> budget exhausted, full refit over 56 rows.
  auto e2 = (*session)->Append(LittleTable(8, 48));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->action, RefreshAction::kFullRefit);
  const auto stats = (*session)->Stats();
  EXPECT_EQ(stats.full_refits, 1u);
  EXPECT_EQ(stats.fitted_rows, 56u);
  EXPECT_EQ(stats.rows_since_refit, 0u);
}

TEST(StreamSessionTest, FoldInSelectionQualityNearFullRefit) {
  // The acceptance check of the subsystem: ten batches folded in with zero
  // retraining must select sub-tables whose combined score (coverage +
  // diversity, scored under the *refit* model's rules) stays within
  // tolerance of a full refit on the final table. Deterministic: every
  // stage is seeded.
  constexpr double kTolerance = 0.7;
  GeneratedDataset data = MakeCyber(2000);
  std::vector<size_t> base_rows(1000);
  for (size_t i = 0; i < base_rows.size(); ++i) base_rows[i] = i;
  const Table base = data.table.TakeRows(base_rows);

  SubTabConfig config = LittleConfig();
  config.k = 10;
  config.l = 7;
  config.embedding.dim = 16;
  config.embedding.epochs = 2;
  auto session = StreamSession::Open(base, FoldInOnlyOptions(config));
  ASSERT_TRUE(session.ok());
  for (size_t b = 0; b < 10; ++b) {
    std::vector<size_t> rows(100);
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = 1000 + b * 100 + i;
    ASSERT_TRUE((*session)->Append(data.table.TakeRows(rows)).ok());
  }
  ASSERT_EQ((*session)->Stats().fold_ins, 10u);

  Result<SubTab> refit = SubTab::Fit(data.table, config);
  ASSERT_TRUE(refit.ok());
  const RuleSet rules =
      MineRules(refit->preprocessed().binned(), RuleMiningOptions{});
  const CoverageEvaluator evaluator(refit->preprocessed().binned(), rules);
  const SubTabView fold_in_view = (*session)->model()->Select();
  const SubTabView refit_view = refit->Select();
  const double fold_in_score =
      ScoreSubTable(evaluator, fold_in_view.row_ids, fold_in_view.col_ids)
          .combined;
  const double refit_score =
      ScoreSubTable(evaluator, refit_view.row_ids, refit_view.col_ids).combined;
  ASSERT_GT(refit_score, 0.0);
  EXPECT_GE(fold_in_score, kTolerance * refit_score)
      << "fold-in " << fold_in_score << " vs refit " << refit_score;
}

// ------------------------------------------------------ Engine streaming --

TEST(EngineStreamTest, AppendRepublishesAndInvalidatesOnlyThatStream) {
  ServingEngine engine;
  auto session = StreamSession::Open(LittleTable(40),
                                     FoldInOnlyOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("live", *session).ok());
  ASSERT_TRUE(engine.RegisterTable("frozen", LittleTable(30),
                                   LittleConfig(9)).ok());

  // Warm both tables' caches.
  SelectRequest live{.table_id = "live", .query = {}, .k = {}, .l = {}, .seed = {}};
  SelectRequest frozen{.table_id = "frozen", .query = {}, .k = {}, .l = {}, .seed = {}};
  ASSERT_TRUE(engine.Select(live).status.ok());
  ASSERT_TRUE(engine.Select(frozen).status.ok());
  EXPECT_TRUE(engine.Select(live).from_cache);

  auto event = engine.Append("live", LittleTable(10, 40));
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->version, 1u);

  // The stream's cached selection was invalidated (recomputed over the new
  // version, 50 rows); the frozen table's cache entry survived.
  SelectResponse relive = engine.Select(live);
  ASSERT_TRUE(relive.status.ok());
  EXPECT_FALSE(relive.from_cache);
  EXPECT_EQ(engine.GetModel("live")->table().num_rows(), 50u);
  EXPECT_TRUE(engine.Select(frozen).from_cache);

  const auto stats = engine.Stats();
  EXPECT_EQ(stats.streaming.streams, 1u);
  EXPECT_EQ(stats.streaming.appends, 1u);
  EXPECT_GE(stats.streaming.cache_invalidations, 1u);
  EXPECT_EQ(stats.tables, 2u);
  // The superseded stream version was erased from the registry: only the
  // stream's live version and the frozen table remain resident, so a busy
  // stream can never churn static tables out of the LRU.
  EXPECT_EQ(stats.registry.cache.entries, 2u);

  // Appends to non-streams are rejected.
  EXPECT_FALSE(engine.Append("frozen", LittleTable(5, 0)).ok());
  EXPECT_FALSE(engine.Append("absent", LittleTable(5, 0)).ok());
}

TEST(EngineStreamTest, SupersedeSparesV0KeySharedWithStaticTable) {
  // A static registration of the stream's base (same table, same config)
  // shares the version-0 key by design. Superseding the stream's v0 must
  // not sweep the static table's warm selections or its registry entry.
  ServingEngine engine;
  auto session = StreamSession::Open(LittleTable(40),
                                     FoldInOnlyOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("live", *session).ok());
  ASSERT_TRUE(
      engine.RegisterTable("static", LittleTable(40), LittleConfig()).ok());
  SelectRequest stat{.table_id = "static", .query = {}, .k = {}, .l = {}, .seed = {}};
  ASSERT_TRUE(engine.Select(stat).status.ok());

  ASSERT_TRUE(engine.Append("live", LittleTable(10, 40)).ok());
  EXPECT_TRUE(engine.Select(stat).from_cache);  // Warm selection survived.
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.registry.cache.entries, 2u);  // Shared v0 + stream v1.
  EXPECT_EQ(stats.streaming.cache_invalidations, 0u);
}

TEST(EngineStreamTest, StreamBoundUnderTwoIdsRepublishesBoth) {
  ServingEngine engine;
  auto session = StreamSession::Open(LittleTable(40),
                                     FoldInOnlyOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("alice", *session).ok());
  ASSERT_TRUE(engine.RegisterStream("bob", *session).ok());
  ASSERT_TRUE(engine.Append("alice", LittleTable(10, 40)).ok());
  EXPECT_EQ(engine.GetModel("alice")->table().num_rows(), 50u);
  EXPECT_EQ(engine.GetModel("bob")->table().num_rows(), 50u);
  EXPECT_EQ(engine.GetModel("alice").get(), engine.GetModel("bob").get());
  EXPECT_EQ(engine.Stats().streaming.streams, 1u);  // Deduplicated.
}

// The TSan job runs this binary: appends racing selects across workers must
// be clean, with every response served by a complete, consistent version.
TEST(EngineStreamTest, ConcurrentAppendAndSelectServeConsistentVersions) {
  service::EngineOptions options;
  options.num_threads = 4;
  ServingEngine engine(options);
  auto session = StreamSession::Open(LittleTable(60),
                                     FoldInOnlyOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("live", *session).ok());

  constexpr size_t kBatches = 8;
  std::atomic<bool> done{false};
  std::atomic<size_t> selects_ok{0};
  std::vector<std::thread> selectors;
  for (int t = 0; t < 3; ++t) {
    selectors.emplace_back([&engine, &done, &selects_ok, t] {
      uint64_t seed = 1000 + t;
      // do-while: at least one select per thread even if every append
      // lands before the selectors get scheduled.
      do {
        SelectRequest request;
        request.table_id = "live";
        request.seed = ++seed;  // Distinct seeds dodge the selection cache.
        SelectResponse response = engine.Select(request);
        ASSERT_TRUE(response.status.ok());
        // A consistent version: every selected row exists in the response's
        // own materialized view.
        ASSERT_EQ(response.view->table.num_rows(),
                  response.view->row_ids.size());
        selects_ok.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_relaxed));
    });
  }
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(engine.Append("live", LittleTable(10, 60 + b * 10)).ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : selectors) t.join();

  EXPECT_EQ(engine.GetModel("live")->table().num_rows(), 60 + kBatches * 10);
  EXPECT_GT(selects_ok.load(), 0u);
  EXPECT_EQ(engine.Stats().streaming.appends, kBatches);

  // Double residency gone, visible in the stats: the stream's snapshot and
  // the served model share one Table object (and all versions share chunks),
  // so the deduplicated resident bytes are strictly below the per-binding
  // logical bytes.
  const service::MemoryStats memory = engine.Stats().memory;
  EXPECT_GT(memory.logical_bytes, 0u);
  EXPECT_LT(memory.resident_bytes, memory.logical_bytes);
  EXPECT_EQ(memory.shared_saved_bytes,
            memory.logical_bytes - memory.resident_bytes);
  EXPECT_EQ(memory.tables, 1u);  // Model table == stream snapshot table.
}

// Append-while-select over zero-copy chunked snapshots: selectors hold old
// versions and SCAN their rows (reading the shared chunks) while the
// appender publishes new versions that share those same chunks — the data
// race the immutable-chunk design must not have (TSan runs this binary).
TEST(EngineStreamTest, ConcurrentAppendWhileScanningSharedChunks) {
  auto session = StreamSession::Open(LittleTable(80),
                                     FoldInOnlyOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());

  constexpr size_t kBatches = 10;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> rows_scanned{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 3; ++t) {
    scanners.emplace_back([&session, &done, &rows_scanned] {
      do {
        // Hold one version's table across the scan; later appends must not
        // disturb it even though they share its chunks.
        std::shared_ptr<const SubTab> model = (*session)->model();
        const Table& table = model->table();
        double checksum = 0.0;
        size_t non_null = 0;
        for (size_t c = 0; c < table.num_columns(); ++c) {
          const Column& col = table.column(c);
          col.VisitRows(0, col.size(),
                        [&](size_t, const Chunk& chunk, size_t local) {
            if (chunk.is_null(local)) return;
            ++non_null;
            checksum += col.is_numeric()
                            ? chunk.num_value(local)
                            : static_cast<double>(chunk.cat_code(local));
          });
        }
        ASSERT_GT(non_null, 0u);
        ASSERT_TRUE(std::isfinite(checksum));
        // Query the same snapshot: predicate scans + gather over chunks.
        SpQuery query;
        query.filters = {Predicate::Num("a", CmpOp::kLt, 30.0)};
        Result<SubTabView> view = model->SelectForQuery(query);
        ASSERT_TRUE(view.ok());
        rows_scanned.fetch_add(non_null, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_relaxed));
    });
  }
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE((*session)->Append(LittleTable(10, 80 + b * 10)).ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : scanners) t.join();

  EXPECT_GT(rows_scanned.load(), 0u);
  EXPECT_EQ((*session)->current_version().table->num_chunks(), kBatches + 1);
}

// ---------------------------------------------------- Background refresh --

/// Background mode with thresholds forcing an incremental upgrade on every
/// append, and a lag budget so large the appender never trains inline.
StreamSessionOptions BackgroundOptions(SubTabConfig config) {
  StreamSessionOptions options;
  options.config = std::move(config);
  options.background_refresh = true;
  options.policy.max_out_of_range_rate = 1.0;
  options.policy.max_new_category_rate = 1.0;
  options.policy.staleness_budget = 1e9;
  options.policy.incremental_threshold = 0.0;  // Always wants an upgrade.
  options.policy.max_background_lag = 1e9;     // Never forces inline.
  return options;
}

TEST(BackgroundRefreshTest, AppendPublishesFoldInThenUpgradesSameVersion) {
  auto session = StreamSession::Open(LittleTable(60),
                                     BackgroundOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  const std::shared_ptr<const SubTab> before = (*session)->model();

  Result<RefreshEvent> event = (*session)->Append(LittleTable(20, 60));
  ASSERT_TRUE(event.ok());
  // The appender folded in and deferred the training.
  EXPECT_EQ(event->action, RefreshAction::kFoldIn);
  EXPECT_TRUE(event->upgrade_deferred);
  EXPECT_EQ(event->deferred_action, RefreshAction::kIncremental);
  EXPECT_EQ(event->key.version, 1u);
  EXPECT_EQ(event->key.refresh, 0u);
  // The fold-in publication was immediately servable with all 80 rows.
  EXPECT_EQ(event->model->table().num_rows(), 80u);

  (*session)->WaitForUpgrades();
  // The upgrade republished the SAME content version at generation 1 with a
  // retrained (distinct) model object.
  const ModelKey upgraded = (*session)->model_key();
  EXPECT_EQ(upgraded.version, 1u);
  EXPECT_EQ(upgraded.refresh, 1u);
  EXPECT_TRUE(upgraded.Supersedes(event->key));
  EXPECT_NE(upgraded.Digest(), event->key.Digest());
  const std::shared_ptr<const SubTab> after = (*session)->model();
  EXPECT_NE(after.get(), event->model.get());
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->table().num_rows(), 80u);

  const stream::StreamStats stats = (*session)->Stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.fold_ins, 1u);
  EXPECT_EQ(stats.deferred_upgrades, 1u);
  EXPECT_EQ(stats.upgrades_completed, 1u);
  EXPECT_EQ(stats.incremental_refreshes, 1u);
  EXPECT_EQ(stats.refresh_generation, 1u);
}

TEST(BackgroundRefreshTest, ExhaustedLagBudgetRunsInline) {
  StreamSessionOptions options = BackgroundOptions(LittleConfig());
  options.policy.max_background_lag = 0.0;  // Budget exhausted immediately.
  auto session = StreamSession::Open(LittleTable(60), options);
  ASSERT_TRUE(session.ok());
  Result<RefreshEvent> event = (*session)->Append(LittleTable(20, 60));
  ASSERT_TRUE(event.ok());
  // The appender had to train inline: no deferral, the publication already
  // carries the incremental refresh.
  EXPECT_EQ(event->action, RefreshAction::kIncremental);
  EXPECT_FALSE(event->upgrade_deferred);
  EXPECT_EQ(event->key.refresh, 0u);
  EXPECT_EQ((*session)->Stats().incremental_refreshes, 1u);
  EXPECT_EQ((*session)->Stats().deferred_upgrades, 0u);
}

TEST(BackgroundRefreshTest, UpgradeMatchesWhatInlineModeWouldHaveTrained) {
  // Determinism across scheduling: the background upgrade of version 1 must
  // produce the exact selections the inline incremental refresh produces,
  // because TrainRefresh is a pure function of (version, base model, seed).
  auto inline_session = StreamSession::Open(
      LittleTable(60), [&] {
        StreamSessionOptions o = BackgroundOptions(LittleConfig());
        o.background_refresh = false;
        return o;
      }());
  auto background_session = StreamSession::Open(
      LittleTable(60), BackgroundOptions(LittleConfig()));
  ASSERT_TRUE(inline_session.ok() && background_session.ok());

  ASSERT_TRUE((*inline_session)->Append(LittleTable(20, 60)).ok());
  ASSERT_TRUE((*background_session)->Append(LittleTable(20, 60)).ok());
  (*background_session)->WaitForUpgrades();

  const SubTabView inline_view = (*inline_session)->model()->Select();
  const SubTabView upgraded_view = (*background_session)->model()->Select();
  EXPECT_EQ(inline_view.row_ids, upgraded_view.row_ids);
  EXPECT_EQ(inline_view.col_ids, upgraded_view.col_ids);
}

TEST(EngineStreamTest, BackgroundUpgradeRepublishesBoundIds) {
  service::EngineOptions engine_options;
  engine_options.num_threads = 2;
  ServingEngine engine(engine_options);
  auto session = StreamSession::Open(LittleTable(60),
                                     BackgroundOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("bg", *session).ok());

  // Appending THROUGH THE SESSION (not engine.Append) must still republish:
  // the publish listener carries every publication to the engine.
  ASSERT_TRUE((*session)->Append(LittleTable(20, 60)).ok());
  EXPECT_EQ(engine.GetModel("bg")->table().num_rows(), 80u);

  (*session)->WaitForUpgrades();
  // The upgrade's republish swapped the binding to the generation-1 model
  // and swept the fold-in generation's cache/registry entries.
  EXPECT_EQ(engine.GetModel("bg").get(), (*session)->model().get());
  const service::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.streaming.upgrades_completed, 1u);
  EXPECT_EQ(stats.streaming.deferred_upgrades, 1u);

  // A select now runs against the upgraded model, bit-identical to serial.
  SelectRequest request;
  request.table_id = "bg";
  SpQuery query;
  query.filters = {Predicate::Num("a", CmpOp::kLt, 30.0)};
  request.query = query;
  SelectResponse response = engine.Select(request);
  ASSERT_TRUE(response.status.ok());
  Result<SubTabView> serial = (*session)->model()->SelectForQuery(query);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(response.view->row_ids, serial->row_ids);
  EXPECT_EQ(response.view->col_ids, serial->col_ids);
}

// The background-refresh TSan case: appends with deferred upgrades racing
// selects on the same stream through the engine. Every select must get a
// servable published model (never blocking on training), version/refresh
// ordering must never roll the binding back, and the final state must
// converge to the newest publication once upgrades drain.
TEST(EngineStreamTest, ConcurrentAppendWithBackgroundRefreshAndSelect) {
  service::EngineOptions engine_options;
  engine_options.num_threads = 4;
  ServingEngine engine(engine_options);
  auto session = StreamSession::Open(LittleTable(60),
                                     BackgroundOptions(LittleConfig()));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("live", *session).ok());

  constexpr size_t kBatches = 8;
  std::atomic<bool> done{false};
  std::atomic<size_t> selects_ok{0};
  std::vector<std::thread> selectors;
  for (int t = 0; t < 3; ++t) {
    selectors.emplace_back([&engine, &done, &selects_ok, t] {
      uint64_t seed = 5000 + t;
      do {
        SelectRequest request;
        request.table_id = "live";
        request.seed = ++seed;  // Distinct seeds dodge the selection cache.
        SelectResponse response = engine.Select(request);
        ASSERT_TRUE(response.status.ok());
        ASSERT_EQ(response.view->table.num_rows(),
                  response.view->row_ids.size());
        selects_ok.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_relaxed));
    });
  }
  for (size_t b = 0; b < kBatches; ++b) {
    Result<RefreshEvent> event =
        engine.Append("live", LittleTable(10, 60 + b * 10));
    ASSERT_TRUE(event.ok());
    // Appends never train inline here: publication is always the fold-in.
    ASSERT_EQ(event->action, RefreshAction::kFoldIn);
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : selectors) t.join();
  (*session)->WaitForUpgrades();

  EXPECT_GT(selects_ok.load(), 0u);
  // Converged: the binding serves the newest publication (version kBatches,
  // whatever refresh generation its upgrade reached), with every row.
  EXPECT_EQ(engine.GetModel("live").get(), (*session)->model().get());
  EXPECT_EQ(engine.GetModel("live")->table().num_rows(), 60 + kBatches * 10);
  EXPECT_EQ((*session)->model_key().version, kBatches);
  const service::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.streaming.appends, kBatches);
  // Upgrades either completed or were discarded for newer versions; the
  // handshake never loses one.
  EXPECT_GT(stats.streaming.deferred_upgrades, 0u);
  EXPECT_GT(stats.streaming.upgrades_completed +
                stats.streaming.upgrades_discarded,
            0u);
}

}  // namespace
}  // namespace subtab
