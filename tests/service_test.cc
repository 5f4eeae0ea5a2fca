// Tests for the serving subsystem (service/): the sharded LRU primitive,
// the thread pool, fingerprints, the model registry (eviction, single
// fit sharing, disk persistence), and the engine (concurrent results
// bit-identical to the serial path, in-flight dedup, cache counters).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>

#include "subtab/core/fingerprint.h"
#include "subtab/eda/engine_replay.h"
#include "subtab/eda/session_generator.h"
#include "subtab/data/datasets.h"
#include "subtab/service/engine.h"
#include "subtab/service/lru_cache.h"
#include "subtab/service/model_registry.h"
#include "subtab/service/selection_cache.h"
#include "subtab/util/thread_pool.h"

namespace subtab {
namespace {

using service::CacheCounters;
using service::EngineOptions;
using service::ModelRegistry;
using service::ModelRegistryOptions;
using service::NormalizedQueryKey;
using service::SelectRequest;
using service::SelectResponse;
using service::ServingEngine;
using service::ShardedLruCache;

/// A small table whose contents vary with `shift`, so distinct shifts give
/// distinct fingerprints. Fits in milliseconds with TinyConfig.
Table TinyTable(double shift = 0.0) {
  std::vector<double> a, b;
  std::vector<std::string> c;
  for (int i = 0; i < 60; ++i) {
    a.push_back(static_cast<double>(i) + shift);
    b.push_back(static_cast<double>(i % 7) * 2.5 - shift);
    c.push_back(i % 3 == 0 ? "x" : i % 3 == 1 ? "y" : "z");
  }
  Result<Table> table = Table::Make({Column::Numeric("a", a),
                                     Column::Numeric("b", b),
                                     Column::Categorical("c", c)});
  SUBTAB_CHECK(table.ok());
  return std::move(*table);
}

SubTabConfig TinyConfig(uint64_t seed = 7) {
  SubTabConfig config;
  config.k = 4;
  config.l = 3;
  config.embedding.dim = 8;
  config.embedding.epochs = 1;
  config.seed = seed;
  return config;
}

SpQuery FilterQuery(double threshold) {
  SpQuery query;
  query.filters = {Predicate::Num("a", CmpOp::kGe, threshold)};
  return query;
}

// ------------------------------------------------------------- LRU cache --

struct IntHasher {
  uint64_t operator()(int key) const { return HashMix(static_cast<uint64_t>(key)); }
};

TEST(LruCacheTest, HitMissAndRecencyEviction) {
  ShardedLruCache<int, int, IntHasher> cache(2, /*num_shards=*/1);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, std::make_shared<const int>(10));
  cache.Put(2, std::make_shared<const int>(20));
  ASSERT_NE(cache.Get(1), nullptr);  // Refreshes 1; 2 is now LRU.
  EXPECT_EQ(*cache.Get(1), 10);
  cache.Put(3, std::make_shared<const int>(30));
  EXPECT_FALSE(cache.Contains(2));  // Evicted as least-recent.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));

  CacheCounters counters = cache.Stats();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 2u);
  EXPECT_EQ(counters.insertions, 3u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.entries, 2u);
}

TEST(LruCacheTest, PutReplacesValueWithoutEviction) {
  ShardedLruCache<int, int, IntHasher> cache(2, 1);
  cache.Put(1, std::make_shared<const int>(10));
  cache.Put(1, std::make_shared<const int>(11));
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

// ----------------------------------------------------------- Thread pool --

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // Must not block.
}

// ----------------------------------------------------------- Fingerprints --

TEST(FingerprintTest, StableAcrossIdenticalConstructions) {
  EXPECT_EQ(TableFingerprint(TinyTable(1.0)), TableFingerprint(TinyTable(1.0)));
  EXPECT_EQ(ConfigFingerprint(TinyConfig()), ConfigFingerprint(TinyConfig()));
}

TEST(FingerprintTest, DistinguishesNullFromZero) {
  // NaN input cells become nulls; they must not collide with literal 0.0.
  Result<Table> with_null =
      Table::Make({Column::Numeric("a", {1.0, std::nan(""), 3.0})});
  Result<Table> with_zero = Table::Make({Column::Numeric("a", {1.0, 0.0, 3.0})});
  ASSERT_TRUE(with_null.ok());
  ASSERT_TRUE(with_zero.ok());
  EXPECT_NE(TableFingerprint(*with_null), TableFingerprint(*with_zero));
}

TEST(FingerprintTest, SensitiveToContentAndConfig) {
  EXPECT_NE(TableFingerprint(TinyTable(1.0)), TableFingerprint(TinyTable(2.0)));
  SubTabConfig config = TinyConfig();
  SubTabConfig changed = TinyConfig();
  changed.seed = config.seed + 1;
  EXPECT_NE(ConfigFingerprint(config), ConfigFingerprint(changed));
  changed = TinyConfig();
  changed.binning.num_bins += 1;
  EXPECT_NE(ConfigFingerprint(config), ConfigFingerprint(changed));
}

TEST(FingerprintTest, NormalizedQueryKeyIgnoresFilterOrder) {
  SpQuery ab;
  ab.filters = {Predicate::Num("a", CmpOp::kGe, 1.0),
                Predicate::Str("c", CmpOp::kEq, "x")};
  SpQuery ba;
  ba.filters = {Predicate::Str("c", CmpOp::kEq, "x"),
                Predicate::Num("a", CmpOp::kGe, 1.0)};
  EXPECT_EQ(NormalizedQueryKey(ab), NormalizedQueryKey(ba));

  SpQuery limited = ab;
  limited.limit = 5;
  EXPECT_NE(NormalizedQueryKey(ab), NormalizedQueryKey(limited));
  SpQuery ordered = ab;
  ordered.order_by = "a";
  EXPECT_NE(NormalizedQueryKey(ab), NormalizedQueryKey(ordered));
}

TEST(FingerprintTest, NormalizedQueryKeyDeduplicatesRepeatedConjuncts) {
  // Conjunction is idempotent: "a AND a" selects exactly "a"'s rows, so the
  // sorted-but-duplicated filter list must produce the same cache key.
  SpQuery once;
  once.filters = {Predicate::Num("a", CmpOp::kGe, 1.0)};
  SpQuery twice;
  twice.filters = {once.filters[0], once.filters[0]};
  EXPECT_EQ(NormalizedQueryKey(once), NormalizedQueryKey(twice));
  // Interleaved duplicates among distinct conjuncts collapse too.
  SpQuery mixed;
  mixed.filters = {Predicate::Str("c", CmpOp::kEq, "x"), once.filters[0],
                   Predicate::Str("c", CmpOp::kEq, "x")};
  SpQuery clean;
  clean.filters = {once.filters[0], Predicate::Str("c", CmpOp::kEq, "x")};
  EXPECT_EQ(NormalizedQueryKey(mixed), NormalizedQueryKey(clean));
  // ...but a predicate differing only in literal must NOT collapse.
  SpQuery tighter;
  tighter.filters = {once.filters[0], Predicate::Num("a", CmpOp::kGe, 2.0)};
  EXPECT_NE(NormalizedQueryKey(once), NormalizedQueryKey(tighter));
}

TEST(FingerprintTest, ModelKeyRefreshGenerationChangesDigest) {
  ModelKey base{101, 202, 3};
  ModelKey upgraded{101, 202, 3, 1};
  EXPECT_NE(base.Digest(), upgraded.Digest());
  EXPECT_FALSE(base == upgraded);
  // Publication order: refresh breaks ties within a version; a newer
  // version beats any refresh generation of an older one.
  EXPECT_TRUE(upgraded.Supersedes(base));
  EXPECT_FALSE(base.Supersedes(upgraded));
  ModelKey next_version{101, 202, 4};
  EXPECT_TRUE(next_version.Supersedes(upgraded));
  EXPECT_FALSE(upgraded.Supersedes(next_version));
  // Generation 0 folds nothing in: digests of pre-refresh keys unchanged.
  EXPECT_EQ(base.Digest(), (ModelKey{101, 202, 3, 0}).Digest());
}

TEST(FingerprintTest, NormalizedQueryKeyIsLossless) {
  // Thresholds that render identically at display precision must not share
  // a cache key.
  EXPECT_NE(NormalizedQueryKey(FilterQuery(0.1231)),
            NormalizedQueryKey(FilterQuery(0.1234)));
  // A string literal containing quote/'&&' sequences must not collide with
  // the multi-predicate query it mimics.
  SpQuery crafted;
  crafted.filters = {Predicate::Str("c", CmpOp::kEq, "x' && d == 'y")};
  SpQuery two;
  two.filters = {Predicate::Str("c", CmpOp::kEq, "x"),
                 Predicate::Str("d", CmpOp::kEq, "y")};
  EXPECT_NE(NormalizedQueryKey(crafted), NormalizedQueryKey(two));
}

// --------------------------------------------------------- Model registry --

TEST(ModelRegistryTest, SecondSessionSharesOneFit) {
  ModelRegistry registry;
  Table table = TinyTable();
  SubTabConfig config = TinyConfig();
  auto first = registry.GetOrFit(table, config);
  ASSERT_TRUE(first.ok());
  auto second = registry.GetOrFit(table, config);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // Same instance, one fit.
  EXPECT_EQ(registry.Stats().fits, 1u);
  EXPECT_EQ(registry.Stats().cache.hits, 1u);
}

TEST(ModelRegistryTest, LruEvictionAndRefit) {
  ModelRegistryOptions options;
  options.capacity = 2;
  options.num_shards = 1;
  ModelRegistry registry(options);
  SubTabConfig config = TinyConfig();
  ASSERT_TRUE(registry.GetOrFit(TinyTable(1.0), config).ok());
  ASSERT_TRUE(registry.GetOrFit(TinyTable(2.0), config).ok());
  ASSERT_TRUE(registry.GetOrFit(TinyTable(3.0), config).ok());  // Evicts 1.0.
  EXPECT_EQ(registry.Stats().fits, 3u);
  EXPECT_EQ(registry.Stats().cache.evictions, 1u);
  EXPECT_EQ(registry.Peek(MakeModelKey(TinyTable(1.0), config)), nullptr);
  // Re-opening the evicted table re-fits.
  ASSERT_TRUE(registry.GetOrFit(TinyTable(1.0), config).ok());
  EXPECT_EQ(registry.Stats().fits, 4u);
}

TEST(ModelRegistryTest, PersistsModelsAcrossRegistries) {
  // Fresh per-run scratch dir: a leftover artifact from a previous run would
  // turn the first registry's fit into a load.
  const std::string dir = ::testing::TempDir() + "/subtab_registry_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ModelRegistryOptions options;
  options.persist_dir = dir;
  Table table = TinyTable(5.0);
  SubTabConfig config = TinyConfig();

  ModelRegistry first(options);
  auto fitted = first.GetOrFit(table, config);
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(first.Stats().fits, 1u);

  ModelRegistry second(options);  // Fresh process, same disk cache.
  auto loaded = second.GetOrFit(table, config);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(second.Stats().fits, 0u);
  EXPECT_EQ(second.Stats().loads, 1u);
  // The restored model selects identically.
  SubTabView a = (*fitted)->Select();
  SubTabView b = (*loaded)->Select();
  EXPECT_EQ(a.row_ids, b.row_ids);
  EXPECT_EQ(a.col_ids, b.col_ids);
}

// ----------------------------------------------------------------- Engine --

TEST(EngineTest, UnknownTableIsNotFound) {
  ServingEngine engine;
  SelectRequest request;
  request.table_id = "nope";
  SelectResponse response = engine.Select(request);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Stats().requests_failed, 1u);
}

TEST(EngineTest, ConcurrentSelectsMatchSerialPath) {
  EngineOptions options;
  options.num_threads = 4;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());
  std::shared_ptr<const SubTab> model = engine.GetModel("t");
  ASSERT_NE(model, nullptr);

  // 16 distinct queries (plus the whole table), all in flight at once.
  std::vector<SelectRequest> requests;
  for (int i = 0; i < 16; ++i) {
    SelectRequest request;
    request.table_id = "t";
    request.query = FilterQuery(static_cast<double>(i));
    requests.push_back(request);
  }
  SelectRequest whole;
  whole.table_id = "t";
  requests.push_back(whole);

  std::vector<std::shared_future<SelectResponse>> futures;
  for (const SelectRequest& request : requests) {
    futures.push_back(engine.SubmitSelect(request));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    SelectResponse response = futures[i].get();
    Result<SubTabView> serial = model->SelectForQuery(requests[i].query);
    ASSERT_TRUE(response.status.ok());
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(response.view->row_ids, serial->row_ids);
    EXPECT_EQ(response.view->col_ids, serial->col_ids);
  }
}

TEST(EngineTest, SeedOverrideMatchesSerialSeed) {
  ServingEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());
  std::shared_ptr<const SubTab> model = engine.GetModel("t");
  SelectRequest request;
  request.table_id = "t";
  request.query = FilterQuery(3.0);
  request.seed = 12345;
  SelectResponse response = engine.Select(request);
  ASSERT_TRUE(response.status.ok());
  Result<SubTabView> serial =
      model->SelectForQuery(request.query, std::nullopt, std::nullopt, 12345);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(response.view->row_ids, serial->row_ids);
  EXPECT_EQ(response.view->col_ids, serial->col_ids);
}

TEST(EngineTest, IdenticalInFlightRequestsAreDeduplicated) {
  EngineOptions options;
  options.num_threads = 1;  // One worker, held busy by the barrier below, so
                            // the identical burst stays in flight.
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });

  SelectRequest repeated;
  repeated.table_id = "t";
  repeated.query = FilterQuery(10.0);
  std::vector<std::shared_future<SelectResponse>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(engine.SubmitSelect(repeated));
  gate.set_value();  // Release the worker; one selection runs.

  const SubTabView* view = futures[0].get().view.get();
  ASSERT_NE(view, nullptr);
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().status.ok());
    EXPECT_EQ(future.get().view.get(), view);  // One shared stored view.
  }
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.requests_coalesced, 15u);       // All but the first.
  EXPECT_EQ(stats.selection_cache.insertions, 1u);  // Exactly one execution.
  // Coalesced waiters complete with the shared computation: the in-flight
  // gauge (submitted - completed) returns to zero.
  EXPECT_EQ(stats.requests_submitted, 16u);
  EXPECT_EQ(stats.requests_completed, 16u);
}

TEST(EngineTest, SelectionCacheCountersAreAccurate) {
  EngineOptions options;
  options.num_threads = 2;
  options.selection_cache_capacity = 2;
  options.cache_shards = 1;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());

  // Sequential sync selects: counters are exact.
  engine.Select({.table_id = "t", .query = FilterQuery(1.0)});
  engine.Select({.table_id = "t", .query = FilterQuery(2.0)});
  CacheCounters counters = engine.Stats().selection_cache;
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.hits, 0u);

  engine.Select({.table_id = "t", .query = FilterQuery(1.0)});  // Hit.
  engine.Select({.table_id = "t", .query = FilterQuery(2.0)});  // Hit.
  counters = engine.Stats().selection_cache;
  EXPECT_EQ(counters.hits, 2u);

  engine.Select({.table_id = "t", .query = FilterQuery(3.0)});  // Evicts 1.0.
  counters = engine.Stats().selection_cache;
  EXPECT_EQ(counters.evictions, 1u);
  engine.Select({.table_id = "t", .query = FilterQuery(1.0)});  // Miss again.
  counters = engine.Stats().selection_cache;
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.entries, 2u);

  // Filter order does not defeat the cache.
  SpQuery ab;
  ab.filters = {Predicate::Num("a", CmpOp::kGe, 1.0),
                Predicate::Num("b", CmpOp::kLe, 90.0)};
  SpQuery ba;
  ba.filters = {ab.filters[1], ab.filters[0]};
  engine.Select({.table_id = "t", .query = ab});
  SelectResponse reordered = engine.Select({.table_id = "t", .query = ba});
  EXPECT_TRUE(reordered.from_cache);
}

TEST(EngineTest, DeterministicFailuresAreCachedAndCounted) {
  ServingEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());
  SpQuery none = FilterQuery(1e12);  // Matches no rows -> InvalidArgument.
  SelectResponse first = engine.Select({.table_id = "t", .query = none});
  EXPECT_EQ(first.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(first.from_cache);
  SelectResponse repeat = engine.Select({.table_id = "t", .query = none});
  EXPECT_EQ(repeat.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(repeat.from_cache);  // No second table scan.
  EXPECT_EQ(engine.Stats().requests_failed, 2u);
  EXPECT_EQ(engine.Stats().requests_completed, 2u);
}

TEST(EngineTest, RegistryReusedAcrossTableIds) {
  ServingEngine engine;
  Table table = TinyTable();
  SubTabConfig config = TinyConfig();
  ASSERT_TRUE(engine.RegisterTable("alice", table, config).ok());
  ASSERT_TRUE(engine.RegisterTable("bob", table, config).ok());
  EXPECT_EQ(engine.GetModel("alice").get(), engine.GetModel("bob").get());
  EXPECT_EQ(engine.Stats().registry.fits, 1u);
  EXPECT_EQ(engine.Stats().tables, 2u);
}

TEST(EngineTest, StagedPipelineMatchesSerial) {
  // The same request stream through the staged pipeline with a
  // chunk-parallel scan and through the serial SubTab path must produce
  // bit-identical selections.
  Table table = TinyTable().Rechunked(13);  // Multi-chunk so sharding engages.
  EngineOptions staged_options;
  staged_options.num_threads = 4;
  staged_options.scan_threads = 2;
  ServingEngine staged(staged_options);
  ASSERT_TRUE(staged.RegisterTable("t", table, TinyConfig()).ok());
  std::shared_ptr<const SubTab> model = staged.GetModel("t");

  std::vector<std::shared_future<SelectResponse>> staged_futures;
  std::vector<SelectRequest> requests;
  for (int i = 0; i < 12; ++i) {
    SelectRequest request;
    request.table_id = "t";
    request.query = FilterQuery(static_cast<double>(i * 4));
    requests.push_back(request);
  }
  for (const SelectRequest& request : requests) {
    staged_futures.push_back(staged.SubmitSelect(request));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    SelectResponse a = staged_futures[i].get();
    Result<SubTabView> serial = model->SelectForQuery(requests[i].query);
    ASSERT_TRUE(a.status.ok() && serial.ok());
    EXPECT_EQ(a.view->row_ids, serial->row_ids);
    EXPECT_EQ(a.view->col_ids, serial->col_ids);
  }
  // Per-stage accounting ran: both stages saw wall time, every request got
  // a latency sample.
  const service::EngineStats stats = staged.Stats();
  EXPECT_GT(stats.pipeline.scan_seconds, 0.0);
  EXPECT_GT(stats.pipeline.select_seconds, 0.0);
  const LatencyHistogram::Snapshot latency =
      staged.metrics().Snapshot().histograms.at("pipeline.latency");
  EXPECT_EQ(latency.count, requests.size());
  EXPECT_GT(latency.Percentile(0.50), 0.0);
  EXPECT_GE(latency.Percentile(0.99), latency.Percentile(0.50));
}

TEST(EngineTest, AdmissionControlShedsInsteadOfQueueing) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_pending_per_tenant = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());

  // Hold the single worker so admitted requests stay pending.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });

  std::vector<std::shared_future<SelectResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    SelectRequest request;
    request.table_id = "t";
    request.query = FilterQuery(static_cast<double>(i));  // All distinct.
    futures.push_back(engine.SubmitSelect(request));
  }
  // The first two were admitted; the rest resolved immediately as shed.
  size_t shed = 0;
  for (int i = 2; i < 6; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get().status.code(), StatusCode::kUnavailable);
    ++shed;
  }
  EXPECT_EQ(engine.Stats().pipeline.requests_shed, shed);

  gate.set_value();
  engine.Drain();
  // The admitted pair completed normally; capacity is released afterwards
  // (a fresh request is admitted again).
  EXPECT_TRUE(futures[0].get().status.ok());
  EXPECT_TRUE(futures[1].get().status.ok());
  SelectRequest again;
  again.table_id = "t";
  again.query = FilterQuery(100.0);  // Matches nothing -> InvalidArgument,
                                     // but admitted (not kUnavailable).
  EXPECT_EQ(engine.Select(again).status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Stats().pipeline.tenants_tracked, 0u);
  // Identical in-flight requests coalesce without consuming admission slots:
  // submit the same query max_pending+2 times against a held worker.
  std::promise<void> gate2;
  std::shared_future<void> opened2 = gate2.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened2] { opened2.wait(); });
  SelectRequest repeated;
  repeated.table_id = "t";
  repeated.query = FilterQuery(7.5);
  std::vector<std::shared_future<SelectResponse>> repeats;
  for (int i = 0; i < 4; ++i) repeats.push_back(engine.SubmitSelect(repeated));
  gate2.set_value();
  for (auto& f : repeats) EXPECT_TRUE(f.get().status.ok());
}

// The registry is the engine's one stats surface: after a workload that
// touches every section (registry load, stream append, sampled selects with
// a quality check, cache hit, dedup, containment hit, shed, traces), every
// typed EngineStats counter and gauge equals its dotted registry value.
TEST(EngineTest, RegistryAgreesWithTypedStats) {
  const std::string dir = ::testing::TempDir() + "/subtab_agreement_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    EngineOptions fit_options;
    fit_options.persist_dir = dir;
    ServingEngine fitter(fit_options);
    ASSERT_TRUE(fitter.RegisterTable("t", TinyTable(), TinyConfig()).ok());
  }
  EngineOptions options;
  options.num_threads = 1;
  options.persist_dir = dir;
  options.max_pending_per_tenant = 2;
  options.max_queue_depth = 64;
  options.sampled_selection_min_rows = 40;
  options.selection_sample_rows = 16;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", TinyTable(), TinyConfig()).ok());
  stream::StreamSessionOptions stream_options;
  stream_options.config = TinyConfig();
  auto session = stream::StreamSession::Open(TinyTable(1.0), stream_options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("s", *session).ok());
  ASSERT_TRUE(engine.Append("s", TinyTable(2.0)).ok());

  ASSERT_TRUE(engine.Select({.table_id = "t", .query = FilterQuery(10.0)})
                  .status.ok());
  ASSERT_TRUE(engine.Select({.table_id = "t", .query = FilterQuery(10.0)})
                  .from_cache);
  ASSERT_TRUE(engine.Select({.table_id = "s", .query = FilterQuery(5.0)})
                  .status.ok());
  // Hold the worker: a duplicate coalesces, a third computation is shed by
  // the tenant bound, and the refinement of a >= 10 hits containment.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });
  auto first = engine.SubmitSelect({.table_id = "t", .query = FilterQuery(20.0)});
  auto duplicate =
      engine.SubmitSelect({.table_id = "t", .query = FilterQuery(20.0)});
  auto second = engine.SubmitSelect({.table_id = "t", .query = FilterQuery(30.0)});
  auto shed = engine.SubmitSelect({.table_id = "t", .query = FilterQuery(40.0)});
  gate.set_value();
  engine.Drain();
  EXPECT_TRUE(first.get().status.ok() && duplicate.get().status.ok() &&
              second.get().status.ok());
  EXPECT_EQ(shed.get().status.code(), StatusCode::kUnavailable);

  const service::EngineStats stats = engine.Stats();
  const MetricsSnapshot snap = engine.metrics().Snapshot();
  // The workload reached every section, so the comparisons below are not
  // zeros agreeing with zeros.
  EXPECT_EQ(stats.registry.loads, 1u);
  EXPECT_EQ(stats.streaming.appends, 1u);
  EXPECT_GT(stats.selection_cache.hits, 0u);
  EXPECT_EQ(stats.requests_coalesced, 1u);
  EXPECT_EQ(stats.pipeline.shed_tenant, 1u);
  EXPECT_GT(stats.containment.containment_hits, 0u);
  EXPECT_GT(stats.selection.quality_checks, 0u);
  EXPECT_GT(stats.trace.committed, 0u);

  const auto d = [](auto value) { return static_cast<double>(value); };
  const struct {
    const char* name;
    double typed;
  } rows[] = {
      {"engine.requests.submitted", d(stats.requests_submitted)},
      {"engine.requests.completed", d(stats.requests_completed)},
      {"engine.requests.failed", d(stats.requests_failed)},
      {"engine.requests.coalesced", d(stats.requests_coalesced)},
      {"engine.threads", d(stats.num_threads)},
      {"engine.queue_depth", d(stats.queue_depth)},
      {"engine.tables", d(stats.tables)},
      {"pipeline.shed.global_queue", d(stats.pipeline.shed_global_queue)},
      {"pipeline.shed.tenant", d(stats.pipeline.shed_tenant)},
      {"pipeline.workers_active", d(stats.pipeline.workers_active)},
      {"pipeline.worker_utilization", stats.pipeline.worker_utilization},
      {"pipeline.tenants_tracked", d(stats.pipeline.tenants_tracked)},
      {"pipeline.effective_max_queue_depth",
       d(stats.pipeline.max_queue_depth_effective)},
      {"pipeline.max_queue_depth_configured",
       d(stats.pipeline.max_queue_depth_configured)},
      {"pipeline.max_pending_per_tenant",
       d(stats.pipeline.max_pending_per_tenant)},
      {"containment.hits", d(stats.containment.containment_hits)},
      {"containment.misses", d(stats.containment.containment_misses)},
      {"containment.restricted_scan_rows",
       d(stats.containment.restricted_scan_rows)},
      {"containment.full_scan_rows", d(stats.containment.full_scan_rows)},
      {"containment.scope_entries", d(stats.containment.scope_entries)},
      {"containment.scope_invalidations",
       d(stats.containment.scope_invalidations)},
      {"scan.rows_visited", d(stats.scan.rows_visited)},
      {"scan.rows_matched", d(stats.scan.rows_matched)},
      {"scan.chunks_scanned", d(stats.scan.chunks_scanned)},
      {"scan.chunks_pruned", d(stats.scan.chunks_pruned)},
      {"scan.code_eval_predicates", d(stats.scan.code_eval_predicates)},
      {"selection.sampled", d(stats.selection.sampled)},
      {"selection.exact", d(stats.selection.exact)},
      {"selection.sample_rows", d(stats.selection.sample_rows_total)},
      {"selection.scope_rows_sampled", d(stats.selection.scope_rows_sampled)},
      {"selection.sample_quality_checks", d(stats.selection.quality_checks)},
      {"selection.sample_quality_fallbacks",
       d(stats.selection.quality_fallbacks)},
      {"selection.last_quality_ratio", stats.selection.last_quality_ratio},
      {"selection.min_quality_ratio", stats.selection.min_quality_ratio},
      {"selection_cache.hits", d(stats.selection_cache.hits)},
      {"selection_cache.misses", d(stats.selection_cache.misses)},
      {"selection_cache.insertions", d(stats.selection_cache.insertions)},
      {"selection_cache.evictions", d(stats.selection_cache.evictions)},
      {"selection_cache.entries", d(stats.selection_cache.entries)},
      {"registry.hits", d(stats.registry.cache.hits)},
      {"registry.misses", d(stats.registry.cache.misses)},
      {"registry.evictions", d(stats.registry.cache.evictions)},
      {"registry.entries", d(stats.registry.cache.entries)},
      {"registry.loads", d(stats.registry.loads)},
      {"registry.fits", d(stats.registry.fits)},
      {"registry.coalesced", d(stats.registry.coalesced)},
      {"memory.tables", d(stats.memory.tables)},
      {"memory.chunks", d(stats.memory.chunks)},
      {"memory.logical_bytes", d(stats.memory.logical_bytes)},
      {"memory.resident_bytes", d(stats.memory.resident_bytes)},
      {"memory.shared_saved_bytes", d(stats.memory.shared_saved_bytes)},
      {"streaming.streams", d(stats.streaming.streams)},
      {"streaming.appends", d(stats.streaming.appends)},
      {"streaming.rows_appended", d(stats.streaming.rows_appended)},
      {"streaming.fold_ins", d(stats.streaming.fold_ins)},
      {"streaming.incremental_refreshes",
       d(stats.streaming.incremental_refreshes)},
      {"streaming.full_refits", d(stats.streaming.full_refits)},
      {"streaming.fold_in_seconds", stats.streaming.fold_in_seconds},
      {"streaming.incremental_seconds", stats.streaming.incremental_seconds},
      {"streaming.refit_seconds", stats.streaming.refit_seconds},
      {"streaming.deferred_upgrades", d(stats.streaming.deferred_upgrades)},
      {"streaming.upgrades_completed", d(stats.streaming.upgrades_completed)},
      {"streaming.upgrades_discarded", d(stats.streaming.upgrades_discarded)},
      {"streaming.cache_invalidations",
       d(stats.streaming.cache_invalidations)},
      {"trace.committed", d(stats.trace.committed)},
      {"trace.ring_evicted", d(stats.trace.ring_evicted)},
      {"trace.exemplars_pinned", d(stats.trace.exemplars_pinned)},
      {"trace.exemplars_evicted", d(stats.trace.exemplars_evicted)},
      {"trace.threshold_ms", stats.trace.exemplar_threshold_seconds * 1e3},
  };
  for (const auto& row : rows) {
    const auto counter = snap.counters.find(row.name);
    const auto gauge = snap.gauges.find(row.name);
    ASSERT_TRUE(counter != snap.counters.end() || gauge != snap.gauges.end())
        << row.name << " is not in the registry";
    EXPECT_EQ(counter != snap.counters.end() ? d(counter->second)
                                             : gauge->second,
              row.typed)
        << row.name;
  }
  // Derived typed fields are sums or rescalings of registry counters.
  EXPECT_EQ(stats.pipeline.requests_shed,
            snap.counters.at("pipeline.shed.global_queue") +
                snap.counters.at("pipeline.shed.tenant"));
  EXPECT_EQ(stats.pipeline.scan_seconds,
            d(snap.counters.at("pipeline.scan_busy_ns")) * 1e-9);
  EXPECT_EQ(stats.pipeline.select_seconds,
            d(snap.counters.at("pipeline.select_busy_ns")) * 1e-9);
  // Latency lives only in the histograms: end to end and per stage.
  for (const char* name :
       {"pipeline.latency", "pipeline.stage.queue_scan", "pipeline.stage.scan",
        "pipeline.stage.queue_select", "pipeline.stage.select"}) {
    ASSERT_TRUE(snap.histograms.count(name)) << name;
    EXPECT_GT(snap.histograms.at(name).count, 0u) << name;
  }
  const std::string json = engine.MetricsJson();
  for (const char* key : {"\"p50_ms\":", "\"p95_ms\":", "\"p99_ms\":",
                          "\"memory.resident_bytes\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  std::filesystem::remove_all(dir);
}

// Engine replay produces the same capture statistics as the serial replay
// loop — the serving path changes latency, not results.
TEST(EngineTest, ReplayThroughEngineMatchesSerialReplay) {
  GeneratedDataset data = MakeCyber(2000);
  SubTabConfig config = TinyConfig();
  EngineOptions options;
  options.num_threads = 4;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("cyber", data.table, config).ok());
  std::shared_ptr<const SubTab> model = engine.GetModel("cyber");

  SessionGeneratorOptions session_options;
  session_options.num_sessions = 8;
  session_options.seed = 11;
  std::vector<Session> sessions = GenerateSessions(data, session_options);

  EngineReplayResult through_engine =
      ReplayThroughEngine(engine, "cyber", sessions, 6, 4);

  SelectorFn serial_selector = [&model](const std::vector<size_t>& rows,
                                        const std::vector<size_t>& cols,
                                        size_t k, size_t l) {
    SelectionScope scope;
    scope.rows = rows;
    scope.cols = cols;
    scope.target_cols = model->target_column_ids();
    SubTabView view = model->SelectScoped(scope, k, l);
    return std::make_pair(view.row_ids, view.col_ids);
  };
  ReplayStats serial = ReplaySessions(data.table, model->preprocessed().binned(),
                                      sessions, 6, 4, serial_selector);

  EXPECT_EQ(through_engine.stats.steps_scored, serial.steps_scored);
  EXPECT_EQ(through_engine.stats.fragments_captured, serial.fragments_captured);
}

}  // namespace
}  // namespace subtab
