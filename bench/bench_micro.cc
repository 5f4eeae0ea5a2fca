// Google-benchmark micro benchmarks for the substrates: query engine,
// binning, Apriori, Word2Vec training, k-means, coverage evaluation. These
// are throughput measurements of the building blocks behind Figs. 7 and 9.
//
// Like the figure harnesses, accepts --quick (CI-sized: only the smallest
// size variant of each benchmark is registered); every other flag passes
// through to the google-benchmark runner.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "subtab/binning/binned_table.h"
#include "subtab/cluster/kmeans.h"
#include "subtab/data/datasets.h"
#include "subtab/embed/word2vec.h"
#include "subtab/metrics/combined.h"
#include "subtab/rules/miner.h"
#include "subtab/table/query.h"

namespace subtab {
namespace {

const GeneratedDataset& Flights(size_t rows) {
  static auto* cache = new std::map<size_t, GeneratedDataset>();
  auto it = cache->find(rows);
  if (it == cache->end()) it = cache->emplace(rows, MakeFlights(rows)).first;
  return it->second;
}

void BM_QueryFilter(benchmark::State& state) {
  const GeneratedDataset& data = Flights(static_cast<size_t>(state.range(0)));
  SpQuery q;
  q.filters = {Predicate::Num("DISTANCE", CmpOp::kGe, 1500.0),
               Predicate::Str("CANCELLED", CmpOp::kEq, "0")};
  for (auto _ : state) {
    Result<QueryResult> r = RunQuery(data.table, q);
    benchmark::DoNotOptimize(r->row_ids.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Binning(benchmark::State& state) {
  const GeneratedDataset& data = Flights(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    BinnedTable binned = BinnedTable::Compute(data.table);
    benchmark::DoNotOptimize(binned.total_bins());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 31);
}

void BM_Apriori(benchmark::State& state) {
  const GeneratedDataset& data = Flights(static_cast<size_t>(state.range(0)));
  BinnedTable binned = BinnedTable::Compute(data.table);
  AprioriOptions options;
  options.min_support = 0.1;
  options.max_itemset_size = 3;
  for (auto _ : state) {
    auto itemsets = MineFrequentItemsets(binned, options);
    benchmark::DoNotOptimize(itemsets.size());
  }
}

void BM_Word2VecEpoch(benchmark::State& state) {
  const GeneratedDataset& data = Flights(10000);
  BinnedTable binned = BinnedTable::Compute(data.table);
  Rng rng(1);
  Corpus corpus = Corpus::Build(binned, CorpusOptions{}, &rng);
  Word2VecOptions options;
  options.dim = static_cast<size_t>(state.range(0));
  options.epochs = 1;
  options.num_threads = 1;
  for (auto _ : state) {
    Word2VecModel model = Word2VecModel::Train(corpus, options);
    benchmark::DoNotOptimize(model.vocab_size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.total_words()));
}

void BM_KMeans(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 32;
  std::vector<float> points(n * dim);
  for (float& v : points) v = static_cast<float>(rng.Normal());
  KMeansOptions options;
  options.k = 10;
  for (auto _ : state) {
    KMeansResult result = KMeans(points, dim, options);
    benchmark::DoNotOptimize(result.inertia);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The duplicate-heavy shape of SubTab's row matrices (binned rows repeat):
/// N points drawn from a pool of N/4 distinct rows, with the row-selection
/// restarts. KMeans computes distances once per distinct row, so this is
/// the grouping's best case; BM_KMeans (all distinct) is its worst.
void BM_KMeansDuplicated(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 32;
  std::vector<float> pool((n / 4) * dim);
  for (float& v : pool) v = static_cast<float>(rng.Normal());
  std::vector<float> points;
  points.reserve(n * dim);
  for (size_t p = 0; p < n; ++p) {
    const size_t src = rng.Uniform(n / 4);
    points.insert(points.end(), pool.begin() + src * dim,
                  pool.begin() + (src + 1) * dim);
  }
  KMeansOptions options;
  options.k = 10;
  options.n_init = 4;
  for (auto _ : state) {
    KMeansResult result = KMeans(points, dim, options);
    benchmark::DoNotOptimize(result.inertia);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_CoverageScore(benchmark::State& state) {
  const GeneratedDataset& data = Flights(static_cast<size_t>(state.range(0)));
  BinnedTable binned = BinnedTable::Compute(data.table);
  RuleMiningOptions mining;
  mining.apriori.min_support = 0.1;
  mining.min_confidence = 0.6;
  mining.min_rule_size = 3;
  RuleSet rules = MineRules(binned, mining);
  CoverageEvaluator evaluator(binned, rules);
  Rng rng(5);
  for (auto _ : state) {
    std::vector<size_t> rows = rng.SampleWithoutReplacement(binned.num_rows(), 10);
    std::vector<size_t> cols = rng.SampleWithoutReplacement(binned.num_columns(), 10);
    SubTableScore score = ScoreSubTable(evaluator, rows, cols, 0.5);
    benchmark::DoNotOptimize(score.combined);
  }
}

/// Registers every micro benchmark; under --quick only the smallest size
/// variant runs (registration-time choice: google-benchmark has no
/// post-registration filtering by Arg).
void RegisterAll(bool quick) {
  auto* query = benchmark::RegisterBenchmark("BM_QueryFilter", BM_QueryFilter);
  query->Arg(10000);
  if (!quick) query->Arg(40000);
  auto* binning = benchmark::RegisterBenchmark("BM_Binning", BM_Binning);
  binning->Arg(10000);
  if (!quick) binning->Arg(40000);
  auto* apriori = benchmark::RegisterBenchmark("BM_Apriori", BM_Apriori);
  apriori->Arg(5000)->Unit(benchmark::kMillisecond);
  if (!quick) apriori->Arg(20000);
  auto* w2v = benchmark::RegisterBenchmark("BM_Word2VecEpoch", BM_Word2VecEpoch);
  w2v->Arg(16)->Unit(benchmark::kMillisecond);
  if (!quick) w2v->Arg(64);
  auto* kmeans = benchmark::RegisterBenchmark("BM_KMeans", BM_KMeans);
  kmeans->Arg(2000)->Unit(benchmark::kMillisecond);
  if (!quick) kmeans->Arg(10000);
  auto* kmeans_dup =
      benchmark::RegisterBenchmark("BM_KMeansDuplicated", BM_KMeansDuplicated);
  kmeans_dup->Arg(2000)->Unit(benchmark::kMillisecond);
  if (!quick) kmeans_dup->Arg(10000);
  auto* coverage =
      benchmark::RegisterBenchmark("BM_CoverageScore", BM_CoverageScore);
  coverage->Arg(5000)->Unit(benchmark::kMillisecond);
  if (!quick) coverage->Arg(20000);
}

}  // namespace
}  // namespace subtab

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  subtab::RegisterAll(quick);
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
