// Tests for k-means / k-means++ / medoid extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "subtab/cluster/kmeans.h"

namespace subtab {
namespace {

/// `clusters` well-separated Gaussian blobs in `dim` dimensions.
std::vector<float> Blobs(size_t clusters, size_t per_cluster, size_t dim,
                         uint64_t seed, double separation = 50.0) {
  Rng rng(seed);
  std::vector<float> points;
  points.reserve(clusters * per_cluster * dim);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t p = 0; p < per_cluster; ++p) {
      for (size_t d = 0; d < dim; ++d) {
        const double center = (d == c % dim) ? separation * (1.0 + c) : 0.0;
        points.push_back(static_cast<float>(rng.Normal(center, 1.0)));
      }
    }
  }
  return points;
}

TEST(KMeansTest, SquaredDistance) {
  const float a[] = {0, 0, 0};
  const float b[] = {1, 2, 2};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 3), 9.0);
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  const size_t per = 40;
  std::vector<float> points = Blobs(3, per, 4, 1);
  KMeansOptions options;
  options.k = 3;
  options.seed = 5;
  KMeansResult result = KMeans(points, 4, options);
  // All points of one blob share an assignment, and blobs get distinct ones.
  std::set<uint32_t> blob_labels;
  for (size_t blob = 0; blob < 3; ++blob) {
    const uint32_t label = result.assignment[blob * per];
    blob_labels.insert(label);
    for (size_t p = 0; p < per; ++p) {
      EXPECT_EQ(result.assignment[blob * per + p], label);
    }
  }
  EXPECT_EQ(blob_labels.size(), 3u);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  std::vector<float> points = Blobs(4, 30, 3, 2);
  double prev = 1e30;
  for (size_t k = 1; k <= 4; ++k) {
    KMeansOptions options;
    options.k = k;
    options.seed = 3;
    const KMeansResult result = KMeans(points, 3, options);
    EXPECT_LE(result.inertia, prev + 1e-6);
    prev = result.inertia;
  }
}

TEST(KMeansTest, KEqualsNumPointsGivesZeroInertia) {
  std::vector<float> points = {0, 0, 10, 10, 20, 20};
  KMeansOptions options;
  options.k = 3;
  KMeansResult result = KMeans(points, 2, options);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KMeansTest, SinglePoint) {
  std::vector<float> points = {1.0f, 2.0f};
  KMeansOptions options;
  options.k = 1;
  KMeansResult result = KMeans(points, 2, options);
  EXPECT_EQ(result.assignment, (std::vector<uint32_t>{0}));
  EXPECT_NEAR(result.centroids[0], 1.0f, 1e-6);
}

TEST(KMeansTest, DeterministicForSeed) {
  std::vector<float> points = Blobs(3, 20, 2, 4);
  KMeansOptions options;
  options.k = 3;
  options.seed = 17;
  KMeansResult a = KMeans(points, 2, options);
  KMeansResult b = KMeans(points, 2, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids, b.centroids);
}

TEST(KMeansTest, DuplicatePointsDoNotCrash) {
  std::vector<float> points(20, 1.0f);  // 10 identical 2-d points.
  KMeansOptions options;
  options.k = 3;
  KMeansResult result = KMeans(points, 2, options);
  EXPECT_EQ(result.assignment.size(), 10u);
}

class KMeansSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KMeansSweepTest, AssignmentIsNearestCentroid) {
  // Lloyd invariant: on convergence every point's assigned centroid is at
  // least as close as any other centroid.
  const auto [k, dim] = GetParam();
  std::vector<float> points = Blobs(k, 25, dim, 7 + k + dim);
  KMeansOptions options;
  options.k = k;
  options.max_iterations = 100;
  options.seed = 23;
  const KMeansResult result = KMeans(points, dim, options);
  const size_t n = points.size() / dim;
  for (size_t p = 0; p < n; ++p) {
    const double assigned = SquaredDistance(
        points.data() + p * dim,
        result.centroids.data() + result.assignment[p] * dim, dim);
    for (size_t c = 0; c < k; ++c) {
      const double d =
          SquaredDistance(points.data() + p * dim, result.centroids.data() + c * dim, dim);
      EXPECT_GE(d + 1e-5, assigned);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, KMeansSweepTest,
                         ::testing::Combine(::testing::Values(2, 4, 7),
                                            ::testing::Values(2, 8, 16)));

TEST(MedoidTest, MedoidsAreDistinctRealPoints) {
  std::vector<float> points = Blobs(4, 15, 3, 9);
  KMeansOptions options;
  options.k = 4;
  const KMeansResult result = KMeans(points, 3, options);
  const std::vector<size_t> medoids = SelectMedoids(points, 3, result);
  EXPECT_EQ(medoids.size(), 4u);
  std::set<size_t> unique(medoids.begin(), medoids.end());
  EXPECT_EQ(unique.size(), 4u);
  for (size_t m : medoids) EXPECT_LT(m, points.size() / 3);
}

TEST(MedoidTest, MedoidsComeFromTheirClusters) {
  const size_t per = 30;
  std::vector<float> points = Blobs(3, per, 2, 10);
  KMeansOptions options;
  options.k = 3;
  const KMeansResult result = KMeans(points, 2, options);
  const std::vector<size_t> medoids = SelectMedoids(points, 2, result);
  // Each blob contributes exactly one medoid.
  std::set<size_t> blobs;
  for (size_t m : medoids) blobs.insert(m / per);
  EXPECT_EQ(blobs.size(), 3u);
}

TEST(MedoidTest, ClusterRepresentativesConvenience) {
  std::vector<float> points = Blobs(2, 10, 2, 11);
  KMeansOptions options;
  options.k = 2;
  const std::vector<size_t> reps = ClusterRepresentatives(points, 2, options);
  EXPECT_EQ(reps.size(), 2u);
  EXPECT_NE(reps[0], reps[1]);
}

TEST(MedoidTest, KEqualsNReturnsEveryPoint) {
  std::vector<float> points = {0, 0, 5, 5, 9, 9};
  KMeansOptions options;
  options.k = 3;
  const KMeansResult result = KMeans(points, 2, options);
  std::vector<size_t> medoids = SelectMedoids(points, 2, result);
  std::sort(medoids.begin(), medoids.end());
  EXPECT_EQ(medoids, (std::vector<size_t>{0, 1, 2}));
}

/// Plain Lloyd with k-means++ seeding, written the obvious way: every
/// point, one serial double-accumulation chain per centroid, no grouping of
/// duplicates and no register blocking. KMeans must reproduce it bitwise.
KMeansResult ReferenceKMeans(const std::vector<float>& points, size_t dim,
                             const KMeansOptions& options) {
  const size_t n = points.size() / dim;
  const size_t k = options.k;
  auto point = [&](size_t p) { return points.data() + p * dim; };
  KMeansResult best;
  for (size_t init = 0; init < options.n_init; ++init) {
    Rng rng(options.seed + init * 0x9e3779b9ULL);
    KMeansResult run;
    // k-means++ seeding.
    run.centroids.assign(k * dim, 0.0f);
    std::vector<double> dist2(n, std::numeric_limits<double>::max());
    std::copy_n(point(rng.Uniform(n)), dim, run.centroids.begin());
    for (size_t c = 1; c < k; ++c) {
      const float* last = run.centroids.data() + (c - 1) * dim;
      double total = 0.0;
      for (size_t p = 0; p < n; ++p) {
        dist2[p] = std::min(dist2[p], SquaredDistance(point(p), last, dim));
        total += dist2[p];
      }
      size_t chosen = n - 1;
      if (total <= 0.0) {
        chosen = rng.Uniform(n);
      } else {
        double u = rng.UniformDouble() * total;
        for (size_t p = 0; p < n; ++p) {
          u -= dist2[p];
          if (u <= 0.0) {
            chosen = p;
            break;
          }
        }
      }
      std::copy_n(point(chosen), dim, run.centroids.begin() + c * dim);
    }
    // Lloyd iterations.
    run.assignment.assign(n, 0);
    double prev = std::numeric_limits<double>::max();
    for (size_t iter = 0; iter < options.max_iterations; ++iter) {
      run.iterations = iter + 1;
      double inertia = 0.0;
      for (size_t p = 0; p < n; ++p) {
        double best_d = SquaredDistance(point(p), run.centroids.data(), dim);
        uint32_t best_c = 0;
        for (size_t c = 1; c < k; ++c) {
          const double d =
              SquaredDistance(point(p), run.centroids.data() + c * dim, dim);
          if (d < best_d) {
            best_d = d;
            best_c = static_cast<uint32_t>(c);
          }
        }
        run.assignment[p] = best_c;
        inertia += best_d;
      }
      run.inertia = inertia;
      std::vector<double> sums(k * dim, 0.0);
      std::vector<size_t> counts(k, 0);
      for (size_t p = 0; p < n; ++p) {
        for (size_t d = 0; d < dim; ++d) {
          sums[run.assignment[p] * dim + d] += point(p)[d];
        }
        ++counts[run.assignment[p]];
      }
      for (size_t c = 0; c < k; ++c) {
        if (counts[c] == 0) {
          size_t far_p = 0;
          double far_d = -1.0;
          for (size_t p = 0; p < n; ++p) {
            const double d = SquaredDistance(
                point(p), run.centroids.data() + run.assignment[p] * dim, dim);
            if (d > far_d) {
              far_d = d;
              far_p = p;
            }
          }
          std::copy_n(point(far_p), dim, run.centroids.begin() + c * dim);
          continue;
        }
        for (size_t d = 0; d < dim; ++d) {
          run.centroids[c * dim + d] = static_cast<float>(
              sums[c * dim + d] * (1.0 / static_cast<double>(counts[c])));
        }
      }
      if (prev != std::numeric_limits<double>::max() &&
          (prev - inertia) / std::max(prev, 1e-12) < options.tolerance) {
        break;
      }
      prev = inertia;
    }
    if (init == 0 || run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

/// KMeans + SelectMedoids against the reference, bitwise: assignment,
/// centroids (compared as bytes, so -0.0f vs +0.0f would show), inertia,
/// iterations and medoids.
void ExpectMatchesReference(const std::vector<float>& points, size_t dim,
                            const KMeansOptions& options,
                            const std::string& label) {
  SCOPED_TRACE(label + " dim=" + std::to_string(dim) +
               " k=" + std::to_string(options.k) +
               " n_init=" + std::to_string(options.n_init));
  const KMeansResult reference = ReferenceKMeans(points, dim, options);
  const KMeansResult actual = KMeans(points, dim, options);
  ASSERT_EQ(actual.assignment, reference.assignment);
  ASSERT_EQ(actual.centroids.size(), reference.centroids.size());
  ASSERT_EQ(std::memcmp(actual.centroids.data(), reference.centroids.data(),
                        actual.centroids.size() * sizeof(float)),
            0);
  ASSERT_EQ(std::memcmp(&actual.inertia, &reference.inertia, sizeof(double)),
            0);
  ASSERT_EQ(actual.iterations, reference.iterations);
  ASSERT_EQ(SelectMedoids(points, dim, actual),
            SelectMedoids(points, dim, reference));
}

/// `copies` points from a pool of about `distinct` blob points (each pool
/// point once, then random draws): few groups, many byte-identical copies.
std::vector<float> Duplicated(size_t distinct, size_t copies, size_t dim,
                              uint64_t seed) {
  const std::vector<float> pool = Blobs(3, (distinct + 2) / 3, dim, seed);
  const size_t pool_points = pool.size() / dim;
  Rng rng(seed ^ 0x5bd1e995ULL);
  std::vector<float> points;
  points.reserve(copies * dim);
  for (size_t i = 0; i < copies; ++i) {
    const size_t src = i < pool_points ? i : rng.Uniform(pool_points);
    points.insert(points.end(), pool.begin() + src * dim,
                  pool.begin() + (src + 1) * dim);
  }
  return points;
}

TEST(KMeansTest, DuplicateGroupingBitIdenticalToPlainLloyd) {
  // k spans the 8-wide, 4-wide and scalar-tail blocks of the distance
  // kernel; dim spans short and long accumulation chains.
  const std::vector<size_t> ks = {1, 3, 4, 5, 8, 9, 12, 13, 16};
  for (size_t dim : {1u, 3u, 8u, 13u, 32u}) {
    for (size_t k : ks) {
      KMeansOptions options;
      options.k = k;
      options.n_init = 3;
      options.seed = 91 + k * 7 + dim;
      // Heavy duplication: ~20 groups, 400 points.
      ExpectMatchesReference(Duplicated(20, 400, dim, 1000 + dim * 31 + k),
                             dim, options, "duplicated");
      // All distinct, plus a duplicated run (the pre-grouping shape).
      std::vector<float> points = Blobs(4, 30, dim, 2000 + dim * 31 + k);
      points.insert(points.end(), points.begin(),
                    points.begin() + static_cast<long>(8 * dim));
      ExpectMatchesReference(points, dim, options, "distinct");
    }
  }
}

TEST(KMeansTest, FewerDistinctPointsThanKMatchesPlainLloyd) {
  // Three distinct points, k up to 9: k-means++ runs out of positive D^2
  // mass (the total <= 0 branch) and Lloyd re-seeds empty clusters.
  for (size_t k : {3u, 4u, 7u, 9u}) {
    KMeansOptions options;
    options.k = k;
    options.n_init = 4;
    options.seed = 17 + k;
    ExpectMatchesReference(Duplicated(3, 60, 5, 40 + k), 5, options,
                           "three-distinct");
  }
}

TEST(KMeansTest, AllPointsIdenticalMatchesPlainLloyd) {
  std::vector<float> points;
  for (int i = 0; i < 50; ++i) points.insert(points.end(), {1.5f, -2.0f, 0.25f});
  for (size_t k : {1u, 2u, 5u, 8u}) {
    KMeansOptions options;
    options.k = k;
    options.n_init = 2;
    options.seed = 3 + k;
    ExpectMatchesReference(points, 3, options, "identical");
    const KMeansResult result = KMeans(points, 3, options);
    EXPECT_EQ(result.inertia, 0.0);
  }
}

TEST(KMeansTest, SignedZerosMatchPlainLloyd) {
  // +0.0f and -0.0f compare equal but differ in bytes: they form separate
  // groups, yet every distance they yield is the same, so the result must
  // still match the reference bitwise.
  const float z = 0.0f;
  const float nz = -0.0f;
  std::vector<float> points;
  for (int rep = 0; rep < 12; ++rep) {
    points.insert(points.end(), {z, z, 1.0f});
    points.insert(points.end(), {nz, z, 1.0f});
    points.insert(points.end(), {z, nz, 1.0f});
    points.insert(points.end(), {nz, nz, 1.0f});
    points.insert(points.end(), {4.0f, nz, nz});
    points.insert(points.end(), {4.0f, z, z});
  }
  for (size_t k : {1u, 2u, 3u, 4u, 6u}) {
    KMeansOptions options;
    options.k = k;
    options.n_init = 3;
    options.seed = 11 + k;
    ExpectMatchesReference(points, 3, options, "signed-zeros");
  }
}

TEST(KMeansTest, ExactDistanceTiesMatchPlainLloyd) {
  // Integer lattice points, repeated: many points sit at exactly equal
  // distance from two or more centroids, so the ascending strict-`<`
  // tie-break decides assignments.
  std::vector<float> points;
  for (int rep = 0; rep < 5; ++rep) {
    for (int x = 0; x < 4; ++x) {
      for (int y = 0; y < 4; ++y) {
        points.insert(points.end(),
                      {static_cast<float>(x), static_cast<float>(y)});
      }
    }
  }
  for (size_t k : {2u, 4u, 5u, 8u, 9u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      KMeansOptions options;
      options.k = k;
      options.n_init = 3;
      options.seed = seed;
      ExpectMatchesReference(points, 2, options, "lattice");
    }
  }
}

TEST(KMeansTest, RandomizedDuplicateShapesMatchPlainLloyd) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t dim = 1 + rng.Uniform(20);
    const size_t n = 20 + rng.Uniform(200);
    const size_t distinct = 1 + rng.Uniform(n);
    KMeansOptions options;
    options.k = 1 + rng.Uniform(std::min<size_t>(n, 17));
    options.n_init = 1 + rng.Uniform(4);
    options.seed = rng.Next();
    ExpectMatchesReference(Duplicated(distinct, n, dim, rng.Next()), dim,
                           options, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace subtab
