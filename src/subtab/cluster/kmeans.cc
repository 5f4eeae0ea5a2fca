#include "subtab/cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "subtab/util/hash.h"

namespace subtab {

double SquaredDistance(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = static_cast<double>(a[d]) - static_cast<double>(b[d]);
    acc += diff * diff;
  }
  return acc;
}

namespace {

/// Distances from one point to B centroids, accumulated side by side in B
/// compile-time accumulators (held in registers). Each centroid's sum adds
/// the exact same terms in the exact same order as SquaredDistance — only
/// the B *independent* chains interleave — so every output is bit-identical
/// to the one-at-a-time loop, while the B chains pipeline instead of
/// serializing on a single double-add latency chain. `cents` is the first of
/// B consecutive row-major centroids.
template <int B>
inline void DistanceBlock(const float* point, const double* cents_t,
                          size_t stride, size_t dim, double* out) {
  double acc[B] = {};
  for (size_t d = 0; d < dim; ++d) {
    const double pv = static_cast<double>(point[d]);
    const double* row = cents_t + d * stride;  // B contiguous centroids.
    for (int j = 0; j < B; ++j) {
      const double diff = pv - row[j];
      acc[j] += diff * diff;
    }
  }
  for (int j = 0; j < B; ++j) out[j] = acc[j];
}

/// Distances from `point` to all k centroids into `out`, via register
/// blocks of 8/4 with a scalar tail. `cents_t` holds the centroids
/// pre-widened to double (float -> double conversion is exact, so widening
/// once instead of per term changes nothing) and transposed to [dim][k] so
/// the block inner loop reads contiguous doubles the compiler can vectorize
/// lane-per-centroid (no reassociation within any chain); the result is
/// bit-identical to calling SquaredDistance per float centroid.
inline void DistancesToCentroids(const float* point, const double* cents_t,
                                 size_t k, size_t dim, double* out) {
  size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    DistanceBlock<8>(point, cents_t + c, k, dim, out + c);
  }
  for (; c + 4 <= k; c += 4) {
    DistanceBlock<4>(point, cents_t + c, k, dim, out + c);
  }
  for (; c < k; ++c) {
    double acc = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(point[d]) - cents_t[d * k + c];
      acc += diff * diff;
    }
    out[c] = acc;
  }
}

/// The input points grouped by the exact bytes of their `dim` floats. Binned
/// rows repeat, so the averaged tuple-vectors SubTab clusters are mostly
/// byte-identical copies; byte-identical points have identical distances to
/// any centroid, so every distance is computed once per group. Groups are
/// numbered in order of first occurrence.
struct PointGroups {
  std::vector<uint32_t> of_point;  ///< Group of each point.
  std::vector<size_t> rep;         ///< First point of each group.
};

/// FNV-1a over 32-bit words rather than bytes (util/hash.h's HashBytes):
/// a quarter of the serial multiply chain, and the table compares bytes
/// anyway.
uint64_t HashPointBytes(const float* point, size_t dim) {
  uint64_t h = 0;
  for (size_t d = 0; d < dim; ++d) {
    uint32_t bits = 0;
    std::memcpy(&bits, point + d, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return HashMix(h);
}

/// One pass over the points with a flat open-addressing table of group ids
/// (linear probing, load factor <= 1/2); no per-group allocation.
PointGroups GroupIdenticalPoints(const std::vector<float>& points, size_t dim,
                                 size_t num_points) {
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  SUBTAB_CHECK(num_points < kEmpty);
  size_t capacity = 16;
  while (capacity < 2 * num_points) capacity *= 2;
  const size_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, kEmpty);

  PointGroups groups;
  groups.of_point.resize(num_points);
  const size_t bytes = dim * sizeof(float);
  for (size_t p = 0; p < num_points; ++p) {
    const float* point = points.data() + p * dim;
    size_t slot = HashPointBytes(point, dim) & mask;
    while (true) {
      const uint32_t g = slots[slot];
      if (g == kEmpty) {
        slots[slot] = static_cast<uint32_t>(groups.rep.size());
        groups.of_point[p] = slots[slot];
        groups.rep.push_back(p);
        break;
      }
      if (std::memcmp(point, points.data() + groups.rep[g] * dim, bytes) == 0) {
        groups.of_point[p] = g;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  return groups;
}

/// k-means++ seeding: first center uniform, then D^2-weighted. The distance
/// to each new center is computed once per group; the per-point minimum,
/// the total and the sampling walk run over every point in order, exactly
/// as without grouping.
std::vector<float> PlusPlusInit(const std::vector<float>& points, size_t dim,
                                const PointGroups& groups, size_t k, Rng* rng) {
  const size_t num_points = groups.of_point.size();
  const size_t num_groups = groups.rep.size();
  std::vector<float> centroids(k * dim);
  std::vector<double> dist2(num_points, std::numeric_limits<double>::max());
  std::vector<double> group_dist(num_groups);

  const size_t first = rng->Uniform(num_points);
  std::copy_n(points.data() + first * dim, dim, centroids.begin());

  for (size_t c = 1; c < k; ++c) {
    const float* last = centroids.data() + (c - 1) * dim;
    for (size_t g = 0; g < num_groups; ++g) {
      group_dist[g] =
          SquaredDistance(points.data() + groups.rep[g] * dim, last, dim);
    }
    double total = 0.0;
    for (size_t p = 0; p < num_points; ++p) {
      dist2[p] = std::min(dist2[p], group_dist[groups.of_point[p]]);
      total += dist2[p];
    }
    size_t chosen;
    if (total <= 0.0) {
      // All remaining points coincide with chosen centers.
      chosen = rng->Uniform(num_points);
    } else {
      double u = rng->UniformDouble() * total;
      chosen = num_points - 1;
      for (size_t p = 0; p < num_points; ++p) {
        u -= dist2[p];
        if (u <= 0.0) {
          chosen = p;
          break;
        }
      }
    }
    std::copy_n(points.data() + chosen * dim, dim, centroids.begin() + c * dim);
  }
  return centroids;
}

KMeansResult KMeansSingleInit(const std::vector<float>& points, size_t dim,
                              const PointGroups& groups,
                              const KMeansOptions& options, uint64_t seed) {
  const size_t num_points = groups.of_point.size();
  const size_t num_groups = groups.rep.size();
  const size_t k = options.k;

  Rng rng(seed);
  KMeansResult result;
  result.centroids = PlusPlusInit(points, dim, groups, k, &rng);
  result.assignment.assign(num_points, 0);

  std::vector<double> sums(k * dim);
  std::vector<size_t> counts(k);
  std::vector<double> acc(k);            // Per-centroid distance sums.
  std::vector<double> cents_t(k * dim);  // Widened + transposed centroids.
  std::vector<uint32_t> group_cluster(num_groups);
  std::vector<double> group_best(num_groups);
  double prev_inertia = std::numeric_limits<double>::max();

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step: per group, all k distances via the register-blocked
    // kernel (bit-identical values, see DistanceBlock), then an ascending
    // strict-`<` scan picks the winner. Every point copies its group's
    // winner, and the inertia sums per point in point order.
    for (size_t c = 0; c < k; ++c) {
      for (size_t d = 0; d < dim; ++d) {
        cents_t[d * k + c] = static_cast<double>(result.centroids[c * dim + d]);
      }
    }
    for (size_t g = 0; g < num_groups; ++g) {
      DistancesToCentroids(points.data() + groups.rep[g] * dim, cents_t.data(),
                           k, dim, acc.data());
      double best = acc[0];
      uint32_t best_c = 0;
      for (size_t c = 1; c < k; ++c) {
        if (acc[c] < best) {
          best = acc[c];
          best_c = static_cast<uint32_t>(c);
        }
      }
      group_cluster[g] = best_c;
      group_best[g] = best;
    }
    double inertia = 0.0;
    for (size_t p = 0; p < num_points; ++p) {
      const uint32_t g = groups.of_point[p];
      result.assignment[p] = group_cluster[g];
      inertia += group_best[g];
    }
    result.inertia = inertia;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t p = 0; p < num_points; ++p) {
      const uint32_t c = result.assignment[p];
      const float* point = points.data() + p * dim;
      for (size_t d = 0; d < dim; ++d) sums[c * dim + d] += point[d];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at the point farthest from its centroid.
        size_t far_p = 0;
        double far_d = -1.0;
        for (size_t p = 0; p < num_points; ++p) {
          const double d = SquaredDistance(
              points.data() + p * dim,
              result.centroids.data() + result.assignment[p] * dim, dim);
          if (d > far_d) {
            far_d = d;
            far_p = p;
          }
        }
        std::copy_n(points.data() + far_p * dim, dim,
                    result.centroids.begin() + c * dim);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t d = 0; d < dim; ++d) {
        result.centroids[c * dim + d] = static_cast<float>(sums[c * dim + d] * inv);
      }
    }

    // Convergence on relative inertia improvement.
    if (prev_inertia != std::numeric_limits<double>::max()) {
      const double denom = std::max(prev_inertia, 1e-12);
      if ((prev_inertia - inertia) / denom < options.tolerance) break;
    }
    prev_inertia = inertia;
  }
  return result;
}

}  // namespace

KMeansResult KMeans(const std::vector<float>& points, size_t dim,
                    const KMeansOptions& options) {
  SUBTAB_CHECK(options.n_init >= 1);
  SUBTAB_CHECK(dim > 0);
  SUBTAB_CHECK(points.size() % dim == 0);
  const size_t num_points = points.size() / dim;
  SUBTAB_CHECK(options.k >= 1 && options.k <= num_points);

  // Grouped once, shared by every restart.
  const PointGroups groups = GroupIdenticalPoints(points, dim, num_points);
  KMeansResult best;
  for (size_t init = 0; init < options.n_init; ++init) {
    KMeansResult run = KMeansSingleInit(points, dim, groups, options,
                                        options.seed + init * 0x9e3779b9ULL);
    if (init == 0 || run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

std::vector<size_t> SelectMedoids(const std::vector<float>& points, size_t dim,
                                  const KMeansResult& result) {
  const size_t num_points = points.size() / dim;
  const size_t k = result.centroids.size() / dim;
  SUBTAB_CHECK(k <= num_points);

  std::vector<size_t> medoids;
  medoids.reserve(k);
  std::vector<char> used(num_points, 0);
  for (size_t c = 0; c < k; ++c) {
    const float* centroid = result.centroids.data() + c * dim;
    double best = std::numeric_limits<double>::max();
    size_t best_p = num_points;  // Sentinel.
    // Prefer points assigned to this cluster.
    for (size_t p = 0; p < num_points; ++p) {
      if (used[p] || result.assignment[p] != c) continue;
      const double d = SquaredDistance(points.data() + p * dim, centroid, dim);
      if (d < best) {
        best = d;
        best_p = p;
      }
    }
    if (best_p == num_points) {
      // Empty (or fully used) cluster: fall back to the globally nearest
      // unused point so we still return k distinct representatives.
      for (size_t p = 0; p < num_points; ++p) {
        if (used[p]) continue;
        const double d = SquaredDistance(points.data() + p * dim, centroid, dim);
        if (d < best) {
          best = d;
          best_p = p;
        }
      }
    }
    SUBTAB_CHECK(best_p < num_points);
    used[best_p] = 1;
    medoids.push_back(best_p);
  }
  return medoids;
}

std::vector<size_t> ClusterRepresentatives(const std::vector<float>& points,
                                           size_t dim, const KMeansOptions& options) {
  const KMeansResult result = KMeans(points, dim, options);
  return SelectMedoids(points, dim, result);
}

}  // namespace subtab
