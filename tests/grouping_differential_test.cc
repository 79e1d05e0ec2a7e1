// Differential suite for segment grouping's DBSCAN: dbscan_grid (one shared
// neighbourhood pass, run in parallel over points, then one DBSCAN per eps
// over a prefix of each point's neighbour list) against the sequential
// per-eps VP-tree BFS, kept here as the reference. Labels, cluster counts
// and eps_used must agree bit for bit on random blobs, on integer lattices
// whose pairs sit exactly at eps (with duplicate points), and on empty and
// single-point inputs, across min_pts values and unsorted, repeated eps
// grids.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <set>
#include <string>

#include "cluster/dbscan.h"
#include "cluster/vp_tree.h"
#include "util/rng.h"
#include "util/vector_math.h"

namespace ibseg {
namespace {

using Points = std::vector<std::vector<double>>;

// Sequential DBSCAN at one eps: its own range query per visited point, BFS
// seed expansion in neighbour order.
DbscanResult reference_dbscan(const Points& points, double eps,
                              size_t min_pts) {
  const size_t n = points.size();
  DbscanResult result;
  result.labels.assign(n, kNoise);
  if (n == 0) return result;

  VpTree tree(points);
  result.eps_used = eps;

  constexpr int kUnvisited = -2;
  std::vector<int> labels(n, kUnvisited);
  int next_cluster = 0;
  std::vector<size_t> neighbors;
  for (size_t p = 0; p < n; ++p) {
    if (labels[p] != kUnvisited) continue;
    neighbors.clear();
    tree.range_query(points[p], eps, &neighbors);
    if (neighbors.size() < min_pts) {
      labels[p] = kNoise;
      continue;
    }
    int cluster = next_cluster++;
    labels[p] = cluster;
    std::deque<size_t> seeds(neighbors.begin(), neighbors.end());
    while (!seeds.empty()) {
      size_t q = seeds.front();
      seeds.pop_front();
      if (labels[q] == kNoise) labels[q] = cluster;  // border point
      if (labels[q] != kUnvisited) continue;
      labels[q] = cluster;
      neighbors.clear();
      tree.range_query(points[q], eps, &neighbors);
      if (neighbors.size() >= min_pts) {
        for (size_t r : neighbors) {
          if (labels[r] == kUnvisited || labels[r] == kNoise) {
            seeds.push_back(r);
          }
        }
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    result.labels[i] = labels[i] == kUnvisited ? kNoise : labels[i];
  }
  result.num_clusters = next_cluster;
  return result;
}

void expect_identical(const DbscanResult& got, const DbscanResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.num_clusters, want.num_clusters) << context;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.eps_used),
            std::bit_cast<uint64_t>(want.eps_used))
      << context << ": eps_used " << got.eps_used << " vs " << want.eps_used;
  ASSERT_EQ(got.labels.size(), want.labels.size()) << context;
  size_t differing = 0;
  for (size_t i = 0; i < got.labels.size(); ++i) {
    if (got.labels[i] != want.labels[i]) ++differing;
  }
  EXPECT_EQ(differing, 0u) << context;
}

// Checks dbscan_grid over `points` at base * multiplier for every
// multiplier of `grid`, and every min_pts of {1, 2, 8, n + 1}, against the
// reference run independently per eps.
void check_grid(const Points& points, double base,
                const std::vector<double>& grid, const std::string& name) {
  VpTree tree(points);
  std::vector<double> eps_values;
  for (double m : grid) eps_values.push_back(base * m);
  for (size_t min_pts : {size_t{1}, size_t{2}, size_t{8}, points.size() + 1}) {
    std::vector<DbscanResult> got = dbscan_grid(tree, eps_values, min_pts);
    ASSERT_EQ(got.size(), eps_values.size());
    for (size_t i = 0; i < eps_values.size(); ++i) {
      expect_identical(got[i],
                       reference_dbscan(points, eps_values[i], min_pts),
                       name + " min_pts=" + std::to_string(min_pts) +
                           " grid[" + std::to_string(i) + "]");
    }
  }
}

// Overlapping Gaussian blobs plus uniform background noise: core, border
// and noise points all occur at every grid eps.
Points noisy_blobs(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  const size_t blobs = 5;
  Points centers(blobs, std::vector<double>(dims));
  for (auto& c : centers) {
    for (double& x : c) x = rng.next_double() * 10.0;
  }
  Points points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dims);
    if (rng.next_bool(0.15)) {
      for (double& x : p) x = rng.next_double() * 12.0 - 1.0;
    } else {
      const auto& c = centers[rng.next_below(blobs)];
      for (size_t d = 0; d < dims; ++d) p[d] = rng.next_gaussian(c[d], 0.8);
    }
    points.push_back(std::move(p));
  }
  return points;
}

// A random subset of an integer lattice, some points repeated: many pairs
// lie exactly at distance 1, sqrt(2), 2 or sqrt(5), and duplicates at 0.
Points lattice(size_t side, size_t dims, uint64_t seed) {
  Rng rng(seed);
  size_t cells = 1;
  for (size_t d = 0; d < dims; ++d) cells *= side;
  Points points;
  for (size_t cell = 0; cell < cells; ++cell) {
    if (rng.next_bool(0.3)) continue;
    std::vector<double> p(dims);
    size_t rest = cell;
    for (double& x : p) {
      x = static_cast<double>(rest % side);
      rest /= side;
    }
    size_t copies = 1 + (rng.next_bool(0.25) ? 1 + rng.next_below(3) : 0);
    for (size_t c = 0; c < copies; ++c) points.push_back(p);
  }
  // Shuffle so duplicates are not adjacent in index order.
  for (size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng.next_below(i)]);
  }
  return points;
}

const std::vector<double> kSegmentGrid = {0.6, 0.75, 0.9, 1.05,
                                          1.25, 1.5, 1.8};
// Unsorted, with repeats.
const std::vector<double> kShuffledGrid = {1.5, 0.6, 1.05, 1.8, 0.6,
                                           0.9, 1.8, 1.25, 0.75};

TEST(GroupingDifferential, GridMatchesPerEpsReferenceOnBlobs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (size_t dims : {2u, 5u}) {
      // Several hundred points: the neighbourhood pass spans several
      // chunks and runs on more than one thread.
      Points points = noisy_blobs(900 + 150 * seed, dims, seed * 10 + dims);
      double base = estimate_eps(points, 8);
      std::string name = "blobs seed=" + std::to_string(seed) +
                         " dims=" + std::to_string(dims);
      check_grid(points, base, kSegmentGrid, name);
      check_grid(points, base, kShuffledGrid, name + " shuffled");
    }
  }
}

TEST(GroupingDifferential, GridMatchesPerEpsReferenceOnLatticeTies) {
  // base = 1 puts eps exactly on lattice distances.
  const std::vector<double> ties = {std::sqrt(2.0), 1.0, 2.0, 1.0,
                                    std::sqrt(5.0), 0.5, std::sqrt(3.0)};
  check_grid(lattice(30, 2, 7), 1.0, ties, "lattice 2d");
  check_grid(lattice(9, 3, 8), 1.0, ties, "lattice 3d");
  check_grid(lattice(12, 1, 9), 1.0, ties, "lattice 1d");
}

TEST(GroupingDifferential, GridHandlesEmptyAndSinglePointInputs) {
  check_grid({}, 1.0, kShuffledGrid, "n=0");
  check_grid({{0.5, -2.0}}, 1.0, kShuffledGrid, "n=1");
  // The auto-tuned base of a single point is the documented 1.0.
  EXPECT_EQ(estimate_eps(Points{{3.0}}, 8), 1.0);
  EXPECT_TRUE(dbscan_grid(VpTree(Points{{1.0}}), {}, 8).empty());
}

TEST(GroupingDifferential, DbscanIsAGridOfOne) {
  Points points = noisy_blobs(700, 3, 42);
  for (size_t min_pts : {size_t{1}, size_t{2}, size_t{8}}) {
    DbscanParams fixed;
    fixed.eps = 1.1;
    fixed.min_pts = min_pts;
    expect_identical(dbscan(points, fixed),
                     reference_dbscan(points, 1.1, min_pts), "fixed eps");
    DbscanParams tuned;
    tuned.min_pts = min_pts;
    double eps = estimate_eps(points, min_pts) * tuned.eps_scale;
    expect_identical(dbscan(points, tuned),
                     reference_dbscan(points, eps, min_pts), "auto eps");
  }
  expect_identical(dbscan({}, {}), reference_dbscan({}, 1.0, 8), "empty");
}

TEST(VpTreeExactness, RangeQueryMatchesBruteForceOnTiesAndDuplicates) {
  for (size_t dims : {1u, 2u, 3u}) {
    Points points = lattice(dims == 1 ? 40 : dims == 2 ? 14 : 7, dims,
                            100 + dims);
    VpTree tree(points);
    for (double eps : {0.0, 1.0, std::sqrt(2.0), 2.0, std::sqrt(5.0)}) {
      for (size_t q = 0; q < points.size(); ++q) {
        std::vector<size_t> got;
        std::vector<double> dists;
        tree.range_query(points[q], eps, &got, &dists);
        ASSERT_EQ(got.size(), dists.size());
        std::multiset<size_t> got_set(got.begin(), got.end());
        std::multiset<size_t> want;
        for (size_t i = 0; i < points.size(); ++i) {
          if (euclidean_distance(points[q], points[i]) <= eps) want.insert(i);
        }
        ASSERT_EQ(got_set, want)
            << "dims=" << dims << " eps=" << eps << " q=" << q;
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_EQ(dists[j], euclidean_distance(points[got[j]], points[q]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ibseg
