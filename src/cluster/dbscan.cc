#include "cluster/dbscan.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cluster/vp_tree.h"
#include "util/thread_pool.h"

namespace ibseg {
namespace {

// Points per task of the neighbourhood pass. Each task owns the edge array
// of its points, so the graph is assembled without copying edges.
constexpr size_t kChunkPoints = 256;
// Worker cap for the neighbourhood pass, the per-eps runs and the eps
// estimate.
constexpr size_t kMaxThreads = 8;

// A pool for `tasks` independent tasks: one worker per hardware thread, at
// most kMaxThreads and at most `tasks`; none for a single task.
std::unique_ptr<ThreadPool> pool_for(size_t tasks) {
  if (tasks <= 1) return nullptr;
  size_t hardware = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::make_unique<ThreadPool>(std::min({hardware, kMaxThreads, tasks}));
}

// body(i) for i in [0, count), across `pool` when there is one.
void for_each_index(ThreadPool* pool, size_t count,
                    const std::function<void(size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(count, body);
  } else {
    for (size_t i = 0; i < count; ++i) body(i);
  }
}

// The eps-neighbourhoods of every point at every eps of an ascending grid,
// from one range query per point at the largest eps. Per point and eps
// rank it keeps the neighbourhood size (self included), and it stores each
// neighbouring pair once, at its higher-index endpoint: the lower-index
// neighbours of a point, grouped by the first grid eps that admits them,
// so those within the r-th eps are a prefix of the point's list.
class NeighbourGraph {
 public:
  NeighbourGraph(const VpTree& tree, const std::vector<double>& sorted_eps,
                 ThreadPool* pool)
      : ranks_(sorted_eps.size()),
        chunks_((tree.size() + kChunkPoints - 1) / kChunkPoints),
        counts_(tree.size() * ranks_),
        ends_(tree.size() * ranks_) {
    // Ids, counts and offsets into a chunk's edge array (at most
    // kChunkPoints * n edges) are uint32.
    if (tree.size() > std::numeric_limits<uint32_t>::max() / kChunkPoints) {
      throw std::length_error("dbscan: too many points for the graph");
    }
    for_each_index(pool, chunks_.size(),
                   [&](size_t c) { build(tree, sorted_eps, c); });
  }

  // |N_eps(p)| at the rank-th eps, p itself included.
  size_t count(size_t p, size_t rank) const {
    return counts_[p * ranks_ + rank];
  }

  // The neighbours q < p of point p within the rank-th eps.
  std::pair<const uint32_t*, const uint32_t*> lower_neighbours(
      size_t p, size_t rank) const {
    const uint32_t* ids = chunks_[p / kChunkPoints].data();
    size_t begin = p % kChunkPoints == 0 ? 0 : ends_[p * ranks_ - 1];
    return {ids + begin, ids + ends_[p * ranks_ + rank]};
  }

 private:
  void build(const VpTree& tree, const std::vector<double>& sorted_eps,
             size_t chunk) {
    const auto& points = tree.points();
    std::vector<uint32_t>& ids = chunks_[chunk];
    std::vector<size_t> found;
    std::vector<double> dists;
    std::vector<uint32_t> rank_of;
    std::vector<size_t> slot(ranks_);
    size_t last = std::min(points.size(), (chunk + 1) * kChunkPoints);
    for (size_t p = chunk * kChunkPoints; p < last; ++p) {
      found.clear();
      dists.clear();
      tree.range_query(points[p], sorted_eps.back(), &found, &dists);
      // Rank of a neighbour: the first eps with d <= eps, the same test a
      // range query at that eps applies.
      rank_of.resize(found.size());
      std::fill(slot.begin(), slot.end(), 0);
      size_t lower = 0;
      for (size_t j = 0; j < found.size(); ++j) {
        rank_of[j] = static_cast<uint32_t>(
            std::lower_bound(sorted_eps.begin(), sorted_eps.end(), dists[j]) -
            sorted_eps.begin());
        ++counts_[p * ranks_ + rank_of[j]];
        if (found[j] < p) {
          ++slot[rank_of[j]];
          ++lower;
        }
      }
      // Counting sort of the lower neighbours by rank; counts cumulative.
      size_t end = ids.size();
      for (size_t r = 0; r < ranks_; ++r) {
        if (r > 0) counts_[p * ranks_ + r] += counts_[p * ranks_ + r - 1];
        size_t begin = end;
        end += slot[r];
        slot[r] = begin;
        ends_[p * ranks_ + r] = static_cast<uint32_t>(end);
      }
      ids.resize(ids.size() + lower);
      for (size_t j = 0; j < found.size(); ++j) {
        if (found[j] < p) {
          ids[slot[rank_of[j]]++] = static_cast<uint32_t>(found[j]);
        }
      }
    }
  }

  size_t ranks_;
  std::vector<std::vector<uint32_t>> chunks_;
  // [p * ranks_ + r]: |N(p)| within the r-th eps.
  std::vector<uint32_t> counts_;
  // [p * ranks_ + r]: end of p's lower neighbours of rank <= r in its
  // chunk's ids.
  std::vector<uint32_t> ends_;
};

// DBSCAN at the graph's rank-th eps, in the closed form of the sequential
// algorithm's labels (see dbscan_grid in the header): the core points of a
// cluster are a connected component of core points, clusters are numbered
// in order of their lowest-index core point, and a border point joins the
// lowest-numbered cluster with a core point within eps of it.
DbscanResult run_dbscan(const NeighbourGraph& graph, size_t n, size_t rank,
                        size_t min_pts) {
  std::vector<char> core(n);
  for (size_t p = 0; p < n; ++p) core[p] = graph.count(p, rank) >= min_pts;

  // Union-find over core-core edges; the root of a set is its lowest index.
  std::vector<uint32_t> parent(n);
  for (size_t p = 0; p < n; ++p) parent[p] = static_cast<uint32_t>(p);
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t p = 0; p < n; ++p) {
    if (!core[p]) continue;
    auto [first, last] = graph.lower_neighbours(p, rank);
    for (const uint32_t* q = first; q != last; ++q) {
      if (!core[*q]) continue;
      uint32_t a = find(static_cast<uint32_t>(p));
      uint32_t b = find(*q);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }

  DbscanResult result;
  result.labels.assign(n, kNoise);
  int next_cluster = 0;
  for (size_t p = 0; p < n; ++p) {
    if (!core[p]) continue;
    uint32_t root = find(static_cast<uint32_t>(p));
    result.labels[p] = root == p ? next_cluster++ : result.labels[root];
  }
  auto offer = [&](size_t border, int cluster) {
    int& label = result.labels[border];
    if (label == kNoise || cluster < label) label = cluster;
  };
  for (size_t p = 0; p < n; ++p) {
    auto [first, last] = graph.lower_neighbours(p, rank);
    for (const uint32_t* q = first; q != last; ++q) {
      if (core[p] && !core[*q]) offer(*q, result.labels[p]);
      if (!core[p] && core[*q]) offer(p, result.labels[*q]);
    }
  }
  result.num_clusters = next_cluster;
  return result;
}

}  // namespace

double estimate_eps(const VpTree& tree, size_t min_pts) {
  // Median of the min_pts-th nearest-neighbor distance over a sample of
  // points: the "knee" proxy of the k-distance heuristic.
  const size_t n = tree.size();
  if (n < 2) return 1.0;
  size_t k = std::max<size_t>(1, min_pts - 1);
  size_t sample = std::min<size_t>(n, 512);
  size_t stride = std::max<size_t>(1, n / sample);
  std::vector<double> dists((n + stride - 1) / stride);
  std::unique_ptr<ThreadPool> pool = pool_for(n / kChunkPoints);
  for_each_index(pool.get(), dists.size(), [&](size_t j) {
    dists[j] = tree.kth_neighbor_distance(j * stride, k);
  });
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  double median = dists[dists.size() / 2];
  return median > 0.0 ? median : 1.0;
}

double estimate_eps(const std::vector<std::vector<double>>& points,
                    size_t min_pts) {
  return estimate_eps(VpTree(points), min_pts);
}

std::vector<DbscanResult> dbscan_grid(const VpTree& tree,
                                      const std::vector<double>& eps_values,
                                      size_t min_pts) {
  const size_t n = tree.size();
  std::vector<DbscanResult> results(eps_values.size());
  if (n == 0 || eps_values.empty()) return results;

  std::vector<double> sorted_eps = eps_values;
  std::sort(sorted_eps.begin(), sorted_eps.end());
  sorted_eps.erase(std::unique(sorted_eps.begin(), sorted_eps.end()),
                   sorted_eps.end());

  std::unique_ptr<ThreadPool> pool =
      pool_for((n + kChunkPoints - 1) / kChunkPoints);
  NeighbourGraph graph(tree, sorted_eps, pool.get());
  for_each_index(pool.get(), eps_values.size(), [&](size_t i) {
    size_t rank = static_cast<size_t>(
        std::lower_bound(sorted_eps.begin(), sorted_eps.end(), eps_values[i]) -
        sorted_eps.begin());
    results[i] = run_dbscan(graph, n, rank, min_pts);
    results[i].eps_used = eps_values[i];
  });
  return results;
}

DbscanResult dbscan(const std::vector<std::vector<double>>& points,
                    const DbscanParams& params) {
  VpTree tree(points);
  double eps = params.eps > 0.0
                   ? params.eps
                   : estimate_eps(tree, params.min_pts) * params.eps_scale;
  return dbscan_grid(tree, {eps}, params.min_pts).front();
}

}  // namespace ibseg
