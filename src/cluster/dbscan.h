#ifndef IBSEG_CLUSTER_DBSCAN_H_
#define IBSEG_CLUSTER_DBSCAN_H_

#include <cstddef>
#include <vector>

namespace ibseg {

class VpTree;

/// DBSCAN parameters (Ester et al. 1996 — the paper's clustering choice,
/// Sec. 6: no a-priori cluster count, arbitrary shapes, noise handling).
struct DbscanParams {
  /// Neighborhood radius. <= 0 requests auto-tuning from the k-distance
  /// curve (median of the min_pts-th neighbor distances, a standard
  /// heuristic) scaled by `eps_scale`.
  double eps = 0.0;
  /// Minimum neighborhood size (including the point itself) for a core
  /// point.
  size_t min_pts = 8;
  /// Multiplier applied to the auto-tuned eps. Values above 1 merge nearby
  /// density peaks; calibrated so segment grouping lands in the 3-6
  /// intention-cluster range the paper reports (Sec. 9.2).
  double eps_scale = 1.5;
};

/// Label for points not reachable from any core point.
inline constexpr int kNoise = -1;

/// DBSCAN output.
struct DbscanResult {
  /// Cluster id in [0, num_clusters) per point, or kNoise.
  std::vector<int> labels;
  int num_clusters = 0;
  /// The eps actually used (after auto-tuning).
  double eps_used = 0.0;
};

/// Runs DBSCAN over dense Euclidean points: dbscan_grid() with a grid of
/// one eps (params.eps, or the auto-tuned estimate times eps_scale).
/// Deterministic: points are visited in index order, so labels are stable
/// across runs.
DbscanResult dbscan(const std::vector<std::vector<double>>& points,
                    const DbscanParams& params = {});

/// Runs DBSCAN once per eps in `eps_values` (any order, repeats allowed)
/// over the points `tree` was built on, and returns the results in the
/// order of `eps_values`. Each result is bit-identical to an independent
/// DBSCAN run at that eps; an empty point set yields empty results with
/// eps_used 0.
///
/// The runs share one neighbourhood pass: every point is range-queried
/// once, at the largest eps, in parallel over points (a pool sized from
/// std::thread::hardware_concurrency(), capped at 8). The pass keeps each
/// point's neighbourhood size per eps and stores each neighbouring pair
/// once, as a uint32 id at its higher-index endpoint, grouped by the
/// smallest eps that admits it; a run at the r-th smallest eps reads a
/// prefix of each point's list.
///
/// Identity with independent runs holds because VpTree::range_query is
/// exact (the larger query, filtered by `d <= eps`, is the smaller query)
/// and DBSCAN's labels do not depend on the order in which neighbours are
/// visited: the core points of a cluster are a connected component of core
/// points within eps of each other, clusters are numbered in order of their
/// lowest-index core point, and a border point joins the lowest-numbered
/// cluster with a core point within eps of it. Each run computes that
/// closed form directly (union-find over core pairs).
std::vector<DbscanResult> dbscan_grid(const VpTree& tree,
                                      const std::vector<double>& eps_values,
                                      size_t min_pts);

/// The k-distance eps estimate used by the auto mode (median of the
/// (min_pts-1)-th neighbor distance over a sample), before eps_scale.
/// Exposed so callers can search around it.
double estimate_eps(const std::vector<std::vector<double>>& points,
                    size_t min_pts);

/// estimate_eps() over an already built tree, for callers that go on to
/// range-query the same tree.
double estimate_eps(const VpTree& tree, size_t min_pts);

}  // namespace ibseg

#endif  // IBSEG_CLUSTER_DBSCAN_H_
