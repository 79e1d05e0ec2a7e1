#ifndef IBSEG_CLUSTER_VP_TREE_H_
#define IBSEG_CLUSTER_VP_TREE_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace ibseg {

/// Vantage-point tree over dense Euclidean points, supporting
/// epsilon-range queries. Backs DBSCAN's region queries so that segment
/// grouping scales past the brute-force O(n^2) wall (the paper clusters
/// millions of 28-dim segments; Sec. 9.2.4).
///
/// The tree keeps a reference to the point set; it must outlive the tree.
/// It also copies the coordinates in node order (n * dims doubles), so a
/// traversal reads memory sequentially.
class VpTree {
 public:
  /// Builds the tree. Deterministic: the vantage point of every node is the
  /// first element of its range and the radius is the median distance.
  explicit VpTree(const std::vector<std::vector<double>>& points);

  /// Appends the indices of all points within `eps` (inclusive) of `query`
  /// to `out` (not cleared). Includes the query point itself if present.
  /// When `dists` is non-null, appends each reported point's distance to it
  /// in step with `out`.
  ///
  /// Exact: the result is every index i with
  /// `euclidean_distance(points[i], query) <= eps`, no more and no less.
  /// Pruning admits points tied at a node's median radius and tolerates
  /// rounding in the triangle inequality, so the inclusion test above is
  /// the only decision. Hence the query at a larger eps, filtered by
  /// `dists[j] <= eps`, returns exactly the query at the smaller eps —
  /// which is what lets DBSCAN's eps grid share one neighbourhood pass.
  void range_query(const std::vector<double>& query, double eps,
                   std::vector<size_t>* out,
                   std::vector<double>* dists = nullptr) const;

  /// Distance to the k-th nearest neighbor of points[index] (excluding the
  /// point itself). Used by the eps auto-tuning heuristic.
  double kth_neighbor_distance(size_t index, size_t k) const;

  size_t size() const { return points_.size(); }
  const std::vector<std::vector<double>>& points() const { return points_; }

 private:
  struct Node {
    size_t point = 0;     // index into points_
    double radius = 0.0;  // median distance to the rest of the range
    int inside = -1;      // child with d <= radius
    int outside = -1;     // child with d > radius
  };

  int build(std::vector<size_t>& items, size_t begin, size_t end);
  void query_node(int node, const std::vector<double>& q, double eps,
                  std::vector<size_t>* out, std::vector<double>* dists) const;
  // euclidean_distance(points_[nodes_[node].point], q), read from coords_.
  double node_distance(int node, const std::vector<double>& q) const;

  const std::vector<std::vector<double>>& points_;
  std::vector<Node> nodes_;
  // The points' coordinates copied in node order (node i at i * dims_), so
  // a traversal, which visits nodes in ascending order, reads memory
  // sequentially instead of chasing one heap block per point.
  size_t dims_ = 0;
  std::vector<double> coords_;
  int root_ = -1;
};

}  // namespace ibseg

#endif  // IBSEG_CLUSTER_VP_TREE_H_
