#include "cluster/vp_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

#include "util/vector_math.h"

namespace ibseg {
namespace {

// Relative allowance for rounding in range-query pruning: far above the
// error of a sum of squares over any realistic dimension count, far below
// the spacing that would make pruning visit noticeably more nodes.
constexpr double kRoundingSlack = 1e-9;

}  // namespace

VpTree::VpTree(const std::vector<std::vector<double>>& points)
    : points_(points) {
  std::vector<size_t> items(points.size());
  for (size_t i = 0; i < items.size(); ++i) items[i] = i;
  nodes_.reserve(points.size());
  root_ = build(items, 0, items.size());
  dims_ = points.empty() ? 0 : points[0].size();
  coords_.reserve(nodes_.size() * dims_);
  for (const Node& n : nodes_) {
    assert(points[n.point].size() == dims_);
    coords_.insert(coords_.end(), points[n.point].begin(),
                   points[n.point].end());
  }
}

double VpTree::node_distance(int node, const std::vector<double>& q) const {
  assert(q.size() == dims_);
  return euclidean_distance(
      coords_.data() + static_cast<size_t>(node) * dims_, q.data(), dims_);
}

int VpTree::build(std::vector<size_t>& items, size_t begin, size_t end) {
  if (begin >= end) return -1;
  int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  size_t vantage = items[begin];
  nodes_[node_index].point = vantage;
  size_t rest_begin = begin + 1;
  if (rest_begin >= end) return node_index;

  size_t mid = rest_begin + (end - rest_begin) / 2;
  std::nth_element(items.begin() + static_cast<long>(rest_begin),
                   items.begin() + static_cast<long>(mid),
                   items.begin() + static_cast<long>(end),
                   [&](size_t a, size_t b) {
                     return euclidean_distance(points_[vantage], points_[a]) <
                            euclidean_distance(points_[vantage], points_[b]);
                   });
  double radius = euclidean_distance(points_[vantage], points_[items[mid]]);
  int inside = build(items, rest_begin, mid + 1);
  int outside = build(items, mid + 1, end);
  nodes_[node_index].radius = radius;
  nodes_[node_index].inside = inside;
  nodes_[node_index].outside = outside;
  return node_index;
}

void VpTree::query_node(int node, const std::vector<double>& q, double eps,
                        std::vector<size_t>* out,
                        std::vector<double>* dists) const {
  if (node < 0) return;
  const Node& n = nodes_[node];
  double d = node_distance(node, q);
  if (d <= eps) {
    out->push_back(n.point);
    if (dists != nullptr) dists->push_back(d);
  }
  // Triangle-inequality pruning. The inside child holds distances
  // <= radius and the outside child distances >= radius (ties at the median
  // fall on both sides), so the outside bound is inclusive. The slack
  // covers the rounding of the three computed distances, which can break
  // the triangle inequality by a few ulps on nearly collinear points; it
  // only widens the search, never changes which points are reported.
  double slack = kRoundingSlack * (d + std::fabs(eps) + n.radius);
  if (d - eps <= n.radius + slack) query_node(n.inside, q, eps, out, dists);
  if (d + eps >= n.radius - slack) query_node(n.outside, q, eps, out, dists);
}

void VpTree::range_query(const std::vector<double>& query, double eps,
                         std::vector<size_t>* out,
                         std::vector<double>* dists) const {
  query_node(root_, query, eps, out, dists);
}

double VpTree::kth_neighbor_distance(size_t index, size_t k) const {
  assert(index < points_.size());
  // Max-heap of the k smallest distances found via a pruned traversal.
  std::priority_queue<double> best;
  const std::vector<double>& q = points_[index];
  // Iterative DFS with pruning against the current k-th distance.
  std::vector<int> stack{root_};
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    if (node < 0) continue;
    const Node& n = nodes_[node];
    double d = node_distance(node, q);
    if (n.point != index) {
      if (best.size() < k) {
        best.push(d);
      } else if (d < best.top()) {
        best.pop();
        best.push(d);
      }
    }
    double bound = best.size() < k ? 1e300 : best.top();
    if (d - bound <= n.radius) stack.push_back(n.inside);
    if (d + bound > n.radius) stack.push_back(n.outside);
  }
  return best.empty() ? 0.0 : best.top();
}

}  // namespace ibseg
