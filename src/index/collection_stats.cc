#include "index/collection_stats.h"

#include <algorithm>
#include <utility>

namespace ibseg {

UnitLexStats compute_unit_lex_stats(const TermVector& terms) {
  UnitLexStats stats;
  for (const auto& [term, tf] : terms.entries()) {
    if (tf <= 0.0) continue;
    stats.log_tf_sum += std::log(tf) + 1.0;
    stats.length += tf;
    ++stats.unique_terms;
  }
  return stats;
}

TermTotals ClusterCollectionStats::totals_of(TermId term) const {
  auto it = std::lower_bound(
      delta.begin(), delta.end(), term,
      [](const auto& entry, TermId t) { return entry.first < t; });
  if (it != delta.end() && it->first == term) return it->second;
  if (base != nullptr) {
    auto b = base->find(term);
    if (b != base->end()) return b->second;
  }
  return TermTotals{};
}

GlobalIndexStats::GlobalIndexStats(int num_clusters, double min_norm_fraction)
    : accums_(static_cast<size_t>(num_clusters > 0 ? num_clusters : 0)),
      views_(accums_.size()),
      min_norm_fraction_(min_norm_fraction) {
  for (auto& v : views_) v = std::make_shared<ClusterCollectionStats>();
}

void GlobalIndexStats::append(int cluster, const TermVector& terms,
                              bool refresh_now) {
  if (cluster < 0 || static_cast<size_t>(cluster) >= accums_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ClusterAccum& acc = accums_[static_cast<size_t>(cluster)];
  // Mirror of InvertedIndex::add_unit: same iteration (TermId order),
  // same tf <= 0 skip, same += accumulation of the collection totals.
  for (const auto& [term, tf] : terms.entries()) {
    if (tf <= 0.0) continue;
    TermTotals& totals = acc.totals[term];
    ++totals.df;
    totals.collection_tf += tf;
    acc.collection_length += tf;
  }
  UnitLexStats unit = compute_unit_lex_stats(terms);
  acc.units.push_back(unit);
  acc.total_unique += static_cast<double>(unit.unique_terms);
  acc.length_sum += unit.length;
  if (!refresh_now) {
    acc.fold_pending = true;
  } else {
    publish_locked(static_cast<size_t>(cluster),
                   acc.fold_pending ? nullptr : &terms);
  }
}

void GlobalIndexStats::refresh(int cluster) {
  if (cluster < 0 || static_cast<size_t>(cluster) >= accums_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked(static_cast<size_t>(cluster), nullptr);
}

void GlobalIndexStats::publish_locked(size_t cluster,
                                      const TermVector* appended) {
  ClusterAccum& acc = accums_[cluster];
  const ClusterCollectionStats& prev = *views_[cluster];
  auto view = std::make_shared<ClusterCollectionStats>();

  // Per-term totals: the previous delta with the appended unit's terms
  // replaced by (or inserted with) their current totals — a sorted merge,
  // since TermVector entries are TermId-ordered.
  const size_t base_size = prev.base == nullptr ? 0 : prev.base->size();
  bool fold = appended == nullptr;
  if (!fold) {
    view->delta.reserve(prev.delta.size() + appended->entries().size());
    auto d = prev.delta.begin();
    for (const auto& [term, tf] : appended->entries()) {
      if (tf <= 0.0) continue;
      while (d != prev.delta.end() && d->first < term) {
        view->delta.push_back(*d++);
      }
      if (d != prev.delta.end() && d->first == term) ++d;
      view->delta.emplace_back(term, acc.totals.find(term)->second);
    }
    view->delta.insert(view->delta.end(), d, prev.delta.end());
    fold = view->delta.size() * kTailFoldDivisor > base_size;
  }
  if (fold) {
    view->base = std::make_shared<const ClusterCollectionStats::TermTotalsMap>(
        acc.totals);
    view->delta.clear();
  } else {
    view->base = prev.base;
  }
  acc.fold_pending = false;

  // Mirror of InvertedIndex::finalize: the averages come from running sums
  // in unit order, the norm floor from a serial sweep over pre-floor norms
  // in unit order (order-sensitive — this vector IS the global publication
  // order).
  const size_t n = acc.units.size();
  view->num_units = n;
  view->collection_length = acc.collection_length;
  view->avg_unique_terms =
      n == 0 ? 0.0 : acc.total_unique / static_cast<double>(n);
  view->avg_unit_length =
      n == 0 ? 0.0 : acc.length_sum / static_cast<double>(n);
  double norm_sum = 0.0;
  for (const UnitLexStats& s : acc.units) {
    norm_sum += pre_floor_unit_norm(s.log_tf_sum, s.unique_terms,
                                    view->avg_unique_terms);
  }
  view->norm_floor = (n > 0 && min_norm_fraction_ > 0.0)
                         ? min_norm_fraction_ * norm_sum /
                               static_cast<double>(n)
                         : 0.0;
  views_[cluster] = std::move(view);
}

std::shared_ptr<const ClusterCollectionStats> GlobalIndexStats::cluster(
    int c) const {
  if (c < 0 || static_cast<size_t>(c) >= views_.size()) {
    static const std::shared_ptr<const ClusterCollectionStats> kEmpty =
        std::make_shared<ClusterCollectionStats>();
    return kEmpty;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return views_[static_cast<size_t>(c)];
}

size_t GlobalIndexStats::total_units() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const ClusterAccum& acc : accums_) n += acc.units.size();
  return n;
}

}  // namespace ibseg
