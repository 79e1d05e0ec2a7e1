#include "index/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"

namespace ibseg {

namespace {

obs::Counter& postings_folds() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "ibseg_postings_folds_total",
      "Postings tail folds: re-seals of a cluster index's flat arena once "
      "its append-only tail outgrew the fold fraction of the base.");
  return c;
}

}  // namespace

uint32_t InvertedIndex::add_unit(const TermVector& terms) {
  finalized_ = false;  // norms must be recomputed
  uint32_t unit = static_cast<uint32_t>(stats_.size());
  UnitLexStats unit_stats = compute_unit_lex_stats(terms);
  for (const auto& [term, tf] : terms.entries()) {
    if (tf <= 0.0) continue;
    flat_.append(term, unit, tf, unit_stats);
    collection_tf_[term] += tf;
    collection_length_ += tf;
  }
  stats_.push_back(unit_stats);
  total_unique_ += static_cast<double>(unit_stats.unique_terms);
  length_sum_ += unit_stats.length;
  unit_norms_.push_back(1.0);  // placeholder until finalize()
  return unit;
}

void InvertedIndex::finalize() {
  if (finalized_) return;
  // Timed only when norms are actually recomputed; the idempotent
  // early-return above would otherwise flood the stage histogram with
  // no-op samples.
  obs::TraceScope term_weight(obs::Stage::kTermWeight);
  const double n = static_cast<double>(stats_.size());
  avg_unique_terms_ = stats_.empty() ? 0.0 : total_unique_ / n;
  avg_length_ = stats_.empty() ? 0.0 : length_sum_ / n;
  // Every pre-floor norm depends on the NU average, which every add moves,
  // so this pass is inherently O(units); the floor's sum is serial in unit
  // order (the one order-sensitive float sum of the scoring stack).
  double norm_sum = 0.0;
  for (size_t u = 0; u < stats_.size(); ++u) {
    unit_norms_[u] = pre_floor_unit_norm(stats_[u].log_tf_sum,
                                         stats_[u].unique_terms,
                                         avg_unique_terms_);
    norm_sum += unit_norms_[u];
  }
  norm_floor_ = 0.0;
  if (!unit_norms_.empty() && min_norm_fraction > 0.0) {
    norm_floor_ = min_norm_fraction * norm_sum / n;
    for (double& norm : unit_norms_) norm = std::max(norm, norm_floor_);
  }
  // The postings need no per-ingest work here: their metadata was folded
  // at add time and does not depend on the norms. Only a tail that has
  // outgrown its share of the base is sealed into a fresh arena.
  if (flat_.fold_due()) {
    flat_.fold();
    postings_folds().inc();
  }
  finalized_ = true;
}

std::vector<Posting> InvertedIndex::postings(TermId term) const {
  std::vector<uint32_t> units;
  std::vector<double> tfs;
  flat_.decode_term(term, &units, &tfs);
  std::vector<Posting> out(units.size());
  for (size_t i = 0; i < units.size(); ++i) out[i] = Posting{units[i], tfs[i]};
  return out;
}

size_t InvertedIndex::df(TermId term) const {
  const FlatTermMeta* meta = flat_.term_meta(term);
  return meta == nullptr ? 0 : meta->df;
}

double InvertedIndex::collection_tf(TermId term) const {
  auto it = collection_tf_.find(term);
  return it == collection_tf_.end() ? 0.0 : it->second;
}

double InvertedIndex::weight(TermId term, uint32_t unit) const {
  assert(finalized_);
  FlatPostings::Cursor cur = flat_.cursor(term);
  uint32_t u = 0;
  double tf = 0.0;
  while (cur.next(&u, &tf)) {
    if (u == unit) return (std::log(tf) + 1.0) / unit_norms_[unit];
  }
  return 0.0;
}

}  // namespace ibseg
