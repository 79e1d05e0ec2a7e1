#ifndef IBSEG_INDEX_INVERTED_INDEX_H_
#define IBSEG_INDEX_INVERTED_INDEX_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "index/collection_stats.h"
#include "index/flat_postings.h"
#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace ibseg {

/// Full-text inverted index over "units". The intention matcher builds one
/// per intention cluster (|C| indices, Sec. 7 "Indexing"); the FullText
/// baseline builds a single one over whole posts.
///
/// Also maintains the per-unit statistics needed by the MySQL-5.5-style
/// weighting of Eqs. 7/8: the sum of (log tf + 1) over the unit's terms and
/// the pivoted unique-term-count normalization NU.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Adds a unit: O(postings of the unit). Each posting is appended to the
  /// serving form's tail and folded into its term's FlatTermMeta once.
  /// Unit ids are assigned densely in insertion order and returned. Call
  /// finalize() before querying; adding after finalize() is allowed
  /// (online ingestion) but requires re-finalizing.
  uint32_t add_unit(const TermVector& terms);

  /// Recomputes the collection-dependent normalizations — the NU pivot
  /// average, every unit's norm and the norm floor, O(units) scalar work —
  /// and folds the postings tail into the sealed base when it has outgrown
  /// 1/kTailFoldDivisor of it. Idempotent until the next add_unit.
  void finalize();

  /// Decoded copy of the postings of `term`, ascending by unit (empty when
  /// absent). Diagnostics and tests; the query path reads flat().
  std::vector<Posting> postings(TermId term) const;

  /// The serving form of the postings (flat_postings.h): a sealed arena
  /// base followed by the append-only tail of units added since the last
  /// fold, so it never lags add_unit. Requires finalize() — the unit norms
  /// scoring pairs it with are only current after one.
  const FlatPostings& flat() const {
    assert(finalized_);
    return flat_;
  }

  /// Number of units containing `term` (document frequency).
  size_t df(TermId term) const;

  /// \brief Number of units added so far.
  size_t num_units() const { return unit_norms_.size(); }

  /// Average number of unique terms per unit (the pivot of NU, Eq. 7/8).
  double avg_unique_terms() const { return avg_unique_terms_; }

  /// The norm floor finalize() applied (0 when min_norm_fraction <= 0 or
  /// the index is empty): every unit_norm() is >= this value.
  double norm_floor() const { return norm_floor_; }

  /// Eq. 7/8 denominator for `unit`:
  ///   sum_{t' in unit} (log tf(t') + 1) * NU(unit)
  /// where NU(unit) = (1 - b) + b * unique(unit) / avg_unique and b = 0.75
  /// (the BM25-style pivot; penalizes units with more unique terms than the
  /// collection average, as the paper describes).
  double unit_norm(uint32_t unit) const { return unit_norms_[unit]; }

  /// Eq. 7/8 numerator-complete weight of `term` in `unit`:
  ///   (log tf + 1) / unit_norm(unit); 0 when the term is absent.
  double weight(TermId term, uint32_t unit) const;

  /// Total term-occurrence mass of `unit` (sum of tf) — the |d| of BM25
  /// and language-model scoring.
  double unit_length(uint32_t unit) const { return stats_[unit].length; }

  /// Average unit length across the collection. Requires finalize().
  double avg_unit_length() const { return avg_length_; }

  /// Collection frequency of `term` (total tf across units).
  double collection_tf(TermId term) const;

  /// Total term-occurrence mass of the collection.
  double collection_length() const { return collection_length_; }

  /// Per-unit sum of (log tf + 1) — the Eq. 7/8 numerator of the unit's
  /// norm. Exposed (with unit_unique_terms) so a document-partitioned
  /// shard's units can be re-normalized on the fly against *global*
  /// collection statistics (see ClusterCollectionStats): the norm is a pure
  /// function of these two locals plus the collection's NU average + floor.
  double unit_log_tf_sum(uint32_t unit) const {
    return stats_[unit].log_tf_sum;
  }

  /// Number of distinct terms in `unit` (the NU pivot input).
  size_t unit_unique_terms(uint32_t unit) const {
    return stats_[unit].unique_terms;
  }

  /// Pivot slope b of NU (alias of the shared kNormPivotSlope).
  static constexpr double kPivotSlope = kNormPivotSlope;

  /// Floor applied to unit norms, as a fraction of the collection-average
  /// norm. Eq. 7/8 divide by a per-unit sum that gets tiny for very short
  /// units, which would let a one-term overlap with a three-term segment
  /// outscore multi-term matches against substantial segments; the floor
  /// keeps short-unit weights bounded. Set before finalize().
  double min_norm_fraction = 1.0;

 private:
  FlatPostings flat_;
  std::unordered_map<TermId, double> collection_tf_;
  std::vector<UnitLexStats> stats_;
  std::vector<double> unit_norms_;
  /// Running sums over stats_ in unit order — the same serial sums a loop
  /// over every unit would compute, kept current at add time.
  double total_unique_ = 0.0;
  double length_sum_ = 0.0;
  double avg_unique_terms_ = 0.0;
  double avg_length_ = 0.0;
  double collection_length_ = 0.0;
  double norm_floor_ = 0.0;
  bool finalized_ = false;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_INVERTED_INDEX_H_
