#ifndef IBSEG_INDEX_COLLECTION_STATS_H_
#define IBSEG_INDEX_COLLECTION_STATS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace ibseg {

/// BM25-style pivot slope b of the Eq. 7/8 unique-term normalization NU.
/// Shared by InvertedIndex::finalize and the sharded scoring path so both
/// compute unit norms with literally the same constant.
inline constexpr double kNormPivotSlope = 0.75;

/// Fold rule shared by the append-only structures of the ingest path (the
/// FlatPostings tail and the GlobalIndexStats delta views): a delta is
/// merged into its immutable base once it holds more than
/// 1/kTailFoldDivisor of the base's entries. Each fold costs O(base), and
/// the base grows by at least that fraction between folds, so the merge
/// work is amortized O(1) per appended entry.
inline constexpr size_t kTailFoldDivisor = 8;

/// Per-unit lexical statistics of Eqs. 7/8 — everything about one unit the
/// term-weight denominator needs. Computed once at add time; the values are
/// a pure function of the unit's term bag, so the sharded stats board and a
/// shard's local InvertedIndex derive bit-identical numbers from the same
/// TermVector (both call compute_unit_lex_stats).
struct UnitLexStats {
  double log_tf_sum = 0.0;  ///< sum of (log tf + 1) over the unit's terms
  double length = 0.0;      ///< sum of tf (the |d| of BM25 / LM scoring)
  size_t unique_terms = 0;  ///< number of distinct terms with tf > 0
};

/// Folds a term bag into UnitLexStats, iterating entries in TermId order
/// (TermVector is id-ordered) and skipping non-positive weights — the exact
/// accumulation InvertedIndex::add_unit performs.
UnitLexStats compute_unit_lex_stats(const TermVector& terms);

/// The Eq. 7/8 denominator of one unit, *before* the collection-average
/// floor: (sum of log tf + 1) * NU, where NU pivots the unit's unique-term
/// count against the collection average; degenerate denominators fall back
/// to 1. Shared by InvertedIndex::finalize (which then applies the floor
/// via max) and the external-stats scoring path, so a unit's norm is the
/// same double no matter which side computes it.
inline double pre_floor_unit_norm(double log_tf_sum, size_t unique_terms,
                                  double avg_unique_terms) {
  double nu = 1.0;
  if (avg_unique_terms > 0.0) {
    nu = (1.0 - kNormPivotSlope) +
         kNormPivotSlope * static_cast<double>(unique_terms) /
             avg_unique_terms;
  }
  double denom = log_tf_sum * nu;
  return denom > 0.0 ? denom : 1.0;
}

/// Collection-wide totals of one term within one intention cluster.
struct TermTotals {
  size_t df = 0;               ///< |I^t|: units containing the term
  double collection_tf = 0.0;  ///< sum of the term's tf over those units
};

/// Immutable snapshot of one intention cluster's collection-dependent
/// scoring statistics, aggregated over EVERY shard of a document-partitioned
/// deployment. A shard's inverted index holds only its own documents'
/// postings; scoring them against these global numbers reproduces — bit for
/// bit — the scores a single unpartitioned index would produce, because
/// every collection-dependent input (|I|, |I^t|, the NU pivot average, the
/// norm floor, the LM collection model) is the global value. See
/// docs/ARCHITECTURE.md §6.
///
/// The per-term totals are a shared immutable `base` (as of the board's
/// last fold, shared by every view published since) overlaid by a small
/// sorted `delta` holding the *current* totals of each term touched after
/// that fold. A delta entry replaces its base entry rather than adding to
/// it, so a lookup returns exactly the accumulator's value — no
/// re-association of the sums, whatever their values.
struct ClusterCollectionStats {
  using TermTotalsMap = std::unordered_map<TermId, TermTotals>;

  size_t num_units = 0;          ///< |I|: units across all shards
  double avg_unique_terms = 0.0; ///< NU pivot average (global)
  double norm_floor = 0.0;       ///< Eq. 7/8 norm floor; 0 = no floor
  double avg_unit_length = 0.0;  ///< BM25 length pivot (global)
  double collection_length = 0.0;  ///< LM collection mass (global)
  /// Totals as of the board's last fold (nullptr = none yet).
  std::shared_ptr<const TermTotalsMap> base;
  /// Current totals of the terms touched since that fold, by TermId.
  std::vector<std::pair<TermId, TermTotals>> delta;

  /// The term's current totals (zeros when absent).
  TermTotals totals_of(TermId term) const;
  size_t df_of(TermId term) const { return totals_of(term).df; }
  double collection_tf_of(TermId term) const {
    return totals_of(term).collection_tf;
  }
};

/// The sharded deployment's global statistics board: one ClusterCollection-
/// Stats per intention cluster, aggregated over all shards in publication
/// order. The board mirrors InvertedIndex arithmetic exactly:
///
///  * append() replicates add_unit's per-unit accumulation (same TermVector,
///    same iteration order, same skip rules) via compute_unit_lex_stats;
///  * publication replicates finalize()'s derived-stat pass — averages
///    from running sums in unit order, then the norm floor from a *serial*
///    sweep over every unit's pre-floor norm in global publication order.
///    The floor is the one order-sensitive float sum in the whole scoring
///    stack, which is why the board keeps the per-unit stats vector and
///    why sharded publication is serialized (ShardedServing's publish
///    mutex): the board's unit order must equal the order a single
///    unsharded index would have inserted them in.
///
/// Publication is O(delta) in the per-term totals instead of a copy of
/// both maps: a new view shares the previous view's immutable base and
/// carries the previous (contiguous, sorted) delta merged with the terms
/// the new unit touched. Once the delta holds more than 1/kTailFoldDivisor
/// of the base's entries the board folds — the new view gets a fresh base
/// copied from the accumulator and an empty delta — so a delta never
/// exceeds that fraction and each base copy is paid for by at least as
/// many newly touched terms. The norm floor stays an O(units) serial
/// sweep.
///
/// Readers never block writers: cluster() hands out a shared_ptr to an
/// immutable view (publication builds a new view and swaps the pointer
/// under the board mutex). A query grabs the views it needs once up front
/// and scores against them without further synchronization; a view keeps
/// its base alive across any number of later folds.
class GlobalIndexStats {
 public:
  GlobalIndexStats(int num_clusters, double min_norm_fraction);

  GlobalIndexStats(const GlobalIndexStats&) = delete;
  GlobalIndexStats& operator=(const GlobalIndexStats&) = delete;

  /// Appends one unit's term bag to `cluster`. With `refresh_now` (the
  /// online-ingest path) a view including it is published immediately,
  /// mirroring the per-ingest finalize() of the unsharded matcher; bulk
  /// seeding passes false and calls refresh() once per cluster
  /// afterwards, mirroring the offline build's single finalize.
  void append(int cluster, const TermVector& terms, bool refresh_now = true);

  /// Publishes a view of `cluster` covering every unit appended so far,
  /// folding its per-term totals into a fresh base.
  void refresh(int cluster);

  /// The current immutable snapshot of `cluster`'s statistics. Never null
  /// for a valid cluster id. Thread-safe against concurrent append/refresh.
  std::shared_ptr<const ClusterCollectionStats> cluster(int c) const;

  int num_clusters() const { return static_cast<int>(accums_.size()); }

  /// Total units appended across all clusters (diagnostics).
  size_t total_units() const;

 private:
  struct ClusterAccum {
    /// Per-unit stats in global publication order — the inputs of the
    /// serial norm-floor sweep.
    std::vector<UnitLexStats> units;
    /// Current per-term totals (the source of every base and delta).
    ClusterCollectionStats::TermTotalsMap totals;
    double collection_length = 0.0;
    /// Running sums over `units` in unit order.
    double total_unique = 0.0;
    double length_sum = 0.0;
    /// Units were appended without publication (bulk seeding): the next
    /// publication folds instead of extending the delta.
    bool fold_pending = false;
  };

  /// Publishes `cluster`'s next view; requires mu_ held. `appended` is
  /// the one unit appended since the last publication, whose terms extend
  /// the delta; nullptr folds.
  void publish_locked(size_t cluster, const TermVector* appended);

  mutable std::mutex mu_;
  std::vector<ClusterAccum> accums_;
  std::vector<std::shared_ptr<const ClusterCollectionStats>> views_;
  double min_norm_fraction_ = 1.0;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_COLLECTION_STATS_H_
