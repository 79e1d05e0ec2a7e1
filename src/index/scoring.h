#ifndef IBSEG_INDEX_SCORING_H_
#define IBSEG_INDEX_SCORING_H_

#include <cstdint>
#include <vector>

#include "index/collection_stats.h"
#include "index/inverted_index.h"
#include "text/term_vector.h"

namespace ibseg {

/// A retrieval hit: a unit of an InvertedIndex and its relatedness score.
struct ScoredUnit {
  uint32_t unit = 0;
  double score = 0.0;
};

/// The probabilistic inverse document frequency of Eq. 9, adjusted for a
/// collection of `collection_size` units of which `df` contain the term:
///   log(|I| - |I^t|) / |I^t|   (as printed in the paper)
/// with 0.5 smoothing on both occurrences of |I^t| and a floor at 0 so that
/// a term contained in (almost) every unit contributes nothing rather than
/// a NaN or a negative score. See DESIGN.md "Known formula notes".
double probabilistic_idf(size_t collection_size, size_t df);

/// Selectable text-comparison function. The paper builds its own Eq. 7-9
/// variant but explicitly allows "one of the many TF/IDF or BM25 variants
/// or language-model based methods" as the segment comparator (Sec. 1/7);
/// all three families are provided.
enum class ScoringFunction {
  kPaperTfIdf,  ///< Eq. 8 weights x Eq. 9 probabilistic IDF (default)
  kBm25,        ///< Okapi BM25 (Robertson et al.)
  kQueryLikelihood,  ///< Jelinek-Mercer smoothed query-likelihood LM
};

/// Parameters of the selectable scoring functions; each function reads
/// only its own knobs.
struct ScoringOptions {
  ScoringFunction function = ScoringFunction::kPaperTfIdf;
  double bm25_k1 = 1.2;   ///< BM25 term-frequency saturation
  double bm25_b = 0.75;   ///< BM25 length-normalization slope
  /// Jelinek-Mercer interpolation weight of the collection model.
  double lm_lambda = 0.7;
};

/// Scores every unit of `index` against the query bag `query`.
/// Default (kPaperTfIdf): the paper's Eq. 9,
///   scr(q, u) = sum_t f_q(t) * w(t, u) * pidf(t)
/// with w the Eq. 7/8 weight stored in the index. kBm25 and
/// kQueryLikelihood evaluate the corresponding classic functions (the LM
/// uses the rank-equivalent sparse form
///   sum_t f_q(t) * log(1 + ((1-l)*tf/len) / (l*ctf/C))
/// so non-matching units keep score 0). Returns the units with positive
/// score, unordered. Term-at-a-time evaluation over the postings lists.
///
/// `global` switches every collection-dependent input — |I|, |I^t|, the NU
/// pivot average, the norm floor, the BM25 length pivot, the LM collection
/// model — from the index's own statistics to the supplied cross-shard
/// aggregate, and re-derives unit norms on the fly from the index's
/// per-unit lexical stats via pre_floor_unit_norm. A document-partitioned
/// shard scored this way produces, for each of its units, exactly the
/// bits a single unpartitioned index holding the full collection would
/// produce (same per-term accumulation order, same arithmetic, same skip
/// rules). nullptr (the default) keeps the classic local-statistics path.
std::vector<ScoredUnit> score_units(const InvertedIndex& index,
                                    const TermVector& query,
                                    const ScoringOptions& options = {},
                                    const ClusterCollectionStats* global =
                                        nullptr);

/// Sorts hits by descending score (ties by ascending unit id for
/// determinism) and truncates to `n`.
void keep_top_n(std::vector<ScoredUnit>& hits, size_t n);

/// Work counters of one scoring call (both paths fill them): how much of
/// the postings data was actually evaluated. The pruned-query bench and
/// the ibseg_pruned_docs_total serving counter read these.
struct PruneStats {
  uint64_t units_scored = 0;  ///< candidate units fully scored
  /// Candidate units rejected by the MaxScore upper-bound test (always 0
  /// on the exhaustive path) — either before their first contribution,
  /// when the matched terms' summed bounds already cannot beat the
  /// running threshold, or mid-accumulation. Compare units_scored across
  /// the two paths for the full savings picture.
  uint64_t units_abandoned = 0;
  uint64_t postings_scored = 0;  ///< per-(term, unit) contributions computed
  uint64_t postings_total = 0;   ///< postings of the admitted query terms
};

/// Exhaustive scoring with work counters (see score_units for semantics).
std::vector<ScoredUnit> score_units_counted(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    PruneStats* stats);

/// MaxScore-pruned replacement for the score → exclude → threshold →
/// select pipeline of IntentionMatcher::match_cluster_terms. Scores
/// `query` against `index`'s flat postings (base + tail)
/// document-at-a-time, skipping candidates whose per-term upper bounds
/// (FlatTermMeta maxima, see flat_postings.h) prove they cannot enter the
/// result:
///
///  * score_threshold <= 0 (top-n mode): returns the top `top_n` units
///    with positive score under (score desc, unit_doc[unit] asc) — the
///    PR-3 tie-order contract — among units whose doc != exclude_doc.
///  * score_threshold > 0 (threshold mode): returns EVERY such unit with
///    score >= score_threshold (top_n is ignored, matching the matcher's
///    keep-all threshold semantics).
///
/// Results are sorted by (score desc, doc asc) and are bit-identical —
/// scores included — to what the exhaustive path selects, because a
/// surviving candidate's score is accumulated over the same terms in the
/// same (TermId-ascending) order with the same arithmetic, and the skip
/// tests use conservative upper bounds (exact fp maxima plus a relative
/// slack covering fp re-association, so a bound failure can only admit
/// extra candidates, never drop a true one). Queries whose per-term
/// bounds are not provably sound (sub-unit tf with the paper function,
/// out-of-range BM25 parameters) are scored exhaustively inside this
/// call — same results, no pruning. `global` selects the sharded
/// (cross-shard statistics) arithmetic exactly as in score_units.
/// tests/differential_test.cc sweeps this equivalence.
std::vector<ScoredUnit> score_units_maxscore(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, PruneStats* stats = nullptr);

}  // namespace ibseg

#endif  // IBSEG_INDEX_SCORING_H_
