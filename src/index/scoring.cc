#include "index/scoring.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace ibseg {

double probabilistic_idf(size_t collection_size, size_t df) {
  if (df == 0 || collection_size == 0) return 0.0;
  double n = static_cast<double>(collection_size);
  double d = static_cast<double>(df);
  double value = std::log((n - d + 0.5)) / (d + 0.5);
  return value > 0.0 ? value : 0.0;
}

namespace {

// Eq. 7/8 norm of `unit` under external collection statistics: the same
// pre-floor expression finalize() evaluates, with the *global* NU average
// and floor substituted. Bit-identical to the norm an unpartitioned index
// would have stored for this unit.
double global_unit_norm(const InvertedIndex& index, uint32_t unit,
                        const ClusterCollectionStats& global) {
  double norm = pre_floor_unit_norm(index.unit_log_tf_sum(unit),
                                    index.unit_unique_terms(unit),
                                    global.avg_unique_terms);
  if (global.norm_floor > 0.0) norm = std::max(norm, global.norm_floor);
  return norm;
}

// --- Bound slack ------------------------------------------------------
//
// Per-term bounds are conservative rearrangements of the contribution
// expressions over exact fp maxima/minima of their per-posting inputs;
// the only error sources are a handful of correctly-vs-nearly-correctly
// rounded ops (BM25's shared-tf numerator/denominator, the LM's libm log,
// the paper function's norm lower bound). kTermSlack (1e-11 relative)
// dwarfs those few-ulp effects. Summed bounds additionally differ from the score's
// left-to-right accumulation by fp re-association, which for NON-NEGATIVE
// addends is bounded by ~T*eps relative; kSumSlack (1e-9) covers any
// realistic term count. The pruned path refuses to run (falls back to
// exhaustive scoring) whenever a contribution could be negative, so the
// non-negativity precondition always holds when a bound is trusted.
// Slack only weakens pruning — a too-large bound admits extra candidates
// that full scoring then rejects; it can never drop a true result.
constexpr double kTermSlack = 1.0 + 1e-11;
constexpr double kSumSlack = 1.0 + 1e-9;

inline double inflate_term(double x) {
  return x >= 0.0 ? x * kTermSlack : 0.0;
}

inline double inflate_sum(double x) {
  return x >= 0.0 ? x * kSumSlack : x;
}

// --- Scoring functions ------------------------------------------------
//
// One struct per ScoringFunction; each provides
//   setup(term, f_q, meta, &t)  -> false to skip the term entirely
//   contribution(t, unit, tf)   -> the per-posting score contribution,
//                                  spelled with EXACTLY the expressions
//                                  (associativity included) the historic
//                                  exhaustive path used — both the TAAT
//                                  and the DAAT drivers below call this
//                                  one function, which is what makes
//                                  "pruned == exhaustive, bit for bit"
//                                  a structural property
//   bound(t, meta)              -> upper bound on contribution() over the
//                                  term's postings (+inf = no pruning)
//   prunable(meta)              -> whether bound() is sound for this term

struct PaperScorer {
  const InvertedIndex& index;
  const ClusterCollectionStats* global;
  struct Term {
    double f_q = 0.0;
    double pidf = 0.0;
  };
  bool setup(TermId term, double f_q, const FlatTermMeta& meta,
             Term* t) const {
    double pidf = global == nullptr
                      ? probabilistic_idf(index.num_units(), meta.df)
                      : probabilistic_idf(global->num_units,
                                          global->df_of(term));
    if (pidf <= 0.0) return false;
    t->f_q = f_q;
    t->pidf = pidf;
    return true;
  }
  double contribution(const Term& t, uint32_t unit, double tf) const {
    double norm = global == nullptr
                      ? index.unit_norm(unit)
                      : global_unit_norm(index, unit, *global);
    double w = (std::log(tf) + 1.0) / norm;
    return t.f_q * w * t.pidf;
  }
  double bound(const Term& t, const FlatTermMeta& meta) const {
    // Norm-free weight bound, one form for local and global statistics:
    // NU >= 1 - kNormPivotSlope = 0.25, a power of two, so
    // 0.25 * log_tf_sum is an exact product and pre_floor_unit_norm(unit)
    // >= 0.25 * min_log_tf_sum holds as a statement about doubles for
    // every posting unit, whatever the NU average; the applied floor
    // lower-bounds every norm by construction. Neither input goes stale
    // as units are appended, so the bound holds over base + tail alike.
    double norm_floor =
        global == nullptr ? index.norm_floor() : global->norm_floor;
    double norm_lb = (1.0 - kNormPivotSlope) * meta.min_log_tf_sum;
    if (norm_floor > norm_lb) norm_lb = norm_floor;
    if (norm_lb <= 0.0) return std::numeric_limits<double>::infinity();
    double w_ub = meta.max_log_tf_plus1 / norm_lb;
    return t.f_q * w_ub * t.pidf;
  }
  bool prunable(const FlatTermMeta& meta) const {
    // tf >= 1 => log(tf) + 1 >= 1 > 0 => contributions non-negative.
    return meta.min_tf >= 1.0;
  }
};

struct Bm25Scorer {
  const InvertedIndex& index;
  const ClusterCollectionStats* global;
  double k1 = 1.2;
  double b = 0.75;
  double n = 0.0;
  double avg_len = 1e-9;
  struct Term {
    double fi = 0.0;  ///< f_q * idf (hoisting is associativity-preserving)
  };
  bool setup(TermId term, double f_q, const FlatTermMeta& meta,
             Term* t) const {
    double df = static_cast<double>(
        global == nullptr ? meta.df : global->df_of(term));
    double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    t->fi = f_q * idf;
    return true;
  }
  double contribution(const Term& t, uint32_t unit, double tf) const {
    double len = index.unit_length(unit);
    double tf_component =
        (tf * (k1 + 1.0)) /
        (tf + k1 * (1.0 - b + b * len / avg_len));
    return t.fi * tf_component;
  }
  double bound(const Term& t, const FlatTermMeta& meta) const {
    // tf*(k1+1)/(tf+K) is increasing in tf and decreasing in
    // K = k1*(1-b+b*len/avg_len) (valid for k1 >= 0, 0 <= b <= 1 —
    // prunable() gates on that), so max_tf with the min-length K is an
    // upper bound up to a few ulp of cross-term rounding; kTermSlack
    // absorbs those.
    double k_lb = k1 * (1.0 - b + b * meta.min_len / avg_len);
    double den_lb = meta.max_tf + k_lb;
    if (den_lb <= 0.0) return std::numeric_limits<double>::infinity();
    double tf_ub = (meta.max_tf * (k1 + 1.0)) / den_lb;
    return t.fi * tf_ub;
  }
  bool prunable(const FlatTermMeta& meta) const {
    (void)meta;
    return k1 >= 0.0 && b >= 0.0 && b <= 1.0;
  }
};

struct LmScorer {
  const InvertedIndex& index;
  const ClusterCollectionStats* global;
  double lambda = 0.7;
  double collection_len = 1e-9;
  struct Term {
    double f_q = 0.0;
    double p_collection = 0.0;
  };
  bool setup(TermId term, double f_q, const FlatTermMeta& meta,
             Term* t) const {
    (void)meta;
    double p_collection =
        (global == nullptr ? index.collection_tf(term)
                           : global->collection_tf_of(term)) /
        collection_len;
    if (p_collection <= 0.0) return false;
    t->f_q = f_q;
    t->p_collection = p_collection;
    return true;
  }
  double contribution(const Term& t, uint32_t unit, double tf) const {
    double len = std::max(index.unit_length(unit), 1e-9);
    double p_unit = tf / len;
    return t.f_q * std::log(1.0 + ((1.0 - lambda) * p_unit) /
                                      (lambda * t.p_collection));
  }
  double bound(const Term& t, const FlatTermMeta& meta) const {
    // max_tf_over_len is the exact fp max of the p_unit values
    // contribution() computes (append folds the same tf / max(len, 1e-9)
    // expression); the chain through /, +, log is monotone up to libm's
    // sub-ulp log error, which kTermSlack absorbs.
    return t.f_q * std::log(1.0 + ((1.0 - lambda) * meta.max_tf_over_len) /
                                      (lambda * t.p_collection));
  }
  bool prunable(const FlatTermMeta& meta) const {
    (void)meta;
    return true;  // log(1 + positive) > 0: contributions always positive
  }
};

template <class Scorer>
Scorer make_scorer(const InvertedIndex& index, const ScoringOptions& options,
                   const ClusterCollectionStats* global);

template <>
PaperScorer make_scorer<PaperScorer>(const InvertedIndex& index,
                                     const ScoringOptions& options,
                                     const ClusterCollectionStats* global) {
  (void)options;
  return PaperScorer{index, global};
}

template <>
Bm25Scorer make_scorer<Bm25Scorer>(const InvertedIndex& index,
                                   const ScoringOptions& options,
                                   const ClusterCollectionStats* global) {
  Bm25Scorer s{index, global};
  s.k1 = options.bm25_k1;
  s.b = options.bm25_b;
  s.n = static_cast<double>(global == nullptr ? index.num_units()
                                              : global->num_units);
  s.avg_len = std::max(
      global == nullptr ? index.avg_unit_length() : global->avg_unit_length,
      1e-9);
  return s;
}

template <>
LmScorer make_scorer<LmScorer>(const InvertedIndex& index,
                               const ScoringOptions& options,
                               const ClusterCollectionStats* global) {
  LmScorer s{index, global};
  s.lambda = std::clamp(options.lm_lambda, 1e-6, 1.0 - 1e-6);
  s.collection_len = std::max(global == nullptr ? index.collection_length()
                                                : global->collection_length,
                              1e-9);
  return s;
}

// --- Exhaustive term-at-a-time driver ---------------------------------
//
// The historic scoring algorithm, now reading the flat() serving form —
// sealed base, then tail: identical decoded postings in identical order,
// so identical accumulation. Every admitted term's full postings run
// folds into a unit -> score map in query (TermId-ascending) order.
template <class Scorer>
void accumulate_flat(const InvertedIndex& index, const TermVector& query,
                     const Scorer& scorer,
                     std::unordered_map<uint32_t, double>* acc,
                     PruneStats* stats) {
  const FlatPostings& flat = index.flat();
  for (const auto& [term, f_q] : query.entries()) {
    if (f_q <= 0.0) continue;
    const FlatTermMeta* meta = flat.term_meta(term);
    if (meta == nullptr) continue;
    typename Scorer::Term t;
    if (!scorer.setup(term, f_q, *meta, &t)) continue;
    if (stats != nullptr) {
      stats->postings_total += meta->df;
      stats->postings_scored += meta->df;
    }
    FlatPostings::Cursor cur = flat.cursor(term);
    uint32_t unit = 0;
    double tf = 0.0;
    while (cur.next(&unit, &tf)) {
      double c = scorer.contribution(t, unit, tf);
      (*acc)[unit] += c;
    }
  }
}

// Shared exclude/threshold/top-n selection over a fully-scored map — the
// fallback arm of the pruned entry point. Mirrors the historic
// match_cluster_terms pipeline exactly: drop exclude_doc's units, keep
// positive scores (>= threshold in threshold mode), rank on
// (score desc, doc asc), truncate to top_n only in top-n mode.
std::vector<ScoredUnit> select_scored(
    const std::unordered_map<uint32_t, double>& acc,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, PruneStats* stats) {
  std::vector<ScoredUnit> hits;
  hits.reserve(acc.size());
  for (const auto& [unit, score] : acc) {
    if (score <= 0.0) continue;
    if (unit_doc[unit] == exclude_doc) continue;
    if (score_threshold > 0.0 && score < score_threshold) continue;
    hits.push_back(ScoredUnit{unit, score});
  }
  if (stats != nullptr) stats->units_scored += acc.size();
  auto better = [&unit_doc](const ScoredUnit& a, const ScoredUnit& b) {
    if (a.score != b.score) return a.score > b.score;
    return unit_doc[a.unit] < unit_doc[b.unit];
  };
  if (score_threshold <= 0.0 && hits.size() > top_n) {
    std::partial_sort(hits.begin(),
                      hits.begin() + static_cast<long>(top_n), hits.end(),
                      better);
    hits.resize(top_n);
  } else {
    std::sort(hits.begin(), hits.end(), better);
  }
  return hits;
}

// --- MaxScore document-at-a-time driver -------------------------------
template <class Scorer>
std::vector<ScoredUnit> maxscore_select(
    const InvertedIndex& index, const TermVector& query,
    const Scorer& scorer, const std::vector<uint32_t>& unit_doc,
    uint32_t exclude_doc, size_t top_n, double score_threshold,
    PruneStats* stats) {
  const FlatPostings& flat = index.flat();
  const bool threshold_mode = score_threshold > 0.0;
  struct TermState {
    typename Scorer::Term term;
    double bound = 0.0;  ///< inflated per-term contribution upper bound
    uint32_t pos = 0;    ///< current index into punits/ptfs
    uint32_t end = 0;    ///< one past the term's last posting
  };
  // All scratch the driver needs, reused across calls per thread: after
  // the first few queries every buffer has reached its high-water
  // capacity and the steady state allocates nothing — the TAAT driver's
  // only allocation is its accumulator map, and the DAAT driver must not
  // pay more than that per intention.
  struct Workspace {
    std::vector<TermState> terms;
    std::vector<uint32_t> punits;
    std::vector<double> ptfs;
    std::vector<double> suffix_bound;
    std::vector<uint64_t> mask;
    std::vector<uint32_t> js;
    std::vector<double> sb;
  };
  static thread_local Workspace ws;
  std::vector<TermState>& terms = ws.terms;
  std::vector<uint32_t>& punits = ws.punits;
  std::vector<double>& ptfs = ws.ptfs;
  terms.clear();
  punits.clear();
  ptfs.clear();

  // Gather admitted terms in query (TermId-ascending) order — the same
  // admission rules, and therefore the same per-candidate accumulation
  // order, as the exhaustive TAAT driver. Each term's run is pre-decoded
  // once into shared parallel arrays (the same single decode pass the
  // TAAT driver performs via its cursor), so the candidate loops below
  // work over plain sorted uint32 arrays.
  bool bounds_sound = true;
  uint64_t admitted_postings = 0;
  for (const auto& [term, f_q] : query.entries()) {
    if (f_q <= 0.0) continue;
    const FlatTermMeta* meta = flat.term_meta(term);
    if (meta == nullptr) continue;
    TermState ts;
    if (!scorer.setup(term, f_q, *meta, &ts.term)) continue;
    if (!scorer.prunable(*meta)) bounds_sound = false;
    ts.bound = inflate_term(scorer.bound(ts.term, *meta));
    ts.pos = static_cast<uint32_t>(punits.size());
    uint32_t df = flat.decode_term(term, &punits, &ptfs);
    if (df == 0) continue;
    ts.end = ts.pos + df;
    admitted_postings += df;
    terms.push_back(std::move(ts));
  }
  if (stats != nullptr) stats->postings_total += admitted_postings;
  const size_t T = terms.size();
  if (T == 0 || (!threshold_mode && top_n == 0)) return {};
  if (!bounds_sound) {
    // A term's bound is not provably conservative (e.g. sub-unit tf under
    // the paper function): score everything, prune nothing. Same results
    // by construction.
    std::unordered_map<uint32_t, double> acc;
    accumulate_flat(index, query, scorer, &acc, nullptr);
    if (stats != nullptr) stats->postings_scored += admitted_postings;
    return select_scored(acc, unit_doc, exclude_doc, top_n,
                         score_threshold, stats);
  }

  // suffix_bound[j]: inflated-bound sum of terms[j..T) — the most terms
  // j.. can still add to a partial score (plus re-association slack,
  // applied at each comparison via inflate_sum).
  std::vector<double>& suffix_bound = ws.suffix_bound;
  suffix_bound.assign(T + 1, 0.0);
  for (size_t j = T; j-- > 0;) {
    suffix_bound[j] = terms[j].bound + suffix_bound[j + 1];
  }

  // theta: the current entry bar as a (score, doc) pair. Top-n mode: the
  // n-th best seen so far, active once the heap fills. Threshold mode:
  // the static threshold with a never-matching doc so exact-equality
  // candidates are kept (threshold semantics are score >= threshold).
  double theta_score = threshold_mode ? score_threshold : 0.0;
  uint32_t theta_doc =
      threshold_mode ? std::numeric_limits<uint32_t>::max() : 0;
  bool theta_active = threshold_mode;
  // Even the sum of every term's bound cannot reach the static
  // threshold: no unit anywhere can qualify.
  if (theta_active && inflate_sum(suffix_bound[0]) < theta_score) {
    return {};
  }

  // Candidate index: one bitmask word per unit, bit j = "terms[j]
  // contains this unit". Terms beyond the low 62 bits share the
  // overflow bit (63); their membership is re-checked per candidate by
  // a forward scan, with suffix_bound[] (which covers ALL tail terms)
  // as their conservative remaining-bound. Building the mask costs one
  // sequential OR per admitted posting — far cheaper than the heap-based
  // frontier it replaces, whose two heap operations per posting dominated
  // the driver's profile at realistic densities (each unit here matches
  // several query terms, so per-candidate costs amortize well).
  constexpr size_t kTailStart = 62;
  const uint32_t num_units = static_cast<uint32_t>(unit_doc.size());
  std::vector<uint64_t>& mask = ws.mask;
  mask.assign(num_units, 0);
  for (size_t j = 0; j < T; ++j) {
    const uint64_t bit = uint64_t{1} << std::min(j, kTailStart + 1);
    const TermState& ts = terms[j];
    for (uint32_t i = ts.pos; i < ts.end; ++i) mask[punits[i]] |= bit;
  }

  auto better = [&unit_doc](const ScoredUnit& a, const ScoredUnit& b) {
    if (a.score != b.score) return a.score > b.score;
    return unit_doc[a.unit] < unit_doc[b.unit];
  };
  std::vector<ScoredUnit> heap;  // worst-at-front (top-n mode)
  std::vector<ScoredUnit> kept;  // threshold mode accumulator

  // Document-at-a-time in ascending unit order (a dense scan of the mask
  // array). Per candidate, the exact matched-term set is in hand, so the
  // skip test compares theta against the sum of the MATCHED terms'
  // bounds — strictly stronger than the classic essential/non-essential
  // pivot (any candidate the pivot rule would never generate has a
  // matched-bound sum below the non-essential prefix sum, and fails this
  // test too). Contributions accumulate in ascending term-index = query
  // (TermId-ascending) order over exactly the terms containing the
  // candidate — the exhaustive TAAT accumulation order — so surviving
  // scores are bit-identical; the skip/abandon tests use conservative
  // upper bounds and can only reject, never alter.
  //
  // Visit order affects only which candidates get pruned (theta's growth
  // trajectory), never correctness: a candidate rejected against the
  // current theta loses against the final theta a fortiori.
  std::vector<uint32_t>& js = ws.js;
  std::vector<double>& sb = ws.sb;
  for (uint32_t cand = 0; cand < num_units; ++cand) {
    const uint64_t m = mask[cand];
    if (m == 0) continue;
    const uint32_t cand_doc = unit_doc[cand];
    if (cand_doc == exclude_doc) continue;  // never a result; scans of its
                                            // terms catch up lazily below
    // Matched term indices, ascending (low 62 bits are exact; the
    // overflow bit defers tail terms to the probe loop below).
    js.clear();
    uint64_t low = m & ((uint64_t{1} << (kTailStart + 1)) - 1);
    while (low != 0) {
      js.push_back(static_cast<uint32_t>(std::countr_zero(low)));
      low &= low - 1;
    }
    const bool tail = T > kTailStart + 1 && (m >> (kTailStart + 1)) != 0;
    // Per-candidate suffix bounds over the matched terms (addition-only,
    // non-negative — the same re-association argument as suffix_bound).
    sb.resize(js.size() + 1);
    sb[js.size()] = tail ? suffix_bound[kTailStart + 1] : 0.0;
    for (size_t i = js.size(); i-- > 0;) {
      sb[i] = terms[js[i]].bound + sb[i + 1];
    }

    // Score in term order, abandoning as soon as the achieved prefix
    // plus the remaining matched terms' bound sum cannot beat theta. The
    // check before the first contribution is where a candidate matching
    // only weak terms dies without a single scoring call.
    double acc = 0.0;
    bool abandoned = false;
    for (size_t i = 0; i < js.size(); ++i) {
      if (theta_active) {
        double ub = inflate_sum(acc + sb[i]);
        if (ub < theta_score ||
            (ub == theta_score && cand_doc > theta_doc)) {
          abandoned = true;
          break;
        }
      }
      TermState& ts = terms[js[i]];
      while (ts.pos < ts.end && punits[ts.pos] < cand) ++ts.pos;
      // The mask bit is exact for these terms: punits[ts.pos] == cand.
      acc += scorer.contribution(ts.term, cand, ptfs[ts.pos]);
      if (stats != nullptr) ++stats->postings_scored;
    }
    if (!abandoned && tail) {
      for (size_t j = kTailStart + 1; j < T; ++j) {
        if (theta_active) {
          double ub = inflate_sum(acc + suffix_bound[j]);
          if (ub < theta_score ||
              (ub == theta_score && cand_doc > theta_doc)) {
            abandoned = true;
            break;
          }
        }
        TermState& ts = terms[j];
        while (ts.pos < ts.end && punits[ts.pos] < cand) ++ts.pos;
        if (ts.pos < ts.end && punits[ts.pos] == cand) {
          acc += scorer.contribution(ts.term, cand, ptfs[ts.pos]);
          if (stats != nullptr) ++stats->postings_scored;
        }
      }
    }
    if (abandoned) {
      if (stats != nullptr) ++stats->units_abandoned;
      continue;
    }
    if (stats != nullptr) ++stats->units_scored;
    if (acc <= 0.0) continue;  // exhaustive keeps positive scores only
    if (threshold_mode) {
      if (acc >= score_threshold) kept.push_back(ScoredUnit{cand, acc});
      continue;
    }
    ScoredUnit su{cand, acc};
    if (heap.size() < top_n) {
      heap.push_back(su);
      std::push_heap(heap.begin(), heap.end(), better);
      if (heap.size() < top_n) continue;
    } else if (better(su, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = su;
      std::push_heap(heap.begin(), heap.end(), better);
    } else {
      continue;
    }
    theta_score = heap.front().score;
    theta_doc = unit_doc[heap.front().unit];
    theta_active = true;
    // Even the sum of every term's bound cannot reach theta: nothing
    // still unvisited can enter the heap.
    if (inflate_sum(suffix_bound[0]) < theta_score) break;
  }
  std::vector<ScoredUnit>& out = threshold_mode ? kept : heap;
  std::sort(out.begin(), out.end(), better);
  return std::move(out);
}

template <class Scorer>
std::vector<ScoredUnit> score_units_exhaustive(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    PruneStats* stats) {
  Scorer scorer = make_scorer<Scorer>(index, options, global);
  std::unordered_map<uint32_t, double> acc;
  accumulate_flat(index, query, scorer, &acc, stats);
  std::vector<ScoredUnit> hits;
  hits.reserve(acc.size());
  for (const auto& [unit, score] : acc) {
    if (score > 0.0) hits.push_back(ScoredUnit{unit, score});
  }
  if (stats != nullptr) stats->units_scored += acc.size();
  return hits;
}

}  // namespace

std::vector<ScoredUnit> score_units_counted(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    PruneStats* stats) {
  obs::TraceScope score(obs::Stage::kScore);
  switch (options.function) {
    case ScoringFunction::kBm25:
      return score_units_exhaustive<Bm25Scorer>(index, query, options,
                                                global, stats);
    case ScoringFunction::kQueryLikelihood:
      return score_units_exhaustive<LmScorer>(index, query, options, global,
                                              stats);
    case ScoringFunction::kPaperTfIdf:
      break;
  }
  return score_units_exhaustive<PaperScorer>(index, query, options, global,
                                             stats);
}

std::vector<ScoredUnit> score_units(const InvertedIndex& index,
                                    const TermVector& query,
                                    const ScoringOptions& options,
                                    const ClusterCollectionStats* global) {
  return score_units_counted(index, query, options, global, nullptr);
}

std::vector<ScoredUnit> score_units_maxscore(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, PruneStats* stats) {
  obs::TraceScope score(obs::Stage::kScore);
  switch (options.function) {
    case ScoringFunction::kBm25:
      return maxscore_select(index, query,
                             make_scorer<Bm25Scorer>(index, options, global),
                             unit_doc, exclude_doc, top_n, score_threshold,
                             stats);
    case ScoringFunction::kQueryLikelihood:
      return maxscore_select(index, query,
                             make_scorer<LmScorer>(index, options, global),
                             unit_doc, exclude_doc, top_n, score_threshold,
                             stats);
    case ScoringFunction::kPaperTfIdf:
      break;
  }
  return maxscore_select(index, query,
                         make_scorer<PaperScorer>(index, options, global),
                         unit_doc, exclude_doc, top_n, score_threshold,
                         stats);
}

void keep_top_n(std::vector<ScoredUnit>& hits, size_t n) {
  auto cmp = [](const ScoredUnit& a, const ScoredUnit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.unit < b.unit;
  };
  if (hits.size() > n) {
    std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(n),
                      hits.end(), cmp);
    hits.resize(n);
  } else {
    std::sort(hits.begin(), hits.end(), cmp);
  }
}

}  // namespace ibseg
