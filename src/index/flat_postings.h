#ifndef IBSEG_INDEX_FLAT_POSTINGS_H_
#define IBSEG_INDEX_FLAT_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "index/collection_stats.h"
#include "text/vocabulary.h"

namespace ibseg {

/// A posting: a unit (segment or whole document, depending on which matcher
/// owns the index) and the term frequency within it.
struct Posting {
  uint32_t unit = 0;
  double tf = 0.0;
};

/// Per-term statistics of the serving form: df plus the inputs of the
/// MaxScore pruning bounds (see scoring.h and docs/ARCHITECTURE.md §7).
/// FlatPostings::append folds each posting in exactly once, at add time,
/// so every "max"/"min" is the exact floating-point maximum/minimum of the
/// corresponding per-posting value the scoring functions compute — taken
/// over the *same* expressions scoring evaluates, so `bound >= every actual
/// contribution` holds as a statement about doubles, not reals. None of the
/// fields depends on collection statistics (unit norms, averages), so a
/// posting's contribution to them never goes stale as the collection grows,
/// and folding posting by posting in unit order yields the identical bits a
/// one-pass build over the same postings yields.
/// tests/flat_postings_test.cc checks both properties.
struct FlatTermMeta {
  uint32_t df = 0;          ///< postings count (|units| containing the term)
  double max_tf = 0.0;      ///< max term frequency over postings
  /// min term frequency over postings. The pruned scorer requires
  /// min_tf >= 1 for the paper function (it guarantees log(tf) + 1 >= 0,
  /// i.e. every contribution is non-negative — the precondition of the
  /// summed-bound slack argument); sub-unit tf routes to the exhaustive
  /// path instead of risking an unsound bound.
  double min_tf = 0.0;
  /// max over postings of (log tf + 1) — each value computed by the same
  /// std::log call scoring uses, so no monotonicity assumption on libm is
  /// needed for the paper-scoring bound.
  double max_log_tf_plus1 = 0.0;
  /// min over postings of the unit's log-tf sum. Because the NU pivot
  /// factor is >= (1 - kNormPivotSlope) = 0.25 (a power of two, so the
  /// product rounds exactly), 0.25 * min_log_tf_sum lower-bounds every
  /// posting unit's norm under ANY collection statistics — local or
  /// global — which is what makes the paper function's bound norm-free.
  double min_log_tf_sum = 0.0;
  double min_len = 0.0;         ///< min unit length (BM25 bound input)
  double max_tf_over_len = 0.0; ///< max of tf / max(len, 1e-9) (LM bound)
};

/// Counters reported by the bounded decoder (diagnostics and fuzzing).
struct FlatDecodeStats {
  size_t postings = 0;  ///< postings decoded
  size_t bytes = 0;     ///< bytes consumed
};

/// The inverted index's *serving* form: a sealed base plus an append-only
/// tail.
///
///  * The **base** lays every term's postings out in one contiguous arena,
///    unit ids delta/varint-encoded and term frequencies encoded exactly
///    (integral tf as a varint, anything else as the raw IEEE-754 bit
///    pattern — decode returns the identical double either way, which the
///    bit-identity contract of the differential suite depends on).
///  * The **tail** holds, per term, the postings appended since the last
///    fold as plain (unit, tf) pairs. Units are appended in ascending id
///    order, so a term's tail postings all follow its base run: readers
///    see the base run followed by the tail, one ascending sequence.
///
/// append() is O(1): it pushes the posting onto its term's tail and folds
/// it into the term's FlatTermMeta. fold() re-seals base + tail into a
/// fresh arena (the old base runs are copied byte for byte; only the tail
/// is encoded). The owning index folds once the tail holds more than
/// 1/kTailFoldDivisor of the base's postings, so the re-seal costs
/// amortized O(1) per posting, and after a fold the arena is byte-identical
/// to one sealed in a single pass over the same postings.
///
/// Not internally synchronized: the serving layers append and fold under
/// their exclusive publication lock and read under the shared one.
class FlatPostings {
 public:
  FlatPostings() = default;

  /// Appends one posting of `term` to the tail and folds it into the
  /// term's metadata. `unit` must exceed every unit already posted for
  /// `term` (InvertedIndex appends units in insertion order); `unit_stats`
  /// are the unit's lexical statistics (the bound inputs).
  void append(TermId term, uint32_t unit, double tf,
              const UnitLexStats& unit_stats);

  /// True when the tail has outgrown 1/kTailFoldDivisor of the base.
  bool fold_due() const {
    return tail_postings_ * kTailFoldDivisor > base_postings_;
  }

  /// Re-seals base + tail into a fresh arena (one run per term in
  /// ascending TermId order) and empties the tail.
  void fold();

  /// Metadata for `term` over base + tail; nullptr when the term is absent.
  const FlatTermMeta* term_meta(TermId term) const;

  /// Forward-only decoder over one term's base run followed by its tail.
  /// Bounds-checked: next() never reads outside the term's arena window.
  class Cursor {
   public:
    Cursor() = default;

    /// True while a posting is available; fills (unit, tf).
    bool next(uint32_t* unit, double* tf);

    /// True when all postings have been consumed.
    bool done() const { return remaining_ == 0 && tail_ == tail_end_; }

   private:
    friend class FlatPostings;
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    uint32_t remaining_ = 0;  ///< base postings left
    uint32_t prev_unit_ = 0;
    bool first_ = true;
    const Posting* tail_ = nullptr;
    const Posting* tail_end_ = nullptr;
  };

  /// Decoder positioned at the start of `term`'s postings (empty cursor
  /// when the term is absent).
  Cursor cursor(TermId term) const;

  /// Number of distinct terms.
  size_t num_terms() const { return runs_.size(); }

  /// Sealed arena size in bytes.
  size_t arena_bytes() const { return arena_.size(); }

  /// Postings in the sealed base / in the tail.
  size_t base_postings() const { return base_postings_; }
  size_t tail_postings() const { return tail_postings_; }

  /// Number of fold() calls so far.
  uint64_t folds() const { return folds_; }

  /// Total in-memory footprint (the ibseg_postings_bytes input): base
  /// arena + tail postings + per-term metadata table.
  size_t total_bytes() const {
    return arena_.size() + tail_postings_ * sizeof(Posting) +
           runs_.size() * (sizeof(TermId) + sizeof(TermRun));
  }

  /// The encoded bytes of `term`'s whole run, base + tail (empty when
  /// absent) — what fold() would seal it to. Seed material for the decoder
  /// fuzz target and the golden-encoding tests.
  std::vector<uint8_t> term_run_bytes(TermId term) const;

  /// Decodes all postings of `term` (base, then tail) into parallel
  /// (unit, tf) arrays, appending; returns the number of postings appended
  /// (0 when absent). One tight decode pass — the pruned query path
  /// pre-decodes each admitted term once and then works over plain arrays,
  /// keeping varint branching out of its per-candidate loops.
  uint32_t decode_term(TermId term, std::vector<uint32_t>* units,
                       std::vector<double>* tfs) const;

  // --- Codec, exposed for tests and the fuzz target. -------------------

  /// Appends the unsigned LEB128 encoding of `value` to `out`.
  static void append_varint(std::vector<uint8_t>* out, uint64_t value);

  /// Appends one posting (delta from `prev_unit`, or the raw unit id when
  /// `first`) to `out`. tf encoding: a positive integral tf < 2^62 is
  /// stored as varint(tf << 1 | 1); anything else as varint(0) followed by
  /// the 8 little-endian bytes of the double's bit pattern. Decoding
  /// reproduces the identical double in both branches.
  static void append_posting(std::vector<uint8_t>* out, uint32_t unit,
                             double tf, uint32_t prev_unit, bool first);

  /// Bounded decode of an untrusted run: reads at most `size` bytes and at
  /// most `df` postings into `out`, appending. Returns false (leaving any
  /// partial decode in `out`) on truncation, varint overflow, unit-id
  /// overflow past 2^32, or trailing bytes after the df-th posting.
  /// Never allocates more than min(df, size) postings — an inflated df
  /// against a short buffer cannot over-reserve (the snapshot-reader
  /// allocation-bomb lesson, PR 5).
  static bool decode_run(const uint8_t* data, size_t size, uint32_t df,
                         std::vector<Posting>* out,
                         FlatDecodeStats* stats = nullptr);

 private:
  /// One term: metadata over all its postings, the location of its sealed
  /// base run, and its tail.
  struct TermRun {
    FlatTermMeta meta;
    uint64_t offset = 0;          ///< byte offset of the base run
    uint64_t bytes = 0;           ///< encoded byte length of the base run
    uint32_t base_df = 0;         ///< postings in the base run
    uint32_t last_base_unit = 0;  ///< delta origin of the first tail posting
    std::vector<Posting> tail;
  };

  const TermRun* find(TermId term) const;
  Cursor cursor_of(const TermRun& run) const;

  std::vector<uint8_t> arena_;
  std::unordered_map<TermId, TermRun> runs_;
  size_t base_postings_ = 0;
  size_t tail_postings_ = 0;
  uint64_t folds_ = 0;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_FLAT_POSTINGS_H_
