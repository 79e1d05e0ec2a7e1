// Tests for the sealed flat postings serving form (index/flat_postings.h):
//
//  * codec property tests — random postings lists round-trip bit-exactly
//    through append_posting/decode_run, every strict byte prefix of a
//    valid run is rejected, and golden byte sequences pin the wire format;
//  * decoder hardening — delta-0, unit overflow, tf-0, overlong varints,
//    trailing bytes and inflated df are all rejected, and an inflated df
//    cannot over-reserve (the allocation-bomb guard);
//  * bound invariants — every FlatTermMeta max/min field bounds the exact
//    per-posting doubles the scoring expressions compute, checked
//    exhaustively on randomized corpora (the soundness precondition of
//    the MaxScore pruning bounds);
//  * the norm-free paper-function bound covers every contribution under
//    both local and global statistics;
//  * base + tail — ingesting one unit at a time across several folds
//    leaves every decoded postings sequence, encoded run, metadata field
//    and scalar statistic bit-identical to a one-pass build, and the
//    tail is sealed exactly when it outgrows the fold fraction.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/collection_stats.h"
#include "index/flat_postings.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
#include "text/term_vector.h"

namespace ibseg {
namespace {

// Encodes a whole postings list the way fold() seals it.
std::vector<uint8_t> encode_run(const std::vector<Posting>& postings) {
  std::vector<uint8_t> out;
  uint32_t prev = 0;
  bool first = true;
  for (const Posting& p : postings) {
    FlatPostings::append_posting(&out, p.unit, p.tf, prev, first);
    prev = p.unit;
    first = false;
  }
  return out;
}

std::vector<Posting> random_postings(std::mt19937& rng) {
  std::uniform_int_distribution<int> len_dist(1, 40);
  std::uniform_int_distribution<uint32_t> gap_dist(1, 1u << 20);
  std::uniform_int_distribution<int> kind_dist(0, 4);
  std::uniform_real_distribution<double> frac_dist(1e-9, 1e9);
  int len = len_dist(rng);
  std::vector<Posting> postings;
  uint64_t unit = 0;
  for (int i = 0; i < len; ++i) {
    unit += gap_dist(rng);
    if (unit > 0xffffffffull) break;
    double tf = 0.0;
    switch (kind_dist(rng)) {
      case 0:
        tf = static_cast<double>(1 + (rng() % 100));  // small integral
        break;
      case 1:
        tf = 9.007199254740992e15;  // 2^53: integral, varint fast path
        break;
      case 2:
        tf = 1.8446744073709552e19;  // 2^64 > 2^62: raw-bits branch
        break;
      case 3:
        tf = frac_dist(rng);  // almost surely non-integral
        break;
      default:
        tf = 0x1.5p-1040;  // subnormal: raw-bits branch must be exact
        break;
    }
    postings.push_back(Posting{static_cast<uint32_t>(unit), tf});
  }
  return postings;
}

TEST(FlatPostingsCodec, RandomRunsRoundTripBitExactly) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<Posting> postings = random_postings(rng);
    std::vector<uint8_t> bytes = encode_run(postings);
    std::vector<Posting> decoded;
    FlatDecodeStats stats;
    ASSERT_TRUE(FlatPostings::decode_run(
        bytes.data(), bytes.size(), static_cast<uint32_t>(postings.size()),
        &decoded, &stats));
    ASSERT_EQ(decoded.size(), postings.size());
    for (size_t i = 0; i < postings.size(); ++i) {
      EXPECT_EQ(decoded[i].unit, postings[i].unit);
      // Bit-exact, not approximately equal: the pruning identity contract
      // needs decode(encode(tf)) == tf for every double.
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i].tf),
                std::bit_cast<uint64_t>(postings[i].tf))
          << "posting " << i << " tf " << postings[i].tf;
    }
    EXPECT_EQ(stats.postings, postings.size());
    EXPECT_EQ(stats.bytes, bytes.size());
  }
}

TEST(FlatPostingsCodec, EveryStrictPrefixIsRejected) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<Posting> postings = random_postings(rng);
    std::vector<uint8_t> bytes = encode_run(postings);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<Posting> decoded;
      EXPECT_FALSE(FlatPostings::decode_run(
          bytes.data(), cut, static_cast<uint32_t>(postings.size()),
          &decoded))
          << "prefix of length " << cut << " of " << bytes.size()
          << " must not decode";
    }
  }
}

TEST(FlatPostingsCodec, GoldenEncodings) {
  // unit 5, tf 3 (first): varint(5), varint(3 << 1 | 1).
  std::vector<uint8_t> out;
  FlatPostings::append_posting(&out, 5, 3.0, 0, /*first=*/true);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x05, 0x07}));

  // unit 133 after 5: delta 128 = [0x80, 0x01]; tf 1 -> varint(3).
  out.clear();
  FlatPostings::append_posting(&out, 133, 1.0, 5, /*first=*/false);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x80, 0x01, 0x03}));

  // Non-integral tf 2.5: raw-bits escape varint(0) + LE bits of 2.5
  // (0x4004000000000000).
  out.clear();
  FlatPostings::append_posting(&out, 9, 2.5, 0, /*first=*/true);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
                                       0x00, 0x00, 0x04, 0x40}));

  // All three decode back.
  std::vector<Posting> list{{5, 3.0}, {133, 1.0}};
  std::vector<uint8_t> bytes = encode_run(list);
  EXPECT_EQ(bytes,
            (std::vector<uint8_t>{0x05, 0x07, 0x80, 0x01, 0x03}));
  std::vector<Posting> decoded;
  ASSERT_TRUE(FlatPostings::decode_run(bytes.data(), bytes.size(), 2,
                                       &decoded));
  EXPECT_EQ(decoded[1].unit, 133u);
  EXPECT_EQ(decoded[1].tf, 1.0);
}

TEST(FlatPostingsCodec, RejectsMalformedRuns) {
  std::vector<Posting> decoded;

  // Zero delta on a non-first posting (units must strictly ascend).
  std::vector<uint8_t> zero_delta{0x05, 0x03, 0x00, 0x03};
  EXPECT_FALSE(FlatPostings::decode_run(zero_delta.data(), zero_delta.size(),
                                        2, &decoded));

  // First unit id past 2^32 - 1.
  std::vector<uint8_t> big_unit;
  FlatPostings::append_varint(&big_unit, 0x100000000ull);
  big_unit.push_back(0x03);
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(big_unit.data(), big_unit.size(), 1,
                                        &decoded));

  // Delta pushing the cumulative unit past 2^32 - 1.
  std::vector<uint8_t> overflow;
  FlatPostings::append_varint(&overflow, 0xffffffffull);
  overflow.push_back(0x03);
  FlatPostings::append_varint(&overflow, 1);
  overflow.push_back(0x03);
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(overflow.data(), overflow.size(), 2,
                                        &decoded));

  // Integral tf 0 (encoded varint 1) never appears in a sealed run.
  std::vector<uint8_t> zero_tf{0x05, 0x01};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(zero_tf.data(), zero_tf.size(), 1,
                                        &decoded));

  // Raw-bits escape with fewer than 8 payload bytes.
  std::vector<uint8_t> short_raw{0x05, 0x00, 0x01, 0x02};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(short_raw.data(), short_raw.size(),
                                        1, &decoded));

  // Overlong varint: ten continuation-heavy bytes shifting data past bit
  // 63.
  std::vector<uint8_t> overlong(9, 0xff);
  overlong.push_back(0x7f);
  overlong.push_back(0x03);
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(overlong.data(), overlong.size(), 1,
                                        &decoded));

  // Trailing bytes after the df-th posting.
  std::vector<uint8_t> trailing{0x05, 0x07, 0xab};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(trailing.data(), trailing.size(), 1,
                                        &decoded));

  // df larger than the buffer could possibly hold.
  std::vector<uint8_t> tiny{0x05, 0x07};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(tiny.data(), tiny.size(), 1000000,
                                        &decoded));
}

TEST(FlatPostingsCodec, InflatedDfCannotOverReserve) {
  // A lying df of 2^32 - 1 against a 2-byte buffer must fail without
  // reserving gigabytes: the guard reserves from the byte budget
  // (size / 2 + 1 postings at most).
  std::vector<uint8_t> tiny{0x05, 0x07};
  std::vector<Posting> decoded;
  EXPECT_FALSE(FlatPostings::decode_run(tiny.data(), tiny.size(),
                                        0xffffffffu, &decoded));
  EXPECT_LE(decoded.capacity(), 16u);
}

// --- Bound invariants --------------------------------------------------

TermVector make_unit(std::mt19937& rng, int vocab_size) {
  std::uniform_int_distribution<int> nterms_dist(1, 8);
  std::uniform_int_distribution<TermId> term_dist(
      0, static_cast<TermId>(vocab_size - 1));
  std::uniform_int_distribution<int> tf_dist(1, 9);
  TermVector v;
  int nterms = nterms_dist(rng);
  for (int t = 0; t < nterms; ++t) {
    v.add(term_dist(rng), static_cast<double>(tf_dist(rng)));
  }
  return v;
}

// The paper function's norm-free weight bound, spelled exactly as
// PaperScorer::bound computes it (scoring.cc) — one form for local and
// global statistics, differing only in which norm floor applies.
double norm_free_weight_bound(const FlatTermMeta& meta, double norm_floor) {
  double norm_lb = (1.0 - kNormPivotSlope) * meta.min_log_tf_sum;
  if (norm_floor > norm_lb) norm_lb = norm_floor;
  if (norm_lb <= 0.0) return std::numeric_limits<double>::infinity();
  return meta.max_log_tf_plus1 / norm_lb;
}

// A unit of make_unit() with, now and then, a fractional tf >= 1: keeps
// the pruning precondition (min_tf >= 1) while exercising the raw-bits
// tf encoding through folds.
TermVector make_mixed_unit(std::mt19937& rng, int vocab_size) {
  TermVector v = make_unit(rng, vocab_size);
  if (rng() % 4 == 0) {
    v.add(static_cast<TermId>(rng() % static_cast<uint32_t>(vocab_size)),
          1.0 + 0.125 * static_cast<double>(1 + rng() % 7));
  }
  return v;
}

TEST(FlatTermMetaBounds, HoldForEveryPostingOnRandomCorpora) {
  std::mt19937 rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    InvertedIndex index;
    // A second, larger collection the index is one shard of: its board
    // supplies the global statistics the sharded path scores against.
    GlobalIndexStats board(1, index.min_norm_fraction);
    int units = 2 + static_cast<int>(rng() % 50);
    for (int u = 0; u < units; ++u) {
      TermVector v = make_unit(rng, 25);
      board.append(0, v, /*refresh_now=*/false);
      if (rng() % 3 != 0) index.add_unit(v);
      // Split the adds by a finalize now and then so the bound is checked
      // over base + tail, not only over freshly sealed arenas.
      if (rng() % 7 == 0) index.finalize();
    }
    TermVector last = make_unit(rng, 25);
    board.append(0, last, /*refresh_now=*/false);
    index.add_unit(last);
    index.finalize();
    board.refresh(0);
    std::shared_ptr<const ClusterCollectionStats> global = board.cluster(0);
    const FlatPostings& flat = index.flat();
    for (TermId term = 0; term < 25; ++term) {
      const FlatTermMeta* meta = flat.term_meta(term);
      if (meta == nullptr) {
        EXPECT_EQ(index.df(term), 0u);
        continue;
      }
      EXPECT_EQ(meta->df, index.df(term));
      const double local_w_ub =
          norm_free_weight_bound(*meta, index.norm_floor());
      const double global_w_ub =
          norm_free_weight_bound(*meta, global->norm_floor);
      const double local_pidf =
          probabilistic_idf(index.num_units(), meta->df);
      const double global_pidf =
          probabilistic_idf(global->num_units, global->df_of(term));
      FlatPostings::Cursor cur = flat.cursor(term);
      uint32_t unit = 0;
      double tf = 0.0;
      uint32_t count = 0;
      while (cur.next(&unit, &tf)) {
        ++count;
        // Each comparison is against the exact double the scoring
        // expressions compute — the invariant the MaxScore bounds rely
        // on (flat_postings.h).
        double log_tf_plus1 = std::log(tf) + 1.0;
        double len = index.unit_length(unit);
        double tf_over_len = tf / std::max(len, 1e-9);
        EXPECT_LE(tf, meta->max_tf);
        EXPECT_GE(tf, meta->min_tf);
        EXPECT_LE(log_tf_plus1, meta->max_log_tf_plus1);
        EXPECT_LE(tf_over_len, meta->max_tf_over_len);
        EXPECT_GE(len, meta->min_len);
        EXPECT_GE(index.unit_log_tf_sum(unit), meta->min_log_tf_sum);
        // The norm-free bound covers every contribution f_q * w * pidf,
        // under the index's own statistics and under the global ones.
        double global_norm = std::max(
            pre_floor_unit_norm(index.unit_log_tf_sum(unit),
                                index.unit_unique_terms(unit),
                                global->avg_unique_terms),
            global->norm_floor);
        for (double f_q : {1.0, 2.0, 3.0}) {
          double local_c =
              f_q * (log_tf_plus1 / index.unit_norm(unit)) * local_pidf;
          double global_c = f_q * (log_tf_plus1 / global_norm) * global_pidf;
          EXPECT_LE(local_c, f_q * local_w_ub * local_pidf);
          EXPECT_LE(global_c, f_q * global_w_ub * global_pidf);
        }
      }
      EXPECT_EQ(count, meta->df);
    }
  }
}

TEST(FlatTermMetaBounds, MaximaAreAttained) {
  // The maxima/minima are exact (not inflated): some posting attains each.
  InvertedIndex index;
  TermVector a;
  a.add(1, 2.0);
  a.add(2, 5.0);
  TermVector b;
  b.add(1, 7.0);
  index.add_unit(a);
  index.add_unit(b);
  index.finalize();
  const FlatTermMeta* meta = index.flat().term_meta(1);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->max_tf, 7.0);
  EXPECT_EQ(meta->min_tf, 2.0);
  EXPECT_EQ(meta->max_log_tf_plus1, std::log(7.0) + 1.0);
  EXPECT_EQ(meta->min_log_tf_sum,
            std::min(index.unit_log_tf_sum(0), index.unit_log_tf_sum(1)));
  EXPECT_EQ(meta->min_len, 7.0);
  EXPECT_EQ(meta->max_tf_over_len, 1.0);
}

// --- Base + tail ---------------------------------------------------------

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << what;
}

// Ingesting one unit at a time, with a finalize() after each, must leave
// the index in exactly the state a one-pass build over the same units
// reaches — whether the newest postings still sit in the tail or a fold
// has just sealed them: each term's decoded (unit, tf) sequence, its
// encoded run, every FlatTermMeta field and the scalar statistics, bit
// for bit.
TEST(FlatPostingsTail, IngestOneUnitAtATimeMatchesFreshBuildAcrossFolds) {
  constexpr int kVocab = 40;
  std::mt19937 rng(4242);
  std::vector<TermVector> units;
  InvertedIndex incremental;
  for (int u = 0; u < 12; ++u) {
    units.push_back(make_mixed_unit(rng, kVocab));
    incremental.add_unit(units.back());
  }
  incremental.finalize();
  const uint64_t first_folds = incremental.flat().folds();
  size_t checks_with_tail = 0;
  for (int u = 12; u < 160; ++u) {
    units.push_back(make_mixed_unit(rng, kVocab));
    incremental.add_unit(units.back());
    incremental.finalize();
    InvertedIndex fresh;
    for (const TermVector& v : units) fresh.add_unit(v);
    fresh.finalize();

    const FlatPostings& inc = incremental.flat();
    const FlatPostings& ref = fresh.flat();
    ASSERT_EQ(ref.tail_postings(), 0u);  // a one-pass build folds at once
    if (inc.tail_postings() > 0) ++checks_with_tail;
    EXPECT_EQ(inc.base_postings() + inc.tail_postings(), ref.base_postings());
    ASSERT_EQ(inc.num_terms(), ref.num_terms()) << "after unit " << u;
    const std::string at = " (after unit " + std::to_string(u) + ")";
    for (TermId term = 0; term < kVocab; ++term) {
      const std::string what = "term " + std::to_string(term) + at;
      const FlatTermMeta* mi = inc.term_meta(term);
      const FlatTermMeta* mf = ref.term_meta(term);
      ASSERT_EQ(mi == nullptr, mf == nullptr) << what;
      if (mi == nullptr) continue;
      EXPECT_EQ(mi->df, mf->df) << what;
      expect_same_bits(mi->max_tf, mf->max_tf, "max_tf " + what);
      expect_same_bits(mi->min_tf, mf->min_tf, "min_tf " + what);
      expect_same_bits(mi->max_log_tf_plus1, mf->max_log_tf_plus1,
                       "max_log_tf_plus1 " + what);
      expect_same_bits(mi->min_log_tf_sum, mf->min_log_tf_sum,
                       "min_log_tf_sum " + what);
      expect_same_bits(mi->min_len, mf->min_len, "min_len " + what);
      expect_same_bits(mi->max_tf_over_len, mf->max_tf_over_len,
                       "max_tf_over_len " + what);
      // Decoded sequences, through both read paths.
      std::vector<uint32_t> ui, uf;
      std::vector<double> ti, tfs;
      ASSERT_EQ(inc.decode_term(term, &ui, &ti), mi->df) << what;
      ASSERT_EQ(ref.decode_term(term, &uf, &tfs), mf->df) << what;
      EXPECT_EQ(ui, uf) << what;
      ASSERT_EQ(ti.size(), tfs.size()) << what;
      FlatPostings::Cursor cur = inc.cursor(term);
      uint32_t unit = 0;
      double tf = 0.0;
      for (size_t i = 0; i < ti.size(); ++i) {
        expect_same_bits(ti[i], tfs[i], "tf " + what);
        ASSERT_TRUE(cur.next(&unit, &tf)) << what;
        EXPECT_EQ(unit, uf[i]) << what;
        expect_same_bits(tf, tfs[i], "cursor tf " + what);
      }
      EXPECT_FALSE(cur.next(&unit, &tf)) << what;
      EXPECT_TRUE(cur.done()) << what;
      EXPECT_EQ(inc.term_run_bytes(term), ref.term_run_bytes(term)) << what;
      expect_same_bits(incremental.collection_tf(term),
                       fresh.collection_tf(term), "collection_tf " + what);
    }
    expect_same_bits(incremental.avg_unique_terms(), fresh.avg_unique_terms(),
                     "avg_unique_terms" + at);
    expect_same_bits(incremental.avg_unit_length(), fresh.avg_unit_length(),
                     "avg_unit_length" + at);
    expect_same_bits(incremental.collection_length(),
                     fresh.collection_length(), "collection_length" + at);
    expect_same_bits(incremental.norm_floor(), fresh.norm_floor(),
                     "norm_floor" + at);
    for (uint32_t unit = 0; unit < units.size(); ++unit) {
      expect_same_bits(incremental.unit_norm(unit), fresh.unit_norm(unit),
                       "unit_norm " + std::to_string(unit) + at);
    }
    if (inc.tail_postings() == 0) {
      // Just folded: the whole arena is the one-pass seal, byte for byte.
      EXPECT_EQ(inc.arena_bytes(), ref.arena_bytes()) << at;
      EXPECT_EQ(inc.total_bytes(), ref.total_bytes()) << at;
    }
  }
  // At least three fold boundaries crossed after the initial seal, and
  // most checks ran with a non-empty tail.
  EXPECT_GE(incremental.flat().folds() - first_folds, 3u);
  EXPECT_GT(checks_with_tail, 74u);
}

// The fold rule: the tail is sealed exactly when it outgrows
// 1/kTailFoldDivisor of the base, and never before.
TEST(FlatPostingsTail, FoldsOnlyPastTheFoldFraction) {
  std::mt19937 rng(7);
  InvertedIndex index;
  for (int u = 0; u < 30; ++u) index.add_unit(make_unit(rng, 30));
  index.finalize();
  ASSERT_EQ(index.flat().tail_postings(), 0u);
  for (int u = 0; u < 200; ++u) {
    const size_t base_before = index.flat().base_postings();
    const size_t tail_before = index.flat().tail_postings();
    const uint64_t folds_before = index.flat().folds();
    TermVector v = make_unit(rng, 30);
    index.add_unit(v);
    const size_t tail_now = tail_before + v.entries().size();
    index.finalize();
    if (tail_now * kTailFoldDivisor > base_before) {
      EXPECT_EQ(index.flat().folds(), folds_before + 1);
      EXPECT_EQ(index.flat().tail_postings(), 0u);
      EXPECT_EQ(index.flat().base_postings(), base_before + tail_now);
    } else {
      EXPECT_EQ(index.flat().folds(), folds_before);
      EXPECT_EQ(index.flat().tail_postings(), tail_now);
      EXPECT_EQ(index.flat().base_postings(), base_before);
    }
  }
}

}  // namespace
}  // namespace ibseg
