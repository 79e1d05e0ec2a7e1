#include "index/flat_postings.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>


namespace ibseg {

namespace {

/// Largest integral tf stored in the varint fast path; anything above (or
/// non-integral) takes the raw-bits branch. 2^62 keeps (tf << 1 | 1)
/// inside uint64.
constexpr double kMaxVarintTf = 4611686018427387904.0;  // 2^62

/// Bounded LEB128 read: advances *p, fails on truncation or > 10 bytes.
inline bool read_varint(const uint8_t** p, const uint8_t* end,
                        uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    uint8_t byte = **p;
    ++*p;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject overlong encodings that would have shifted bits past 64.
      if (shift == 63 && (byte & 0x7e) != 0) return false;
      *value = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or overlong
}

inline bool read_tf(const uint8_t** p, const uint8_t* end, double* tf) {
  uint64_t v = 0;
  if (!read_varint(p, end, &v)) return false;
  if ((v & 1) != 0) {
    uint64_t integral = v >> 1;
    if (integral == 0) return false;  // tf 0 never appears in a posting
    *tf = static_cast<double>(integral);
    return true;
  }
  if (v != 0) return false;  // even tags other than the raw marker: invalid
  if (end - *p < 8) return false;
  uint64_t bits = 0;
  std::memcpy(&bits, *p, 8);
  *p += 8;
  double d;
  std::memcpy(&d, &bits, 8);
  *tf = d;
  return true;
}

}  // namespace

void FlatPostings::append_varint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void FlatPostings::append_posting(std::vector<uint8_t>* out, uint32_t unit,
                                  double tf, uint32_t prev_unit, bool first) {
  if (first) {
    append_varint(out, unit);
  } else {
    assert(unit > prev_unit);
    append_varint(out, static_cast<uint64_t>(unit) - prev_unit);
  }
  // tf encoding: integral positive tf as varint(tf << 1 | 1); everything
  // else as the raw-bits escape varint(0) + 8 LE bytes. Both branches
  // round-trip the exact double.
  if (tf > 0.0 && tf < kMaxVarintTf && tf == std::floor(tf)) {
    append_varint(out, (static_cast<uint64_t>(tf) << 1) | 1);
  } else {
    append_varint(out, 0);
    uint64_t bits = 0;
    std::memcpy(&bits, &tf, 8);
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }
}

bool FlatPostings::decode_run(const uint8_t* data, size_t size, uint32_t df,
                              std::vector<Posting>* out,
                              FlatDecodeStats* stats) {
  const uint8_t* p = data;
  const uint8_t* end = data + size;
  // Allocation guard: a posting costs at least 2 bytes (one delta byte +
  // one tf byte), so an untrusted df larger than size/2 + 1 is lying about
  // the buffer — reserve from the *byte budget*, never from df alone.
  out->reserve(out->size() +
               std::min<size_t>(df, size / 2 + 1));
  uint32_t prev = 0;
  for (uint32_t i = 0; i < df; ++i) {
    uint64_t delta = 0;
    if (!read_varint(&p, end, &delta)) return false;
    uint64_t unit;
    if (i == 0) {
      unit = delta;
    } else {
      if (delta == 0) return false;  // units are strictly ascending
      unit = static_cast<uint64_t>(prev) + delta;
    }
    if (unit > 0xffffffffull) return false;
    double tf = 0.0;
    if (!read_tf(&p, end, &tf)) return false;
    out->push_back(Posting{static_cast<uint32_t>(unit), tf});
    prev = static_cast<uint32_t>(unit);
    if (stats != nullptr) ++stats->postings;
  }
  if (p != end) return false;  // trailing bytes: not a sealed run
  if (stats != nullptr) stats->bytes = size;
  return true;
}

void FlatPostings::append(TermId term, uint32_t unit, double tf,
                          const UnitLexStats& unit_stats) {
  TermRun& run = runs_[term];
  assert(run.tail.empty() ? (run.base_df == 0 || unit > run.last_base_unit)
                          : unit > run.tail.back().unit);
  run.tail.push_back(Posting{unit, tf});
  ++tail_postings_;
  // Bound inputs: each "max"/"min" is taken over the exact doubles the
  // scoring expressions produce for this posting, so comparisons in the
  // pruning path are between identical bit patterns. Folding posting by
  // posting in unit order is the same sequential loop a one-pass build
  // runs, so the result does not depend on where the folds fall.
  FlatTermMeta& meta = run.meta;
  ++meta.df;
  double log_tf_plus1 = std::log(tf) + 1.0;
  double len = unit_stats.length;
  double tf_over_len = tf / std::max(len, 1e-9);
  double log_tf_sum = unit_stats.log_tf_sum;
  if (tf > meta.max_tf) meta.max_tf = tf;
  if (meta.min_tf == 0.0 || tf < meta.min_tf) meta.min_tf = tf;
  if (log_tf_plus1 > meta.max_log_tf_plus1) {
    meta.max_log_tf_plus1 = log_tf_plus1;
  }
  if (tf_over_len > meta.max_tf_over_len) meta.max_tf_over_len = tf_over_len;
  if (meta.min_len == 0.0 || len < meta.min_len) meta.min_len = len;
  if (meta.min_log_tf_sum == 0.0 || log_tf_sum < meta.min_log_tf_sum) {
    meta.min_log_tf_sum = log_tf_sum;
  }
}

void FlatPostings::fold() {
  std::vector<std::pair<TermId, TermRun*>> order;
  order.reserve(runs_.size());
  for (auto& [term, run] : runs_) order.emplace_back(term, &run);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // 2 bytes per posting is the encoding floor; tails mostly fit in 3.
  std::vector<uint8_t> arena;
  arena.reserve(arena_.size() + tail_postings_ * 3);
  for (const auto& [term, run] : order) {
    uint64_t offset = arena.size();
    // The base run is already encoded: copy it verbatim, then continue the
    // delta chain from its last unit — exactly the bytes a one-pass seal
    // over base + tail would write.
    arena.insert(arena.end(), arena_.begin() + static_cast<long>(run->offset),
                 arena_.begin() + static_cast<long>(run->offset + run->bytes));
    uint32_t prev = run->last_base_unit;
    bool first = run->base_df == 0;
    for (const Posting& p : run->tail) {
      append_posting(&arena, p.unit, p.tf, prev, first);
      prev = p.unit;
      first = false;
    }
    run->offset = offset;
    run->bytes = arena.size() - offset;
    run->base_df = run->meta.df;
    run->last_base_unit = prev;
    std::vector<Posting>().swap(run->tail);
  }
  arena_ = std::move(arena);
  base_postings_ += tail_postings_;
  tail_postings_ = 0;
  ++folds_;
}

const FlatPostings::TermRun* FlatPostings::find(TermId term) const {
  auto it = runs_.find(term);
  return it == runs_.end() ? nullptr : &it->second;
}

const FlatTermMeta* FlatPostings::term_meta(TermId term) const {
  const TermRun* run = find(term);
  return run == nullptr ? nullptr : &run->meta;
}

uint32_t FlatPostings::decode_term(TermId term, std::vector<uint32_t>* units,
                                   std::vector<double>* tfs) const {
  const TermRun* run = find(term);
  if (run == nullptr) return 0;
  units->reserve(units->size() + run->meta.df);
  tfs->reserve(tfs->size() + run->meta.df);
  Cursor c = cursor_of(*run);
  uint32_t unit = 0;
  double tf = 0.0;
  uint32_t n = 0;
  while (c.next(&unit, &tf)) {
    units->push_back(unit);
    tfs->push_back(tf);
    ++n;
  }
  assert(n == run->meta.df);  // sealed arenas always decode completely
  return n;
}

FlatPostings::Cursor FlatPostings::cursor(TermId term) const {
  const TermRun* run = find(term);
  return run == nullptr ? Cursor() : cursor_of(*run);
}

FlatPostings::Cursor FlatPostings::cursor_of(const TermRun& run) const {
  Cursor c;
  c.p_ = arena_.data() + run.offset;
  c.end_ = c.p_ + run.bytes;
  c.remaining_ = run.base_df;
  c.tail_ = run.tail.data();
  c.tail_end_ = c.tail_ + run.tail.size();
  return c;
}

bool FlatPostings::Cursor::next(uint32_t* unit, double* tf) {
  if (remaining_ == 0) {
    if (tail_ == tail_end_) return false;
    *unit = tail_->unit;
    *tf = tail_->tf;
    ++tail_;
    return true;
  }
  uint64_t delta = 0;
  if (!read_varint(&p_, end_, &delta)) {
    remaining_ = 0;  // corrupt arena: stop rather than over-read
    assert(false && "flat postings arena corrupt (truncated varint)");
    return false;
  }
  uint64_t u = first_ ? delta : static_cast<uint64_t>(prev_unit_) + delta;
  double value = 0.0;
  if (u > 0xffffffffull || !read_tf(&p_, end_, &value)) {
    remaining_ = 0;
    assert(false && "flat postings arena corrupt (bad posting)");
    return false;
  }
  prev_unit_ = static_cast<uint32_t>(u);
  first_ = false;
  *unit = prev_unit_;
  *tf = value;
  --remaining_;
  return true;
}

std::vector<uint8_t> FlatPostings::term_run_bytes(TermId term) const {
  const TermRun* run = find(term);
  if (run == nullptr) return {};
  std::vector<uint8_t> bytes(
      arena_.begin() + static_cast<long>(run->offset),
      arena_.begin() + static_cast<long>(run->offset + run->bytes));
  uint32_t prev = run->last_base_unit;
  bool first = run->base_df == 0;
  for (const Posting& p : run->tail) {
    append_posting(&bytes, p.unit, p.tf, prev, first);
    prev = p.unit;
    first = false;
  }
  return bytes;
}

}  // namespace ibseg
