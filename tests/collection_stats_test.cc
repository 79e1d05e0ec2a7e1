// Tests for the sharded statistics board's delta views
// (index/collection_stats.h): every published view — shared immutable base
// plus sorted delta — must read exactly what a board rebuilt from scratch
// over the same units reads, across folds; a reader holding an old view
// keeps its own consistent values while the writer folds; and concurrent
// readers only ever observe views equal to some sequential publication.
// The concurrency cases are meant for ThreadSanitizer (labels
// "differential stress": reproduce.sh IBSEG_DIFF_CHECK=1).

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/collection_stats.h"
#include "index/inverted_index.h"
#include "text/term_vector.h"

namespace ibseg {
namespace {

constexpr TermId kVocab = 1500;

// Half the terms from a small common core, half from a long tail: the
// delta keeps receiving both repeat terms and terms new to the cluster.
TermVector make_unit(std::mt19937& rng) {
  std::uniform_int_distribution<int> nterms_dist(1, 10);
  std::uniform_int_distribution<TermId> common_dist(0, 39);
  std::uniform_int_distribution<TermId> term_dist(0, kVocab - 1);
  std::uniform_int_distribution<int> tf_dist(1, 6);
  TermVector v;
  int nterms = nterms_dist(rng);
  for (int t = 0; t < nterms; ++t) {
    TermId term = rng() % 2 == 0 ? common_dist(rng) : term_dist(rng);
    v.add(term, static_cast<double>(tf_dist(rng)));
  }
  if (rng() % 5 == 0) {
    // Fractional tf: delta entries replace base entries instead of adding
    // to them, so exactness must not depend on integer-valued sums.
    v.add(term_dist(rng), 0.1 * static_cast<double>(1 + rng() % 9));
  }
  return v;
}

uint64_t bits(double d) { return std::bit_cast<uint64_t>(d); }

// Field-by-field bit equality of two views over the whole vocabulary.
void expect_same_view(const ClusterCollectionStats& got,
                      const ClusterCollectionStats& want,
                      const std::string& what) {
  EXPECT_EQ(got.num_units, want.num_units) << what;
  EXPECT_EQ(bits(got.avg_unique_terms), bits(want.avg_unique_terms)) << what;
  EXPECT_EQ(bits(got.norm_floor), bits(want.norm_floor)) << what;
  EXPECT_EQ(bits(got.avg_unit_length), bits(want.avg_unit_length)) << what;
  EXPECT_EQ(bits(got.collection_length), bits(want.collection_length))
      << what;
  for (TermId term = 0; term < kVocab; ++term) {
    EXPECT_EQ(got.df_of(term), want.df_of(term))
        << what << " term " << term;
    EXPECT_EQ(bits(got.collection_tf_of(term)),
              bits(want.collection_tf_of(term)))
        << what << " term " << term;
  }
}

// True when the two views agree bit for bit (the lock-free reader check).
bool same_view(const ClusterCollectionStats& a,
               const ClusterCollectionStats& b) {
  if (a.num_units != b.num_units ||
      bits(a.avg_unique_terms) != bits(b.avg_unique_terms) ||
      bits(a.norm_floor) != bits(b.norm_floor) ||
      bits(a.avg_unit_length) != bits(b.avg_unit_length) ||
      bits(a.collection_length) != bits(b.collection_length)) {
    return false;
  }
  for (TermId term = 0; term < kVocab; ++term) {
    if (a.df_of(term) != b.df_of(term) ||
        bits(a.collection_tf_of(term)) != bits(b.collection_tf_of(term))) {
      return false;
    }
  }
  return true;
}

// Number of distinct bases across a sequence of views (1 + folds).
size_t distinct_bases(
    const std::vector<std::shared_ptr<const ClusterCollectionStats>>& views) {
  size_t n = 0;
  const ClusterCollectionStats::TermTotalsMap* last = nullptr;
  for (const auto& view : views) {
    if (view->base.get() != last) ++n;
    last = view->base.get();
  }
  return n;
}

// Sequential reference: views[n] is the published view after n appends to
// cluster 0 of a board fed one unit at a time.
std::vector<std::shared_ptr<const ClusterCollectionStats>> sequential_views(
    const std::vector<TermVector>& units) {
  GlobalIndexStats board(1, 1.0);
  std::vector<std::shared_ptr<const ClusterCollectionStats>> views;
  views.push_back(board.cluster(0));
  for (const TermVector& v : units) {
    board.append(0, v);
    views.push_back(board.cluster(0));
  }
  return views;
}

TEST(GlobalIndexStatsDelta, EveryAppendMatchesBoardRebuiltFromScratch) {
  std::mt19937 rng(1234);
  std::vector<std::vector<TermVector>> units(2);
  GlobalIndexStats board(2, 1.0);
  InvertedIndex index;  // cluster 0 as one unsharded index would hold it
  size_t folds = 0;
  const ClusterCollectionStats::TermTotalsMap* last_base = nullptr;
  for (int step = 0; step < 400; ++step) {
    // Seed a block without publishing (bulk path), then publish per unit.
    const bool seeding = step < 20;
    const int cluster = rng() % 3 == 0 ? 1 : 0;
    TermVector v = make_unit(rng);
    units[static_cast<size_t>(cluster)].push_back(v);
    board.append(cluster, v, /*refresh_now=*/!seeding);
    if (cluster == 0) index.add_unit(v);
    if (seeding) {
      if (step == 19) {
        board.refresh(0);
        board.refresh(1);
      } else {
        continue;
      }
    }

    GlobalIndexStats fresh(2, 1.0);
    for (int c = 0; c < 2; ++c) {
      for (const TermVector& u : units[static_cast<size_t>(c)]) {
        fresh.append(c, u, /*refresh_now=*/false);
      }
      fresh.refresh(c);
      const std::string what =
          "step " + std::to_string(step) + " cluster " + std::to_string(c);
      std::shared_ptr<const ClusterCollectionStats> got = board.cluster(c);
      std::shared_ptr<const ClusterCollectionStats> want = fresh.cluster(c);
      // The rebuilt board has just folded everything into its base.
      ASSERT_TRUE(want->delta.empty()) << what;
      expect_same_view(*got, *want, what);
    }

    // Single-shard identity: the board reads what the index computes.
    std::shared_ptr<const ClusterCollectionStats> view = board.cluster(0);
    index.finalize();
    EXPECT_EQ(view->num_units, index.num_units());
    EXPECT_EQ(bits(view->avg_unique_terms), bits(index.avg_unique_terms()));
    EXPECT_EQ(bits(view->norm_floor), bits(index.norm_floor()));
    EXPECT_EQ(bits(view->avg_unit_length), bits(index.avg_unit_length()));
    EXPECT_EQ(bits(view->collection_length),
              bits(index.collection_length()));
    for (TermId term = 0; term < kVocab; ++term) {
      EXPECT_EQ(view->df_of(term), index.df(term));
      EXPECT_EQ(bits(view->collection_tf_of(term)),
                bits(index.collection_tf(term)));
    }
    if (view->base.get() != last_base) {
      ++folds;
      last_base = view->base.get();
    }
  }
  // Past the bulk seed, cluster 0 kept publishing through both deltas and
  // folds.
  EXPECT_GE(folds, 4u);
  EXPECT_FALSE(board.cluster(0)->delta.empty() &&
               board.cluster(1)->delta.empty());
}

// A reader holding a view published before a fold keeps reading exactly
// that view's values — its base stays alive and immutable — while the
// writer appends and folds past it.
TEST(GlobalIndexStatsDelta, PreFoldViewStaysConsistentWhileWriterFolds) {
  std::mt19937 rng(77);
  std::vector<TermVector> units;
  for (int i = 0; i < 600; ++i) units.push_back(make_unit(rng));
  std::vector<std::shared_ptr<const ClusterCollectionStats>> expected =
      sequential_views(units);

  GlobalIndexStats board(1, 1.0);
  for (size_t i = 0; i < 40; ++i) board.append(0, units[i]);
  std::shared_ptr<const ClusterCollectionStats> held = board.cluster(0);
  ASSERT_EQ(held->num_units, 40u);
  const ClusterCollectionStats::TermTotalsMap* held_base = held->base.get();

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    // Runs until the writer finishes, then once more to cover the
    // final state.
    bool last = false;
    while (!last) {
      last = writer_done.load(std::memory_order_acquire);
      if (!same_view(*held, *expected[40])) mismatches.fetch_add(1);
      reads.fetch_add(1);
    }
  });
  std::thread writer([&] {
    for (size_t i = 40; i < units.size(); ++i) board.append(0, units[i]);
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  std::shared_ptr<const ClusterCollectionStats> now = board.cluster(0);
  EXPECT_NE(now->base.get(), held_base) << "the writer never folded";
  EXPECT_EQ(held->base.get(), held_base);
  expect_same_view(*now, *expected.back(), "final");
}

// Readers grabbing fresh views while a writer publishes across several
// folds only ever observe a view equal — bit for bit, every term — to the
// sequential publication with the same unit count, and unit counts never
// go backwards.
TEST(GlobalIndexStatsDelta, ReaderWriterStressAcrossFolds) {
  std::mt19937 rng(2024);
  std::vector<TermVector> units;
  for (int i = 0; i < 400; ++i) units.push_back(make_unit(rng));
  std::vector<std::shared_ptr<const ClusterCollectionStats>> expected =
      sequential_views(units);

  GlobalIndexStats board(1, 1.0);
  // The writer crosses several folds (deterministic: same units, same
  // rule as the sequential reference).
  ASSERT_GE(distinct_bases(expected), 4u);
  constexpr int kReaders = 3;
  std::atomic<int> readers_ready{0};
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> regressions{0};
  auto reader_loop = [&] {
    size_t last_units = 0;
    bool last = false;
    readers_ready.fetch_add(1);
    while (!last) {
      last = writer_done.load(std::memory_order_acquire);
      std::shared_ptr<const ClusterCollectionStats> view = board.cluster(0);
      if (view->num_units < last_units) regressions.fetch_add(1);
      last_units = view->num_units;
      if (!same_view(*view, *expected[view->num_units])) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader_loop);
  std::thread writer([&] {
    while (readers_ready.load() < kReaders) std::this_thread::yield();
    for (const TermVector& v : units) {
      board.append(0, v);
      std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  expect_same_view(*board.cluster(0), *expected.back(), "final");
}

}  // namespace
}  // namespace ibseg
