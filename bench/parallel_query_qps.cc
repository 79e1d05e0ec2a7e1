// Parallel/cached query throughput on the repeated-query CQA workload
// (duplicate/near-duplicate question lookups dominate community QA
// traffic). Two axes, each measured on the layer where it acts:
//
//  * threads: IntentionMatcher::find_related_batch of a plain
//    RelatedPostPipeline at 1, 4 and 8 matcher query threads
//    (MatcherOptions::query_threads) — the pure per-intention fan-out;
//  * cache: ShardedServing::find_related_batch (one shard) with the
//    epoch-invalidated result cache off and on.
//
// The workload draws 80% of queries from a small hot set and 20%
// uniformly, so the cache-on row shows the hit-dominated regime. Thread
// rows above the machine's core count are oversubscribed and report
// hardware-limited numbers (hardware_threads is recorded in the JSON for
// exactly that reason).
//
// Results print as a table and are recorded in
// BENCH_parallel_query_qps.json (current working directory, like the
// other reproduce.sh outputs); scripts/reproduce.sh checks the JSON
// schema. IBSEG_BENCH_SCALE scales the corpus; IBSEG_QPS_WINDOW_MS
// overrides the per-configuration measurement window.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_serving.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

constexpr size_t kBatchSize = 64;
constexpr size_t kHotSetSize = 16;

struct QpsRow {
  const char* layer = "matcher";  ///< "matcher" or "serving"
  int query_threads = 0;
  bool cache = false;
  double qps = 0.0;
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  double hit_rate = 0.0;
};

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

int window_ms() {
  const char* env = std::getenv("IBSEG_QPS_WINDOW_MS");
  if (env == nullptr) return 1200;
  int v = std::atoi(env);
  return v > 0 ? v : 1200;
}

/// Repeated-query mix: 80% hot set, 20% uniform. Deterministic schedule
/// (same seed), so every row answers the same query stream. Runs
/// `batch_fn` over 64-query batches for one window; returns the count.
template <typename BatchFn>
uint64_t run_window(size_t num_docs, double* elapsed, BatchFn batch_fn) {
  Rng rng(99);
  auto next_query = [&]() -> DocId {
    if (rng.next_bool(0.8)) {
      return static_cast<DocId>(rng.next_below(kHotSetSize) %
                                static_cast<uint64_t>(num_docs));
    }
    return static_cast<DocId>(rng.next_below(num_docs));
  };
  const double window_sec = window_ms() / 1000.0;
  uint64_t queries = 0;
  Stopwatch watch;
  std::vector<DocId> batch(kBatchSize);
  while (watch.elapsed_seconds() < window_sec) {
    for (DocId& q : batch) q = next_query();
    batch_fn(batch);
    queries += kBatchSize;
  }
  *elapsed = watch.elapsed_seconds();
  return queries;
}

QpsRow run_matcher(const SyntheticCorpus& corpus, int query_threads) {
  PipelineOptions build_options;
  build_options.matcher.query_threads = query_threads;
  RelatedPostPipeline pipeline =
      RelatedPostPipeline::build(analyze_corpus(corpus), build_options);
  QpsRow row;
  row.query_threads = query_threads;
  double elapsed = 0.0;
  row.queries = run_window(
      pipeline.docs().size(), &elapsed, [&](const std::vector<DocId>& b) {
        pipeline.matcher().find_related_batch(b, 5);
      });
  row.qps = static_cast<double>(row.queries) / elapsed;
  return row;
}

QpsRow run_serving(const SyntheticCorpus& corpus, bool cache) {
  ServingOptions serving_options;
  if (cache) {
    serving_options.cache.capacity = 4096;
    serving_options.cache.shards = 8;
  }
  std::unique_ptr<ShardedServing> serving =
      ShardedServing::create(analyze_corpus(corpus), {}, serving_options);
  QpsRow row;
  row.layer = "serving";
  row.query_threads = 1;  // the scatter leg scores clusters serially
  row.cache = cache;
  double elapsed = 0.0;
  row.queries = run_window(
      serving->num_docs(), &elapsed, [&](const std::vector<DocId>& b) {
        serving->find_related_batch(b, 5);
      });
  row.qps = static_cast<double>(row.queries) / elapsed;
  if (serving->query_cache() != nullptr) {
    row.cache_hits = serving->query_cache()->hits();
    uint64_t lookups =
        serving->query_cache()->hits() + serving->query_cache()->misses();
    row.hit_rate = lookups > 0
                       ? static_cast<double>(row.cache_hits) / lookups
                       : 0.0;
  }
  return row;
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  const size_t corpus_size = static_cast<size_t>(240 * bench_scale());
  GeneratorOptions gen = eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);

  // Every row builds its own state over the same corpus; the offline
  // phase is deterministic, so every row serves identical state.
  std::vector<QpsRow> rows;
  for (int query_threads : {1, 4, 8}) {
    rows.push_back(run_matcher(corpus, query_threads));
  }
  for (bool cache : {false, true}) rows.push_back(run_serving(corpus, cache));

  // Speedups are against the serial uncached matcher row.
  double base_qps = rows[0].qps;
  TablePrinter table({"layer", "query threads", "cache", "queries/sec",
                      "hit rate", "speedup vs serial"});
  for (const QpsRow& row : rows) {
    table.add_row({row.layer, std::to_string(row.query_threads),
                   row.cache ? "on" : "off", fmt(row.qps, 1),
                   row.cache ? fmt(row.hit_rate, 2) : "-",
                   fmt(base_qps > 0.0 ? row.qps / base_qps : 0.0, 2)});
  }
  std::printf(
      "parallel_query_qps: batched query throughput, fan-out x cache\n");
  table.print(std::cout);

  FILE* out = std::fopen("BENCH_parallel_query_qps.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"parallel_query_qps\",\n");
    std::fprintf(out, "  \"corpus_posts\": %zu,\n", corpus_size);
    std::fprintf(out, "  \"window_ms\": %d,\n", window_ms());
    std::fprintf(out, "  \"batch_size\": %zu,\n", kBatchSize);
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"configs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const QpsRow& row = rows[i];
      std::fprintf(out,
                   "    {\"layer\": \"%s\", \"query_threads\": %d, "
                   "\"cache\": %s, "
                   "\"qps\": %.1f, \"queries\": %llu, "
                   "\"cache_hits\": %llu, \"cache_hit_rate\": %.3f, "
                   "\"speedup_vs_serial\": %.2f}%s\n",
                   row.layer, row.query_threads, row.cache ? "true" : "false",
                   row.qps,
                   static_cast<unsigned long long>(row.queries),
                   static_cast<unsigned long long>(row.cache_hits),
                   row.hit_rate,
                   base_qps > 0.0 ? row.qps / base_qps : 0.0,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_parallel_query_qps.json\n");
  }
  return 0;
}
