// perfbench_driver — the repository benchmark's measuring program.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR] [--scale F]
//
// Builds three fixed corpora one after another, serves each through
// net::Server over ShardedServing (the ibseg_server defaults: 1 shard,
// 2 workers, cache off) on loopback inside this process, drives it from
// outside, checks the answers, and prints one JSON result object as its
// last line of output. Workloads (see kWorkloads below for why each
// exists):
//
//   read_mix     8k tech-support posts, open- and closed-loop reads with
//                no write beside them
//   ingest_mix   the same profile under a closed-loop ADD_POST writer
//                with WAL fsync on every append, beside open-loop reads
//
// Every run reports every end-to-end metric: the phases a workload is not
// about (for instance the ingest probe of read_mix, and the recluster,
// save and restore of both) run as probes on the same corpora. --trace 1
// additionally records bench-side spans, replays part of the request
// stream in-process through the layers' public calls, and prints the
// per-layer metrics instead. --scale shrinks every size (smoke tests).

#include <sys/resource.h>
#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "loadgen.h"
#include "measure.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"

using namespace ibseg;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions.

/// Open-loop read rate (requests/s) of read_mix and ingest_mix. The
/// closed-loop capacity of the parent build on the 8k corpus is about
/// 4000 reads/s on a 4-core x86-64 host, but beside the ingest writer the
/// reads stall behind the exclusive publish lock and the backlog grows
/// without bound above about 500/s. Both workloads use one rate, the one
/// ingest_mix sustains.
constexpr double kReadRate = 400.0;
/// Share of QUERY among open- and closed-loop reads; the rest is ASK.
constexpr double kQueryShare = 0.8;
constexpr int kTopK = 10;
/// Each run sets up, serves, saves, restores and reclusters kCorpora
/// corpora of the same profile and size, one after another. The corpora
/// are a fixed data set: corpus c is generated from kCorpusSeed + c in
/// every run, and --seed draws everything else (which held-out posts are
/// sent as what, the hot threads, the request mix and arrival times). A
/// corpus drawn from the run's seed would let the draw decide the run's
/// figures: of 36 generated 8k corpora, 4 grouped into 3 intention
/// clusters instead of 5 and cost 40-70% more per query, and the
/// 5-cluster ones still ranged over about +-20%.
constexpr int kCorpora = 3;
constexpr uint64_t kCorpusSeed = 1;
/// Posts generated past each corpus, from which the run's seed draws the
/// held-out posts it sends (ASK, ADD_POST, in-process and traced ingests).
/// One size for both workloads, so both serve the same corpora.
constexpr size_t kHeldOutPosts = 1200;
constexpr int kRoundsPerCorpus = 6;
constexpr int kRounds = kCorpora * kRoundsPerCorpus;
constexpr int kRestoresPerCorpus = 2;
/// In-process calls per corpus: reads (80% QUERY, 20% ASK) and add_posts,
/// a slice after each serving round. The host's speed drifts by +-10%
/// over tens of seconds; slices spread over the run average the drift
/// where one block would sample a moment of it.
constexpr size_t kInprocRequests = 2400;
/// The in-process reads come in batches of this many, each with its own
/// hot set. A p50 over one hot set is largely the cost of its few hottest
/// threads (Zipf(s=1) over 8k ids sends a third of the queries to ten of
/// them), which differs by a quarter from one draw to the next; twelve
/// draws per corpus keep the skew a cache would exploit within each batch.
constexpr size_t kInprocBatch = 200;
constexpr size_t kInprocPosts = 100;
constexpr int kOpenConns = 3;    // + 1 writer connection = 4 load threads
constexpr int kClosedConns = 4;
constexpr DocId kExternalQueryId = 1u << 30;  // what the server uses for ASK
/// Held-out posts ingested only by the traced run's extra windows.
constexpr size_t kTracePosts = 50;

struct Workload {
  const char* name;
  const char* why;
  ForumDomain domain;
  const char* profile;
  size_t corpus_posts;   ///< per corpus
  size_t ask_pool;       ///< held-out posts sent as ASK, per corpus
  size_t writer_posts;   ///< held-out posts sent as ADD_POST, per corpus
  bool server_state;     ///< server runs with a state directory (WAL on)
  bool writer_with_reads;  ///< the writer runs beside the open-loop reads
  double open_rate;
  /// Read-only open-loop seconds as a share of --seconds (the reads beside
  /// the ingest writer last as long as the writer).
  double open_share;
  double closed_share;   ///< closed-loop seconds as a share of --seconds
};

const Workload kWorkloads[] = {
    {"read_mix",
     "query side only: wire codec, dispatch, scatter/merge, MaxScore scoring "
     "and query segmentation; ingest, WAL and recluster idle; Zipf skew a "
     "result cache would exploit",
     ForumDomain::kTechSupport, "tech-support (HP Forum analogue)", 8000, 400,
     100, false, false, kReadRate, 0.6, 0.4},
    {"ingest_mix",
     "ingest path: norm recompute and arena reseal under the exclusive "
     "lock, WAL append+fsync, reader/writer contention; every publish "
     "bumps the epoch, so a read-side cache is bypassed",
     ForumDomain::kTechSupport, "tech-support (HP Forum analogue)", 8000, 400,
     340, true, true, kReadRate, 0.3, 0.2},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  double scale = 1.0;
};

/// Advance-and-record seed stream: every generation step takes the next
/// seed and remembers what it was for, so any input can be regenerated.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : seed_(seed) {}
  uint64_t next(const std::string& what) {
    ++seed_;
    record_.emplace_back(what, seed_);
    return seed_;
  }
  const std::vector<std::pair<std::string, uint64_t>>& record() const {
    return record_;
  }

 private:
  uint64_t seed_;
  std::vector<std::pair<std::string, uint64_t>> record_;
};

/// FNV-1a over every generated input, printed so a reader can check that
/// a seed reproduces the same inputs.
class InputDigest {
 public:
  void add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add(const Request& r) {
    const uint32_t op = static_cast<uint32_t>(r.op);
    add(&op, sizeof(op));
    add(&r.arg, sizeof(r.arg));
    add(&r.due_s, sizeof(r.due_s));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// ---------------------------------------------------------------------------
// JSON output.

std::string num(double v) {
  if (!std::isfinite(v)) v = 1e9;  // a failed request's latency
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + raw;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, quoted(v));
  }
  JsonObject& num(const std::string& key, double v) {
    return add(key, ::num(v));
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Metric tables. Names and units must match BENCHMARK.json.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;     ///< end-to-end metric it should move (per-layer)
  const char* workload;  ///< ... on this workload
};

/// End-to-end metrics. The serving figures a caller of the library sees
/// (ShardedServing::find_related, find_related_external with the query's
/// analysis, add_post) are timed in-process, single-threaded, on the idle
/// deployment: the paper's online retrieval cost. The same requests over
/// the wire (loadgen.* below) hand off between client, I/O and worker
/// threads, and on a shared host how fast an idle CPU wakes for each
/// hand-off moves them from run to run by more than any bound the
/// benchmark may set, so they are per-layer metrics.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "", ""},
    {"find_related_p50_ms", "ms", "", ""},
    {"find_related_external_p50_ms", "ms", "", ""},
    {"add_post_p50_ms", "ms", "", ""},
    {"build_posts_per_s", "1/s", "", ""},
    {"restore_posts_per_s", "1/s", "", ""},
    {"recluster_posts_per_s", "1/s", "", ""},
    {"peak_rss_mb", "MB", "", ""},
    {"disk_bytes_per_text_byte", "ratio", "", ""},
};

/// Per-layer metrics. "moves" names the end-to-end metric each should
/// move; for the wire layer it names the client-side figure (loadgen.*)
/// as well, since that is what a wire client sees. The in-process p99 is
/// here too: host hiccups spread it above any bound from run to run.
const MetricDef kPerLayer[] = {
    {"inprocess.find_related_p99_ms", "ms", "tail of find_related_p50_ms",
     "read_mix, ingest_mix"},
    {"loadgen.query_p50_ms", "ms", "find_related_p50_ms (over the wire)",
     "read_mix, ingest_mix"},
    {"loadgen.query_p99_ms", "ms", "tail of loadgen.query_p50_ms",
     "read_mix, ingest_mix"},
    {"loadgen.ask_p50_ms", "ms",
     "find_related_external_p50_ms (over the wire)", "read_mix, ingest_mix"},
    {"loadgen.ask_p99_ms", "ms", "tail of loadgen.ask_p50_ms",
     "read_mix, ingest_mix"},
    {"loadgen.read_qps", "1/s", "find_related_p50_ms (closed-loop capacity)",
     "read_mix, ingest_mix"},
    {"loadgen.ingest_p50_ms", "ms", "add_post_p50_ms (over the wire)",
     "ingest_mix"},
    {"loadgen.ingest_p99_ms", "ms", "tail of loadgen.ingest_p50_ms",
     "ingest_mix"},
    {"loadgen.ingest_posts_per_s", "1/s", "add_post_p50_ms (writer rate)",
     "ingest_mix"},
    {"loadgen.contended_query_p50_ms", "ms",
     "reads beside the writer: add_post_p50_ms, loadgen.ingest_posts_per_s",
     "ingest_mix"},
    {"loadgen.contended_ask_p50_ms", "ms",
     "reads beside the writer: add_post_p50_ms, loadgen.ingest_posts_per_s",
     "ingest_mix"},
    {"loadgen.contended_query_p99_ms", "ms",
     "reads beside the writer: add_post_p50_ms, loadgen.ingest_posts_per_s",
     "ingest_mix"},
    {"net.server_ms.query.p50", "ms", "loadgen.query_p50_ms", "read_mix"},
    {"net.server_ms.query.p99", "ms", "loadgen.query_p99_ms", "read_mix"},
    {"net.server_ms.ask.p50", "ms", "loadgen.ask_p50_ms", "read_mix"},
    {"net.server_ms.ask.p99", "ms", "loadgen.ask_p99_ms", "read_mix"},
    {"net.server_ms.add_post.p50", "ms", "loadgen.ingest_p50_ms",
     "ingest_mix"},
    {"net.server_ms.add_post.p99", "ms", "loadgen.ingest_p99_ms",
     "ingest_mix"},
    {"net.queue_wait_ms.p99", "ms", "loadgen.contended_query_p99_ms",
     "ingest_mix"},
    {"net.wire_overhead_ms.p50", "ms", "loadgen.query_p50_ms", "read_mix"},
    {"net.rejected.bad_frame", "count", "validity", "all"},
    {"net.rejected.bad_request", "count", "validity", "all"},
    {"net.rejected.overloaded", "count", "validity", "all"},
    {"net.rejected.draining", "count", "validity", "all"},
    {"net.rejected.timeout", "count", "validity", "all"},
    {"net.rejected.conn_limit", "count", "validity", "all"},
    {"net.rejected.unknown_tenant", "count", "validity", "all"},
    {"loadgen.lag_ms.p99", "ms", "validity", "all"},
    {"serving.lock_wait_ms.shared.p99", "ms",
     "loadgen.contended_query_p99_ms, loadgen.ingest_posts_per_s",
     "ingest_mix"},
    {"serving.lock_wait_ms.exclusive.p99", "ms",
     "loadgen.contended_query_p99_ms, loadgen.ingest_posts_per_s",
     "ingest_mix"},
    {"serving.ingest_ms.p50", "ms", "add_post_p50_ms", "ingest_mix"},
    {"serving.ingest_ms.p99", "ms", "loadgen.ingest_p99_ms", "ingest_mix"},
    {"sharded.scatter_ms.p50", "ms", "find_related_p50_ms", "read_mix"},
    {"sharded.merge_ms.p50", "ms", "find_related_p50_ms", "read_mix"},
    {"facade.find_related_ms.p50", "ms", "find_related_p50_ms", "read_mix"},
    {"facade.find_related_external_ms.p50", "ms",
     "find_related_external_p50_ms", "read_mix"},
    {"facade.add_post_ms.p50", "ms", "add_post_p50_ms", "ingest_mix"},
    {"cache.hit_ratio", "ratio", "find_related_p50_ms, loadgen.read_qps",
     "read_mix"},
    {"index.units_scored_per_query", "count", "find_related_p50_ms",
     "read_mix"},
    {"index.units_pruned_per_query", "count", "find_related_p50_ms",
     "read_mix"},
    {"index.postings_bytes", "bytes", "peak_rss_mb", "all"},
    {"stage.score_ms", "ms", "find_related_p50_ms", "read_mix"},
    {"stage.top-k_ms", "ms", "find_related_p50_ms", "read_mix"},
    {"stage.term-weight_ms", "ms", "add_post_p50_ms", "ingest_mix"},
    {"stage.index-publish_ms", "ms", "add_post_p50_ms", "ingest_mix"},
    {"stage.analyze_ms", "ms",
     "find_related_external_p50_ms, add_post_p50_ms, build_posts_per_s",
     "read_mix, ingest_mix"},
    {"stage.segment_ms", "ms",
     "find_related_external_p50_ms, add_post_p50_ms, build_posts_per_s",
     "read_mix, ingest_mix"},
    {"seg.segments_per_post", "count", "context", "all"},
    {"stage.cluster-assign_ms", "ms",
     "find_related_external_p50_ms, add_post_p50_ms",
     "read_mix, ingest_mix"},
    {"offline.segmentation_s", "s", "build_posts_per_s",
     "read_mix, ingest_mix"},
    {"offline.grouping_s", "s", "build_posts_per_s", "read_mix, ingest_mix"},
    {"offline.indexing_s", "s", "build_posts_per_s", "read_mix, ingest_mix"},
    {"recluster.s", "s", "recluster_posts_per_s", "read_mix, ingest_mix"},
    {"storage.save_s", "s", "restore_posts_per_s", "read_mix, ingest_mix"},
    {"storage.restore_s", "s", "restore_posts_per_s", "read_mix, ingest_mix"},
    {"storage.snapshot_bytes", "bytes",
     "disk_bytes_per_text_byte, restore_posts_per_s", "read_mix, ingest_mix"},
    {"storage.wal_bytes_per_ingest", "bytes", "add_post_p50_ms",
     "ingest_mix"},
    {"storage.wal_appends", "count", "add_post_p50_ms", "ingest_mix"},
    {"trace.overhead_ms.query_p50", "ms", "tracing overhead", "all"},
    {"trace.overhead_ms.ask_p50", "ms", "tracing overhead", "all"},
};

const char* const kRejectReasons[] = {"bad_frame", "bad_request",
                                      "overloaded", "draining",
                                      "timeout", "conn_limit",
                                      "unknown_tenant"};

// ---------------------------------------------------------------------------
// Registry snapshots.

constexpr obs::Stage kStages[] = {
    obs::Stage::kAnalyze,    obs::Stage::kSegment,   obs::Stage::kClusterAssign,
    obs::Stage::kIndexPublish, obs::Stage::kTermWeight, obs::Stage::kScore,
    obs::Stage::kTopK};

/// Every registry series the per-layer metrics read, at one moment.
struct RegSnap {
  std::map<std::string, HistSnap> hist;
  std::map<std::string, uint64_t> count;

  static RegSnap take() {
    RegSnap s;
    const obs::Labels def{{"tenant", "default"}};
    s.hist["net"] =
        HistSnap::of(registry_histogram("ibseg_net_request_seconds"));
    s.hist["queue"] =
        HistSnap::of(registry_histogram("ibseg_tenant_queue_seconds", def));
    s.hist["lock.shared"] = HistSnap::of(
        registry_histogram("ibseg_lock_wait_seconds", {{"lock", "shared"}}));
    s.hist["lock.exclusive"] = HistSnap::of(
        registry_histogram("ibseg_lock_wait_seconds", {{"lock", "exclusive"}}));
    s.hist["scatter"] =
        HistSnap::of(registry_histogram("ibseg_scatter_seconds", def));
    s.hist["merge"] =
        HistSnap::of(registry_histogram("ibseg_merge_seconds", def));
    s.hist["recluster"] =
        HistSnap::of(registry_histogram("ibseg_recluster_seconds", def));
    s.hist["save"] = HistSnap::of(
        registry_histogram("ibseg_persist_seconds", {{"op", "save"}}));
    s.hist["restore"] = HistSnap::of(
        registry_histogram("ibseg_persist_seconds", {{"op", "restore"}}));
    for (obs::Stage st : kStages) {
      s.hist[std::string("stage.") + obs::stage_name(st)] =
          HistSnap::of(obs::stage_histogram(st));
    }
    s.count["cache.hits"] = registry_counter("ibseg_query_cache_hits").value();
    s.count["cache.misses"] =
        registry_counter("ibseg_query_cache_misses").value();
    for (const char* r : kRejectReasons) {
      s.count[std::string("rejected.") + r] =
          registry_counter("ibseg_net_rejected_total", {{"reason", r}}).value();
    }
    return s;
  }

  RegSnap minus(const RegSnap& before) const {
    RegSnap d;
    for (const auto& [k, h] : hist) d.hist[k] = h.minus(before.hist.at(k));
    for (const auto& [k, c] : count) d.count[k] = c - before.count.at(k);
    return d;
  }

  /// Sum of two deltas; an empty snapshot is the zero.
  RegSnap plus(const RegSnap& other) const {
    if (hist.empty()) return other;
    RegSnap d;
    for (const auto& [k, h] : hist) d.hist[k] = h.plus(other.hist.at(k));
    for (const auto& [k, c] : count) d.count[k] = c + other.count.at(k);
    return d;
  }
};

// ---------------------------------------------------------------------------
// Inputs.

GeneratorOptions corpus_profile(const Workload& w, size_t posts,
                                uint64_t seed) {
  GeneratorOptions g;
  g.domain = w.domain;
  g.num_posts = posts;
  g.posts_per_scenario = 4;
  g.seed = seed;
  g.background_noise = 0.9;
  g.mention_noise = 0.0;
  g.contaminant_ratio = 3.0;
  g.scenario_pool_size = 6;
  return g;
}

/// Zipf(s = 1) over `n` doc ids. Which ids are hot is fixed once per run
/// by a seeded permutation (the forum's hot threads), so every round and
/// phase of a run reads the same hot set.
class ZipfIds {
 public:
  ZipfIds(size_t n, uint64_t seed) : perm_(n), cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (size_t i = 0; i < n; ++i) perm_[i] = static_cast<DocId>(i);
    std::mt19937_64 rng(seed);
    std::shuffle(perm_.begin(), perm_.end(), rng);
  }
  DocId draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(r, perm_.size() - 1)];
  }

 private:
  std::vector<DocId> perm_;
  std::vector<double> cdf_;
};

/// A read request stream: 80% QUERY (Zipf ids), 20% ASK (uniform over
/// the held-out pool). With `rate` > 0 the requests carry Poisson due
/// times covering `seconds`; otherwise there are `n` of them.
std::vector<Request> read_stream(size_t n, const ZipfIds& zipf, size_t ask_pool,
                                 double rate, double seconds,
                                 SeedStream& seeds, const std::string& tag) {
  std::mt19937_64 mix(seeds.next(tag + ".mix"));
  std::mt19937_64 arrivals(seeds.next(tag + ".arrivals"));
  std::exponential_distribution<double> gap(rate > 0 ? rate : 1.0);
  std::vector<Request> out;
  double t = 0.0;
  for (size_t i = 0; rate > 0 ? t < seconds : i < n; ++i) {
    Request r;
    if (std::uniform_real_distribution<double>(0, 1)(mix) < kQueryShare) {
      r.op = Op::kQuery;
      r.arg = zipf.draw(mix);
    } else {
      r.op = Op::kAsk;
      r.arg = static_cast<uint32_t>(mix() % ask_pool);
    }
    if (rate > 0) {
      t += gap(arrivals);
      r.due_s = t;
    }
    out.push_back(r);
  }
  if (rate > 0 && !out.empty()) out.pop_back();  // the one past `seconds`
  return out;
}

// ---------------------------------------------------------------------------
// Helpers.

/// The [lo, hi) share of `n` items that round `round` of a corpus takes.
std::pair<size_t, size_t> round_share(size_t n, int round) {
  const size_t k = static_cast<size_t>(kRoundsPerCorpus);
  const size_t lo = std::min(n, (n + k - 1) / k * static_cast<size_t>(round));
  return {lo, std::min(n, lo + (n + k - 1) / k)};
}

bool same_answer(const ShardedServing::QueryResult& a,
                 const ShardedServing::QueryResult& b) {
  if (a.epoch != b.epoch || a.num_docs != b.num_docs ||
      a.results.size() != b.results.size()) {
    return false;
  }
  for (size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].doc != b.results[i].doc ||
        std::memcmp(&a.results[i].score, &b.results[i].score,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

ShardedServing::QueryResult from_wire(const net::RelatedResponse& r) {
  ShardedServing::QueryResult q;
  q.epoch = r.epoch;
  q.num_docs = r.num_docs;
  q.results = r.results;
  return q;
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Bytes and complete frames (u32 length | u32 crc | payload) of the
/// shards' write-ahead logs (shard-<i>/wal) under a sharded state
/// directory; the top-level ingest.order journal is not counted.
std::pair<uint64_t, uint64_t> wal_bytes_and_frames(const std::string& dir) {
  uint64_t bytes = 0, frames = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!it->is_regular_file(ec) || name != "wal") {
      continue;
    }
    std::ifstream is(it->path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    bytes += data.size();
    size_t pos = 0;
    while (pos + 8 <= data.size()) {
      uint32_t len = 0;
      std::memcpy(&len, data.data() + pos, 4);
      if (pos + 8 + len > data.size()) break;
      pos += 8 + len;
      ++frames;
    }
  }
  return {bytes, frames};
}

std::string fs_type_name(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Milliseconds a fixed integer loop takes, best and median of 9: how
/// fast the host runs this process right now. Printed in the fingerprint
/// so a slow run can be told from a slow program.
std::pair<double, double> host_probe_ms() {
  std::vector<double> t;
  for (int r = 0; r < 9; ++r) {
    const Clock::time_point t0 = Clock::now();
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 4000000; ++i) x = x + i * i;
    t.push_back(ms_between(t0, Clock::now()));
  }
  return {*std::min_element(t.begin(), t.end()), median(t)};
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Latencies of attempted requests of one op; failures count as +inf.
std::vector<double> latencies(const std::vector<Request>& reqs,
                              const std::vector<Outcome>& outs, Op op) {
  std::vector<double> v;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Outcome& o = outs[i];
    if (!o.attempted || reqs[i].op != op) continue;
    v.push_back(o.ok ? o.latency_ms : INFINITY);
  }
  return v;
}

/// Per-op wire accounting: attempted, succeeded, failed, refused by reason.
struct Accounting {
  struct PerOp {
    uint64_t attempted = 0, succeeded = 0, failed = 0;
    std::map<std::string, uint64_t> refused;
  };
  std::map<std::string, PerOp> ops;

  void add(Op op, const Outcome& o) {
    if (!o.attempted) return;
    PerOp& p = ops[op_name(op)];
    ++p.attempted;
    if (o.ok) {
      ++p.succeeded;
    } else if (!o.refused.empty()) {
      ++p.refused[o.refused];
    } else {
      ++p.failed;
    }
  }
  /// In-process calls, which fail only by crashing the run.
  void add_inprocess(const std::string& call, uint64_t n) {
    PerOp& p = ops["inprocess_" + call];
    p.attempted += n;
    p.succeeded += n;
  }
  void add_closed(const Loadgen::ClosedResult& r) {
    PerOp& p = ops["closed_loop_read"];
    p.attempted += r.attempted;
    p.succeeded += r.attempted - r.failed;
    p.failed += r.failed;
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const auto& [k, p] : ops) n += p.attempted;
    return n;
  }
  uint64_t unsuccessful() const {
    uint64_t n = 0;
    for (const auto& [k, p] : ops) n += p.attempted - p.succeeded;
    return n;
  }
  std::string dump() const {
    JsonObject o;
    for (const auto& [k, p] : ops) {
      JsonObject refused;
      for (const auto& [reason, n] : p.refused) {
        refused.num(reason, static_cast<double>(n));
      }
      o.add(k, JsonObject()
                   .num("attempted", static_cast<double>(p.attempted))
                   .num("succeeded", static_cast<double>(p.succeeded))
                   .num("failed", static_cast<double>(p.failed))
                   .add("refused", refused.dump())
                   .dump());
    }
    return o.dump();
  }
};

// ---------------------------------------------------------------------------
// One run.

class Run {
 public:
  Run(const Args& args, const Workload& w)
      : args_(args), w_(w), seeds_(args.seed), spans_(args.trace) {
    auto scaled = [&](size_t n, size_t floor) {
      return std::max(
          floor, static_cast<size_t>(static_cast<double>(n) * args.scale));
    };
    corpus_posts_ = scaled(w.corpus_posts, 60);
    ask_pool_ = scaled(w.ask_pool, 20);
    writer_posts_ = scaled(w.writer_posts, 2 * kRoundsPerCorpus);
    inproc_requests_ = scaled(kInprocRequests, 50);
    inproc_posts_ = scaled(kInprocPosts, 5);
    held_out_posts_ = std::max(
        scaled(kHeldOutPosts, 0),
        ask_pool_ + writer_posts_ + inproc_posts_ + kTracePosts);
    dir_ = args.out + "/" + w.name + "-seed" + std::to_string(args.seed);
    state_dir_ = dir_ + "/state";
  }

  int execute();

 private:
  struct Deployment {
    std::unique_ptr<ShardedServing> backend;
    std::unique_ptr<net::Server> server;
  };

  ServingOptions serving_options(bool persist) const {
    ServingOptions o;  // ibseg_server defaults: 1 shard, cache off
    if (persist) o.persist.shard_dir = state_dir_;
    return o;
  }

  net::ServerOptions server_options() const {
    net::ServerOptions o;  // ibseg_server defaults, ephemeral port
    o.port = 0;
    if (w_.server_state) o.state_dir = state_dir_;
    return o;
  }

  bool setup(int corpus);
  bool start_server(Deployment& d);
  void stop_server(Deployment& d);
  void serve_round(int round, double open_s, double closed_s);
  void record_open(const std::vector<Request>& reqs,
                   const std::vector<Outcome>& outs, const std::string& prefix);
  void record_writer(const std::vector<std::string>& texts,
                     const Loadgen::WriterResult& wr);
  bool check_quiescent(const std::vector<Request>& sample);
  bool check_acked();
  void check_answers() {
    if (!check_quiescent(open_reqs_)) fail("wire answers differ");
    if (!check_acked()) fail("acknowledged ADD_POSTs missing after ingest");
  }
  std::vector<ShardedServing::QueryResult> answers(
      const ShardedServing& s, const std::vector<DocId>& ids) const;
  void inprocess(int corpus, int round);
  bool persistence_cycle();
  void trace_windows();
  void replay();
  void replay_add_post();
  void build_metrics();
  void serving_metrics();
  void add_wal();
  void focus_metrics(const RegSnap& d, uint64_t ingests);
  void print(bool correct);
  void fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  const Args& args_;
  const Workload& w_;
  SeedStream seeds_;
  InputDigest digest_;
  SpanRecorder spans_;
  size_t corpus_posts_ = 0, ask_pool_ = 0, writer_posts_ = 0;
  size_t inproc_requests_ = 0, inproc_posts_ = 0, held_out_posts_ = 0;
  std::string dir_, state_dir_;

  // The current corpus.
  std::vector<std::string> corpus_texts_;  ///< seed posts, id = index
  std::vector<std::string> ask_texts_;     ///< held out, sent as ASK
  std::vector<std::string> writer_texts_;  ///< held out, sent as ADD_POST
  std::vector<std::string> inproc_texts_;  ///< held out, in-process add_post
  std::vector<std::string> trace_texts_;   ///< held out, traced ingests
  std::unique_ptr<ZipfIds> zipf_;          ///< the corpus's hot threads
  std::vector<Request> open_reqs_;         ///< its open-loop requests
  std::vector<DocId> acked_;               ///< its acknowledged ADD_POSTs
  uint64_t text_bytes_ = 0;                ///< seed + acked post text bytes
  Deployment live_;

  // Accumulated over the run's corpora.
  std::vector<double> setup_s_, create_s_;
  std::vector<double> restore_s_;
  std::vector<double> restore_rate_, recluster_rate_;  ///< documents/s
  std::vector<int> clusters_;  ///< intention clusters of each corpus
  RegSnap create_delta_;   ///< registry deltas over every create
  RegSnap persist_delta_;  ///< ... every save, restore and recluster
  RegSnap focus_delta_;    ///< ... every corpus's serving rounds
  uint64_t disk_bytes_ = 0, disk_text_bytes_ = 0, snapshot_bytes_ = 0;
  uint64_t wal_bytes_ = 0, wal_frames_ = 0, wal_ingests_ = 0;
  double postings_bytes_ = 0.0;
  /// Open-loop and writer latencies by op ("query", "ask", "ingest").
  std::map<std::string, std::vector<double>> lat_;
  /// Open-loop latencies by op and whether the request had a wire span.
  std::map<std::string, std::vector<double>> traced_lat_, untraced_lat_;
  std::vector<double> lag_ms_;    ///< how late the open-loop sender ran
  size_t writer_acked_ = 0;       ///< ADD_POSTs acknowledged in the rounds
  double writer_s_ = 0.0;         ///< ... and the writer's seconds
  uint64_t closed_done_ = 0;      ///< closed-loop reads completed
  double closed_s_ = 0.0;         ///< ... and the closed-loop seconds
  HistSnap writer_server_;  ///< server time of writer-only ADD_POSTs
  Accounting acct_;
  std::map<std::string, double> e2e_, layer_;
  std::map<std::string, uint64_t> samples_;
  std::pair<double, double> probe_start_, probe_end_;  ///< host_probe_ms()
  std::string error_;
};

bool Run::start_server(Deployment& d) {
  d.server = std::make_unique<net::Server>(d.backend.get(), server_options());
  return d.server->start();
}

void Run::stop_server(Deployment& d) {
  if (d.server == nullptr) return;
  d.server->drain();
  d.server->wait_drained();
  d.server.reset();
}

/// One set-up: generate corpus `corpus` and the posts past it, analyze
/// the corpus posts, build the deployment and start the server; then draw
/// from the seed which of the posts past the corpus are held out for
/// what. The previous corpus's deployment is torn down first, untimed.
bool Run::setup(int corpus) {
  stop_server(live_);
  live_.backend.reset();
  std::error_code ec;
  fs::remove_all(state_dir_, ec);
  fs::create_directories(dir_, ec);
  acked_.clear();
  open_reqs_.clear();

  const std::string tag = "corpus" + std::to_string(corpus);
  const Clock::time_point t0 = Clock::now();
  SyntheticCorpus generated = generate_corpus(
      corpus_profile(w_, corpus_posts_ + held_out_posts_,
                     kCorpusSeed + static_cast<uint64_t>(corpus)));
  std::vector<std::string> texts;
  texts.reserve(generated.posts.size());
  for (GeneratedPost& p : generated.posts) texts.push_back(std::move(p.text));
  generated.posts.clear();
  std::vector<Document> docs;
  docs.reserve(corpus_posts_);
  for (size_t d = 0; d < corpus_posts_; ++d) {
    docs.push_back(Document::analyze(static_cast<DocId>(d), texts[d]));
  }
  const RegSnap before = RegSnap::take();
  const Clock::time_point c0 = Clock::now();
  live_.backend = ShardedServing::create(std::move(docs), {},
                                         serving_options(w_.server_state));
  create_s_.push_back(seconds_since(c0));
  create_delta_ = create_delta_.plus(RegSnap::take().minus(before));
  if (live_.backend == nullptr || !start_server(live_)) {
    fail("set-up: cannot build or start the deployment");
    return false;
  }
  setup_s_.push_back(seconds_since(t0));

  corpus_texts_.assign(texts.begin(), texts.begin() + corpus_posts_);
  std::vector<std::string> held(texts.begin() + corpus_posts_, texts.end());
  std::shuffle(held.begin(), held.end(),
               std::mt19937_64(seeds_.next(tag + ".held_out")));
  auto take = [&held, at = held.begin()](size_t n) mutable {
    std::vector<std::string> out(at, at + n);
    at += n;
    return out;
  };
  ask_texts_ = take(ask_pool_);
  writer_texts_ = take(writer_posts_);
  inproc_texts_ = take(inproc_posts_);
  trace_texts_ = take(kTracePosts);
  for (const auto* part : {&corpus_texts_, &ask_texts_, &writer_texts_,
                           &inproc_texts_, &trace_texts_}) {
    for (const std::string& t : *part) digest_.add(t);
  }
  clusters_.push_back(live_.backend->num_clusters());
  text_bytes_ = 0;
  for (const std::string& t : corpus_texts_) text_bytes_ += t.size();
  zipf_ = std::make_unique<ZipfIds>(corpus_posts_, seeds_.next(tag + ".zipf"));
  return true;
}

/// One round of the serving phases on the current corpus: an open-loop
/// read window (with the round's writer chunk beside it in ingest_mix), a
/// closed-loop window, and, in read_mix, the writer chunk alone. The
/// rounds interleave the phases over the whole run; serving_metrics pools
/// every round.
void Run::serve_round(int round, double open_s, double closed_s) {
  const auto [lo, hi] =
      round_share(writer_texts_.size(), round % kRoundsPerCorpus);
  const std::vector<std::string> texts(writer_texts_.begin() + lo,
                                       writer_texts_.begin() + hi);
  const std::string tag = "round" + std::to_string(round);
  Loadgen gen(live_.server->port(), ask_texts_, spans_,
              static_cast<uint64_t>(round + 1) << 32);
  bool transport_ok = true;

  // Open loop, read only.
  const std::vector<Request> reqs = read_stream(
      0, *zipf_, ask_pool_, w_.open_rate, open_s, seeds_, tag + ".open");
  record_open(reqs, gen.open_loop(reqs, kOpenConns, nullptr, &transport_ok),
              "");

  // Open loop beside the writer (ingest_mix), until the chunk is written.
  Loadgen::WriterResult wr;
  if (w_.writer_with_reads) {
    const std::vector<Request> beside = read_stream(
        0, *zipf_, ask_pool_, w_.open_rate, 60.0, seeds_, tag + ".beside");
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      // Start at the open loop's first due time.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      wr = gen.writer(texts);
      writer_done = true;
    });
    std::vector<Outcome> outs =
        gen.open_loop(beside, kOpenConns, &writer_done, &transport_ok);
    writer.join();
    record_open(beside, outs, "contended_");
  }
  if (!transport_ok) fail("open loop: transport failure");

  // Closed loop.
  const std::vector<Request> mix =
      read_stream(4096, *zipf_, ask_pool_, 0.0, 0.0, seeds_, tag + ".closed");
  for (const Request& r : mix) digest_.add(r);
  const Loadgen::ClosedResult cr = gen.closed_loop(mix, kClosedConns, closed_s);
  if (!cr.transport_ok) fail("closed loop: transport failure");
  acct_.add_closed(cr);
  closed_done_ += cr.completed;
  closed_s_ += cr.seconds;

  // Writer alone (read_mix).
  if (!w_.writer_with_reads) {
    const RegSnap r0 = RegSnap::take();
    wr = gen.writer(texts);
    writer_server_ =
        writer_server_.plus(RegSnap::take().minus(r0).hist.at("net"));
  }
  record_writer(texts, wr);
  for (const Outcome& o : wr.outcomes) {
    lat_["ingest"].push_back(o.ok ? o.latency_ms : INFINITY);
  }
  writer_acked_ += wr.acked.size();
  writer_s_ += wr.seconds;
}

/// Accounts one open-loop window and adds its latencies to lat_ under
/// `prefix` + op ("query", "contended_query", ...). Read-only windows
/// also feed the quiescent answer check and the tracing-overhead split.
void Run::record_open(const std::vector<Request>& reqs,
                      const std::vector<Outcome>& outs,
                      const std::string& prefix) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Outcome& o = outs[i];
    acct_.add(reqs[i].op, o);
    if (!o.attempted) continue;
    // A failed or refused request misses every latency limit.
    const double ms = o.ok ? o.latency_ms : INFINITY;
    const std::string op = op_name(reqs[i].op);
    lat_[prefix + op].push_back(ms);
    lag_ms_.push_back(o.lag_ms);
    if (prefix.empty()) {
      (o.traced ? traced_lat_ : untraced_lat_)[op].push_back(ms);
    }
  }
  if (prefix.empty()) {
    open_reqs_.insert(open_reqs_.end(), reqs.begin(), reqs.end());
  }
}

std::vector<ShardedServing::QueryResult> Run::answers(
    const ShardedServing& s, const std::vector<DocId>& ids) const {
  std::vector<ShardedServing::QueryResult> out;
  for (DocId id : ids) out.push_back(s.find_related(id, kTopK));
  return out;
}

/// Sampled wire QUERY/ASK answers equal the in-process answers, bit for
/// bit, while nothing else runs.
bool Run::check_quiescent(const std::vector<Request>& sample) {
  auto client = net::Client::connect("127.0.0.1", live_.server->port(), 30.0);
  if (client == nullptr) return false;
  size_t checked = 0;
  for (const Request& r : sample) {
    net::RelatedResponse resp;
    net::CallResult res;
    ShardedServing::QueryResult local;
    if (r.op == Op::kQuery) {
      res = client->query(r.arg, kTopK, &resp);
      local = live_.backend->find_related(r.arg, kTopK);
    } else {
      res = client->ask(ask_texts_[r.arg], kTopK, &resp);
      local = live_.backend->find_related_external(
          Document::analyze(kExternalQueryId, ask_texts_[r.arg]), kTopK);
    }
    if (!res.ok() || !same_answer(from_wire(resp), local)) return false;
    if (++checked == 64) break;
  }
  return checked > 0;
}

/// Every acknowledged ADD_POST is resident and queryable, and the corpus
/// grew by exactly the acknowledged count.
bool Run::check_acked() {
  const ShardedServing& s = *live_.backend;
  if (s.num_docs() != corpus_posts_ + acked_.size()) return false;
  std::set<DocId> resident;
  for (uint32_t i = 0; i < s.num_shards(); ++i) {
    for (const Document& d : s.shard(i).quiescent().docs()) {
      resident.insert(d.id());
    }
  }
  for (DocId id : acked_) {
    if (resident.count(id) == 0) return false;
  }
  auto client = net::Client::connect("127.0.0.1", live_.server->port(), 30.0);
  if (client == nullptr) return false;
  const size_t stride = std::max<size_t>(1, acked_.size() / 16);
  for (size_t i = 0; i < acked_.size(); i += stride) {
    net::RelatedResponse resp;
    if (!client->query(acked_[i], kTopK, &resp).ok() ||
        !same_answer(from_wire(resp), s.find_related(acked_[i], kTopK))) {
      return false;
    }
  }
  return true;
}

/// Round `round`'s slice of the library's own calls, single-threaded, on
/// the idle deployment: find_related over a Zipf QUERY stream,
/// find_related_external (with the query's analysis, as the server does
/// for ASK) over held-out posts, and add_post of other held-out posts,
/// which stay in the corpus and are checked like the acknowledged
/// ADD_POSTs.
void Run::inprocess(int corpus, int round) {
  ShardedServing& s = *live_.backend;
  const std::string tag = "corpus" + std::to_string(corpus) + ".inprocess" +
                          std::to_string(round) + ".";
  const auto [lo, hi] = round_share(inproc_requests_, round);
  for (size_t done = lo, b = 0; done < hi; ++b) {
    const size_t n = std::min(kInprocBatch, hi - done);
    const std::string batch = tag + std::to_string(b);
    const ZipfIds hot(corpus_posts_, seeds_.next(batch + ".zipf"));
    for (const Request& r :
         read_stream(n, hot, ask_pool_, 0.0, 0.0, seeds_, batch)) {
      digest_.add(r);
      const Clock::time_point t0 = Clock::now();
      if (r.op == Op::kQuery) {
        s.find_related(r.arg, kTopK);
        lat_["find_related"].push_back(ms_between(t0, Clock::now()));
      } else {
        s.find_related_external(
            Document::analyze(kExternalQueryId, ask_texts_[r.arg]), kTopK);
        lat_["find_related_external"].push_back(ms_between(t0, Clock::now()));
      }
    }
    done += n;
  }
  acct_.add_inprocess("read", hi - lo);
  const auto [plo, phi] = round_share(inproc_texts_.size(), round);
  for (size_t i = plo; i < phi; ++i) {
    const Clock::time_point t0 = Clock::now();
    acked_.push_back(s.add_post(inproc_texts_[i]));
    lat_["add_post"].push_back(ms_between(t0, Clock::now()));
    text_bytes_ += inproc_texts_[i].size();
  }
  acct_.add_inprocess("add_post", phi - plo);
}

/// Runs one recluster epoch, saves, restores into a fresh instance
/// (kRestoresPerCorpus times) and checks the restored answers are
/// bit-identical to the saved instance's. The recluster comes first so
/// that it folds the ingested posts into the offline state: the restore
/// then times loading the snapshot, not replaying an ingest tail.
/// Consumes live_ (server stopped, backend destroyed before restore).
bool Run::persistence_cycle() {
  const double docs = static_cast<double>(live_.backend->num_docs());
  const RegSnap r0 = RegSnap::take();
  const Clock::time_point t1 = Clock::now();
  live_.backend->recluster();
  recluster_rate_.push_back(docs / seconds_since(t1));

  std::vector<DocId> ids;
  for (size_t i = 0; i < 48; ++i) {
    ids.push_back(static_cast<DocId>((i * 7919) % corpus_posts_));
  }
  for (size_t i = 0; i < acked_.size() && i < 16; ++i) ids.push_back(acked_[i]);
  const auto before = answers(*live_.backend, ids);

  if (live_.server != nullptr && w_.server_state) {
    stop_server(live_);  // a drain with a state directory is a save
  } else {
    stop_server(live_);
    if (!live_.backend->save(state_dir_)) return false;
  }
  live_.backend.reset();
  disk_bytes_ += dir_bytes(state_dir_);
  disk_text_bytes_ += text_bytes_;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(state_dir_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->path().extension() == ".v2") snapshot_bytes_ += it->file_size(ec);
  }

  for (int i = 0; i < kRestoresPerCorpus; ++i) {
    live_.backend.reset();
    const Clock::time_point t0 = Clock::now();
    live_.backend = ShardedServing::restore(state_dir_, {},
                                           serving_options(w_.server_state));
    const double restore_s = seconds_since(t0);
    if (live_.backend == nullptr) return false;
    restore_s_.push_back(restore_s);
    restore_rate_.push_back(docs / restore_s);
  }
  persist_delta_ = persist_delta_.plus(RegSnap::take().minus(r0));
  const auto after = answers(*live_.backend, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!same_answer(before[i], after[i])) return false;
  }
  return true;
}

/// Read-only extra windows of the traced run: QUERY-only and ASK-only open
/// loops (the server histogram has no per-command label, so per-command
/// server time is read where only that command runs), and for ingest_mix
/// a writer-only window.
void Run::trace_windows() {
  Loadgen gen(live_.server->port(), ask_texts_, spans_);
  for (Op op : {Op::kQuery, Op::kAsk}) {
    const double secs = op == Op::kQuery ? 1.25 : 2.5;
    std::vector<Request> stream;
    const std::string tag = std::string("trace.") + op_name(op);
    for (const Request& r : read_stream(0, *zipf_, ask_pool_, w_.open_rate,
                                        secs, seeds_, tag)) {
      if (r.op == op) stream.push_back(r);
    }
    bool ok = true;
    const RegSnap r0 = RegSnap::take();
    const std::vector<Outcome> outs =
        gen.open_loop(stream, kOpenConns, nullptr, &ok);
    const HistSnap server = RegSnap::take().minus(r0).hist.at("net");
    if (!ok) fail("trace window: transport failure");
    for (size_t i = 0; i < stream.size(); ++i) acct_.add(op, outs[i]);
    const std::string key = std::string("net.server_ms.") + op_name(op);
    layer_[key + ".p50"] = server.quantile(0.5) * 1e3;
    layer_[key + ".p99"] = server.quantile(0.99) * 1e3;
    if (op == Op::kQuery) {
      std::vector<double> client = latencies(stream, outs, op);
      layer_["net.wire_overhead_ms.p50"] =
          quantile(client, 0.5) - layer_[key + ".p50"];
    }
  }
  if (w_.writer_with_reads) {
    const std::vector<std::string> texts(
        trace_texts_.begin(), trace_texts_.begin() + kTracePosts / 2);
    const RegSnap r0 = RegSnap::take();
    Loadgen::WriterResult wr = gen.writer(texts);
    const HistSnap server = RegSnap::take().minus(r0).hist.at("net");
    record_writer(texts, wr);
    layer_["net.server_ms.add_post.p50"] = server.quantile(0.5) * 1e3;
    layer_["net.server_ms.add_post.p99"] = server.quantile(0.99) * 1e3;
  }
}

/// In-process replay of part of the request stream through the layers'
/// public calls, single-threaded, on the quiescent deployment.
void Run::replay() {
  ShardedServing& s = *live_.backend;
  const RelatedPostPipeline& p = s.shard(0).quiescent();
  auto work = [&s](bool scored) {
    uint64_t n = 0;
    for (uint32_t i = 0; i < s.num_shards(); ++i) {
      const QueryWorkCounters& wc =
          s.shard(i).quiescent().matcher().work_counters();
      n += (scored ? wc.units_scored : wc.units_pruned).load();
    }
    return n;
  };
  uint64_t rid = 2ull << 40;

  std::vector<DocId> queries;
  std::vector<uint32_t> asks;
  for (const Request& r : open_reqs_) {
    if (r.op == Op::kQuery && queries.size() < 200) queries.push_back(r.arg);
    if (r.op == Op::kAsk && asks.size() < 100) asks.push_back(r.arg);
  }
  if (queries.empty() || asks.empty()) return;

  RegSnap r0 = RegSnap::take();
  const uint64_t scored0 = work(true), pruned0 = work(false);
  for (DocId q : queries) {
    const Clock::time_point t0 = Clock::now();
    s.find_related(q, kTopK);
    spans_.record("facade.find_related", 0, ++rid, t0, Clock::now());
  }
  RegSnap d = RegSnap::take().minus(r0);
  const double nq = static_cast<double>(queries.size());
  layer_["index.units_scored_per_query"] =
      static_cast<double>(work(true) - scored0) / nq;
  layer_["index.units_pruned_per_query"] =
      static_cast<double>(work(false) - pruned0) / nq;
  layer_["stage.score_ms"] = d.hist.at("stage.score").sum * 1e3 / nq;
  layer_["stage.top-k_ms"] = d.hist.at("stage.top-k").sum * 1e3 / nq;
  layer_["facade.find_related_ms.p50"] =
      median(spans_.durations_ms("facade.find_related"));

  r0 = RegSnap::take();
  for (uint32_t a : asks) {
    const Clock::time_point t0 = Clock::now();
    s.find_related_external(
        Document::analyze(kExternalQueryId, ask_texts_[a]), kTopK);
    spans_.record("facade.find_related_external", 0, ++rid, t0, Clock::now());
  }
  d = RegSnap::take().minus(r0);
  layer_["stage.cluster-assign_ms"] =
      d.hist.at("stage.cluster-assign").sum * 1e3 /
      static_cast<double>(asks.size());
  layer_["facade.find_related_external_ms.p50"] =
      median(spans_.durations_ms("facade.find_related_external"));

  // The same ASKs one layer down: analysis, segmentation, centroid
  // assignment, each a child span of the request's root span.
  for (uint32_t a : asks) {
    const uint64_t req = ++rid;
    const uint64_t root = spans_.open("replay.ask", 0, req, Clock::now());
    Clock::time_point t = Clock::now();
    Document doc = Document::analyze(kExternalQueryId, ask_texts_[a]);
    spans_.record("nlp.analyze", root, req, t, Clock::now());
    t = Clock::now();
    Vocabulary scratch;
    Segmentation seg = p.segmenter().segment(doc, scratch);
    spans_.record("seg.segment", root, req, t, Clock::now());
    t = Clock::now();
    IntentionMatcher::assign_external(
        doc, seg, p.clustering().centroids(), p.vocab(),
        static_cast<size_t>(p.clustering().num_clusters()));
    spans_.record("index.assign_external", root, req, t, Clock::now());
    spans_.close(root, Clock::now());
  }

  // Ingest analysis without publishing: RelatedPostPipeline::prepare_post.
  const size_t n = std::min<size_t>(100, writer_texts_.size());
  size_t segments = 0;
  r0 = RegSnap::take();
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    PreparedPost post = p.prepare_post(s.next_id(), writer_texts_[i]);
    spans_.record("pipeline.prepare_post", 0, ++rid, t0, Clock::now());
    segments += post.seg.num_segments();
  }
  d = RegSnap::take().minus(r0);
  const double posts = static_cast<double>(n);
  layer_["stage.analyze_ms"] = d.hist.at("stage.analyze").sum * 1e3 / posts;
  layer_["stage.segment_ms"] = d.hist.at("stage.segment").sum * 1e3 / posts;
  layer_["seg.segments_per_post"] = static_cast<double>(segments) / posts;
}

/// The last traced step, since it publishes: in-process ShardedServing::
/// add_post of the traced run's own held-out posts.
void Run::replay_add_post() {
  uint64_t rid = 3ull << 40;
  for (size_t i = kTracePosts / 2; i < trace_texts_.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    live_.backend->add_post(trace_texts_[i]);
    spans_.record("facade.add_post", 0, ++rid, t0, Clock::now());
  }
  layer_["facade.add_post_ms.p50"] =
      median(spans_.durations_ms("facade.add_post"));
}

void Run::record_writer(const std::vector<std::string>& texts,
                        const Loadgen::WriterResult& wr) {
  if (!wr.transport_ok) fail("writer: transport failure");
  for (size_t i = 0; i < texts.size(); ++i) {
    acct_.add(Op::kAddPost, wr.outcomes[i]);
    if (wr.outcomes[i].ok) text_bytes_ += texts[i].size();
  }
  acked_.insert(acked_.end(), wr.acked.begin(), wr.acked.end());
}

/// Set-up, build and persistence figures: medians over the run's corpora
/// (the offline layers are means per corpus).
void Run::build_metrics() {
  const double corpora = static_cast<double>(create_s_.size());
  e2e_["setup_s"] = median(setup_s_);
  samples_["setup_s"] = setup_s_.size();
  e2e_["build_posts_per_s"] =
      static_cast<double>(corpus_posts_) / median(create_s_);
  samples_["build_posts_per_s"] = create_s_.size();
  const RegSnap& c = create_delta_;
  layer_["offline.segmentation_s"] = c.hist.at("stage.segment").sum / corpora;
  layer_["offline.grouping_s"] =
      c.hist.at("stage.cluster-assign").sum / corpora;
  layer_["offline.indexing_s"] =
      c.hist.at("stage.index-publish").sum / corpora;

  e2e_["restore_posts_per_s"] = median(restore_rate_);
  samples_["restore_posts_per_s"] = restore_rate_.size();
  e2e_["recluster_posts_per_s"] = median(recluster_rate_);
  samples_["recluster_posts_per_s"] = recluster_rate_.size();
  e2e_["disk_bytes_per_text_byte"] = static_cast<double>(disk_bytes_) /
                                     static_cast<double>(disk_text_bytes_);
  samples_["disk_bytes_per_text_byte"] = restore_rate_.size();
  const RegSnap& d = persist_delta_;
  auto mean = [&d](const char* key) {
    const HistSnap& h = d.hist.at(key);
    return h.sum / static_cast<double>(std::max<uint64_t>(1, h.count()));
  };
  layer_["storage.save_s"] = mean("save");
  layer_["storage.restore_s"] =
      d.hist.at("restore").count() > 0 ? mean("restore") : median(restore_s_);
  layer_["recluster.s"] = mean("recluster");
  layer_["storage.snapshot_bytes"] =
      static_cast<double>(snapshot_bytes_) / corpora;
  layer_["index.postings_bytes"] = postings_bytes_ / corpora;
  layer_["storage.wal_bytes_per_ingest"] =
      static_cast<double>(wal_bytes_) /
      static_cast<double>(std::max<uint64_t>(1, wal_ingests_));
  layer_["storage.wal_appends"] = static_cast<double>(wal_frames_);
}

/// Every serving metric pools all rounds (or in-process phases) of all
/// corpora: latency quantiles over every call or request of the kind,
/// throughputs as completions over the seconds of all windows.
void Run::serving_metrics() {
  std::vector<double>& related = lat_["find_related"];
  e2e_["find_related_p50_ms"] = quantile(related, 0.5);
  layer_["inprocess.find_related_p99_ms"] = quantile(related, 0.99);
  samples_["find_related_p50_ms"] = related.size();
  for (const std::string call : {"find_related_external", "add_post"}) {
    e2e_[call + "_p50_ms"] = quantile(lat_[call], 0.5);
    samples_[call + "_p50_ms"] = lat_[call].size();
  }
  for (const std::string op :
       {"query", "ask", "ingest", "contended_query", "contended_ask"}) {
    std::vector<double>& v = lat_[op];
    layer_["loadgen." + op + "_p50_ms"] = quantile(v, 0.5);
    layer_["loadgen." + op + "_p99_ms"] = quantile(v, 0.99);
    samples_["loadgen." + op + "_ms"] = v.size();
  }
  layer_["loadgen.ingest_posts_per_s"] =
      static_cast<double>(writer_acked_) / writer_s_;
  layer_["loadgen.read_qps"] = static_cast<double>(closed_done_) / closed_s_;
  samples_["loadgen.read_qps"] = closed_done_;
  samples_["rounds"] = kRounds;
  if (args_.trace) {
    for (Op op : {Op::kQuery, Op::kAsk}) {
      const std::string k = op_name(op);
      layer_["trace.overhead_ms." + k + "_p50"] =
          quantile(traced_lat_[k], 0.5) - quantile(untraced_lat_[k], 0.5);
    }
  }
  layer_["loadgen.lag_ms.p99"] = quantile(lag_ms_, 0.99);
  if (!w_.writer_with_reads) {
    layer_["net.server_ms.add_post.p50"] = writer_server_.quantile(0.5) * 1e3;
    layer_["net.server_ms.add_post.p99"] = writer_server_.quantile(0.99) * 1e3;
  }
}

/// Per-layer figures from the registry deltas `d` of the serving rounds
/// (summed over the corpora) and the `ingests` published in them.
void Run::focus_metrics(const RegSnap& d, uint64_t ingests) {
  layer_["net.queue_wait_ms.p99"] = d.hist.at("queue").quantile(0.99) * 1e3;
  layer_["serving.lock_wait_ms.shared.p99"] =
      d.hist.at("lock.shared").quantile(0.99) * 1e3;
  layer_["serving.lock_wait_ms.exclusive.p99"] =
      d.hist.at("lock.exclusive").quantile(0.99) * 1e3;
  layer_["sharded.scatter_ms.p50"] = d.hist.at("scatter").quantile(0.5) * 1e3;
  layer_["sharded.merge_ms.p50"] = d.hist.at("merge").quantile(0.5) * 1e3;
  const double hits = static_cast<double>(d.count.at("cache.hits"));
  const double lookups = hits + static_cast<double>(d.count.at("cache.misses"));
  layer_["cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  // The sharded publish path records no ibseg_ingest_seconds; its
  // per-ingest serving-layer step is the shard's index publish.
  const HistSnap& publish = d.hist.at("stage.index-publish");
  const double per = ingests > 0 ? 1e3 / static_cast<double>(ingests) : 0.0;
  layer_["serving.ingest_ms.p50"] =
      ingests > 0 ? publish.quantile(0.5) * 1e3 : 0.0;
  layer_["serving.ingest_ms.p99"] =
      ingests > 0 ? publish.quantile(0.99) * 1e3 : 0.0;
  layer_["stage.term-weight_ms"] = d.hist.at("stage.term-weight").sum * per;
  layer_["stage.index-publish_ms"] = publish.sum * per;
}

int Run::execute() {
  probe_start_ = host_probe_ms();
  const RegSnap run0 = RegSnap::take();
  const double S = args_.seconds;
  const double open_s = w_.open_share * S / kRounds;
  const double closed_s = w_.closed_share * S / kRounds;
  for (int c = 0; c < kCorpora && error_.empty(); ++c) {
    if (!setup(c)) break;
    // Focus: the serving rounds, each followed by an in-process slice
    // (outside the focus deltas).
    for (int r = 0; r < kRoundsPerCorpus; ++r) {
      const RegSnap f0 = RegSnap::take();
      serve_round(c * kRoundsPerCorpus + r, open_s, closed_s);
      focus_delta_ = focus_delta_.plus(RegSnap::take().minus(f0));
      inprocess(c, r);
    }
    for (uint32_t i = 0; i < live_.backend->num_shards(); ++i) {
      postings_bytes_ += static_cast<double>(
          live_.backend->shard(i).quiescent().matcher().postings_bytes());
    }
    if (w_.writer_with_reads) add_wal();
    const bool last = c + 1 == kCorpora;
    if (args_.trace && last) trace_windows();
    check_answers();
    if (args_.trace && last) replay();
    if (!persistence_cycle()) fail("restore failed or restored answers differ");
  }
  if (error_.empty()) {
    focus_metrics(focus_delta_, w_.writer_with_reads ? writer_acked_ : 0);
    build_metrics();
    serving_metrics();
    if (args_.trace) replay_add_post();
  }
  stop_server(live_);
  e2e_["peak_rss_mb"] = peak_rss_mb();
  samples_["peak_rss_mb"] = 1;
  const RegSnap run = RegSnap::take().minus(run0);
  for (const char* r : kRejectReasons) {
    layer_[std::string("net.rejected.") + r] =
        static_cast<double>(run.count.at(std::string("rejected.") + r));
  }
  live_.backend.reset();
  std::error_code ec;
  fs::remove_all(args_.trace ? state_dir_ : dir_, ec);
  probe_end_ = host_probe_ms();
  print(error_.empty());
  return 0;
}

/// Adds the current corpus's shard WAL bytes and frames, appended since
/// its create (the logs are truncated at every save), and the ingests
/// (ADD_POSTs and in-process add_posts) that appended them.
void Run::add_wal() {
  const auto [bytes, frames] = wal_bytes_and_frames(state_dir_);
  wal_bytes_ += bytes;
  wal_frames_ += frames;
  wal_ingests_ += acked_.size();
}

void Run::print(bool correct) {
  // Inputs: the seed, every derived seed, sizes and why.
  JsonObject seeds;
  for (const auto& [what, s] : seeds_.record()) {
    seeds.num(what, static_cast<double>(s));
  }
  JsonObject corpora;
  for (size_t c = 0; c < clusters_.size(); ++c) {
    corpora.add("corpus" + std::to_string(c),
                JsonObject()
                    .num("generator_seed", static_cast<double>(kCorpusSeed + c))
                    .num("intention_clusters", clusters_[c])
                    .dump());
  }
  JsonObject sizes;
  sizes.num("corpus_posts", static_cast<double>(corpus_posts_))
      .num("held_out_posts", static_cast<double>(held_out_posts_))
      .num("ask_pool", static_cast<double>(ask_pool_))
      .num("writer_posts", static_cast<double>(writer_posts_))
      .num("inprocess_requests", static_cast<double>(inproc_requests_))
      .num("inprocess_posts", static_cast<double>(inproc_posts_))
      .num("trace_posts", static_cast<double>(kTracePosts))
      .num("open_loop_rate", w_.open_rate)
      .num("query_share", kQueryShare)
      .num("k", kTopK)
      .num("seconds", args_.seconds)
      .num("corpora", kCorpora)
      .num("rounds_per_corpus", kRoundsPerCorpus);
  std::printf("%s\n", JsonObject()
                          .str("workload", w_.name)
                          .str("why", w_.why)
                          .str("profile", w_.profile)
                          .num("seed", static_cast<double>(args_.seed))
                          .str("inputs_digest", std::to_string(digest_.value()))
                          .add("corpora", corpora.dump())
                          .add("seeds", seeds.dump())
                          .add("sizes", sizes.dump())
                          .dump().c_str());

  net::ServerOptions so = server_options();
  JsonObject server;
  server.num("shards", 1).num("workers", so.num_workers)
      .num("max_in_flight", static_cast<double>(so.max_in_flight))
      .num("request_timeout_s", so.request_timeout_sec)
      .num("cache_capacity", 0).num("query_threads", 0)
      .str("state_dir", w_.server_state ? "yes" : "no");
  std::printf("%s\n",
              JsonObject()
                  .add("fingerprint",
                       JsonObject()
                           .num("nproc", std::thread::hardware_concurrency())
                           .str("compiler", PERFBENCH_COMPILER)
                           .str("build_type", PERFBENCH_BUILD_TYPE)
                           .str("state_fs", fs_type_name(args_.out))
                           .str("flush_policy",
                                "WAL fsync on every append "
                                "(WalFsync::kEveryAppend)")
                           .add("server", server.dump())
                           .add("host_probe_ms",
                                JsonObject()
                                    .num("start_best", probe_start_.first)
                                    .num("start_median", probe_start_.second)
                                    .num("end_best", probe_end_.first)
                                    .num("end_median", probe_end_.second)
                                    .dump())
                           .dump())
                  .dump().c_str());
  std::printf("%s\n",
              JsonObject().add("accounting", acct_.dump()).dump().c_str());
  JsonObject samples;
  for (const auto& [k, n] : samples_) samples.num(k, static_cast<double>(n));
  std::printf("%s\n",
              JsonObject().add("samples", samples.dump()).dump().c_str());
  if (!error_.empty()) {
    std::printf("%s\n", JsonObject().str("error", error_).dump().c_str());
  }

  auto metric = [](double value, const char* unit) {
    return JsonObject().num("value", value).str("unit", unit).dump();
  };
  JsonObject metrics;
  if (args_.trace) {
    JsonObject moves, values;
    for (const MetricDef& m : kPerLayer) {
      moves.add(m.name, JsonObject()
                            .str("moves", m.moves)
                            .str("workload", m.workload)
                            .dump());
      values.num(m.name, layer_[m.name]);
      metrics.add(m.name, metric(layer_[m.name], m.unit));
    }
    const std::string trace_path = dir_ + "/trace.json";
    std::error_code ec;
    fs::create_directories(dir_, ec);
    std::ofstream os(trace_path);
    os << "{\"workload\": " << quoted(w_.name)
       << ", \"seed\": " << args_.seed
       << ", \"per_layer\": " << values.dump()
       << ", \"moves\": " << moves.dump() << ", \"spans\": [";
    bool first = true;
    for (const Span& s : spans_.spans()) {
      os << (first ? "" : ",\n")
         << JsonObject()
                .str("name", s.name)
                .num("id", static_cast<double>(s.id))
                .num("parent", static_cast<double>(s.parent))
                .num("request", static_cast<double>(s.request))
                .num("start_us", s.start_us)
                .num("end_us", s.end_us)
                .dump();
      first = false;
    }
    os << "]}\n";
    std::printf("%s\n", JsonObject()
                            .add("per_layer_moves", moves.dump())
                            .str("trace_file", trace_path)
                            .num("spans",
                                 static_cast<double>(spans_.spans().size()))
                            .dump().c_str());
  } else {
    for (const MetricDef& m : kEndToEnd) {
      metrics.add(m.name, metric(e2e_[m.name], m.unit));
    }
  }
  const uint64_t attempted = std::max<uint64_t>(1, acct_.attempted());
  std::printf("%s\n",
              JsonObject()
                  .add("correct", correct ? "true" : "false")
                  .num("attempted", static_cast<double>(attempted))
                  .num("failed", static_cast<double>(acct_.unsuccessful()))
                  .add("metrics", metrics.dump())
                  .dump()
                  .c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out") args.out = value;
    else if (key == "--scale") args.scale = std::atof(value.c_str());
    else {
      std::fprintf(stderr, "perfbench_driver: unknown option %s\n",
                   key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    std::fprintf(stderr,
                 "perfbench_driver: --seconds and --scale must be > 0\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) return Run(args, w).execute();
  }
  std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
