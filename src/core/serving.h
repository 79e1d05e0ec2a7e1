#ifndef IBSEG_CORE_SERVING_H_
#define IBSEG_CORE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/query_cache.h"
#include "obs/metrics.h"
#include "storage/wal.h"

/// \file
/// Serving configuration shared by every ShardedServing instance, and
/// ServingPipeline: one shard of it — a RelatedPostPipeline slice behind a
/// shared_mutex reader/writer discipline with a publication epoch per
/// ingest (docs/ARCHITECTURE.md §3, §6).

namespace ibseg {

class ThreadPool;  // util/thread_pool.h

/// Durability configuration for the serving layer (see also
/// ShardedServing::save/restore and docs/ARCHITECTURE.md §5).
struct ServingPersistOptions {
  /// fsync policy for WAL appends (WalFsync::kEveryAppend by default —
  /// strongest; see the fsync policy table in docs/ARCHITECTURE.md).
  WalOptions wal;
  /// Root directory of the deployment's durable state (per-shard WALs,
  /// publication journal, snapshots + manifest on save). Empty (the
  /// default) disables persistence.
  std::string shard_dir;
};

/// The ingest instruments ShardedServing feeds, registered once in the
/// process-wide registry.
struct IngestMetrics {
  obs::Histogram& ingest_seconds;  ///< ibseg_ingest_seconds
  obs::Counter& wal_appends;       ///< ibseg_wal_appends_total
  obs::Counter& wal_errors;        ///< ibseg_wal_errors_total

  static IngestMetrics& get();

  /// Counts the outcome of appending `records` WAL records.
  void count_wal(bool ok, uint64_t records = 1) {
    (ok ? wal_appends : wal_errors).inc(records);
  }
};

/// Drift score of a recluster: 1 - mean best-cosine alignment of each old
/// centroid against the new centroid set (greedy, no one-to-one matching —
/// the score is an operator signal, not an assignment). 0 when the new
/// clustering preserves every old intention direction; approaches 1 as the
/// intention structure the old centroids described disappears. Exported as
/// the ibseg_recluster_drift gauge.
double centroid_drift(const std::vector<std::vector<double>>& before,
                      const std::vector<std::vector<double>>& after);

/// Configuration of the incremental offline phase (docs/ARCHITECTURE.md
/// §9): streaming nearest-centroid ingest assignment stays the hot path,
/// and recluster() periodically re-runs the full offline clustering off it.
struct ReclusterOptions {
  /// Ingested documents whose largest nearest-centroid assignment distance
  /// exceeds this threshold enter the outlier/pending pool — they are
  /// still indexed normally (assignment is unchanged, so results stay
  /// bit-identical), but the pool size is a recluster-trigger signal and
  /// the pool drains at the next recluster. The default (infinity)
  /// disables the pool.
  double pending_distance_threshold =
      std::numeric_limits<double>::infinity();
};

/// Serving-layer configuration (everything beyond the wrapped pipeline's
/// own build options).
struct ServingOptions {
  /// Result cache for in-corpus find_related queries, above the scatter
  /// layer. capacity 0 (the
  /// default) disables caching entirely — no cache is constructed.
  QueryCacheOptions cache;
  /// Snapshot + WAL durability (off by default).
  ServingPersistOptions persist;
  /// Number of document-partitioned shards (read by ShardedServing::create;
  /// restore takes the count from the manifest). Values <= 1 mean one
  /// shard.
  int num_shards = 1;
  /// Incremental offline phase: pending-pool threshold (the trigger
  /// policy itself lives in core/recluster.h).
  ReclusterOptions recluster;
  /// Instance (tenant) label stamped onto every per-instance metric
  /// ShardedServing registers (query counters and latency, corpus gauges,
  /// ibseg_shard_docs, ibseg_shard_queries_total, the scatter/merge timers
  /// and the recluster series).
  /// Two ShardedServing instances in one process MUST use distinct labels,
  /// or their series collide in the process-wide registry and gauges
  /// clobber each other. Empty means "default".
  std::string tenant;
  /// Scatter thread pool to share with other ShardedServing instances
  /// (not owned; must outlive the serving object). When null, a sharded
  /// instance owns a private pool sized to its shard count. Sharing is
  /// safe because scatter legs are leaf tasks — they never wait on another
  /// TaskGroup in the same pool (util/thread_pool.h).
  ThreadPool* scatter_pool = nullptr;
};

/// One shard of a ShardedServing deployment (core/sharded_serving.h):
/// a RelatedPostPipeline over the shard's document slice behind a
/// shared_mutex. ShardedServing is the only serving facade; it reserves
/// ids, write-ahead-logs, serializes publication globally, scatters
/// queries and owns the result cache, so this class keeps only the
/// primitives the facade drives:
///
///  * queries (doc_cluster_terms, match_clusters) run under the shared
///    lock — the wrapped pipeline's query path is strictly const, so any
///    number of scatter legs proceed concurrently;
///  * publish_prepared takes the exclusive lock for index publication
///    only; the facade analyzes and segments the post lock-free first.
///
/// Publication semantics: `epoch()` counts documents published since the
/// shard's seed slice, so `num_docs == seed_docs + epoch` holds for every
/// match. Queries never observe a half-published post: either all of a
/// post's segments (and its vocabulary entries, norms and postings) are
/// visible, or none are.
class ServingPipeline {
 public:
  /// State carried in when the wrapped pipeline is not fresh: how far the
  /// shard had already progressed (restore, or a recluster adopting a
  /// rebuilt shard). The default is a fresh shard: epoch 0, everything is
  /// seed.
  struct RestoreState {
    uint64_t epoch = 0;          ///< published-ingest count at snapshot time
    size_t ingested_docs = 0;    ///< docs beyond the original seed slice
    DocId next_id = 0;           ///< id watermark at snapshot time
    uint64_t generation = 0;     ///< completed background reclusters
    /// Leading docs the offline clustering covers; 0 means "everything up
    /// to seed_docs" (the pre-recluster default).
    size_t offline_docs = 0;
    std::vector<DocId> pending_pool;  ///< saved outlier pool
    uint64_t docs_since = 0;          ///< docs since last recluster
  };

  /// Wraps a shard pipeline (moved in) at the coordinates `state` names.
  /// Only options.recluster is consulted (the pending-pool threshold).
  static std::unique_ptr<ServingPipeline> adopt(RelatedPostPipeline pipeline,
                                                const ServingOptions& options,
                                                RestoreState state) {
    return std::unique_ptr<ServingPipeline>(
        new ServingPipeline(std::move(pipeline), options, std::move(state)));
  }

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  /// Writes the shard's full state (snapshot v2: every document's text
  /// and segmentation, offline cluster labels, centroids, vocabulary, id
  /// watermark) to `path` atomically, under the exclusive lock so the
  /// snapshot is a publication boundary. On success `*bytes_out` (if
  /// non-null) receives the encoded size. Returns false (previous file
  /// intact) on any I/O failure. Log truncation is the caller's business.
  bool save(const std::string& path, uint64_t* bytes_out = nullptr);

  /// Current outlier/pending-pool size (lock-free).
  size_t pending_pool_size() const {
    return pending_size_.load(std::memory_order_relaxed);
  }

  /// Copy of the pending pool, in ingest order (diagnostics/tests).
  std::vector<DocId> pending_pool() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pending_pool_;
  }

  /// Documents ingested since the offline state was last (re)computed
  /// (lock-free).
  uint64_t docs_since_recluster() const {
    return docs_since_.load(std::memory_order_relaxed);
  }

  /// Number of documents published since the seed slice. Monotone.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Corpus size of the seed slice (before any online ingest).
  size_t seed_docs() const { return seed_docs_; }

  /// Current shard size (seed_docs() + epoch(), read consistently).
  size_t num_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pipeline_.docs().size();
  }

  /// Direct read access to the wrapped pipeline. Only valid while no
  /// writer is running (e.g. under the facade's publication lock, or
  /// after joining all ingest threads in a test).
  const RelatedPostPipeline& quiescent() const { return pipeline_; }

  /// The publication half: ingests an already-prepared post under the
  /// exclusive lock and bumps the epoch. The id was reserved by the
  /// caller, which also write-ahead-logs before calling.
  void publish_prepared(PreparedPost post);

  /// The per-cluster term bags of an indexed document (ascending cluster
  /// order), read under the shared lock. Empty when unknown.
  std::vector<std::pair<int, TermVector>> doc_cluster_terms(DocId doc) const;

  /// One scatter leg: evaluates IntentionMatcher::match_cluster_terms for
  /// every (cluster, query-bag) pair against this shard's indices —
  /// scoring with the caller-supplied cross-shard statistics views
  /// (stats[i] pairs with queries[i]; nullptr entries fall back to local
  /// statistics) — under a single shared-lock acquisition. Also reports
  /// the epoch/num_docs observed under that lock so the gather layer can
  /// stamp its combined result, and the units the MaxScore test pruned
  /// since the previous leg reported (the ibseg_pruned_docs_total input).
  struct ShardMatch {
    std::vector<std::vector<ScoredDoc>> lists;  ///< parallel to queries
    uint64_t epoch = 0;
    size_t num_docs = 0;
    uint64_t pruned = 0;
  };
  ShardMatch match_clusters(
      const std::vector<std::pair<int, TermVector>>& queries, DocId exclude,
      int n,
      const std::vector<std::shared_ptr<const ClusterCollectionStats>>& stats)
      const;

  /// Forwards RelatedPostPipeline::set_stats_sink under the exclusive
  /// lock: subsequent publications also feed the cross-shard statistics
  /// board.
  void set_stats_sink(GlobalIndexStats* sink);

 private:
  ServingPipeline(RelatedPostPipeline pipeline, const ServingOptions& options,
                  RestoreState state);

  mutable std::shared_mutex mu_;
  RelatedPostPipeline pipeline_;  ///< guarded by mu_
  const size_t seed_docs_;
  /// Id watermark (above every id this shard published), saved with it.
  std::atomic<DocId> next_id_;
  std::atomic<uint64_t> epoch_{0};
  /// Portion of the matcher's cumulative pruned-units counter already
  /// reported by match_clusters (CAS-guarded so concurrent legs never
  /// report the same units twice).
  mutable std::atomic<uint64_t> pruned_reported_{0};
  /// Offline generation and coverage this shard was built at (fixed: a
  /// recluster replaces the whole shard).
  const uint64_t generation_;
  const size_t offline_docs_;
  /// Outlier/pending pool (guarded by mu_): ids whose ingest assignment
  /// distance exceeded the pending threshold.
  std::vector<DocId> pending_pool_;
  /// pending_pool_.size(), mirrored lock-free for the trigger policy.
  std::atomic<size_t> pending_size_{0};
  /// Documents ingested since the offline state was last (re)computed.
  std::atomic<uint64_t> docs_since_{0};
  const double pending_threshold_;
};

}  // namespace ibseg

#endif  // IBSEG_CORE_SERVING_H_
