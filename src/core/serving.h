#ifndef IBSEG_CORE_SERVING_H_
#define IBSEG_CORE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/query_cache.h"
#include "obs/metrics.h"
#include "storage/wal.h"

/// \file
/// ServingPipeline: the concurrent serving facade over
/// RelatedPostPipeline — shared_mutex reader/writer discipline, a
/// publication epoch per ingest, the epoch-invalidated query cache, and
/// the WAL/snapshot persistence hooks (docs/ARCHITECTURE.md §3, §5).

namespace ibseg {

class ThreadPool;  // util/thread_pool.h

/// Durability configuration for the serving layer (see also
/// ServingPipeline::save/restore and docs/ARCHITECTURE.md §5).
struct ServingPersistOptions {
  /// Path of the write-ahead ingest log. Empty (the default) disables the
  /// WAL entirely. When set, the constructor replays any complete records
  /// already in the file (warm restart / crash recovery) and every
  /// subsequent add_post/add_posts appends to it *before* publication.
  std::string wal_path;
  /// fsync policy for WAL appends (WalFsync::kEveryAppend by default —
  /// strongest; see the fsync policy table in docs/ARCHITECTURE.md).
  WalOptions wal;
  /// Root directory of a *sharded* deployment's durable state (per-shard
  /// WALs, publication journal, snapshots + manifest on save). Consumed by
  /// ShardedServing only — a plain ServingPipeline uses wal_path and
  /// ignores this; ShardedServing uses this and ignores wal_path. Empty
  /// (the default) disables sharded persistence.
  std::string shard_dir;
};

/// The ingest instruments both serving facades feed — ServingPipeline's
/// add_post/add_posts and ShardedServing's — registered once, so either
/// path reports into the same process-wide series.
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
  /// Result cache for in-corpus find_related queries. capacity 0 (the
  /// default) disables caching entirely — no cache is constructed.
  QueryCacheOptions cache;
  /// Snapshot + WAL durability (off by default).
  ServingPersistOptions persist;
  /// Number of document-partitioned shards. Consumed by
  /// ShardedServing::create (core/sharded_serving.h) — a plain
  /// ServingPipeline is always a single partition and ignores the field.
  /// Values <= 1 mean unsharded.
  int num_shards = 1;
  /// Incremental offline phase: pending-pool threshold (the trigger
  /// policy itself lives in core/recluster.h).
  ReclusterOptions recluster;
  /// Instance (tenant) label stamped onto every per-instance metric the
  /// sharded layer registers (ibseg_shard_docs, ibseg_shard_queries_total,
  /// ibseg_scatter_seconds, ibseg_merge_seconds and the recluster series).
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

/// Concurrent serving facade over RelatedPostPipeline: the layer a
/// multi-client deployment talks to. Forum workloads are ingest-heavy —
/// queries must keep flowing while new posts stream in — so the design is
/// a reader/writer split with all expensive per-post work hoisted outside
/// the critical sections:
///
///  * Queries (find_related, find_related_external) run under a shared
///    lock. The underlying pipeline's whole query path is strictly const,
///    so any number of query threads proceed concurrently. For external
///    queries, segmentation of the query post — the dominant cost — happens
///    before the lock is taken; only index probing is inside it.
///  * Ingests (add_post, add_posts) reserve a fresh id with an atomic
///    counter, then analyze + segment the post with no lock held, and take
///    the exclusive lock only for index publication. add_posts publishes a
///    whole batch under one lock acquisition.
///
/// Publication semantics: `epoch()` counts published documents. A query
/// result carries the epoch and corpus size observed under its shared
/// lock, so `num_docs == seed_docs + epoch` holds for every query — the
/// invariant the concurrency stress suite checks. Queries never observe a
/// half-published post: either all of a post's segments (and its
/// vocabulary entries, norms and postings) are visible, or none are.
/// Documents are never removed, so anything a query returns stays
/// queryable afterwards.
class ServingPipeline {
 public:
  /// Wraps an offline-built pipeline (moved in). The pipeline must not be
  /// accessed through any other handle afterwards. With
  /// options.persist.wal_path set, any complete records already in that
  /// log are replayed (published) before the constructor returns — the
  /// crash-recovery path — and later ingests append to it.
  explicit ServingPipeline(RelatedPostPipeline pipeline,
                           ServingOptions options = {});

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  /// Persists the full serving state (snapshot v2: every document's text
  /// and segmentation, offline cluster labels, vocabulary, id watermark)
  /// to `path` atomically, then truncates the WAL (every logged record is
  /// now baked into the snapshot). Runs under the exclusive lock so the
  /// snapshot is a publication boundary: it contains exactly the posts a
  /// query could see at that moment. Returns false (previous file intact,
  /// WAL untouched) on any I/O failure.
  bool save(const std::string& path);

  /// Warm restart: loads a v2 snapshot from `snapshot_path`, rebuilds the
  /// pipeline (offline part via build_from_snapshot with the stored
  /// vocabulary preloaded; online-ingested posts re-published through the
  /// deterministic ingest path), then — when options.persist.wal_path is
  /// set — replays the WAL. Records whose document id is already in the
  /// snapshot are skipped, so a crash between snapshot rename and WAL
  /// truncation never double-publishes. The restored pipeline reaches the
  /// exact pre-crash published epoch: epoch() continues from
  /// (snapshot docs - seed docs) + replayed records, and query results are
  /// score-identical to a never-crashed pipeline at the same epoch.
  /// Returns nullptr when the snapshot is missing/corrupt or the WAL
  /// cannot be opened.
  static std::unique_ptr<ServingPipeline> restore(
      const std::string& snapshot_path,
      const PipelineOptions& pipeline_options = {},
      ServingOptions options = {});

  /// A query answer plus the snapshot coordinates it was computed under.
  struct QueryResult {
    std::vector<ScoredDoc> results;
    /// Number of documents published (via add_post/add_posts) at the
    /// moment the query held the read lock.
    uint64_t epoch = 0;
    /// Corpus size at the same moment; always seed_docs() + epoch.
    size_t num_docs = 0;
  };

  /// Top-k related posts for an in-corpus reference post (Algorithm 2).
  /// With a cache configured, a repeated (query, k) whose entry was
  /// filled at the current publication epoch is answered without taking
  /// the shared lock; any ingest publish bumps the epoch and thereby
  /// invalidates every prior entry, so a hit is never staler than a
  /// lock-taking query issued at the same moment.
  QueryResult find_related(DocId query, int k) const;

  /// Batched find_related: result[i] answers queries[i]. Cache hits are
  /// collected first (lock-free); the misses are computed under ONE
  /// shared-lock acquisition via IntentionMatcher::find_related_batch,
  /// which pipelines them across the matcher's query pool when
  /// MatcherOptions::query_threads > 1. Each result is identical to a
  /// per-query find_related call.
  std::vector<QueryResult> find_related_batch(
      const std::vector<DocId>& queries, int k) const;

  /// Top-k related posts for an external (non-ingested) post. The post is
  /// segmented outside the lock.
  QueryResult find_related_external(const Document& doc, int k) const;

  /// Ingests one post; returns its (globally unique, monotonically
  /// reserved) document id. Analysis and segmentation run without the
  /// write lock; only publication is exclusive.
  DocId add_post(std::string text);

  /// Batched ingestion: every post is prepared lock-free, then the whole
  /// batch is published under a single exclusive acquisition — concurrent
  /// queries observe either none or all of the batch.
  std::vector<DocId> add_posts(std::vector<std::string> texts);

  /// Runs one background re-clustering epoch synchronously on the calling
  /// thread (the "background" is the caller's — core/recluster.h wraps
  /// this in a worker thread): captures a consistent cut of the corpus
  /// under the shared lock, re-runs the FULL offline phase (DBSCAN over
  /// the 28-dim CM features + per-intention index build) into a shadow
  /// pipeline off the hot path — readers keep serving the old generation
  /// the whole time — then takes the exclusive lock once to catch up
  /// documents published during the shadow build (nearest-centroid, the
  /// deterministic ingest path) and atomically swap the shadow in.
  ///
  /// Identity contract (proved by tests/recluster_differential_test.cc):
  /// the post-swap pipeline is bit-identical to a cold
  /// RelatedPostPipeline::build over the documents the capture saw,
  /// followed by the same ingest sequence for anything published after the
  /// capture. At quiescence that means recluster() == cold rebuild of the
  /// whole corpus, exactly.
  ///
  /// The publication epoch is NOT bumped (no document was published); the
  /// offline generation is, which keys the result cache so every pre-swap
  /// entry becomes unreachable — a cached hit can never cross generations.
  /// The pending pool is re-derived for the catch-up tail and
  /// docs_since_recluster() restarts from that tail's size. Concurrent
  /// recluster() calls serialize. Returns the new offline generation.
  uint64_t recluster();

  /// Completed background reclusters (0 for a freshly built pipeline;
  /// restored pipelines resume the saved value). Monotone.
  uint64_t offline_generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Leading documents covered by the current offline clustering; the
  /// rest were nearest-centroid assigned. seed_docs() until the first
  /// recluster.
  size_t offline_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return offline_docs_;
  }

  /// Current outlier/pending-pool size (lock-free; the recluster-trigger
  /// policy polls this).
  size_t pending_pool_size() const {
    return pending_size_.load(std::memory_order_relaxed);
  }

  /// Documents ingested since the offline state was last (re)computed
  /// (lock-free; trigger-policy input).
  uint64_t docs_since_recluster() const {
    return docs_since_.load(std::memory_order_relaxed);
  }

  /// Copy of the pending pool (diagnostics/persistence/tests).
  std::vector<DocId> pending_pool() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pending_pool_;
  }

  /// Number of documents published since construction. Monotone.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Corpus size the pipeline was built with (before any online ingest).
  size_t seed_docs() const { return seed_docs_; }

  /// Current corpus size (seed_docs() + epoch(), read consistently).
  size_t num_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pipeline_.docs().size();
  }

  /// Upper bound on handed-out ids: every id add_post has reserved is
  /// < next_id(). (Reservation precedes publication, so an id may be below
  /// this bound yet not published for a short window.)
  DocId next_id() const { return next_id_.load(std::memory_order_relaxed); }

  /// Direct read access to the wrapped pipeline. Only valid while no
  /// writer is running (e.g. after joining all ingest threads in a test,
  /// or during single-threaded shutdown inspection).
  const RelatedPostPipeline& quiescent() const { return pipeline_; }

  /// The result cache, or nullptr when disabled (capacity 0). Exposed
  /// for stats (hits/misses/evictions/size); the cache is thread-safe.
  const QueryCache* query_cache() const { return cache_.get(); }

  // --- Sharding SPI (used by ShardedServing, core/sharded_serving.h).
  // A sharded deployment drives each partition through these primitives:
  // the scatter layer prepares posts and serializes publications itself
  // (global publication order is its responsibility), so none of them
  // touch this pipeline's WAL or cache.

  /// The analysis half of an ingest, lock-free (immutable segmenter copy).
  PreparedPost prepare_post(DocId id, std::string text) const {
    return prepare(id, std::move(text));
  }

  /// The publication half: ingests an already-prepared post under the
  /// exclusive lock and bumps the epoch. Unlike add_post, the id was
  /// reserved by the caller (the sharded layer's global counter) and
  /// nothing is WAL-logged here — the caller write-ahead-logs before
  /// calling.
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
  /// stamp its combined result.
  struct ShardMatch {
    std::vector<std::vector<ScoredDoc>> lists;  ///< parallel to queries
    uint64_t epoch = 0;
    size_t num_docs = 0;
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

  /// State carried into the constructor when the wrapped pipeline is not
  /// fresh: how far it had already progressed (restore from snapshot, or
  /// a sharded recluster adopting a rebuilt shard).
  struct RestoreState {
    uint64_t epoch = 0;          ///< published-ingest count at snapshot time
    size_t ingested_docs = 0;    ///< docs beyond the original seed corpus
    DocId next_id = 0;           ///< id watermark at snapshot time
    uint64_t generation = 0;     ///< completed background reclusters
    /// Leading docs the offline clustering covers; 0 means "everything up
    /// to seed_docs" (the pre-recluster default).
    size_t offline_docs = 0;
    std::vector<DocId> pending_pool;  ///< saved outlier pool
    uint64_t docs_since = 0;          ///< docs since last recluster
  };

  /// Wraps a pipeline that already carries history — ShardedServing uses
  /// this to stand up post-recluster shard pipelines whose epoch/offline
  /// coordinates must match the shard's prior life, and restore() uses it
  /// internally. No WAL replay happens here (state.epoch is trusted).
  static std::unique_ptr<ServingPipeline> adopt(RelatedPostPipeline pipeline,
                                                ServingOptions options,
                                                RestoreState state) {
    return std::unique_ptr<ServingPipeline>(new ServingPipeline(
        std::move(pipeline), std::move(options), std::move(state)));
  }

 private:
  /// Shared constructor body; the public constructor delegates with a
  /// default RestoreState (fresh pipeline: epoch 0, everything is seed).
  ServingPipeline(RelatedPostPipeline pipeline, ServingOptions options,
                  RestoreState state);

  /// Lock-free half of ingestion: analyze + segment with the serving
  /// layer's own segmenter copy, never touching guarded pipeline state.
  PreparedPost prepare(DocId id, std::string text) const;

  /// Publishes the matcher's cumulative pruning counter into the
  /// ibseg_pruned_docs_total serving counter (delta since the last sync,
  /// CAS-guarded so concurrent queries never double-export). Must be
  /// called under (at least) the shared lock: a background recluster can
  /// replace pipeline_ wholesale, so dereferencing the matcher without
  /// the lock races its destruction. The ibseg_postings_bytes gauge, by
  /// contrast, is refreshed at construction and publish time only
  /// (reading arena sizes requires the exclusive lock the publisher
  /// already holds).
  void sync_query_work_metrics() const;

  mutable std::shared_mutex mu_;
  RelatedPostPipeline pipeline_;  ///< guarded by mu_
  const Segmenter segmenter_;     ///< immutable copy for lock-free prep
  const size_t seed_docs_;
  std::atomic<DocId> next_id_;
  std::atomic<uint64_t> epoch_{0};
  /// Result cache (nullptr = disabled). Entries are validated against
  /// epoch_ on lookup, so writers never touch it.
  mutable std::unique_ptr<QueryCache> cache_;
  /// Fingerprint of the wrapped matcher's options, precomputed once —
  /// the third cache-key component.
  uint64_t matcher_fingerprint_ = 0;
  /// Portion of the matcher's cumulative pruned-units counter already
  /// exported to ibseg_pruned_docs_total (see sync_query_work_metrics).
  mutable std::atomic<uint64_t> pruned_exported_{0};
  /// Write-ahead ingest log (nullptr = persistence disabled). Appends
  /// happen under mu_'s exclusive lock, so WAL order == publication order
  /// — the property replay correctness depends on.
  std::unique_ptr<IngestWal> wal_;
  /// Durability configuration (kept for save(): WAL truncation).
  ServingPersistOptions persist_;
  /// --- Incremental offline phase (docs/ARCHITECTURE.md §9).
  /// Completed reclusters; bumped exactly once per swap, under the
  /// exclusive lock, and folded into every cache key so pre-swap entries
  /// become unreachable the instant the shadow publishes.
  std::atomic<uint64_t> generation_{0};
  /// Leading documents the current offline clustering covers (guarded by
  /// mu_; == seed_docs_ until the first recluster).
  size_t offline_docs_ = 0;
  /// Outlier/pending pool (guarded by mu_): ids whose ingest assignment
  /// distance exceeded recluster_options_.pending_distance_threshold.
  std::vector<DocId> pending_pool_;
  /// pending_pool_.size(), mirrored lock-free for the trigger policy.
  std::atomic<size_t> pending_size_{0};
  /// Documents ingested since the offline state was last (re)computed.
  std::atomic<uint64_t> docs_since_{0};
  /// Serializes concurrent recluster() calls so at most one shadow build
  /// runs; held across the whole job, never while mu_ is held exclusively
  /// by anyone else's write (mu_ acquisitions nest inside it).
  std::mutex recluster_job_mu_;
  ReclusterOptions recluster_options_;
  /// Centroid drift score of the last recluster (exported as the
  /// ibseg_recluster_drift gauge): 1 - mean best-cosine alignment between
  /// old and new centroids. Guarded by recluster_job_mu_.
  double last_drift_ = 0.0;
};

}  // namespace ibseg

#endif  // IBSEG_CORE_SERVING_H_
