#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "storage/snapshot_v2.h"

namespace ibseg {

namespace {

/// The shard-level instruments, registered once in the process-wide
/// registry: the reader/writer lock waits every shard feeds. Everything a
/// deployment-wide value belongs to (query counts and latency, corpus
/// gauges, persistence timing) is fed by ShardedServing.
struct ShardMetrics {
  obs::Histogram& shared_lock_wait;
  obs::Histogram& exclusive_lock_wait;

  static ShardMetrics& get() {
    static ShardMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      // Touching any stage histogram registers all seven stage series, and
      // IngestMetrics::get() the ingest series, completing the exposition
      // from the moment a shard exists.
      obs::stage_histogram(obs::Stage::kAnalyze);
      IngestMetrics::get();
      return new ShardMetrics{
          r.histogram("ibseg_lock_wait_seconds",
                      "Time spent acquiring the serving reader/writer "
                      "lock, in seconds.",
                      {{"lock", "shared"}}),
          r.histogram("ibseg_lock_wait_seconds",
                      "Time spent acquiring the serving reader/writer "
                      "lock, in seconds.",
                      {{"lock", "exclusive"}}),
      };
    }();
    return *m;
  }
};

}  // namespace

IngestMetrics& IngestMetrics::get() {
  static IngestMetrics* m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return new IngestMetrics{
        r.histogram("ibseg_ingest_seconds",
                    "End-to-end ingest latency (prepare + log + publish) "
                    "of one add_post, or of one whole add_posts batch on "
                    "the sharded facade, in seconds."),
        r.counter("ibseg_wal_appends_total",
                  "Write-ahead log appends that succeeded, in records (a "
                  "sharded ingest appends twice: publication journal, then "
                  "the owner shard's WAL)."),
        r.counter("ibseg_wal_errors_total",
                  "Write-ahead log appends that failed, in records. The "
                  "post is still published (availability wins), so a "
                  "non-zero value means acknowledged ingests that may not "
                  "survive a crash."),
    };
  }();
  return *m;
}

double centroid_drift(const std::vector<std::vector<double>>& before,
                      const std::vector<std::vector<double>>& after) {
  if (before.empty() || after.empty()) return before.empty() ? 0.0 : 1.0;
  double aligned = 0.0;
  for (const std::vector<double>& b : before) {
    double best = 0.0;
    for (const std::vector<double>& a : after) {
      if (a.size() != b.size()) continue;
      double dot = 0.0, nb = 0.0, na = 0.0;
      for (size_t i = 0; i < b.size(); ++i) {
        dot += b[i] * a[i];
        nb += b[i] * b[i];
        na += a[i] * a[i];
      }
      if (nb == 0.0 || na == 0.0) continue;
      best = std::max(best, dot / (std::sqrt(nb) * std::sqrt(na)));
    }
    aligned += best;
  }
  return 1.0 - aligned / static_cast<double>(before.size());
}

ServingPipeline::ServingPipeline(RelatedPostPipeline pipeline,
                                 const ServingOptions& options,
                                 RestoreState state)
    : pipeline_(std::move(pipeline)),
      seed_docs_(pipeline_.docs().size() - state.ingested_docs),
      next_id_(std::max(pipeline_.next_id(), state.next_id)),
      epoch_(state.epoch),
      generation_(state.generation),
      // offline_docs 0 means "the offline clustering covers exactly the
      // seed slice" — normalize so offline_docs_ names a real count.
      offline_docs_(state.offline_docs == 0 ? seed_docs_ : state.offline_docs),
      pending_pool_(std::move(state.pending_pool)),
      pending_threshold_(options.recluster.pending_distance_threshold) {
  pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
  docs_since_.store(state.docs_since, std::memory_order_relaxed);
  ShardMetrics::get();
}

bool ServingPipeline::save(const std::string& path, uint64_t* bytes_out) {
  ShardMetrics& m = ShardMetrics::get();
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  ServingSnapshot snap;
  const std::vector<Document>& docs = pipeline_.docs();
  const std::vector<Segmentation>& segs = pipeline_.segmentations();
  snap.doc_ids.reserve(docs.size());
  snap.doc_texts.reserve(docs.size());
  for (const Document& d : docs) {
    snap.doc_ids.push_back(d.id());
    snap.doc_texts.push_back(d.text());
  }
  snap.segmentations = segs;
  snap.num_seed_docs = static_cast<uint32_t>(seed_docs_);
  // Cluster labels exist only for offline-clustered segments; documents
  // ingested after the last (re)clustering are re-published through the
  // nearest-centroid ingest path on restore, so labeling them here would
  // be wrong (the clustering never covered them — make_snapshot would
  // emit label 0). Before the first recluster offline_docs_ == seed_docs_
  // and this degenerates to the seed-only layout; after one, the labels
  // split at the seed/offline boundary.
  std::vector<Segmentation> off_segs(
      segs.begin(),
      segs.begin() + static_cast<std::ptrdiff_t>(offline_docs_));
  std::vector<DocId> off_ids(
      snap.doc_ids.begin(),
      snap.doc_ids.begin() + static_cast<std::ptrdiff_t>(offline_docs_));
  PipelineSnapshot offline =
      make_snapshot(off_segs, pipeline_.clustering(), off_ids);
  size_t seed_segments = 0;
  for (size_t d = 0; d < seed_docs_; ++d) {
    if (segs[d].num_units > 0) seed_segments += segs[d].num_segments();
  }
  snap.seed_labels.assign(
      offline.segment_labels.begin(),
      offline.segment_labels.begin() +
          static_cast<std::ptrdiff_t>(seed_segments));
  snap.offline_labels.assign(
      offline.segment_labels.begin() +
          static_cast<std::ptrdiff_t>(seed_segments),
      offline.segment_labels.end());
  snap.num_clusters = offline.num_clusters;
  snap.offline_generation = generation_;
  snap.offline_docs = offline_docs_;
  // The clustering's exact centroids: what frees restore from re-deriving
  // them (impossible after a recluster — the label-derived recomputation
  // over seed docs alone yields different centroids) and pins
  // nearest-centroid ingest assignment bit-for-bit.
  snap.centroids = pipeline_.clustering().centroids();
  snap.pending_pool = pending_pool_;
  snap.docs_since_recluster = docs_since_.load(std::memory_order_relaxed);
  const Vocabulary& vocab = pipeline_.vocab();
  snap.vocab_terms.reserve(vocab.size());
  for (size_t t = 0; t < vocab.size(); ++t) {
    snap.vocab_terms.push_back(vocab.term(static_cast<TermId>(t)));
  }
  snap.next_id = next_id_.load(std::memory_order_relaxed);
  return save_snapshot_v2_file(snap, path, bytes_out);
}

void ServingPipeline::publish_prepared(PreparedPost post) {
  ShardMetrics& m = ShardMetrics::get();
  obs::TraceScope lock_wait(m.exclusive_lock_wait);
  std::unique_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  DocId id = post.doc.id();
  double dist = 0.0;
  {
    obs::TraceScope publish(obs::Stage::kIndexPublish);
    dist = pipeline_.ingest(std::move(post));
  }
  // Outlier tracking: assignment is unchanged (results stay identical);
  // a far-from-every-centroid post just also enters the pending pool,
  // feeding the recluster-trigger policy.
  if (dist > pending_threshold_) {
    pending_pool_.push_back(id);
    pending_size_.store(pending_pool_.size(), std::memory_order_relaxed);
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
  docs_since_.fetch_add(1, std::memory_order_relaxed);
  // The caller reserved the id from its own counter; keep this shard's
  // watermark consistent so save() records it.
  DocId floor = id + 1;
  DocId seen = next_id_.load(std::memory_order_relaxed);
  while (seen < floor &&
         !next_id_.compare_exchange_weak(seen, floor,
                                         std::memory_order_relaxed)) {
  }
}

std::vector<std::pair<int, TermVector>> ServingPipeline::doc_cluster_terms(
    DocId doc) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pipeline_.matcher().doc_cluster_terms(doc);
}

ServingPipeline::ShardMatch ServingPipeline::match_clusters(
    const std::vector<std::pair<int, TermVector>>& queries, DocId exclude,
    int n,
    const std::vector<std::shared_ptr<const ClusterCollectionStats>>& stats)
    const {
  ShardMetrics& m = ShardMetrics::get();
  ShardMatch out;
  out.lists.resize(queries.size());
  obs::TraceScope lock_wait(m.shared_lock_wait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  lock_wait.stop();
  const IntentionMatcher& matcher = pipeline_.matcher();
  for (size_t i = 0; i < queries.size(); ++i) {
    const ClusterCollectionStats* view =
        i < stats.size() ? stats[i].get() : nullptr;
    out.lists[i] = matcher.match_cluster_terms(
        queries[i].first, queries[i].second, exclude, n, view);
  }
  out.epoch = epoch_.load(std::memory_order_relaxed);
  out.num_docs = pipeline_.docs().size();
  // Report the matcher's cumulative pruning counter as a delta since the
  // last report; the CAS keeps concurrent legs from reporting the same
  // units twice.
  uint64_t now = matcher.work_counters().units_pruned.load(
      std::memory_order_relaxed);
  uint64_t prev = pruned_reported_.load(std::memory_order_relaxed);
  while (now > prev && !pruned_reported_.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
  }
  if (now > prev) out.pruned = now - prev;
  return out;
}

void ServingPipeline::set_stats_sink(GlobalIndexStats* sink) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pipeline_.set_stats_sink(sink);
}

}  // namespace ibseg
