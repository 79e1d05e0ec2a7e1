// Crash-injection suite (ctest label "killsafety"): a child process
// restores a persisted state directory (per-shard snapshot v2 + per-shard
// WAL + global publication journal + manifest), ingests posts through the
// serving facade, and is killed with _exit(2) mid-stream at a chosen point
// K. The parent then performs the warm restart and asserts recovery lands
// on the EXACT pre-crash published state: epoch == K and find_related
// answers bit-identical to the unpartitioned RelatedPostPipeline that
// ingested the same first K posts.
//
// _exit skips every destructor and flush — the strongest process-death
// model short of SIGKILL, and deterministic. The WALs write each frame
// with a single write(2) before publication, so a post whose add_post
// returned must survive; a post mid-append may only ever be torn at the
// tail, which replay truncates.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"

namespace ibseg {
namespace {

constexpr int kChildExitCode = 2;
constexpr size_t kSeedPosts = 18;

std::vector<Document> seed_docs() {
  GeneratorOptions gen;
  gen.num_posts = kSeedPosts;
  gen.posts_per_scenario = 3;
  gen.seed = 4242;
  return analyze_corpus(generate_corpus(gen));
}

std::vector<std::string> ingest_stream() {
  GeneratorOptions gen;
  gen.num_posts = 10;
  gen.posts_per_scenario = 2;
  gen.seed = 777;
  SyntheticCorpus corpus = generate_corpus(gen);
  std::vector<std::string> texts;
  for (const GeneratedPost& p : corpus.posts) texts.push_back(p.text);
  return texts;
}

constexpr uint32_t kShards = 4;

std::string tmp_dir(const std::string& name) {
  return ::testing::TempDir() + "/ibseg_kill_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

bool spew(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
  os.flush();
  return static_cast<bool>(os);
}

/// All mutable files of a 4-shard persist directory, for capture/rollback.
std::vector<std::string> shard_dir_files(const std::string& dir) {
  std::vector<std::string> files = {dir + "/MANIFEST", dir + "/ingest.order"};
  for (uint32_t s = 0; s < kShards; ++s) {
    files.push_back(dir + "/shard-" + std::to_string(s) + "/snapshot.v2");
    files.push_back(dir + "/shard-" + std::to_string(s) + "/wal");
  }
  return files;
}

/// Sharded vs unpartitioned bit-identity at quiescence (both sides
/// joined): the reference ingested exactly the published history, so even
/// the floating-point scores must match — any drift means recovery rebuilt
/// different state.
void expect_matches_pipeline(const ShardedServing& sharded,
                             const RelatedPostPipeline& reference) {
  ASSERT_EQ(sharded.num_docs(), reference.docs().size());
  ASSERT_EQ(sharded.epoch(), reference.docs().size() - kSeedPosts);
  for (const Document& d : reference.docs()) {
    auto got = sharded.find_related(d.id(), 5);
    std::vector<ScoredDoc> want = reference.find_related(d.id(), 5);
    ASSERT_EQ(got.results.size(), want.size()) << "query " << d.id();
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.results[i].doc, want[i].doc)
          << "query " << d.id() << " rank " << i;
      ASSERT_EQ(got.results[i].score, want[i].score)
          << "query " << d.id() << " rank " << i;
    }
  }
}

/// The unpartitioned reference after the first `ingests` stream posts.
RelatedPostPipeline reference_after(size_t ingests) {
  const std::vector<std::string> stream = ingest_stream();
  RelatedPostPipeline reference = RelatedPostPipeline::build(seed_docs());
  for (size_t i = 0; i < ingests; ++i) reference.add_post(stream[i]);
  return reference;
}

/// Parent-side setup: a persisted `num_shards` deployment over the seed
/// corpus, saved (committed) to `dir`.
void write_base_shard_dir(const std::string& dir,
                          uint32_t num_shards = kShards) {
  ServingOptions options;
  options.num_shards = static_cast<int>(num_shards);
  options.persist.shard_dir = dir;
  auto sharded = ShardedServing::create(seed_docs(), {}, options);
  ASSERT_NE(sharded, nullptr);
  ASSERT_TRUE(sharded->save(dir));
}

/// One crash trial on a `num_shards` deployment: child restores `dir`,
/// ingests `crash_after` posts (scattered across shards by the id hash),
/// dies with _exit. `torn_tail_bytes` is appended to the publication
/// journal and to the WAL of the shard owning the next id between crash
/// and recovery, to additionally exercise torn-tail truncation.
void run_sharded_crash_trial(size_t crash_after,
                             const std::string& torn_tail_bytes = "",
                             uint32_t num_shards = kShards) {
  const std::vector<std::string> stream = ingest_stream();
  ASSERT_LE(crash_after, stream.size());
  std::string dir = tmp_dir("shards" + std::to_string(num_shards));
  write_base_shard_dir(dir, num_shards);

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < crash_after; ++i) sharded->add_post(stream[i]);
    _exit(kChildExitCode);  // journal + WAL tails unflushed by destructors
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  if (!torn_tail_bytes.empty()) {
    const DocId next = static_cast<DocId>(kSeedPosts + crash_after);
    const uint32_t owner = ShardedServing::shard_of(next, num_shards);
    for (const std::string& log :
         {dir + "/ingest.order",
          dir + "/shard-" + std::to_string(owner) + "/wal"}) {
      std::ofstream os(log, std::ios::binary | std::ios::app);
      os << torn_tail_bytes;
    }
  }

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), crash_after)
      << "recovery must land on the exact pre-crash combined epoch";

  // Never-crashed reference with the same shard count and history.
  ServingOptions plain;
  plain.num_shards = static_cast<int>(num_shards);
  auto reference = ShardedServing::create(seed_docs(), {}, plain);
  ASSERT_NE(reference, nullptr);
  for (size_t i = 0; i < crash_after; ++i) reference->add_post(stream[i]);
  ASSERT_EQ(recovered->epoch(), reference->epoch());
  ASSERT_EQ(recovered->next_id(), reference->next_id());

  // Unpartitioned reference at the same logical epoch — the bit-identity
  // anchor for both of them.
  RelatedPostPipeline unsharded = reference_after(crash_after);
  expect_matches_pipeline(*recovered, unsharded);
  expect_matches_pipeline(*reference, unsharded);

  // Recovery is stable: restoring again from the same files reproduces
  // the same state.
  recovered.reset();
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  expect_matches_pipeline(*again, unsharded);
}

TEST(ShardedKillSafety, FourShardCrashMidIngestRecoversBitIdentical) {
  for (size_t k : {size_t{0}, size_t{3}, ingest_stream().size()}) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " ingests");
    run_sharded_crash_trial(k);
  }
}

TEST(ShardedKillSafety, TornWalTailIsTruncatedNeverReplayed) {
  // Garbage after the last complete record of the journal and of one
  // shard WAL — as if the process died mid-append. Recovery must drop the
  // tails and still land on epoch K.
  SCOPED_TRACE("garbage tail");
  run_sharded_crash_trial(3, "torn-frame-garbage-bytes");
  // A tail that *looks* like a frame header but lies about its length.
  SCOPED_TRACE("fake header tail");
  run_sharded_crash_trial(
      2, std::string("\xff\x00\x00\x00\x01\x02\x03\x04", 8));
}

/// The save()-time window after the manifest commit on a `num_shards`
/// deployment: new MANIFEST and shard snapshots on disk, the journal and
/// WAL resets never reached it. The child reproduces that state by
/// capturing the journal and every shard WAL before a save, saving, then
/// putting the pre-save log bytes back. Replay must dedup every logged
/// record the snapshots already hold — no double publish, exactly the
/// pre-crash epoch.
void run_save_window_trial(uint32_t num_shards) {
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 4;
  std::string dir = tmp_dir("wal_window" + std::to_string(num_shards));
  write_base_shard_dir(dir, num_shards);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    std::vector<std::string> logs = {dir + "/ingest.order"};
    for (uint32_t s = 0; s < num_shards; ++s) {
      logs.push_back(dir + "/shard-" + std::to_string(s) + "/wal");
    }
    std::vector<std::string> before;
    for (const std::string& f : logs) before.push_back(slurp(f));
    if (!sharded->save(dir)) _exit(43);
    for (size_t i = 0; i < logs.size(); ++i) {
      if (!spew(logs[i], before[i])) _exit(44);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);
  ASSERT_GT(slurp(dir + "/ingest.order").size(), 0u)
      << "the stale journal must be back for this window to be exercised";

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  // The four posts are in the snapshots; the stale logs' copies of them
  // must be skipped, not published a second time.
  EXPECT_EQ(recovered->epoch(), kIngests);
  RelatedPostPipeline unsharded = reference_after(kIngests);
  expect_matches_pipeline(*recovered, unsharded);

  recovered.reset();
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  expect_matches_pipeline(*again, unsharded);
}

TEST(ShardedKillSafety, CrashBetweenSnapshotAndWalTruncation) {
  run_save_window_trial(kShards);
}

// ================================================= one-shard deployments ====
//
// The same crash model on a 1-shard state directory — the unpartitioned
// deployment every caller that does not ask for shards gets.

TEST(KillSafety, CrashAtRandomizedPoints) {
  // Randomized but reproducible crash points across the stream, always
  // including the boundaries (crash before any ingest / after all).
  std::mt19937 rng(20260805);
  std::uniform_int_distribution<size_t> point(1, ingest_stream().size() - 1);
  std::vector<size_t> crash_points = {0, ingest_stream().size()};
  for (int i = 0; i < 2; ++i) crash_points.push_back(point(rng));
  for (size_t k : crash_points) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " ingests");
    run_sharded_crash_trial(k, "", 1);
  }
}

TEST(KillSafety, TornWalTailIsTruncatedNeverReplayed) {
  SCOPED_TRACE("garbage tail");
  run_sharded_crash_trial(3, "torn-frame-garbage-bytes", 1);
  SCOPED_TRACE("fake header tail");
  run_sharded_crash_trial(
      2, std::string("\xff\x00\x00\x00\x01\x02\x03\x04", 8), 1);
}

TEST(KillSafety, CrashBetweenSnapshotAndWalTruncation) {
  run_save_window_trial(1);
}

TEST(ShardedKillSafety, FreshlyCreatedDeploymentSurvivesCrashMidIngest) {
  // Unlike the other trials, the CHILD builds the persisted deployment:
  // create() with a shard_dir opens brand-new WAL + journal files, whose
  // directory entries must be made durable at creation (the create-dirent
  // fsync path) — otherwise a crash could lose the *names* of logs whose
  // appends were faithfully synced. The child creates, commits the base
  // save, ingests mid-stream and dies with _exit; the parent restores and
  // must land on the exact pre-crash epoch.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 4;
  std::string dir = tmp_dir("fresh_create");

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ServingOptions options;
    options.num_shards = static_cast<int>(kShards);
    options.persist.shard_dir = dir;
    auto sharded = ShardedServing::create(seed_docs(), {}, options);
    if (sharded == nullptr) _exit(42);
    if (!sharded->save(dir)) _exit(43);  // commit the manifest
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    _exit(kChildExitCode);  // WAL/journal tails left to recovery
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), kIngests);

  RelatedPostPipeline unsharded = reference_after(kIngests);
  expect_matches_pipeline(*recovered, unsharded);
}

TEST(ShardedKillSafety, CrashBetweenShardSnapshotRenames) {
  // The multi-shard save() crash window: some shard snapshots already
  // renamed into place, the manifest commit (and the WAL/journal resets
  // behind it) never reached the disk. The child reproduces that exact
  // on-disk state by capturing the directory before a save, saving, then
  // rolling back the manifest, the journal, every WAL, and HALF the shard
  // snapshots — shards 2 and 3 keep their new (ahead-of-manifest) files.
  // Recovery must reach the full pre-crash history via journal + WAL
  // replay with published-set dedup, bit-identical to the unsharded
  // reference.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 6;
  std::string dir = tmp_dir("renames");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    std::vector<std::string> files = shard_dir_files(dir);
    std::vector<std::string> before;
    for (const std::string& f : files) before.push_back(slurp(f));
    if (!sharded->save(dir)) _exit(43);
    // Roll back everything EXCEPT shard-2/shard-3 snapshots (indices 4+2*s
    // in shard_dir_files order: 0 MANIFEST, 1 journal, then snapshot/wal
    // pairs per shard).
    for (size_t i = 0; i < files.size(); ++i) {
      bool keep_new = (i == 2 + 2 * 2) || (i == 2 + 2 * 3);
      if (!keep_new && !spew(files[i], before[i])) _exit(44);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr)
      << "snapshot-ahead-of-manifest is the legal crash window; restore "
         "must recover, not reject";
  EXPECT_EQ(recovered->epoch(), kIngests);

  RelatedPostPipeline unsharded = reference_after(kIngests);
  expect_matches_pipeline(*recovered, unsharded);

  // Recovery is stable under repetition.
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  expect_matches_pipeline(*again, unsharded);
}

// ==================================== re-clustering epoch crash windows ====
//
// A background recluster changes only memory; disk changes at the NEXT
// save, which writes generation-qualified shard snapshots
// (shard-<i>/snapshot.g<G>.v2) before committing the manifest. The crash
// windows around that save must resolve to exactly the old or exactly the
// new generation — never a torn mixture.

TEST(ShardedKillSafety, CrashBeforeReclusterManifestCommitLandsOnOldGeneration) {
  // The pre-commit window: every new-generation snapshot already renamed
  // into place, the manifest commit never reached the disk. The child
  // reproduces it by capturing the generation-0 files before the
  // post-recluster save, saving (which writes snapshot.g1.v2 files,
  // commits a generation-1 manifest, truncates WALs/journal and GCs the
  // old snapshots), then rolling every generation-0 file back — leaving
  // the snapshot.g1.v2 files as orphans. Restore must follow the
  // manifest: generation 0, full history via journal + WAL replay, the
  // orphans ignored.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 6;
  std::string dir = tmp_dir("swap_precommit");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    if (sharded->recluster() != 1) _exit(45);
    std::vector<std::string> files = shard_dir_files(dir);
    std::vector<std::string> before;
    for (const std::string& f : files) before.push_back(slurp(f));
    if (!sharded->save(dir)) _exit(43);
    for (size_t i = 0; i < files.size(); ++i) {
      if (!spew(files[i], before[i])) _exit(44);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr)
      << "pre-commit crash must restore the old generation, not reject";
  EXPECT_EQ(recovered->offline_generation(), 0u);
  EXPECT_EQ(recovered->epoch(), kIngests);

  // Bit-identical to a never-crashed, never-reclustered deployment.
  RelatedPostPipeline unsharded = reference_after(kIngests);
  expect_matches_pipeline(*recovered, unsharded);

  // Life goes on at generation 0: the next save GCs the orphan
  // generation-1 snapshots and the directory keeps round-tripping.
  ASSERT_TRUE(recovered->save(dir));
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->offline_generation(), 0u);
  expect_matches_pipeline(*again, unsharded);
}

TEST(ShardedKillSafety, KillAfterReclusterSaveRestoresNewGeneration) {
  // The post-commit path: the manifest for generation 1 hit the disk,
  // then the process is killed mid-stream (journal/WAL tail beyond the
  // save, destructors never run). Restore must land on generation 1 with
  // the full history — offline state from the generation-1 snapshots,
  // the post-save tail via replay.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kBefore = 6;
  const size_t kAfter = 3;
  std::string dir = tmp_dir("swap_committed");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kBefore; ++i) sharded->add_post(stream[i]);
    if (sharded->recluster() != 1) _exit(45);
    if (!sharded->save(dir)) _exit(43);
    for (size_t i = 0; i < kAfter; ++i) {
      sharded->add_post(stream[kBefore + i]);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->offline_generation(), 1u);
  EXPECT_EQ(recovered->offline_publications(), kBefore);
  EXPECT_EQ(recovered->epoch(), kBefore + kAfter);

  // Never-crashed reference running the identical history: a cold build
  // over the reclustered coverage, then the post-save tail.
  std::vector<Document> covered = seed_docs();
  for (size_t i = 0; i < kBefore; ++i) {
    covered.push_back(
        Document::analyze(static_cast<DocId>(covered.size()), stream[i]));
  }
  RelatedPostPipeline unsharded = RelatedPostPipeline::build(covered);
  for (size_t i = 0; i < kAfter; ++i) {
    unsharded.add_post(stream[kBefore + i]);
  }
  expect_matches_pipeline(*recovered, unsharded);

  // Recovery is stable under repetition.
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->offline_generation(), 1u);
  expect_matches_pipeline(*again, unsharded);
}

TEST(ShardedKillSafety, StaleShardSnapshotIsRejectedNotResurrected) {
  // The torn-restore bug this PR fixes: a shard snapshot HOLDING FEWER
  // documents than its manifest entry committed cannot be the file that
  // manifest described (snapshots rename before the commit) — someone
  // swapped in an old file. Resurrecting it would silently fork history;
  // restore must reject the directory instead.
  const std::vector<std::string> stream = ingest_stream();
  std::string dir = tmp_dir("stale");
  write_base_shard_dir(dir);
  {
    auto sharded = ShardedServing::restore(dir);
    ASSERT_NE(sharded, nullptr);
    // Find a shard that gains a document, keep its pre-ingest snapshot.
    for (size_t i = 0; i < 6; ++i) sharded->add_post(stream[i]);
    uint32_t victim = kShards;
    for (uint32_t s = 0; s < kShards; ++s) {
      if (sharded->shard(s).epoch() > 0) victim = s;
    }
    ASSERT_LT(victim, kShards);
    std::string snap =
        dir + "/shard-" + std::to_string(victim) + "/snapshot.v2";
    std::string stale = slurp(snap);
    ASSERT_TRUE(sharded->save(dir));  // commits the larger shard counts
    ASSERT_TRUE(spew(snap, stale));   // swap the old snapshot back in
  }
  EXPECT_EQ(ShardedServing::restore(dir), nullptr);
}

}  // namespace
}  // namespace ibseg
