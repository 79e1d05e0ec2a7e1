// Fuzz target: the snapshot v2 loader (storage/snapshot_v2.h) — the
// binary section parser (length prefixes, CRC frames) behind every shard
// snapshot a state directory holds. The contract under fuzzing: never
// crash, never over-read (ASan-checked), and never return a structurally
// inconsistent snapshot.

#include "fuzz_driver.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "storage/snapshot_v2.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = ibseg_fuzz::scratch_path("snapshot");
  ibseg_fuzz::write_scratch(path, data, size);

  std::optional<ibseg::ServingSnapshot> v2 =
      ibseg::load_snapshot_v2_file(path);
  // The loader promises structural validity — an accepted-but-broken
  // snapshot would crash restore later, far from the bad bytes.
  if (v2.has_value() && !v2->is_consistent()) std::abort();
  return 0;
}

std::vector<std::string> fuzz_seed_inputs() {
  std::vector<std::string> seeds;
  // v2 seed: the shard snapshot of a real 1-shard deployment, written by
  // ShardedServing::save.
  ibseg::GeneratorOptions gen;
  gen.num_posts = 6;
  gen.posts_per_scenario = 3;
  gen.seed = 99;
  std::unique_ptr<ibseg::ShardedServing> serving =
      ibseg::ShardedServing::create(
          ibseg::analyze_corpus(ibseg::generate_corpus(gen)));
  const std::string dir = ibseg_fuzz::scratch_path("snapshot_seed");
  if (serving != nullptr && serving->save(dir)) {
    std::ifstream is(dir + "/shard-0/snapshot.v2", std::ios::binary);
    seeds.emplace_back((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  seeds.push_back("");            // empty file
  seeds.push_back("IBSGSNP2");    // magic with nothing behind it
  return seeds;
}
