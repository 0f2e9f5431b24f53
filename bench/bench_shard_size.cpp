// A2 — shard-size ablation: DataLoader epoch throughput vs shard size and
// prefetch depth. Too-small shards pay per-file overhead and defeat
// sequential reads; too-large shards serialize decode behind one worker
// and coarsen the shuffle. The sweet spot in the middle is why TFRecord /
// WebDataset shards target tens-to-hundreds of MiB in production (scaled
// down here).
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "shard/shard_reader.hpp"
#include "shard/shard_writer.hpp"

namespace drai {
namespace {

constexpr size_t kExamples = 3000;
constexpr size_t kFeatureFloats = 512;  // 2 KiB per example

void BuildDataset(par::StripedStore& store, const std::string& dir,
                  uint64_t shard_bytes) {
  shard::ShardWriterConfig config;
  config.directory = dir;
  config.target_shard_bytes = shard_bytes;
  config.train_frac = 1.0;
  config.val_frac = 0.0;
  config.test_frac = 0.0;
  shard::ShardWriter writer(store, config);
  for (size_t i = 0; i < kExamples; ++i) {
    shard::Example ex;
    ex.key = "k";
    ex.key += std::to_string(i);
    ex.features["x"] =
        NDArray::Full({kFeatureFloats}, double(i % 97), DType::kF32);
    writer.Add(ex).value();
  }
  writer.Finalize().value();
}

int Main() {
  bench::Banner(
      "A2 — loader epoch throughput vs shard size (3000 x 2 KiB examples)");
  bench::Table table({"target shard size", "shards", "prefetch", "epoch wall",
                      "records/s", "sim read time"});
  for (const uint64_t shard_bytes :
       {16ull << 10, 128ull << 10, 1ull << 20, 8ull << 20}) {
    for (const size_t prefetch : {1ul, 4ul}) {
      par::StripedStore store;
      const std::string dir = "/ds/sweep";
      BuildDataset(store, dir, shard_bytes);
      const auto reader = shard::ShardReader::Open(store, dir).value();
      store.ResetStats();

      shard::DataLoaderOptions options;
      options.batch_size = 64;
      options.prefetch_shards = prefetch;
      shard::DataLoader loader(reader, shard::Split::kTrain, options);
      WallTimer timer;
      loader.StartEpoch(0);
      size_t records = 0;
      for (;;) {
        const auto batch = loader.Next().value();
        if (!batch.has_value()) break;
        records += batch->size();
      }
      const double wall = timer.Seconds();
      table.AddRow(
          {HumanBytes(shard_bytes),
           std::to_string(reader.NumShards(shard::Split::kTrain)),
           std::to_string(prefetch), HumanDuration(wall),
           bench::Fmt("%.0f", records / wall),
           bench::Fmt("%.3f s", store.stats().simulated_seconds)});
    }
  }
  table.Print();
  std::printf(
      "shape check: tiny shards multiply per-file costs (more files, more\n"
      "simulated ops); prefetch hides decode behind consumption once shards\n"
      "are big enough to keep a worker busy.\n");
  return 0;
}

}  // namespace
}  // namespace drai

int main() { return drai::Main(); }
