// The benchmark's named workloads and the one routine that executes any of
// them through the library's public entry points (domains::Run*Archetype,
// shard::ShardReader). Inputs are a pure function of (workload, seed, size).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "domains/bio.hpp"
#include "domains/climate.hpp"
#include "domains/fusion.hpp"
#include "domains/materials.hpp"
#include "parallel/striped_store.hpp"

namespace drbench {

enum class Size { kFull, kTiny };

/// The seed whose dataset and provenance hashes are pinned in
/// workloads.cpp (the climate generator's default seed).
inline constexpr uint64_t kPinnedSeed = 1234;

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
bool KnownWorkload(const std::string& name);
/// True for the three climate workloads.
bool IsClimate(const std::string& name);

/// The archetype configurations one workload runs. `reference` selects the
/// correctness reference: the same inputs on the thread backend at one
/// worker, with no faults, retry, skew, checkpointing or overlap.
struct Configs {
  std::optional<drai::domains::ClimateArchetypeConfig> climate;
  std::optional<drai::domains::FusionArchetypeConfig> fusion;
  std::optional<drai::domains::BioArchetypeConfig> bio;
  std::optional<drai::domains::MaterialsArchetypeConfig> materials;
  bool checkpoint = false;  ///< attach a StoreCheckpointSink at kCheckpointDir
};
inline constexpr const char* kCheckpointDir = "/ckpt";
Configs MakeConfigs(const std::string& workload, uint64_t seed, Size size,
                    bool reference);

/// What one execution produced. The store holds the written datasets (and
/// checkpoints) for read-back and replay.
struct Outcome {
  drai::Status status;
  std::unique_ptr<drai::par::StripedStore> store;
  std::vector<std::string> dataset_dirs;  ///< in run order
  std::string data_hash;        ///< SHA-256 over every dataset file
  std::string provenance_hash;  ///< the run's provenance hash (combined)
  std::vector<drai::core::PipelineReport> reports;  ///< one per archetype
  std::vector<double> archetype_seconds;  ///< wall per archetype call
  uint64_t records = 0;    ///< manifest record total
  size_t quarantined = 0;  ///< partitions dropped across all reports
};

/// Generate inputs, run the workload's archetypes against a fresh store,
/// and fingerprint what they wrote. This is the unit `wall_s` times.
Outcome Execute(const Configs& configs);

/// One SHA-256 over every file under `dirs`: paths and bytes, sorted.
std::string DatasetHash(const drai::par::StripedStore& store,
                        const std::vector<std::string>& dirs);

/// Decode every record of every split of every dataset the outcome wrote
/// (CRC-checked by the reader). Returns the records decoded.
drai::Result<uint64_t> ReadBack(const Outcome& outcome);

struct Expected {
  std::string data_hash;
  std::string provenance_hash;
};
/// The pinned hashes for (workload, seed, size), if any.
std::optional<Expected> Pinned(const std::string& workload, uint64_t seed,
                               Size size);

}  // namespace drbench
