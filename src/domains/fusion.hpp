// drai/domains/fusion.hpp
//
// Fusion archetype (Table 1, §3.2): extract -> align -> normalize -> shard.
// Ingest validates per-shot diagnostic channels; preprocess despikes,
// gap-fills, and aligns every shot's channels onto a uniform clock;
// transform computes windowed derivative features and z-scores them
// (fit across all shots), pseudo-labeling shots whose disruption label was
// withheld; structure emits one example per window with the shot's label;
// shard writes the dataset grouped by shot key so no shot leaks across
// splits.
#pragma once

#include "domains/archetype.hpp"
#include "workloads/fusion.hpp"

namespace drai::domains {

struct FusionArchetypeConfig : ArchetypeExecution {
  workloads::FusionConfig workload;
  double align_dt = 2e-3;       ///< common clock step (s)
  size_t window = 64;           ///< samples per window
  size_t stride = 32;
  double despike_z = 6.0;
  size_t max_gap = 8;
  bool pseudo_label = true;     ///< kNN self-training for unlabeled shots
  /// Estimate and correct per-channel trigger skew against channel 0
  /// before aligning (timeseries::AlignChannelsWithLag). 0 disables.
  double lag_correct_max = 0.0;
  /// Jitter-augmentation: extra synthetic windows per shot (amplitude
  /// scaling + circular shift). 0 disables.
  size_t jitter_windows_per_shot = 0;
  std::string dataset_dir = "/datasets/fusion";
  uint64_t split_seed = 22;
  /// Retry policy applied to every parallel stage (default: no retry).
  core::RetryPolicy retry;
  /// Deadline policy applied to every stage alongside `retry`: hard limits
  /// cancel hung attempts, soft limits launch straggler speculation,
  /// collective_ms bounds SPMD collective waits. Inactive by default.
  core::DeadlinePolicy deadline;
};

Result<ArchetypeResult> RunFusionArchetype(par::StripedStore& store,
                                           const FusionArchetypeConfig& config);

}  // namespace drai::domains
