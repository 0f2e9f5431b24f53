// drai/domains/climate.hpp
//
// Climate archetype (Table 1, §3.1): download -> regrid -> normalize ->
// shard. Ingest decodes GRIB-lite messages into per-variable field stacks;
// preprocess regrids every variable from its source (Gaussian-like) grid
// onto one uniform target grid; transform fills missing cells and applies
// per-variable z-score normalization; structure slices spatiotemporal
// patches (Pangu-style); shard writes train/val/test RecIO shards plus the
// manifest with the serialized normalizer.
#pragma once

#include "domains/archetype.hpp"
#include "grid/latlon.hpp"
#include "workloads/climate.hpp"
#include "workloads/skew.hpp"

namespace drai::domains {

/// Which community format the synthetic source arrives in. kAuto sniffs
/// the magic bytes — the heterogeneous-ingest situation §5 calls
/// "fragmentation across domains".
enum class ClimateSourceFormat { kGrib, kNetcdf };

struct ClimateArchetypeConfig : ArchetypeExecution {
  workloads::ClimateConfig workload;
  ClimateSourceFormat source_format = ClimateSourceFormat::kGrib;
  size_t target_lat = 24;
  size_t target_lon = 48;
  grid::RegridMethod regrid = grid::RegridMethod::kBilinear;
  size_t patch = 8;            ///< spatial patch edge (cells)
  std::string dataset_dir = "/datasets/climate";
  uint64_t split_seed = 11;
  /// Retry policy applied to every parallel stage. Default = no retry, a
  /// failing partition fails the run; raise max_attempts (and optionally
  /// allow quarantine) to ride out transient faults.
  core::RetryPolicy retry;
  /// Deadline policy applied to every stage alongside `retry`: hard limits
  /// cancel hung attempts, soft limits launch straggler speculation,
  /// collective_ms bounds SPMD collective waits. Inactive by default.
  core::DeadlinePolicy deadline;
  /// Time steps per `normalize` partition. 1 (default) keeps normalize and
  /// patch fused into one group, exactly the seed behavior; > 1 splits them
  /// into separate groups whose boundary can stream (grain N -> 1) when
  /// `overlap` is on. The normalize -> patch boundary is marked
  /// OverlapPolicy::kStream; output bytes are identical either way.
  size_t normalize_grain = 1;
  /// Deterministic compute skew added to `normalize`, keyed by time step —
  /// the straggler generator for overlap/speculation benchmarks. Inactive
  /// by default; never changes output bytes.
  workloads::SkewSpec skew;
};

/// Run the full archetype against `store`. The pipeline is built fresh per
/// call (stages capture config + store).
Result<ArchetypeResult> RunClimateArchetype(par::StripedStore& store,
                                            const ClimateArchetypeConfig& config);

}  // namespace drai::domains
