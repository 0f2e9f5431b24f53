// drai/domains/materials.hpp
//
// Materials archetype (Table 1, §3.4): parse -> normalize -> encode ->
// shard. Ingest validates parsed structures; preprocess wraps coordinates
// into the unit cell; transform standardizes the energy labels and fits
// the node-descriptor normalizer; structure builds the periodic neighbor
// graph and encodes GNN samples, rebalancing the skewed crystal-system
// classes; shard writes BpLite-backed RecIO shards.
#pragma once

#include "domains/archetype.hpp"
#include "graph/encode.hpp"
#include "workloads/materials.hpp"

namespace drai::domains {

struct MaterialsArchetypeConfig : ArchetypeExecution {
  workloads::MaterialsConfig workload;
  graph::GraphEncodeOptions encode;
  bool rebalance = true;
  graph::RebalanceStrategy strategy = graph::RebalanceStrategy::kOversample;
  std::string dataset_dir = "/datasets/materials";
  uint64_t split_seed = 44;
  /// Retry policy applied to every parallel stage (default: no retry).
  core::RetryPolicy retry;
  /// Deadline policy applied to every stage alongside `retry`: hard limits
  /// cancel hung attempts, soft limits launch straggler speculation,
  /// collective_ms bounds SPMD collective waits. Inactive by default.
  core::DeadlinePolicy deadline;
};

struct MaterialsArchetypeResult : ArchetypeResult {
  double imbalance_before = 0;  ///< max/min class ratio pre-rebalance
  double imbalance_after = 0;
};

Result<MaterialsArchetypeResult> RunMaterialsArchetype(
    par::StripedStore& store, const MaterialsArchetypeConfig& config);

}  // namespace drai::domains
