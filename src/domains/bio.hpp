// drai/domains/bio.hpp
//
// Bio/health archetype (Table 1, §3.3): encode -> anonymize -> fuse ->
// (secure) shard. Ingest loads sequences plus the PHI-bearing clinical
// table; preprocess validates sequences and tiles them; transform runs the
// privacy battery (field classification, pseudonymization, date shifting,
// k-anonymity) under a hash-chained audit log, then one-hot encodes tiles;
// structure fuses sequence features with de-identified clinical covariates
// into per-subject examples; shard embeds the audit head hash in the
// manifest so the export is traceable to the privacy transcript.
#pragma once

#include "domains/archetype.hpp"
#include "privacy/anonymize.hpp"
#include "privacy/audit.hpp"
#include "workloads/bio.hpp"

namespace drai::domains {

struct BioArchetypeConfig : ArchetypeExecution {
  workloads::BioConfig workload;
  size_t tile_len = 128;
  size_t tile_stride = 128;
  size_t k_anonymity = 4;
  std::string hmac_key = "drai-demo-key-0123456789abcdef";
  std::string dataset_dir = "/datasets/bio";
  uint64_t split_seed = 33;
  /// Retry policy applied to every parallel stage (default: no retry).
  core::RetryPolicy retry;
  /// Deadline policy applied to every stage alongside `retry`: hard limits
  /// cancel hung attempts, soft limits launch straggler speculation,
  /// collective_ms bounds SPMD collective waits. Inactive by default.
  core::DeadlinePolicy deadline;
};

struct BioArchetypeResult : ArchetypeResult {
  privacy::AuditLog audit;
  privacy::KAnonymityReport k_report;
};

Result<BioArchetypeResult> RunBioArchetype(par::StripedStore& store,
                                           const BioArchetypeConfig& config);

}  // namespace drai::domains
