// drai/domains/archetype.hpp
//
// What the four Table-1 archetypes share: the result they return, and the
// tail that turns a finished pipeline run into that result — the manifest,
// the quality report, the provenance hash, the dataset state and its
// readiness assessment. Each archetype builds its own five-stage pipeline
// and hands it to RunArchetype together with the few facts only it knows.
#pragma once

#include <functional>
#include <string>

#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "core/readiness.hpp"
#include "parallel/striped_store.hpp"
#include "shard/manifest.hpp"

namespace drai::domains {

/// The five core::ExecutionOptions fields an archetype config exposes, under
/// their own names; output bytes are identical for any of them. The rest
/// keep their defaults: each archetype has its own seeds and its own
/// per-stage `retry` and `deadline`.
struct ArchetypeExecution : private core::ExecutionOptions {
  using core::ExecutionOptions::backend;
  using core::ExecutionOptions::checkpoint;
  using core::ExecutionOptions::faults;
  using core::ExecutionOptions::overlap;
  using core::ExecutionOptions::threads;

  /// What the archetype hands to core::Pipeline.
  [[nodiscard]] const core::ExecutionOptions& execution() const {
    return *this;
  }
};

struct ArchetypeResult {
  core::PipelineReport report;
  shard::DatasetManifest manifest;
  core::QualityReport quality;
  core::ReadinessAssessment readiness;
  core::DatasetState state;
  std::string provenance_hash;
};

/// The readiness facts that differ between archetypes, read after a
/// successful run. The defaults fit an archetype with a label on every
/// sample, no PHI and no audit trail of its own.
struct ArchetypeEvidence {
  /// Fraction of emitted samples that carry a label. basic_labels holds
  /// above 0, comprehensive_labels from 0.95.
  double label_fraction = 1.0;
  /// The de-identification reached its configured k.
  bool anonymization_done = true;
  /// The transform's audit trail verifies.
  bool transform_audited = true;
};

/// Run `pipeline` over `bundle` and fill the shared part of `result`: the
/// report, a copy of `manifest` (the shard stage fills it), the examples'
/// quality, the provenance hash, the dataset state and its assessment.
/// Returns the run's error if it failed. `evidence` is called once, after
/// a successful run; empty means the ArchetypeEvidence defaults.
Status RunArchetype(core::Pipeline& pipeline, core::DataBundle& bundle,
                    const shard::DatasetManifest& manifest,
                    ArchetypeResult& result,
                    const std::function<ArchetypeEvidence()>& evidence = {});

}  // namespace drai::domains
