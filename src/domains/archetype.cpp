#include "domains/archetype.hpp"

namespace drai::domains {

Status RunArchetype(core::Pipeline& pipeline, core::DataBundle& bundle,
                    const shard::DatasetManifest& manifest,
                    ArchetypeResult& result,
                    const std::function<ArchetypeEvidence()>& evidence) {
  result.report = pipeline.Run(bundle);
  if (!result.report.ok) return result.report.error;

  result.manifest = manifest;
  result.quality = core::AssessQuality(bundle.examples);
  result.provenance_hash = pipeline.provenance().RecordHash();
  const ArchetypeEvidence facts = evidence ? evidence() : ArchetypeEvidence{};

  // A run that got here executed all five canonical stages: ingest decoded
  // and validated the source, preprocess aligned it onto one grid or clock,
  // transform normalized it with frozen statistics, structure extracted
  // and validated the features.
  result.state = core::DatasetState{
      .acquired = true,
      .validated_standard_format = true,
      .metadata_enriched = true,
      .high_throughput_ingest = true,
      .ingest_automated = true,
      .initial_alignment = true,
      .grids_standardized = true,
      .alignment_fully_standardized = true,
      .alignment_automated = true,
      .basic_normalization = true,
      .anonymization_done = facts.anonymization_done,
      .basic_labels = facts.label_fraction > 0,
      .normalization_finalized = true,
      .comprehensive_labels = facts.label_fraction >= 0.95,
      .transform_automated_audited = facts.transform_audited,
      .features_extracted = true,
      .features_validated = true,
      .split_and_sharded = result.manifest.TotalRecords() > 0,
      .missing_fraction = result.quality.MissingFraction(),
      .label_fraction = facts.label_fraction,
  };
  result.readiness = core::Assess(result.state);
  return Status::Ok();
}

}  // namespace drai::domains
