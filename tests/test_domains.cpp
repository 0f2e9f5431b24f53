// Integration tests: every Table-1 archetype pipeline runs end to end on
// its synthetic workload, reaches full AI-readiness (level 5), produces a
// readable sharded dataset, and — the operational definition of level 5 —
// trains a model.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/checkpoint.hpp"
#include "domains/bio.hpp"
#include "domains/climate.hpp"
#include "domains/fusion.hpp"
#include "domains/materials.hpp"
#include "graph/encode.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "privacy/tabular.hpp"
#include "shard/shard_reader.hpp"

namespace drai::domains {
namespace {

void ExpectLevel5(const ArchetypeResult& r, const char* domain) {
  EXPECT_EQ(r.readiness.overall, core::ReadinessLevel::kAiReady)
      << domain << " blocking: "
      << (r.readiness.blocking.empty() ? "none" : r.readiness.blocking[0]);
  EXPECT_TRUE(r.report.ok);
  EXPECT_GT(r.manifest.TotalRecords(), 0u);
  EXPECT_FALSE(r.provenance_hash.empty());
  EXPECT_EQ(r.report.stages.size(), 5u);  // the canonical five stages
}

// ---- climate ----------------------------------------------------------------

TEST(ClimateArchetype, EndToEndLevel5) {
  par::StripedStore store;
  ClimateArchetypeConfig config;
  config.workload.n_times = 4;
  config.workload.n_lat = 24;
  config.workload.n_lon = 48;
  config.workload.missing_prob = 0.01;
  config.target_lat = 16;
  config.target_lon = 32;
  config.patch = 8;
  const auto result = RunClimateArchetype(store, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectLevel5(*result, "climate");
  // 4 times x (16/8)*(32/8) patches = 32 examples.
  EXPECT_EQ(result->manifest.TotalRecords(), 4u * 2 * 4);
  // Normalizer persisted in the manifest.
  EXPECT_FALSE(result->manifest.normalizer_blob.empty());

  // Every example decodes; features are normalized (z-score-ish range).
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  ASSERT_TRUE(reader.ok());
  const auto examples = reader->ReadAll(shard::Split::kTrain);
  ASSERT_TRUE(examples.ok());
  ASSERT_FALSE(examples->empty());
  for (const auto& ex : *examples) {
    const NDArray* x = ex.Find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->shape(),
              (Shape{config.workload.variables.size(), 8, 8}));
    for (size_t i = 0; i < x->numel(); ++i) {
      EXPECT_LT(std::fabs(x->GetAsDouble(i)), 10.0);  // normalized
      EXPECT_FALSE(std::isnan(x->GetAsDouble(i)));    // missing data filled
    }
  }
}

TEST(ClimateArchetype, ConservativeRegridAlsoWorks) {
  par::StripedStore store;
  ClimateArchetypeConfig config;
  config.workload.n_times = 2;
  config.workload.n_lat = 16;
  config.workload.n_lon = 32;
  config.regrid = grid::RegridMethod::kConservative;
  config.target_lat = 8;
  config.target_lon = 16;
  config.patch = 4;
  const auto result = RunClimateArchetype(store, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectLevel5(*result, "climate-conservative");
}

TEST(ClimateArchetype, TrainsFromShards) {
  par::StripedStore store;
  ClimateArchetypeConfig config;
  config.workload.n_times = 8;
  config.workload.n_lat = 24;
  config.workload.n_lon = 48;
  config.target_lat = 16;
  config.target_lon = 32;
  config.patch = 4;
  RunClimateArchetype(store, config).value();
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  ASSERT_TRUE(reader.ok());
  ml::LinearRegressor model;
  ml::TrainFromShardsOptions options;
  options.epochs = 10;
  options.sgd.learning_rate = 0.05;
  const auto report = ml::TrainRegressorFromShards(*reader, options, model);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Target is the patch mean of the features: linearly learnable.
  EXPECT_GT(report->val_r2, 0.9);
}

// ---- fusion -----------------------------------------------------------------

TEST(FusionArchetype, EndToEndLevel5WithPseudoLabels) {
  par::StripedStore store;
  FusionArchetypeConfig config;
  config.workload.n_shots = 24;
  config.workload.unlabeled_fraction = 0.2;
  const auto result = RunFusionArchetype(store, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectLevel5(*result, "fusion");
  // Pseudo-labeling pushed labeled fraction to ~1.
  EXPECT_GE(result->state.label_fraction, 0.95);
}

TEST(FusionArchetype, ShotsNeverStraddleSplits) {
  par::StripedStore store;
  FusionArchetypeConfig config;
  config.workload.n_shots = 30;
  const auto result = RunFusionArchetype(store, config);
  ASSERT_TRUE(result.ok());
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  ASSERT_TRUE(reader.ok());
  std::map<std::string, std::set<shard::Split>> shot_splits;
  for (shard::Split s : shard::kAllSplits) {
    const auto examples = reader->ReadAll(s);
    ASSERT_TRUE(examples.ok());
    for (const auto& ex : *examples) {
      shot_splits[ex.key.substr(0, ex.key.find('#'))].insert(s);
    }
  }
  for (const auto& [shot, splits] : shot_splits) {
    EXPECT_EQ(splits.size(), 1u) << "shot " << shot << " leaked across splits";
  }
}

TEST(FusionArchetype, DisruptionClassifierLearnsFromShards) {
  par::StripedStore store;
  FusionArchetypeConfig config;
  config.workload.n_shots = 40;
  config.workload.disruption_prob = 0.5;
  config.workload.seed = 2024;
  const auto result = RunFusionArchetype(store, config);
  ASSERT_TRUE(result.ok());
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  ASSERT_TRUE(reader.ok());
  const auto train = reader->ReadAll(shard::Split::kTrain);
  ASSERT_TRUE(train.ok());
  ASSERT_GT(train->size(), 50u);

  const size_t nf = train->front().Find("x")->numel();
  NDArray x = NDArray::Zeros({train->size(), nf}, DType::kF64);
  std::vector<int64_t> y(train->size());
  for (size_t i = 0; i < train->size(); ++i) {
    const NDArray* features = (*train)[i].Find("x");
    for (size_t j = 0; j < nf; ++j) {
      x.SetFromDouble(i * nf + j, features->GetAsDouble(j));
    }
    y[i] = (*train)[i].Label().value();
  }
  ml::SoftmaxClassifier clf(2);
  ml::SgdOptions options;
  options.learning_rate = 0.3;
  options.epochs = 40;
  clf.Fit(x, y, options).value();
  // Windows carry the precursor signature: clearly better than chance.
  EXPECT_GT(clf.Evaluate(x, y).value(), 0.7);
}

// ---- bio -------------------------------------------------------------------

TEST(BioArchetype, EndToEndLevel5WithPrivacy) {
  par::StripedStore store;
  BioArchetypeConfig config;
  config.workload.n_subjects = 120;
  config.workload.unlabeled_fraction = 0.0;
  config.k_anonymity = 4;
  const auto result = RunBioArchetype(store, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectLevel5(*result, "bio");
  // Audit log verifies and recorded the privacy battery.
  EXPECT_TRUE(result->audit.Verify().ok());
  EXPECT_GE(result->audit.size(), 5u);
  EXPECT_GE(result->k_report.k_achieved, config.k_anonymity);
}

TEST(BioArchetype, NoPhiReachesShards) {
  par::StripedStore store;
  BioArchetypeConfig config;
  config.workload.n_subjects = 80;
  const auto result = RunBioArchetype(store, config);
  ASSERT_TRUE(result.ok());
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  ASSERT_TRUE(reader.ok());
  for (shard::Split s : shard::kAllSplits) {
    const auto examples = reader->ReadAll(s);
    ASSERT_TRUE(examples.ok());
    for (const auto& ex : *examples) {
      // Keys are pseudonymized tokens, not subject ids or names.
      EXPECT_EQ(ex.key.rfind("anon-", 0), 0u) << ex.key;
      EXPECT_EQ(ex.key.find("SUBJ"), std::string::npos);
    }
  }
}

TEST(BioArchetype, MotifLabelLearnableAfterPrivacy) {
  // De-identification must not destroy the learnable signal (GC content /
  // composition features correlate with the planted motif's bases).
  par::StripedStore store;
  BioArchetypeConfig config;
  config.workload.n_subjects = 200;
  config.workload.seed = 99;
  const auto result = RunBioArchetype(store, config);
  ASSERT_TRUE(result.ok());
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  const auto train = reader->ReadAll(shard::Split::kTrain);
  ASSERT_TRUE(train.ok());
  size_t labeled = 0;
  for (const auto& ex : *train) {
    if (ex.Label().value() >= 0) ++labeled;
  }
  EXPECT_GT(labeled, train->size() / 2);
}

// ---- materials -----------------------------------------------------------------

TEST(MaterialsArchetype, EndToEndLevel5WithRebalancing) {
  par::StripedStore store;
  MaterialsArchetypeConfig config;
  config.workload.n_structures = 60;
  const auto result = RunMaterialsArchetype(store, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectLevel5(*result, "materials");
  // Rebalancing flattened the class skew.
  EXPECT_GT(result->imbalance_before, 2.0);
  EXPECT_LT(result->imbalance_after, 1.01);
}

TEST(MaterialsArchetype, GraphsDecodeFromShards) {
  par::StripedStore store;
  MaterialsArchetypeConfig config;
  config.workload.n_structures = 30;
  config.rebalance = false;
  const auto result = RunMaterialsArchetype(store, config);
  ASSERT_TRUE(result.ok());
  const auto reader = shard::ShardReader::Open(store, config.dataset_dir);
  ASSERT_TRUE(reader.ok());
  size_t graphs = 0;
  for (shard::Split s : shard::kAllSplits) {
    const auto examples = reader->ReadAll(s);
    ASSERT_TRUE(examples.ok());
    for (const auto& ex : *examples) {
      const auto g = graph::FromExample(ex);
      ASSERT_TRUE(g.ok());
      EXPECT_GT(g->NumNodes(), 0u);
      EXPECT_EQ(g->edge_index.shape()[0], 2u);
      ++graphs;
    }
  }
  EXPECT_EQ(graphs, 30u);
}

TEST(MaterialsArchetype, UndersampleStrategy) {
  par::StripedStore store;
  MaterialsArchetypeConfig config;
  config.workload.n_structures = 60;
  config.strategy = graph::RebalanceStrategy::kUndersample;
  const auto result = RunMaterialsArchetype(store, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->manifest.TotalRecords(), 60u);  // shrank
  EXPECT_LT(result->imbalance_after, 1.01);
}

// ---- cross-domain: Table 1's shape ------------------------------------------

TEST(AllArchetypes, ShareTheCanonicalStageSequence) {
  par::StripedStore store;
  ClimateArchetypeConfig cc;
  cc.workload.n_times = 2;
  cc.workload.n_lat = 16;
  cc.workload.n_lon = 32;
  cc.target_lat = 8;
  cc.target_lon = 16;
  cc.patch = 4;
  FusionArchetypeConfig fc;
  fc.workload.n_shots = 6;
  BioArchetypeConfig bc;
  bc.workload.n_subjects = 60;
  MaterialsArchetypeConfig mc;
  mc.workload.n_structures = 20;

  std::vector<core::PipelineReport> reports;
  reports.push_back(RunClimateArchetype(store, cc)->report);
  reports.push_back(RunFusionArchetype(store, fc)->report);
  reports.push_back(RunBioArchetype(store, bc)->report);
  reports.push_back(RunMaterialsArchetype(store, mc)->report);
  for (const auto& report : reports) {
    ASSERT_EQ(report.stages.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(report.stages[i].kind, core::kAllStageKinds[i]);
    }
  }
}

// Every archetype checkpoints through the inherited ExecutionOptions field,
// and its last checkpoint reloads with the whole plan done.
TEST(AllArchetypes, CheckpointAfterEveryStageGroup) {
  par::StripedStore store;
  par::StripedStore checkpoint_store;
  core::StoreCheckpointSink sink(checkpoint_store, "/checkpoints");
  ClimateArchetypeConfig cc;
  cc.workload.n_times = 2;
  cc.workload.n_lat = 16;
  cc.workload.n_lon = 32;
  cc.target_lat = 8;
  cc.target_lon = 16;
  cc.patch = 4;
  cc.checkpoint = &sink;
  FusionArchetypeConfig fc;
  fc.workload.n_shots = 4;
  fc.checkpoint = &sink;
  BioArchetypeConfig bc;
  bc.workload.n_subjects = 24;
  bc.checkpoint = &sink;
  MaterialsArchetypeConfig mc;
  mc.workload.n_structures = 12;
  mc.checkpoint = &sink;

  const std::pair<std::string, core::PipelineReport> runs[] = {
      {"climate-archetype", RunClimateArchetype(store, cc).value().report},
      {"fusion-archetype", RunFusionArchetype(store, fc).value().report},
      {"bio-archetype", RunBioArchetype(store, bc).value().report},
      {"materials-archetype", RunMaterialsArchetype(store, mc).value().report},
  };
  for (const auto& [pipeline, report] : runs) {
    EXPECT_GT(report.checkpoint_saves, 0u) << pipeline;
    const auto loaded = sink.LoadLatest(pipeline);
    ASSERT_TRUE(loaded.ok()) << pipeline << ": " << loaded.status().ToString();
    ASSERT_TRUE(loaded->has_value()) << pipeline;
    EXPECT_EQ((*loaded)->stages_done, 5u) << pipeline;
    EXPECT_FALSE((*loaded)->bundle.examples.empty()) << pipeline;
  }
}

// ---- readiness characterization ---------------------------------------------
// Every DatasetState field, then the assessment: overall level, the level of
// each stage, and every blocking cell. Pins the readiness each archetype
// reports, not only its overall level.

std::string Characterize(const ArchetypeResult& r) {
  const core::DatasetState& s = r.state;
  std::string out;
  for (const bool flag :
       {s.acquired, s.validated_standard_format, s.metadata_enriched,
        s.high_throughput_ingest, s.ingest_automated, s.initial_alignment,
        s.grids_standardized, s.alignment_fully_standardized,
        s.alignment_automated, s.basic_normalization, s.anonymization_done,
        s.basic_labels, s.normalization_finalized, s.comprehensive_labels,
        s.transform_automated_audited, s.features_extracted,
        s.features_validated, s.split_and_sharded}) {
    out += flag ? '1' : '0';
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), " missing=%.17g labels=%.17g overall=%d",
                s.missing_fraction, s.label_fraction,
                static_cast<int>(r.readiness.overall));
  out += buf;
  out += " per_stage=";
  for (const core::ReadinessLevel level : r.readiness.per_stage) {
    out += std::to_string(static_cast<int>(level));
  }
  for (const std::string& cell : r.readiness.blocking) out += " | " + cell;
  return out;
}

TEST(AllArchetypes, ReadinessCharacterization) {
  par::StripedStore store;
  ClimateArchetypeConfig cc;
  cc.workload.n_times = 2;
  cc.workload.n_lat = 16;
  cc.workload.n_lon = 32;
  cc.workload.missing_prob = 0.005;
  cc.target_lat = 8;
  cc.target_lon = 16;
  cc.patch = 4;
  FusionArchetypeConfig fc;
  fc.workload.n_shots = 4;
  fc.workload.unlabeled_fraction = 0.2;
  // A fifth of fc's shots arrive unlabeled, which leaves level 4's labeling
  // cell open; with every shot labeled the same run reaches level 5.
  FusionArchetypeConfig labeled = fc;
  labeled.workload.unlabeled_fraction = 0.0;
  labeled.dataset_dir = "/datasets/fusion-labeled";
  BioArchetypeConfig bc;
  bc.workload.n_subjects = 24;
  MaterialsArchetypeConfig mc;
  mc.workload.n_structures = 12;

  EXPECT_EQ(Characterize(RunClimateArchetype(store, cc).value()),
            "111111111111111111 missing=0 labels=1 overall=5 per_stage=55555");
  EXPECT_EQ(Characterize(RunFusionArchetype(store, fc).value()),
            "111111111111101111 missing=0 labels=0.75 overall=3 per_stage=55355"
            " | 4-feature-engineered/transform: normalization or anonymization"
            " finalized; comprehensive labeling");
  EXPECT_EQ(Characterize(RunFusionArchetype(store, labeled).value()),
            "111111111111111111 missing=0 labels=1 overall=5 per_stage=55555");
  EXPECT_EQ(Characterize(RunBioArchetype(store, bc).value()),
            "111111111111111111 missing=0 labels=0.95833333333333337"
            " overall=5 per_stage=55555");
  EXPECT_EQ(Characterize(RunMaterialsArchetype(store, mc).value()),
            "111111111111111111 missing=0 labels=1 overall=5 per_stage=55555");
}

}  // namespace
}  // namespace drai::domains
