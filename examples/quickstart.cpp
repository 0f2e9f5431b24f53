// Quickstart: the smallest complete drai program.
//
// Builds a five-stage readiness pipeline for a toy dataset, runs it, checks
// the dataset's Data Readiness Level against the paper's maturity matrix,
// trains a model from the resulting shards, and prints the data card.
//
//   ./quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/datasheet.hpp"
#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "core/readiness.hpp"
#include "ml/trainer.hpp"
#include "parallel/striped_store.hpp"
#include "shard/shard_reader.hpp"
#include "shard/shard_writer.hpp"
#include "stats/normalizer.hpp"

using namespace drai;

int main() {
  // A store standing in for the parallel filesystem.
  par::StripedStore store;

  // Shared pipeline state.
  auto normalizer =
      std::make_shared<stats::Normalizer>(stats::NormKind::kZScore, 3);
  auto manifest = std::make_shared<shard::DatasetManifest>();

  // The canonical five stages: ingest -> preprocess -> transform ->
  // structure -> shard. Stage order is enforced by the framework. Stages
  // default to ExecutionHint::kSerial; data-parallel stages would pass a
  // hint + ParallelSpec (see the climate example) and options.threads
  // picks the worker count. Every archetype config exposes the same
  // threads, backend, faults, overlap and checkpoint fields.
  core::ExecutionOptions options;
  options.threads = 1;  // this toy dataset is too small to parallelize
  core::Pipeline pipeline("quickstart", options);

  pipeline.Add("make-raw", core::StageKind::kIngest,
               [](core::DataBundle& bundle, core::StageContext& ctx) {
                 // "Acquire" 500 noisy samples of y = x0 + 2*x1 - x2.
                 Rng rng = ctx.rng();
                 NDArray x = NDArray::Zeros({500, 3}, DType::kF64);
                 NDArray y = NDArray::Zeros({500}, DType::kF64);
                 for (size_t i = 0; i < 500; ++i) {
                   const double a = rng.Uniform(-1, 1);
                   const double b = rng.Uniform(-1, 1);
                   const double c = rng.Uniform(-1, 1);
                   x.SetFromDouble(i * 3 + 0, 10 * a + 5);  // unscaled units
                   x.SetFromDouble(i * 3 + 1, 100 * b);     // wildly different
                   x.SetFromDouble(i * 3 + 2, 0.01 * c);    // scales
                   y.SetFromDouble(i, a + 2 * b - c + rng.Normal(0, 0.01));
                 }
                 bundle.tensors["x"] = std::move(x);
                 bundle.tensors["y"] = std::move(y);
                 return Status::Ok();
               });

  pipeline.Add("validate", core::StageKind::kPreprocess,
               [](core::DataBundle& bundle, core::StageContext&) {
                 // Nothing to align for tabular data — validate shapes.
                 if (bundle.tensors.at("x").shape()[0] !=
                     bundle.tensors.at("y").shape()[0]) {
                   return InvalidArgument("row count mismatch");
                 }
                 return Status::Ok();
               });

  pipeline.Add("normalize", core::StageKind::kTransform,
               [&](core::DataBundle& bundle, core::StageContext&) {
                 NDArray& x = bundle.tensors.at("x");
                 normalizer->ObserveMatrix(x);
                 normalizer->Fit();
                 normalizer->ApplyMatrix(x);
                 return Status::Ok();
               });

  pipeline.Add("to-examples", core::StageKind::kStructure,
               [](core::DataBundle& bundle, core::StageContext&) {
                 const NDArray& x = bundle.tensors.at("x");
                 const NDArray& y = bundle.tensors.at("y");
                 for (size_t i = 0; i < x.shape()[0]; ++i) {
                   shard::Example ex;
                   ex.key = "sample-" + std::to_string(i);
                   NDArray row = NDArray::Zeros({3}, DType::kF32);
                   for (size_t j = 0; j < 3; ++j) {
                     row.SetFromDouble(j, x.GetAsDouble(i * 3 + j));
                   }
                   ex.features["x"] = std::move(row);
                   ex.features["y"] = NDArray::FromVector<float>(
                       {1}, {static_cast<float>(y.GetAsDouble(i))});
                   bundle.examples.push_back(std::move(ex));
                 }
                 return Status::Ok();
               });

  pipeline.Add("shard", core::StageKind::kShard,
               [&](core::DataBundle& bundle, core::StageContext&) {
                 shard::ShardWriterConfig config;
                 config.dataset_name = "quickstart";
                 config.directory = "/datasets/quickstart";
                 shard::ShardWriter writer(store, config);
                 ByteWriter nb;
                 normalizer->Serialize(nb);
                 writer.SetNormalizerBlob(nb.Take());
                 for (const auto& ex : bundle.examples) {
                   DRAI_ASSIGN_OR_RETURN(shard::Split s, writer.Add(ex));
                   (void)s;
                 }
                 DRAI_ASSIGN_OR_RETURN(*manifest, writer.Finalize());
                 return Status::Ok();
               });

  // Run it.
  core::DataBundle bundle;
  const core::PipelineReport report = pipeline.Run(bundle);
  if (!report.ok) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report.error.ToString().c_str());
    return 1;
  }
  std::printf("pipeline ok: %zu stages, %s total (%s)\n",
              report.stages.size(), HumanDuration(report.total_seconds).c_str(),
              report.TimeBreakdown().c_str());

  // Assess readiness against the maturity matrix.
  core::DatasetState state;
  state.acquired = state.validated_standard_format = true;
  state.initial_alignment = state.grids_standardized = true;
  state.metadata_enriched = state.basic_normalization = true;
  state.basic_labels = state.comprehensive_labels = true;
  state.label_fraction = 1.0;
  state.high_throughput_ingest = state.alignment_fully_standardized = true;
  state.normalization_finalized = state.features_extracted = true;
  state.ingest_automated = state.alignment_automated = true;
  state.transform_automated_audited = state.features_validated = true;
  state.split_and_sharded = manifest->TotalRecords() > 0;
  const core::ReadinessAssessment readiness = core::Assess(state);
  std::printf("readiness: %s\n",
              std::string(core::ReadinessLevelName(readiness.overall)).c_str());

  // Prove "ready-to-train": fit a regressor from the shards alone.
  const auto reader =
      shard::ShardReader::Open(store, "/datasets/quickstart").value();
  ml::LinearRegressor model;
  ml::TrainFromShardsOptions train_options;
  train_options.epochs = 20;
  train_options.sgd.learning_rate = 0.1;
  const auto train_report =
      ml::TrainRegressorFromShards(reader, train_options, model).value();
  std::printf("trained from shards: val MSE %.5f, val R2 %.4f\n",
              train_report.val_mse, train_report.val_r2);

  // Emit the data card.
  const core::QualityReport quality = core::AssessQuality(bundle.examples);
  core::Datasheet sheet = core::MakeDatasheet(
      "quickstart", *manifest, quality, readiness,
      pipeline.provenance().RecordHash());
  sheet.motivation = "Smallest end-to-end drai example.";
  std::printf("\n%s\n", sheet.ToMarkdown().c_str());
  return train_report.val_r2 > 0.95 ? 0 : 1;
}
