#include "domains/fusion.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "augment/augment.hpp"
#include "common/strings.hpp"
#include "ml/models.hpp"
#include "shard/shard_writer.hpp"
#include "stats/normalizer.hpp"
#include "timeseries/lag.hpp"
#include "timeseries/signal.hpp"

namespace drai::domains {

using core::DataBundle;
using core::ExecutionHint;
using core::ParallelSpec;
using core::PartitionAxis;
using core::StageContext;
using core::StageKind;

namespace {

/// Per-shot intermediate the stages pass through bundle.tensors under
/// "windows/<shot>" ([n_windows, channels, window]) plus label attrs.
struct ShotMeta {
  std::string id;
  int label;
};

}  // namespace

Result<ArchetypeResult> RunFusionArchetype(
    par::StripedStore& store, const FusionArchetypeConfig& config) {
  ArchetypeResult result;
  auto shots = std::make_shared<std::vector<workloads::FusionShot>>(
      workloads::GenerateFusionShots(config.workload));
  auto metas = std::make_shared<std::vector<ShotMeta>>();
  auto normalizer = std::make_shared<stats::Normalizer>(
      stats::NormKind::kZScore,
      config.workload.n_channels * timeseries::kFeaturesPerChannel);
  auto manifest = std::make_shared<shard::DatasetManifest>();
  auto labeled_fraction = std::make_shared<double>(0.0);
  // Shot id -> label snapshot taken after pseudo-labeling, for the
  // partition-parallel example emission.
  auto label_of = std::make_shared<std::map<std::string, int>>();

  core::Pipeline pipeline("fusion-archetype", config.execution());

  // One shot = one unit of parallel work: align partitions the signal sets,
  // the later stages partition the per-shot tensors they produce.
  ParallelSpec per_shot;
  per_shot.axis = PartitionAxis::kSignalSets;
  per_shot.grain = 1;
  ParallelSpec per_tensor;
  per_tensor.axis = PartitionAxis::kTensorGroups;
  per_tensor.grain = 1;

  // ingest: validate every channel of every shot (MDSplus-extract analog).
  pipeline.Add(
      "extract-shots", StageKind::kIngest,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        context.NoteParam("shots", std::to_string(shots->size()));
        for (const auto& shot : *shots) {
          for (const auto& ch : shot.channels) {
            DRAI_RETURN_IF_ERROR(ch.Validate());
          }
          bundle.signal_sets[shot.shot_id] = shot.channels;
          metas->push_back({shot.shot_id, shot.label});
        }
        bundle.SetAttr("facility", container::AttrValue::String("synthetic-tokamak"));
        return Status::Ok();
      });

  // preprocess: despike -> gap-fill -> align channels, one shot per
  // partition. Jitter augmentation draws from the partition's own RNG
  // stream, so the synthetic windows are stable across worker counts.
  pipeline.Add(
      "align", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        context.NoteParam("dt", FormatDouble(config.align_dt, 6));
        for (auto& [shot_id, channels] : bundle.signal_sets) {
          // Cancellation poll per shot — hung-attempt cancels take effect
          // at the next record, not at the end of the slice.
          if (context.Cancelled()) return context.CancelledStatus();
          size_t despiked = 0, filled = 0;
          for (auto& ch : channels) {
            despiked += timeseries::Despike(ch, config.despike_z);
            filled += timeseries::FillGaps(ch, config.max_gap);
          }
          context.NoteCount("despiked", despiked);
          context.NoteCount("gap_filled", filled);
          timeseries::AlignedFrame frame;
          if (config.lag_correct_max > 0) {
            DRAI_ASSIGN_OR_RETURN(
                timeseries::LagAlignedFrame corrected,
                timeseries::AlignChannelsWithLag(channels, config.align_dt,
                                                 config.lag_correct_max));
            frame = std::move(corrected.frame);
          } else {
            DRAI_ASSIGN_OR_RETURN(
                frame, timeseries::AlignChannels(channels, config.align_dt));
          }
          DRAI_ASSIGN_OR_RETURN(
              NDArray windows,
              timeseries::SlidingWindows(frame, config.window, config.stride));
          if (config.jitter_windows_per_shot > 0 && windows.shape()[0] > 0) {
            DRAI_ASSIGN_OR_RETURN(
                NDArray extra,
                augment::JitterWindows(windows,
                                       config.jitter_windows_per_shot,
                                       /*amplitude_scale=*/0.05,
                                       /*max_shift=*/config.window / 8,
                                       context.rng()));
            // Stack originals + synthetics along the window axis.
            Shape stacked_shape = windows.shape();
            stacked_shape[0] += extra.shape()[0];
            NDArray stacked = NDArray::Zeros(stacked_shape, windows.dtype());
            stacked.Slice(0, 0, windows.shape()[0]).CopyFrom(windows);
            stacked
                .Slice(0, windows.shape()[0], stacked_shape[0])
                .CopyFrom(extra);
            windows = std::move(stacked);
          }
          bundle.tensors["windows/" + shot_id] = std::move(windows);
        }
        if (config.lag_correct_max > 0) {
          context.NoteParam("lag_corrected", "true");
        }
        return Status::Ok();
      },
      per_shot);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // transform: window features per shot in parallel, each partition
  // observing into its own normalizer piece and emitting its serialized
  // streaming state; the serial AfterMerge hook reduces the pieces in
  // ascending partition order, fits, applies, then pseudo-labels from shot
  // means. The partials merge in the same order on every backend.
  pipeline.Add(
      "normalize-features", StageKind::kTransform,
      ExecutionHint::kRecordParallel,
      /*before=*/nullptr,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        stats::Normalizer local(stats::NormKind::kZScore,
                                normalizer->n_features());
        std::vector<std::pair<std::string, NDArray>> features_out;
        std::vector<std::string> consumed;
        for (const auto& [key, windows] : bundle.tensors) {
          if (key.rfind("windows/", 0) != 0) continue;
          DRAI_ASSIGN_OR_RETURN(
              NDArray features,
              timeseries::WindowFeatures(windows, config.align_dt));
          local.ObserveMatrix(features);
          features_out.emplace_back("features/" + key.substr(8),
                                    std::move(features));
          consumed.push_back(key);
        }
        for (const std::string& key : consumed) bundle.tensors.erase(key);
        for (auto& [key, tensor] : features_out) {
          bundle.tensors[key] = std::move(tensor);
        }
        ByteWriter pw;
        DRAI_RETURN_IF_ERROR(local.SerializeObservations(pw));
        context.EmitPartial("normalizer", pw.Take());
        return Status::Ok();
      },
      /*after=*/
      [&, normalizer](DataBundle& bundle, StageContext& context) -> Status {
        for (const Bytes& blob : context.Partials("normalizer")) {
          ByteReader reader(blob);
          DRAI_ASSIGN_OR_RETURN(
              stats::Normalizer partial,
              stats::Normalizer::DeserializeObservations(reader));
          normalizer->Merge(partial);
        }
        normalizer->Fit();
        for (const ShotMeta& meta : *metas) {
          NDArray& features = bundle.tensors.at("features/" + meta.id);
          normalizer->ApplyMatrix(features);
        }
        // Pseudo-label withheld shots from shot-mean features via kNN
        // self-training (Figure 1's semi-supervised branch).
        if (config.pseudo_label) {
          const size_t nf = normalizer->n_features();
          NDArray shot_features =
              NDArray::Zeros({metas->size(), nf}, DType::kF64);
          std::vector<int64_t> labels(metas->size());
          for (size_t s = 0; s < metas->size(); ++s) {
            const NDArray& f = bundle.tensors.at("features/" + (*metas)[s].id);
            const size_t rows = f.shape()[0];
            double* shot = shot_features.data<double>() + s * nf;
            const NDArray in = f.IsContiguous() ? f : f.AsContiguous();
            VisitDType(in.dtype(), [&](auto tag) {
              const auto src = in.span<decltype(tag)>();
              for (size_t j = 0; j < nf; ++j) {
                double mean = 0;
                for (size_t r = 0; r < rows; ++r) {
                  mean += ToDouble(src[r * nf + j]);
                }
                shot[j] = rows ? mean / static_cast<double>(rows) : 0.0;
              }
            });
            labels[s] = (*metas)[s].label;
          }
          augment::TrainFn train = [](const NDArray& x,
                                      std::span<const int64_t> y)
              -> augment::Classifier {
            auto knn = std::make_shared<ml::KnnClassifier>(3);
            knn->Fit(x, y).status().OrDie();
            return [knn](std::span<const double> row) {
              return knn->Predict(row);
            };
          };
          augment::PseudoLabelOptions plo;
          plo.confidence_threshold = 0.67;
          DRAI_ASSIGN_OR_RETURN(
              augment::PseudoLabelResult pl,
              augment::PseudoLabel(shot_features, labels, train, plo));
          size_t adopted = 0;
          for (size_t s = 0; s < metas->size(); ++s) {
            if ((*metas)[s].label < 0 && pl.labels[s] >= 0) {
              (*metas)[s].label = static_cast<int>(pl.labels[s]);
              ++adopted;
            }
          }
          context.NoteParam("pseudo_labeled", std::to_string(adopted));
        }
        size_t labeled = 0;
        for (const ShotMeta& m : *metas) {
          if (m.label >= 0) ++labeled;
        }
        *labeled_fraction = metas->empty()
                                ? 0.0
                                : static_cast<double>(labeled) /
                                      static_cast<double>(metas->size());
        return Status::Ok();
      },
      per_tensor);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // structure: one example per window, keyed by shot (split leak-safe).
  // Shot ids are zero-padded, so ascending-partition merge reproduces the
  // serial emission order exactly.
  pipeline.Add(
      "windows-to-examples", StageKind::kStructure,
      ExecutionHint::kRecordParallel,
      /*before=*/
      [metas, label_of](DataBundle&, StageContext&) -> Status {
        label_of->clear();
        for (const ShotMeta& meta : *metas) {
          (*label_of)[meta.id] = meta.label;
        }
        return Status::Ok();
      },
      [label_of](DataBundle& bundle, StageContext&) -> Status {
        for (const auto& [key, features] : bundle.tensors) {
          if (key.rfind("features/", 0) != 0) continue;
          const std::string shot_id = key.substr(9);
          const auto it = label_of->find(shot_id);
          if (it == label_of->end()) {
            return Internal("fusion: unexpected feature key " + key);
          }
          if (it->second < 0) continue;  // still unlabeled: excluded
          const size_t rows = features.shape()[0];
          const size_t nf = features.shape()[1];
          const NDArray in =
              features.IsContiguous() ? features : features.AsContiguous();
          VisitDType(in.dtype(), [&](auto tag) {
            const auto src = in.span<decltype(tag)>();
            for (size_t r = 0; r < rows; ++r) {
              shard::Example ex;
              ex.key = shot_id + "#w" + std::to_string(r);
              NDArray row = NDArray::Zeros({nf}, DType::kF32);
              float* dst = row.data<float>();
              for (size_t j = 0; j < nf; ++j) {
                dst[j] = FromDouble<float>(ToDouble(src[r * nf + j]));
              }
              ex.features["x"] = std::move(row);
              ex.SetLabel(it->second);
              bundle.examples.push_back(std::move(ex));
            }
          });
        }
        return Status::Ok();
      },
      /*after=*/nullptr, per_tensor);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // shard: split by *shot* (key prefix before '#') so windows of one shot
  // never straddle train/val/test.
  pipeline.Add(
      "shard", StageKind::kShard,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        shard::ShardWriterConfig wc;
        wc.dataset_name = "fusion-windows";
        wc.created_by = "drai/fusion-archetype";
        wc.directory = config.dataset_dir;
        wc.split_seed = config.split_seed;
        shard::ShardWriter writer(store, wc);
        ByteWriter nb;
        normalizer->Serialize(nb);
        writer.SetNormalizerBlob(nb.Take());
        writer.SetProvenanceHash(context.provenance() != nullptr
                                     ? context.provenance()->RecordHash()
                                     : "");
        const shard::SplitAssigner by_shot(0.8, 0.1, 0.1, config.split_seed);
        for (const shard::Example& ex : bundle.examples) {
          const std::string shot_key = ex.key.substr(0, ex.key.find('#'));
          DRAI_RETURN_IF_ERROR(writer.AddTo(by_shot.Assign(shot_key), ex));
        }
        DRAI_ASSIGN_OR_RETURN(*manifest, writer.Finalize());
        context.NoteParam("records", std::to_string(manifest->TotalRecords()));
        return Status::Ok();
      });

  DataBundle bundle;
  DRAI_RETURN_IF_ERROR(RunArchetype(pipeline, bundle, *manifest, result, [&] {
    return ArchetypeEvidence{.label_fraction = *labeled_fraction};
  }));
  return result;
}

}  // namespace drai::domains
