#include "domains/climate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "container/grib_lite.hpp"
#include "container/netcdf_lite.hpp"
#include "container/sniff.hpp"
#include "ndarray/kernels.hpp"
#include "shard/shard_writer.hpp"
#include "stats/normalizer.hpp"

namespace drai::domains {

using core::DataBundle;
using core::ExecutionHint;
using core::ParallelSpec;
using core::PartitionAxis;
using core::StageContext;
using core::StageKind;

namespace {

/// Per-time-step tensor keys: "raw@t00003/t2m". Zero-padded so sorted map
/// order is time order, and '/' so kTensorGroups' prefix grouping keeps
/// all variables of one time step in one partition.
std::string TimeKey(const char* prefix, size_t t, const std::string& var) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s@t%05zu/", prefix, t);
  return buf + var;
}

/// "raw@t00003" -> 3.
size_t TimeOfGroup(const std::string& group) {
  const size_t at = group.find("@t");
  return at == std::string::npos
             ? 0
             : static_cast<size_t>(std::strtoull(group.c_str() + at + 2,
                                                 nullptr, 10));
}

}  // namespace

Result<ArchetypeResult> RunClimateArchetype(
    par::StripedStore& store, const ClimateArchetypeConfig& config) {
  ArchetypeResult result;
  const grid::LatLonGrid src_grid = workloads::ClimateSourceGrid(config.workload);
  const grid::LatLonGrid dst_grid =
      grid::LatLonGrid::Uniform(config.target_lat, config.target_lon);
  const auto& variables = config.workload.variables;
  std::map<std::string, size_t> var_index;
  for (size_t v = 0; v < variables.size(); ++v) var_index[variables[v]] = v;

  // Shared state the stages hand forward outside the bundle's generic maps.
  auto normalizer = std::make_shared<stats::Normalizer>(
      stats::NormKind::kZScore, variables.size());
  auto manifest = std::make_shared<shard::DatasetManifest>();

  core::Pipeline pipeline("climate-archetype", config.execution());

  // One partition per time step for every parallel stage: the partition
  // count is data-dependent only, so output bytes and provenance hashes
  // are identical for any thread count.
  ParallelSpec per_time;
  per_time.axis = PartitionAxis::kTensorGroups;
  per_time.group_by_prefix = true;
  per_time.grain = 1;

  // `normalize` may run at a coarser grain (N time steps per partition).
  // With the default grain 1 it fuses with `patch` exactly as before; with
  // N > 1 the two stages form separate groups whose boundary can stream
  // (grain N re-splits into whole grain-1 partitions).
  ParallelSpec per_time_coarse = per_time;
  per_time_coarse.grain = std::max<size_t>(1, config.normalize_grain);

  // ingest: sniff the container format, decode either GRIB messages or a
  // NetCDF-lite file into per-(time, variable) fields.
  pipeline.Add("decode-source", StageKind::kIngest,
               [&](DataBundle& bundle, StageContext& context) -> Status {
                 DRAI_ASSIGN_OR_RETURN(Bytes blob, bundle.Blob("source"));
                 const container::FileFormat format =
                     container::SniffFormat(blob);
                 context.NoteParam("format",
                                   std::string(container::FileFormatName(format)));
                 if (format == container::FileFormat::kGribLite) {
                   DRAI_ASSIGN_OR_RETURN(auto messages,
                                         container::DecodeGribFile(blob));
                   context.NoteParam("messages",
                                     std::to_string(messages.size()));
                   // Messages arrive per variable in time order; track a
                   // per-variable clock to place each field.
                   std::map<std::string, size_t> t_of;
                   for (auto& msg : messages) {
                     const size_t t = t_of[msg.variable]++;
                     bundle.tensors[TimeKey("raw", t, msg.variable)] =
                         std::move(msg.field);
                   }
                   for (const std::string& var : variables) {
                     if (t_of.find(var) == t_of.end()) {
                       return DataLoss("climate: variable missing from GRIB: " +
                                       var);
                     }
                   }
                 } else if (format == container::FileFormat::kSdf) {
                   // NetCDF-lite lowers to SDF bytes; parse the variable
                   // stacks straight out of the self-describing container.
                   DRAI_ASSIGN_OR_RETURN(container::NcFile nc,
                                         container::NcFile::Parse(blob));
                   for (const std::string& var : variables) {
                     const container::NcVariable* v = nc.FindVariable(var);
                     if (v == nullptr) {
                       return DataLoss(
                           "climate: variable missing from NetCDF: " + var);
                     }
                     const NDArray stack = v->data.AsContiguous();
                     const size_t n_times = stack.shape()[0];
                     for (size_t t = 0; t < n_times; ++t) {
                       bundle.tensors[TimeKey("raw", t, var)] =
                           stack.Slice(0, t, t + 1).Reshape(
                               {src_grid.n_lat(), src_grid.n_lon()});
                     }
                   }
                 } else {
                   return DataLoss("climate: unrecognized source format");
                 }
                 // Metadata enrichment (L3 ingest cell).
                 bundle.SetAttr("source_grid",
                                container::AttrValue::String("gaussian-like"));
                 bundle.SetAttr("n_times",
                                container::AttrValue::Int(static_cast<int64_t>(
                                    config.workload.n_times)));
                 return Status::Ok();
               });

  // preprocess: regrid every (time, variable) field onto the target grid —
  // record-parallel over time steps. Each partition observes the regridded
  // values into a local normalizer partial and emits its serialized
  // streaming state; the AfterMerge hook reduces the partials in ascending
  // partition order and fits (the §3.5 "global statistics need a
  // reduction, not a serial stage" pattern). The executor merges the
  // partials in that fixed order on every backend, so the fit is identical
  // for any backend and worker count.
  pipeline.Add(
      "regrid", StageKind::kPreprocess, ExecutionHint::kRecordParallel,
      /*before=*/nullptr,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        std::vector<std::pair<std::string, NDArray>> regridded_out;
        std::vector<size_t> var_of;  // regridded_out[i] is a field of var_of[i]
        std::vector<std::string> consumed;
        for (const auto& [key, field] : bundle.tensors) {
          if (key.rfind("raw@", 0) != 0) continue;
          // Record-granularity cancellation poll: a hard-deadline cancel
          // (or a committed speculative twin) stops this partition at the
          // next field instead of finishing the whole slice.
          if (context.Cancelled()) return context.CancelledStatus();
          const size_t slash = key.rfind('/');
          const std::string var = key.substr(slash + 1);
          const auto vit = var_index.find(var);
          if (vit == var_index.end()) {
            return Internal("climate: unexpected variable key " + key);
          }
          DRAI_ASSIGN_OR_RETURN(
              NDArray regridded,
              grid::Regrid(field, src_grid, dst_grid, config.regrid));
          // "raw@t00003/t2m" -> "grid@t00003/t2m"
          regridded_out.emplace_back("grid@" + key.substr(4),
                                     std::move(regridded));
          var_of.push_back(vit->second);
          consumed.push_back(key);
        }
        // One observe call for the whole partition: the variables' Welford
        // chains run side by side, each over its fields in time order.
        std::vector<stats::Normalizer::FeatureArray> observed;
        observed.reserve(regridded_out.size());
        for (size_t i = 0; i < regridded_out.size(); ++i) {
          observed.push_back({var_of[i], &regridded_out[i].second});
        }
        stats::Normalizer local(stats::NormKind::kZScore, variables.size());
        local.ObserveBatch(observed);
        for (const std::string& key : consumed) bundle.tensors.erase(key);
        for (auto& [key, tensor] : regridded_out) {
          bundle.tensors[key] = std::move(tensor);
        }
        context.NoteParam("method", std::string(grid::RegridMethodName(
                                        config.regrid)));
        ByteWriter pw;
        DRAI_RETURN_IF_ERROR(local.SerializeObservations(pw));
        context.EmitPartial("normalizer", pw.Take());
        return Status::Ok();
      },
      /*after=*/
      [normalizer](DataBundle&, StageContext& context) -> Status {
        for (const Bytes& blob : context.Partials("normalizer")) {
          ByteReader reader(blob);
          DRAI_ASSIGN_OR_RETURN(
              stats::Normalizer partial,
              stats::Normalizer::DeserializeObservations(reader));
          normalizer->Merge(partial);
        }
        normalizer->Fit();
        return Status::Ok();
      },
      per_time);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // transform: fill missing cells with the variable mean, then z-score.
  // Pure per-field map — partition-parallel, and fusable with `patch`.
  pipeline.Add(
      "normalize", StageKind::kTransform, ExecutionHint::kPartitionParallel,
      [&, normalizer](DataBundle& bundle, StageContext& context) -> Status {
        std::vector<std::pair<std::string, NDArray>> renamed;
        std::vector<std::string> consumed;
        for (const auto& [key, tensor] : bundle.tensors) {
          if (key.rfind("grid@", 0) != 0) continue;
          const size_t slash = key.rfind('/');
          if (config.skew.active()) {
            // Benchmark straggler generator: hot time steps cost more. The
            // schedule keys off the time step, never the partition, so it
            // is identical at any grain or worker count.
            workloads::BurnCpu(workloads::SkewIters(
                config.skew, TimeOfGroup(key.substr(0, slash))));
          }
          const std::string var = key.substr(slash + 1);
          const auto vit = var_index.find(var);
          if (vit == var_index.end()) {
            return Internal("climate: unexpected variable key " + key);
          }
          const size_t v = vit->second;
          NDArray field = tensor;
          const double center = normalizer->Center(v);
          const double scale = normalizer->Scale(v);
          TransformInPlace(field, [center, scale](double x) {
            // Mean-fill missing cells, then z-score: Apply's kZScore
            // expression with the field's statistics read once.
            return ((std::isnan(x) ? center : x) - center) / scale;
          });
          renamed.emplace_back("norm@" + key.substr(5), std::move(field));
          consumed.push_back(key);
        }
        for (const std::string& key : consumed) bundle.tensors.erase(key);
        for (auto& [key, tensor] : renamed) {
          bundle.tensors[key] = std::move(tensor);
        }
        context.NoteParam("kind", "zscore");
        return Status::Ok();
      },
      per_time_coarse);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // structure: cut [vars, patch, patch] patches per time step. Same axis as
  // `normalize`, no hooks — at the default normalize_grain the executor
  // fuses the two stages into one split/merge round; at a coarser grain
  // the kStream boundary below lets them overlap instead.
  pipeline.Add(
      "patch", StageKind::kStructure, ExecutionHint::kPartitionParallel,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        context.NoteParam("patch", std::to_string(config.patch));
        // Group this partition's normalized fields by time step.
        std::map<size_t, std::map<std::string, const NDArray*>> by_time;
        for (const auto& [key, tensor] : bundle.tensors) {
          if (key.rfind("norm@", 0) != 0) continue;
          const size_t slash = key.rfind('/');
          by_time[TimeOfGroup(key.substr(0, slash))][key.substr(slash + 1)] =
              &tensor;
        }
        for (const auto& [t, fields] : by_time) {
          // Assemble [vars, lat, lon], then patch.
          NDArray frame = NDArray::Zeros(
              {variables.size(), dst_grid.n_lat(), dst_grid.n_lon()},
              DType::kF64);
          for (size_t v = 0; v < variables.size(); ++v) {
            const auto fit = fields.find(variables[v]);
            if (fit == fields.end()) {
              return Internal("climate: missing normalized field for " +
                              variables[v]);
            }
            NDArray slot = frame.Slice(0, v, v + 1).Reshape(
                {dst_grid.n_lat(), dst_grid.n_lon()});
            slot.CopyFrom(*fit->second);
          }
          DRAI_ASSIGN_OR_RETURN(
              NDArray patches,
              grid::ExtractPatches(frame, config.patch, config.patch));
          const size_t n_patches = patches.shape()[0];
          // Patch-mean regression targets (self-supervised), all at once.
          const std::vector<double> means = SliceMeans(patches);
          for (size_t p = 0; p < n_patches; ++p) {
            shard::Example ex;
            ex.key = "t" + std::to_string(t) + "-p" + std::to_string(p);
            NDArray sample =
                patches.Slice(0, p, p + 1)
                    .Reshape({variables.size(), config.patch, config.patch})
                    .Cast(DType::kF32);
            ex.features["x"] = std::move(sample);
            ex.features["y"] = NDArray::FromVector<float>(
                {1}, {static_cast<float>(means[p])});
            bundle.examples.push_back(std::move(ex));
          }
        }
        return Status::Ok();
      },
      per_time);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);
  // Stream normalized partitions straight into patching when the stages
  // are separate groups (normalize_grain > 1); dormant while they fuse.
  pipeline.WithOverlap(core::OverlapPolicy::kStream);

  // shard: write RecIO shards + manifest with the normalizer embedded.
  pipeline.Add("shard", StageKind::kShard,
               [&](DataBundle& bundle, StageContext& context) -> Status {
                 shard::ShardWriterConfig wc;
                 wc.dataset_name = "climate-patches";
                 wc.created_by = "drai/climate-archetype";
                 wc.directory = config.dataset_dir;
                 wc.split_seed = config.split_seed;
                 wc.tensor_codec = codec::Codec::kNone;
                 shard::ShardWriter writer(store, wc);
                 ByteWriter nb;
                 normalizer->Serialize(nb);
                 writer.SetNormalizerBlob(nb.Take());
                 writer.SetProvenanceHash(
                     context.provenance() != nullptr
                         ? context.provenance()->RecordHash()
                         : "");
                 for (const shard::Example& ex : bundle.examples) {
                   DRAI_ASSIGN_OR_RETURN(shard::Split split, writer.Add(ex));
                   (void)split;
                 }
                 DRAI_ASSIGN_OR_RETURN(*manifest, writer.Finalize());
                 context.NoteParam("records",
                                   std::to_string(manifest->TotalRecords()));
                 return Status::Ok();
               });

  DataBundle bundle;
  bundle.blobs["source"] =
      config.source_format == ClimateSourceFormat::kNetcdf
          ? workloads::GenerateClimateNetcdf(config.workload)
          : workloads::GenerateClimateGrib(config.workload);
  // Every sample carries its self-supervised target: the default evidence.
  DRAI_RETURN_IF_ERROR(RunArchetype(pipeline, bundle, *manifest, result));
  return result;
}

}  // namespace drai::domains
