#include "domains/materials.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "shard/shard_writer.hpp"
#include "stats/imbalance.hpp"
#include "stats/normalizer.hpp"

namespace drai::domains {

using core::DataBundle;
using core::ExecutionHint;
using core::ParallelSpec;
using core::PartitionAxis;
using core::StageContext;
using core::StageKind;

Result<MaterialsArchetypeResult> RunMaterialsArchetype(
    par::StripedStore& store, const MaterialsArchetypeConfig& config) {
  MaterialsArchetypeResult result;
  auto structures = std::make_shared<std::vector<graph::Structure>>(
      workloads::GenerateMaterials(config.workload));
  auto samples = std::make_shared<std::vector<graph::GraphSample>>();
  auto label_norm = std::make_shared<stats::Normalizer>(
      stats::NormKind::kZScore, 1);
  auto manifest = std::make_shared<shard::DatasetManifest>();

  core::Pipeline pipeline("materials-archetype", config.execution());

  // The corpus lives in the shared `structures` vector, not the bundle, so
  // the parallel stages partition the index range; each partition touches
  // only its own disjoint slice.
  ParallelSpec per_structure;
  per_structure.axis = PartitionAxis::kRange;
  per_structure.range_count = structures->size();

  // ingest: parse/validate simulation outputs.
  pipeline.Add(
      "parse", StageKind::kIngest,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        for (const auto& s : *structures) {
          DRAI_RETURN_IF_ERROR(s.Validate());
        }
        context.NoteParam("structures", std::to_string(structures->size()));
        bundle.SetAttr("source", container::AttrValue::String("dft-synthetic"));
        return Status::Ok();
      });

  // preprocess: wrap fractional coordinates into [0, 1).
  pipeline.Add(
      "wrap-coords", StageKind::kPreprocess,
      ExecutionHint::kRecordParallel,
      [structures](DataBundle&, StageContext& context) -> Status {
        const auto& slot = context.partition();
        for (size_t i = slot.lo; i < slot.hi; ++i) {
          // Cancellation poll per structure — a cancelled attempt stops at
          // the next record instead of finishing the slice.
          if (context.Cancelled()) return context.CancelledStatus();
          for (auto& f : (*structures)[i].frac_coords) {
            for (double& v : f) {
              v -= std::floor(v);
            }
          }
        }
        return Status::Ok();
      },
      per_structure);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // transform: standardize energy labels (z-score over the corpus).
  pipeline.Add(
      "normalize-labels", StageKind::kTransform,
      [&](DataBundle&, StageContext& context) -> Status {
        for (const auto& s : *structures) {
          label_norm->Observe(0, s.energy_per_atom);
        }
        label_norm->Fit();
        context.NoteParam("label_mean", FormatDouble(label_norm->Center(0), 4));
        context.NoteParam("label_std", FormatDouble(label_norm->Scale(0), 4));
        return Status::Ok();
      });

  // structure: neighbor graphs + GNN encoding in parallel (each partition
  // fills its disjoint slice of `samples`), then class rebalancing and
  // example emission in the serial After hook (both need the full corpus).
  pipeline.Add(
      "graph-encode", StageKind::kStructure,
      ExecutionHint::kRecordParallel,
      /*before=*/
      [structures, samples](DataBundle&, StageContext&) -> Status {
        samples->clear();
        samples->resize(structures->size());
        return Status::Ok();
      },
      [&, structures, samples, label_norm](DataBundle&,
                                           StageContext& context) -> Status {
        const auto& slot = context.partition();
        for (size_t i = slot.lo; i < slot.hi; ++i) {
          DRAI_ASSIGN_OR_RETURN(
              graph::GraphSample g,
              graph::EncodeGraph((*structures)[i], config.encode));
          g.label = label_norm->Apply(0, g.label);
          (*samples)[i] = std::move(g);
        }
        return Status::Ok();
      },
      /*after=*/
      [&, samples](DataBundle& bundle, StageContext& context) -> Status {
        std::vector<int> classes;
        classes.reserve(samples->size());
        for (const auto& g : *samples) classes.push_back(g.class_label);
        std::vector<int64_t> class64(classes.begin(), classes.end());
        result.imbalance_before =
            stats::ImbalanceRatio(stats::CountClasses(class64));

        std::vector<size_t> order(samples->size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        if (config.rebalance) {
          order = graph::RebalanceIndices(classes, config.strategy,
                                          config.split_seed);
        }
        std::vector<int64_t> after;
        std::map<std::string, size_t> copy_count;
        for (size_t idx : order) {
          const graph::GraphSample& g = (*samples)[idx];
          after.push_back(g.class_label);
          shard::Example ex = graph::ToExample(g);
          // Oversampled repeats need distinct keys (same split by
          // construction: the split key strips the copy suffix).
          const size_t copy = copy_count[g.id]++;
          if (copy > 0) ex.key = g.id + "~dup" + std::to_string(copy);
          bundle.examples.push_back(std::move(ex));
        }
        result.imbalance_after =
            stats::ImbalanceRatio(stats::CountClasses(after));
        context.NoteParam("imbalance_before",
                          FormatDouble(result.imbalance_before, 2));
        context.NoteParam("imbalance_after",
                          FormatDouble(result.imbalance_after, 2));
        return Status::Ok();
      },
      per_structure);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // shard: split by structure id (duplicates follow their original).
  pipeline.Add(
      "shard", StageKind::kShard,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        shard::ShardWriterConfig wc;
        wc.dataset_name = "materials-graphs";
        wc.created_by = "drai/materials-archetype";
        wc.directory = config.dataset_dir;
        wc.split_seed = config.split_seed;
        shard::ShardWriter writer(store, wc);
        ByteWriter nb;
        label_norm->Serialize(nb);
        writer.SetNormalizerBlob(nb.Take());
        writer.SetProvenanceHash(context.provenance() != nullptr
                                     ? context.provenance()->RecordHash()
                                     : "");
        const shard::SplitAssigner by_structure(0.8, 0.1, 0.1,
                                                config.split_seed);
        for (const shard::Example& ex : bundle.examples) {
          const std::string base = ex.key.substr(0, ex.key.find('~'));
          DRAI_RETURN_IF_ERROR(writer.AddTo(by_structure.Assign(base), ex));
        }
        DRAI_ASSIGN_OR_RETURN(*manifest, writer.Finalize());
        context.NoteParam("records", std::to_string(manifest->TotalRecords()));
        return Status::Ok();
      });

  DataBundle bundle;
  // DFT labels exist for every structure: the default evidence.
  DRAI_RETURN_IF_ERROR(RunArchetype(pipeline, bundle, *manifest, result));
  return result;
}

}  // namespace drai::domains
