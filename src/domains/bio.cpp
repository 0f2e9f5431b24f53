#include "domains/bio.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "common/strings.hpp"
#include "privacy/anonymize.hpp"
#include "sequence/sequence.hpp"
#include "shard/shard_writer.hpp"

namespace drai::domains {

using core::DataBundle;
using core::ExecutionHint;
using core::ParallelSpec;
using core::PartitionAxis;
using core::StageContext;
using core::StageKind;

Result<BioArchetypeResult> RunBioArchetype(par::StripedStore& store,
                                           const BioArchetypeConfig& config) {
  BioArchetypeResult result;
  auto workload = std::make_shared<workloads::BioWorkload>(
      workloads::GenerateBioWorkload(config.workload));
  auto audit = std::make_shared<privacy::AuditLog>();
  auto manifest = std::make_shared<shard::DatasetManifest>();
  auto k_report = std::make_shared<privacy::KAnonymityReport>();
  // subject_id -> pseudonymized token (the join key after de-identification)
  auto token_of = std::make_shared<std::map<std::string, std::string>>();
  auto labeled_fraction = std::make_shared<double>(0.0);
  // Serial-hook state for the parallel stages: which columns each partition
  // must pseudonymize and the token -> subject lookup for row-driven
  // fusion. Label tallies flow through StageContext counts instead, which
  // the executor sums across partitions (and ranks) deterministically.
  auto direct_cols = std::make_shared<std::vector<std::string>>();
  auto subject_by_token = std::make_shared<std::map<std::string, size_t>>();

  core::Pipeline pipeline("bio-archetype", config.execution());

  // Parallel grains: sequence QC partitions the subject index range (the
  // bundle carries no per-subject collection yet); the privacy battery and
  // fusion partition the clinical table by rows.
  ParallelSpec per_subject;
  per_subject.axis = PartitionAxis::kRange;
  per_subject.range_count = workload->subjects.size();
  ParallelSpec per_rows;
  per_rows.axis = PartitionAxis::kTableRows;

  // ingest: load sequences + clinical table; validate.
  pipeline.Add(
      "load", StageKind::kIngest,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        DRAI_RETURN_IF_ERROR(workload->clinical.Validate());
        bundle.tables["clinical"] = workload->clinical;
        context.NoteParam("subjects", std::to_string(workload->subjects.size()));
        bundle.SetAttr("modality", container::AttrValue::String(
                                       "dna-sequence + clinical-tabular"));
        return Status::Ok();
      });

  // preprocess: sequence QC + tiling, partitioned over the subject index
  // range. Each partition records tile counts for its own subjects only.
  pipeline.Add(
      "tile-sequences", StageKind::kPreprocess,
      ExecutionHint::kRecordParallel,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        size_t rejected = 0;
        const auto& slot = context.partition();
        for (size_t i = slot.lo; i < slot.hi; ++i) {
          // Cancellation poll per subject — see core/plan.hpp's
          // DeadlinePolicy for the watchdog contract.
          if (context.Cancelled()) return context.CancelledStatus();
          const auto& subj = workload->subjects[i];
          DRAI_ASSIGN_OR_RETURN(
              double unknown,
              sequence::UnknownFraction(sequence::Alphabet::kDna,
                                        subj.sequence));
          if (unknown > 0.2) {  // QC: mostly-N sequences are unusable
            ++rejected;
            continue;
          }
          const auto tiles = sequence::Tile(subj.sequence, config.tile_len,
                                            config.tile_stride);
          bundle.SetAttr("tiles/" + subj.subject_id,
                         container::AttrValue::Int(
                             static_cast<int64_t>(tiles.size())));
        }
        context.NoteCount("rejected", rejected);
        return Status::Ok();
      },
      per_subject);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // transform: the privacy battery under audit. Field classification and
  // the audit transcript are serial (Before); pseudonymization + date
  // shifting are per-row and run per table-rows partition; k-anonymity
  // needs the whole table back, so it runs in the serial After hook.
  pipeline.Add(
      "anonymize-encode", StageKind::kTransform,
      ExecutionHint::kRecordParallel,
      /*before=*/
      [&, audit, token_of, direct_cols](DataBundle& bundle,
                                        StageContext&) -> Status {
        const privacy::Table& table = bundle.tables.at("clinical");
        // 1. classify fields
        direct_cols->clear();
        for (size_t c = 0; c < table.columns.size(); ++c) {
          std::vector<std::string> sample;
          for (size_t r = 0; r < std::min<size_t>(table.rows.size(), 32); ++r) {
            sample.push_back(table.rows[r][c]);
          }
          const privacy::FieldClass cls =
              privacy::ClassifyField(table.columns[c], sample);
          if (cls == privacy::FieldClass::kDirectIdentifier) {
            direct_cols->push_back(table.columns[c]);
          }
        }
        audit->Append("bio-archetype", "classify-fields",
                      "direct identifiers: " + Join(*direct_cols, ","));
        // 2. remember subject tokens before the ids are rewritten.
        privacy::Pseudonymizer pseudo(config.hmac_key);
        const int subj_col = table.ColumnIndex("subject_id");
        if (subj_col < 0) return NotFound("clinical table lacks subject_id");
        token_of->clear();
        for (const auto& row : table.rows) {
          const std::string& sid = row[static_cast<size_t>(subj_col)];
          (*token_of)[sid] = pseudo.Token(sid);
        }
        for (const std::string& col : *direct_cols) {
          audit->Append("bio-archetype", "pseudonymize", "column=" + col);
        }
        for (const std::string& col : {std::string("dob"), std::string("admit_date")}) {
          audit->Append("bio-archetype", "date-shift", "column=" + col);
        }
        return Status::Ok();
      },
      [&, direct_cols](DataBundle& bundle, StageContext&) -> Status {
        privacy::Table& table = bundle.tables.at("clinical");
        // Pseudonymize direct identifiers in this partition's rows. The
        // HMAC is keyed per value, so chunked application matches the
        // whole-table result byte for byte.
        privacy::Pseudonymizer pseudo(config.hmac_key);
        for (const std::string& col : *direct_cols) {
          DRAI_RETURN_IF_ERROR(pseudo.PseudonymizeColumn(table, col));
        }
        // Shift dates per subject (subject_id column is already tokenized,
        // which is fine: shifts stay per-subject stable).
        privacy::DateShifter shifter(config.hmac_key);
        for (const std::string& col : {std::string("dob"), std::string("admit_date")}) {
          DRAI_RETURN_IF_ERROR(shifter.ShiftColumn(table, "subject_id", col));
        }
        return Status::Ok();
      },
      /*after=*/
      [&, audit, k_report](DataBundle& bundle, StageContext& context) -> Status {
        // 4. k-anonymity over (age, zip) — a whole-table property.
        privacy::Table& table = bundle.tables.at("clinical");
        privacy::KAnonymityConfig kc;
        kc.k = config.k_anonymity;
        kc.numeric_bands["age"] = 5;
        kc.prefix_lengths["zip"] = 3;
        DRAI_ASSIGN_OR_RETURN(*k_report, privacy::EnforceKAnonymity(table, kc));
        audit->Append(
            "bio-archetype", "k-anonymize",
            "k=" + std::to_string(k_report->k_achieved) + " suppressed=" +
                std::to_string(k_report->suppressed_rows) + " level=" +
                std::to_string(k_report->generalization_level));
        context.NoteParam("k_achieved", std::to_string(k_report->k_achieved));
        context.NoteParam("audit_head", audit->HeadHash().substr(0, 12));
        return Status::Ok();
      },
      per_rows);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // structure: cross-modal fusion — sequence features + de-identified
  // clinical covariates per subject, one example per surviving table row.
  pipeline.Add(
      "fuse", StageKind::kStructure,
      ExecutionHint::kRecordParallel,
      /*before=*/
      [workload, token_of, subject_by_token](DataBundle&,
                                             StageContext&) -> Status {
        subject_by_token->clear();
        for (size_t i = 0; i < workload->subjects.size(); ++i) {
          const auto it = token_of->find(workload->subjects[i].subject_id);
          if (it == token_of->end()) continue;
          (*subject_by_token)[it->second] = i;
        }
        return Status::Ok();
      },
      [&, subject_by_token](DataBundle& bundle,
                            StageContext& context) -> Status {
        const privacy::Table& table = bundle.tables.at("clinical");
        const int subj_col = table.ColumnIndex("subject_id");
        const int age_col = table.ColumnIndex("age");
        const int sex_col = table.ColumnIndex("sex");
        size_t labeled = 0, emitted = 0;
        // Rows suppressed by k-anonymity are already gone from the table,
        // so every surviving row fuses into one example.
        for (const auto& row : table.rows) {
          const std::string& token = row[static_cast<size_t>(subj_col)];
          const auto subj_it = subject_by_token->find(token);
          if (subj_it == subject_by_token->end()) continue;
          const auto& subj = workload->subjects[subj_it->second];
          double age_mid = 50;
          // age is generalized to "lo-hi": use the band midpoint.
          const std::string& band = row[static_cast<size_t>(age_col)];
          const auto dash = band.find('-');
          int64_t lo = 0, hi = 0;
          if (dash != std::string::npos &&
              ParseInt64(band.substr(0, dash), lo) &&
              ParseInt64(band.substr(dash + 1), hi)) {
            age_mid = 0.5 * static_cast<double>(lo + hi);
          }
          const double sex = row[static_cast<size_t>(sex_col)] == "F" ? 1.0 : 0.0;
          const auto tiles = sequence::Tile(subj.sequence, config.tile_len,
                                            config.tile_stride);
          // Sequence features: per-tile GC content + k-mer motif-ish
          // summary (mean one-hot occupancy per base).
          NDArray x = NDArray::Zeros({tiles.size() * 5 + 2}, DType::kF32);
          const auto xs = x.span<float>();
          for (size_t t = 0; t < tiles.size(); ++t) {
            DRAI_ASSIGN_OR_RETURN(
                NDArray onehot,
                sequence::OneHot(sequence::Alphabet::kDna, tiles[t]));
            const auto oh = onehot.span<float>();
            // Column means of the one-hot tile: base composition.
            for (size_t b = 0; b < 4; ++b) {
              double mean = 0;
              for (size_t p = 0; p < tiles[t].size(); ++p) {
                mean += ToDouble(oh[p * 4 + b]);
              }
              xs[t * 5 + b] = FromDouble<float>(
                  mean / static_cast<double>(tiles[t].size()));
            }
            xs[t * 5 + 4] = FromDouble<float>(sequence::GcContent(tiles[t]));
          }
          xs[tiles.size() * 5 + 0] = FromDouble<float>(age_mid / 100.0);
          xs[tiles.size() * 5 + 1] = FromDouble<float>(sex);
          shard::Example ex;
          ex.key = token;  // pseudonymized key — no PHI in shards
          ex.features["x"] = std::move(x);
          if (subj.expression_label >= 0) {
            ex.SetLabel(subj.expression_label);
            ++labeled;
          } else {
            ex.SetLabel(-1);
          }
          bundle.examples.push_back(std::move(ex));
          ++emitted;
        }
        context.NoteCount("labeled", labeled);
        context.NoteCount("emitted", emitted);
        return Status::Ok();
      },
      /*after=*/
      [labeled_fraction](DataBundle&, StageContext& context) -> Status {
        const uint64_t emitted = context.MergedCount("emitted");
        *labeled_fraction =
            emitted == 0 ? 0.0
                         : static_cast<double>(context.MergedCount("labeled")) /
                               static_cast<double>(emitted);
        return Status::Ok();
      },
      per_rows);
  pipeline.WithRetry(config.retry);
  pipeline.WithDeadline(config.deadline);

  // shard: secure export — audit head + provenance in the manifest.
  pipeline.Add(
      "secure-shard", StageKind::kShard,
      [&](DataBundle& bundle, StageContext& context) -> Status {
        shard::ShardWriterConfig wc;
        wc.dataset_name = "bio-fused";
        wc.created_by = "drai/bio-archetype(audit:" +
                        audit->HeadHash().substr(0, 12) + ")";
        wc.directory = config.dataset_dir;
        wc.split_seed = config.split_seed;
        shard::ShardWriter writer(store, wc);
        writer.SetProvenanceHash(context.provenance() != nullptr
                                     ? context.provenance()->RecordHash()
                                     : "");
        for (const shard::Example& ex : bundle.examples) {
          DRAI_ASSIGN_OR_RETURN(shard::Split split, writer.Add(ex));
          (void)split;
        }
        DRAI_ASSIGN_OR_RETURN(*manifest, writer.Finalize());
        audit->Append("bio-archetype", "export",
                      "records=" + std::to_string(manifest->TotalRecords()));
        return Status::Ok();
      });

  DataBundle bundle;
  DRAI_RETURN_IF_ERROR(RunArchetype(pipeline, bundle, *manifest, result, [&] {
    return ArchetypeEvidence{
        .label_fraction = *labeled_fraction,
        .anonymization_done = k_report->k_achieved >= config.k_anonymity,
        .transform_audited = audit->Verify().ok()};
  }));
  result.audit = *audit;
  result.k_report = *k_report;
  return result;
}

}  // namespace drai::domains
