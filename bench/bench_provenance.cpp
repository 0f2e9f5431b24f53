// S7 — provenance overhead (§5 "Provenance and Reproducibility"): the same
// pipeline run with provenance capture on and off, plus the audit-log
// append/verify cost — quantifying what the paper's "broader integration
// into DRAI tooling" would cost a production pipeline.
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "privacy/audit.hpp"

namespace drai {
namespace {

core::Pipeline MakePipeline(bool provenance) {
  core::ExecutionOptions options;
  options.capture_provenance = provenance;
  core::Pipeline p(provenance ? "with-prov" : "without-prov", options);
  // Ten busy stages shaped like a real pipeline (buffers grow and shrink).
  for (int i = 0; i < 2; ++i) {
    p.Add("ingest-" + std::to_string(i), core::StageKind::kIngest,
          [](core::DataBundle& b, core::StageContext& ctx) {
            ctx.NoteParam("files", "16");
            b.blobs["raw"] = Bytes(1 << 20);
            return Status::Ok();
          });
  }
  for (int i = 0; i < 3; ++i) {
    p.Add("preprocess-" + std::to_string(i), core::StageKind::kPreprocess,
          [](core::DataBundle& b, core::StageContext&) {
            NDArray t = NDArray::Zeros({64, 64}, DType::kF64);
            t.Fill(1.5);
            b.tensors["field"] = std::move(t);
            return Status::Ok();
          });
  }
  for (int i = 0; i < 3; ++i) {
    p.Add("transform-" + std::to_string(i), core::StageKind::kTransform,
          [](core::DataBundle& b, core::StageContext& ctx) {
            ctx.NoteParam("kind", "zscore");
            auto it = b.tensors.find("field");
            if (it != b.tensors.end()) {
              for (size_t k = 0; k < it->second.numel(); ++k) {
                it->second.SetFromDouble(k,
                                         it->second.GetAsDouble(k) * 0.5);
              }
            }
            return Status::Ok();
          });
  }
  p.Add("structure", core::StageKind::kStructure,
        [](core::DataBundle&, core::StageContext&) { return Status::Ok(); });
  p.Add("shard", core::StageKind::kShard,
        [](core::DataBundle&, core::StageContext&) { return Status::Ok(); });
  return p;
}

int Main() {
  bench::Banner("S7 — pipeline wall time with provenance capture on/off");
  constexpr int kRuns = 50;
  bench::Table table({"mode", "runs", "total wall", "per run",
                      "artifacts recorded", "record hash"});
  for (const bool provenance : {false, true}) {
    core::Pipeline p = MakePipeline(provenance);
    WallTimer timer;
    for (int r = 0; r < kRuns; ++r) {
      core::DataBundle bundle;
      const auto report = p.Run(bundle);
      if (!report.ok) return 1;
    }
    const double total = timer.Seconds();
    table.AddRow({provenance ? "provenance ON" : "provenance OFF",
                  std::to_string(kRuns), HumanDuration(total),
                  HumanDuration(total / kRuns),
                  std::to_string(p.provenance().artifacts().size()),
                  provenance ? p.provenance().RecordHash().substr(0, 12) + "..."
                             : "-"});
  }
  table.Print();
  std::printf(
      "shape check: capture cost is per-stage-constant (hash of a state\n"
      "fingerprint), so overhead shrinks as stages do real work.\n");

  bench::Banner("audit log append/verify cost");
  privacy::AuditLog log;
  WallTimer timer;
  constexpr int kEntries = 5000;
  for (int i = 0; i < kEntries; ++i) {
    log.Append("pipeline", "transform", "batch=" + std::to_string(i));
  }
  const double append_s = timer.Seconds();
  timer.Reset();
  log.Verify().OrDie();
  const double verify_s = timer.Seconds();
  std::printf(
      "%d hash-chained entries: append %.1f us/entry, full-chain verify "
      "%.1f us/entry\n",
      kEntries, 1e6 * append_s / kEntries, 1e6 * verify_s / kEntries);
  return 0;
}

}  // namespace
}  // namespace drai

int main() { return drai::Main(); }
