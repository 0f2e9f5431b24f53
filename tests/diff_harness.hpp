// drai/tests/diff_harness.hpp
//
// Differential execution harness: run one archetype configuration under
// every execution mode that must not change its output — {barrier, overlap}
// x {thread, spmd} x worker counts, optionally under fault or hang
// injection — and assert that every cell is byte-identical to the
// barrier/thread/1 baseline: same dataset bytes, same provenance record
// hash, same quarantine and readmission tallies, same report success. This
// is the proof obligation behind the overlap scheduler (and the fault /
// hang tolerance stack): execution strategy is an optimization detail,
// never an output detail.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/backend.hpp"

namespace drai::testing {

/// One differential sweep over any of the four archetype configs. Mutates
/// only execution knobs (overlap, backend, threads) on `config`; whatever
/// workload/fault/retry/deadline shape the caller set is what every cell
/// runs.
template <typename Config>
void ExpectDifferentialIdentity(
    Config config,
    const std::vector<core::Backend>& backends = {core::Backend::kThread,
                                                  core::Backend::kSpmd},
    const std::vector<size_t>& worker_counts = {1, 2, 4, 8}) {
  std::string base_data, base_prov;
  size_t base_quarantined = 0, base_readmissions = 0;
  bool have_base = false;
  for (const bool overlap : {false, true}) {
    for (const core::Backend backend : backends) {
      for (const size_t workers : worker_counts) {
        config.overlap = overlap;
        config.backend = backend;
        config.threads = workers;
        const bench::RunAndHashResult run = bench::RunAndHash(config);
        const std::string cell =
            std::string(overlap ? "overlap" : "barrier") + "/" +
            std::string(core::BackendName(backend)) + "/" +
            std::to_string(workers);
        ASSERT_TRUE(run.status.ok())
            << cell << ": " << run.status.ToString();
        ASSERT_TRUE(run.result.report.ok)
            << cell << ": " << run.result.report.error.ToString();
        if (!have_base) {
          base_data = run.data_hash;
          base_prov = run.provenance_hash;
          base_quarantined = run.result.report.quarantined.size();
          base_readmissions = run.result.report.readmissions.size();
          have_base = true;
          continue;
        }
        EXPECT_EQ(run.data_hash, base_data) << cell;
        EXPECT_EQ(run.provenance_hash, base_prov) << cell;
        EXPECT_EQ(run.result.report.quarantined.size(), base_quarantined)
            << cell;
        EXPECT_EQ(run.result.report.readmissions.size(), base_readmissions)
            << cell;
      }
    }
  }
}

/// The small climate workload the differential suites share: big enough to
/// exercise the normalize -> patch overlap window (4 coarse partitions
/// re-splitting into 8), small enough to sweep 16 execution cells per
/// variant under TSan.
inline domains::ClimateArchetypeConfig SmallDifferentialConfig() {
  domains::ClimateArchetypeConfig config;
  config.workload.n_times = 8;
  config.workload.n_lat = 16;
  config.workload.n_lon = 32;
  config.workload.variables = {"t2m", "z500"};
  config.workload.missing_prob = 0.01;
  config.target_lat = 12;
  config.target_lon = 24;
  config.patch = 4;
  config.normalize_grain = 2;  // separates normalize from patch: window opens
  return config;
}

/// 1%-fault variant: every parallel stage retries through the injected
/// failures (fail_attempts = 1, so one retry clears each), and recovered
/// runs must stay byte-identical. Seed matches the fault-recovery bench,
/// whose schedule leaves the retry-less serial stages clean.
inline domains::ClimateArchetypeConfig FaultDifferentialConfig() {
  domains::ClimateArchetypeConfig config = SmallDifferentialConfig();
  config.faults.seed = 0xFA17;
  config.faults.rate = 0.01;
  config.retry.max_attempts = 5;
  return config;
}

/// 1%-hang variant: sampled attempts stall well past the hard deadline, the
/// watchdog cancels them, and the retry (hang_attempts = 1) runs clean.
/// Hard deadlines are window-legal, so overlap cells exercise cancellation
/// mid-stream. No soft deadline — speculation is barrier-only.
inline domains::ClimateArchetypeConfig HangDifferentialConfig() {
  domains::ClimateArchetypeConfig config = SmallDifferentialConfig();
  config.faults.seed = 0xB10C;
  config.faults.hang_rate = 0.01;
  config.faults.hang_ms = 1200;
  config.retry.max_attempts = 5;
  config.deadline.hard_ms = 400;
  return config;
}

/// drbench's tiny fusion, bio and materials workloads (its domains-mix at
/// `--size tiny`). None of them marks a boundary kStream, so the overlap
/// switch leaves their groups barriered; the sweep proves backends and
/// worker counts.
inline domains::FusionArchetypeConfig SmallFusionDifferentialConfig() {
  domains::FusionArchetypeConfig config;
  config.workload.n_shots = 4;
  config.workload.unlabeled_fraction = 0.2;
  return config;
}

inline domains::BioArchetypeConfig SmallBioDifferentialConfig() {
  domains::BioArchetypeConfig config;
  config.workload.n_subjects = 24;
  config.k_anonymity = 4;
  return config;
}

inline domains::MaterialsArchetypeConfig SmallMaterialsDifferentialConfig() {
  domains::MaterialsArchetypeConfig config;
  config.workload.n_structures = 12;
  config.workload.min_atoms = 6;
  config.workload.max_atoms = 10;
  config.rebalance = false;
  return config;
}

/// The fault column for an archetype without a seeded fault schedule:
/// every partition of each named parallel stage fails its first attempt
/// and one retry (max_attempts = 2) clears it, so every parallel group
/// recovers through the retry path on every backend. The barrier/thread/1
/// baseline must count at least one retry before the sweep runs, so the
/// column cannot pass on a schedule that never fired.
template <typename Config>
void ExpectFaultedIdentity(Config config,
                           const std::vector<std::string>& parallel_stages) {
  for (const std::string& stage : parallel_stages) {
    core::FaultSite site;
    site.stage = stage;
    site.fail_attempts = 1;
    config.faults.sites.push_back(site);
  }
  config.retry.max_attempts = 2;

  Config base = config;
  base.overlap = false;
  base.backend = core::Backend::kThread;
  base.threads = 1;
  const bench::RunAndHashResult run = bench::RunAndHash(base);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  uint64_t retries = 0;  // attempts beyond one per partition
  for (const core::StageMetrics& stage : run.result.report.stages) {
    retries += stage.attempts - stage.partitions;
  }
  ASSERT_GT(retries, 0u);

  ExpectDifferentialIdentity(config);
}

}  // namespace drai::testing
