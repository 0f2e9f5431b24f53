// drbench — the repository benchmark.
//
//   drbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--size full|tiny] [--trace-out <file.json>]
//
// --trace 0 measures the end-to-end metrics: after an untimed set-up (the
// correctness reference for a held-out seed, then one cold run), it repeats
// the workload for --seconds — generate inputs, run the archetype(s), hash
// the written dataset, then read every split back through ShardReader —
// and reports medians. --trace 1 instead runs the layer replay under spans
// and reports the per-layer metrics, writing a Chrome trace-event file.
//
// Every run's dataset and provenance hashes are checked against the pinned
// values (seed 1234) or against an in-process reference run on one worker.
// Output: BENCH lines (see metrics.hpp), then, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit status is
// 0 only when every check passed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace drbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") return false;
      args.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && KnownWorkload(args.workload);
}

/// The end-to-end metrics, with the bounds BENCHMARK.json declares.
struct E2eSpec {
  const char* name;
  const char* unit;
  const char* better;
  double bound;
};
constexpr E2eSpec kEndToEnd[] = {
    {"wall_s", "s", "lower", 0.25},
    {"wall_tail_s", "s", "lower", 0.25},
    {"cpu_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MB", "lower", 0.25},
    {"setup_s", "s", "lower", 0.25},
};

Metric EndToEnd(const char* name, double value, size_t samples) {
  for (const E2eSpec& spec : kEndToEnd) {
    if (std::strcmp(spec.name, name) == 0) {
      return Metric{name, spec.unit, value, samples, "end_to_end",
                    spec.better, spec.bound};
    }
  }
  std::abort();  // a name missing from kEndToEnd is a program bug
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// The process's resident-set high-water mark in MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  double kib = -1;
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  if (f != nullptr) std::fclose(f);
  if (kib < 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
  }
  return kib / 1024.0;
}

using Clock = std::chrono::steady_clock;
double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Why one execution is wrong, or "" when it is right.
std::string Verify(const Outcome& run, const Expected& expected) {
  if (!run.status.ok()) return "status " + run.status.ToString();
  if (run.quarantined != 0) return "quarantined partitions";
  if (run.data_hash != expected.data_hash) {
    return "dataset hash " + run.data_hash + " != " + expected.data_hash;
  }
  if (run.provenance_hash != expected.provenance_hash) {
    return "provenance hash " + run.provenance_hash +
           " != " + expected.provenance_hash;
  }
  return "";
}

struct SetupResult {
  bool ok = false;
  Expected expected;
  double seconds = 0;      ///< calibrated (see calibrate.hpp)
  double raw_seconds = 0;  ///< as measured
};

/// Everything before the timed loop: the reference hashes (pinned, or an
/// in-process one-worker run of the same inputs), then one cold run with
/// its checks and read-back.
SetupResult Setup(const Args& args, const Configs& configs, bool quiet) {
  SetupResult out;
  // The first pass pays the buffers' page faults.
  (void)CalibrationSeconds();
  const double calib_before = CalibrationSeconds();
  const auto t0 = Clock::now();
  if (auto pinned = Pinned(args.workload, args.seed, args.size)) {
    out.expected = *pinned;
  } else {
    const Outcome ref =
        Execute(MakeConfigs(args.workload, args.seed, args.size, true));
    if (!ref.status.ok()) {
      std::fprintf(stderr, "drbench: reference run failed: %s\n",
                   ref.status.ToString().c_str());
      return out;
    }
    out.expected = {ref.data_hash, ref.provenance_hash};
  }
  if (!quiet) {
    std::fprintf(stderr, "drbench: expecting dataset %s provenance %s\n",
                 out.expected.data_hash.c_str(),
                 out.expected.provenance_hash.c_str());
  }
  const Outcome cold = Execute(configs);
  const std::string why = Verify(cold, out.expected);
  if (!why.empty()) {
    std::fprintf(stderr, "drbench: cold run wrong: %s\n", why.c_str());
    return out;
  }
  const auto records = ReadBack(cold);
  if (!records.ok() || *records != cold.records) {
    std::fprintf(stderr, "drbench: cold read-back failed\n");
    return out;
  }
  out.raw_seconds = Since(t0);
  const double calib =
      0.5 * (calib_before + CalibrationSeconds());
  out.seconds = out.raw_seconds * kReferenceSeconds / calib;
  out.ok = true;
  return out;
}

/// What one set-up probe measured.
struct Probe {
  double seconds = -1;  ///< calibrated set-up time
  double peak_mb = -1;  ///< the probe process's resident high-water mark
};

/// Set-up measured in `n` fresh child processes (so each pays the cold
/// costs a user pays once per process, and starts from a clean heap).
/// Returns each probe that succeeded; a failed probe makes `ok` false.
std::vector<Probe> SetupProbes(const Args& args, const Configs& configs,
                               int n, bool& ok) {
  std::vector<Probe> probes;
  std::fflush(nullptr);
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      ok = false;
      return probes;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      ok = false;
      return probes;
    }
    if (pid == 0) {
      close(fds[0]);
      const SetupResult r = Setup(args, configs, /*quiet=*/true);
      Probe p;
      if (r.ok) p = {r.seconds, PeakRssMb()};
      const bool wrote = write(fds[1], &p, sizeof(p)) == sizeof(p);
      close(fds[1]);
      _exit(wrote && r.ok ? 0 : 1);
    }
    close(fds[1]);
    Probe p;
    const bool got = read(fds[0], &p, sizeof(p)) == sizeof(p);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || p.seconds < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ok = false;
    } else {
      probes.push_back(p);
    }
  }
  return probes;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

constexpr int kSetupProbes = 4;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: drbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size full|tiny] [--trace-out file]\n"
                 "workloads:");
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Configs configs =
      MakeConfigs(args.workload, args.seed, args.size, false);

  bool probes_ok = true;
  const std::vector<Probe> probes =
      SetupProbes(args, configs, kSetupProbes, probes_ok);
  const SetupResult setup = Setup(args, configs, /*quiet=*/false);
  if (!setup.ok || !probes_ok) {
    std::fprintf(stderr, "drbench: set-up failed\n");
    return 1;
  }
  std::vector<double> setup_samples, peak_samples;
  for (const Probe& p : probes) {
    setup_samples.push_back(p.seconds);
    peak_samples.push_back(p.peak_mb);
  }
  setup_samples.push_back(setup.seconds);

  // Calibrated per-run samples (see calibrate.hpp), plus raw ones.
  std::vector<double> walls, cpus, raw_walls, calibrations;
  size_t attempted = 0, failed = 0;
  bool emit_ok = true;

  if (!args.trace) {
    const auto loop_start = Clock::now();
    // At least 21 runs, so wall_tail_s has ten runs above a value that is
    // itself above the median.
    while (Since(loop_start) < args.seconds || attempted < 21) {
      ++attempted;
      // One calibration pass per run; the scale uses the median of the
      // last few passes, which follows host drift but not per-pass jitter.
      calibrations.push_back(CalibrationSeconds());
      const double scale = RecentScale(calibrations);
      const double cpu0 = CpuSeconds();
      const auto t0 = Clock::now();
      const Outcome run = Execute(configs);
      const double wall = Since(t0);
      const double cpu = CpuSeconds() - cpu0;
      std::string why = Verify(run, setup.expected);
      if (why.empty()) {
        // Untimed: the read-back rate is the per-layer metric
        // shard.readback_records_per_s (see METRICS.md for why).
        const auto records = ReadBack(run);
        if (!records.ok()) {
          why = "read-back: " + records.status().ToString();
        } else if (*records != run.records) {
          why = "read-back record count";
        }
      }
      if (!why.empty()) {
        std::fprintf(stderr, "drbench: run %zu failed: %s\n", attempted,
                     why.c_str());
        ++failed;
        continue;
      }
      walls.push_back(wall * scale);
      cpus.push_back(cpu * scale);
      raw_walls.push_back(wall);
    }
    if (walls.empty()) {
      PrintResult(false, attempted, failed, {});
      return 1;
    }
    std::vector<Metric> metrics = {
        EndToEnd("wall_s", Median(walls), walls.size()),
        EndToEnd("wall_tail_s", Tail(walls), walls.size()),
        EndToEnd("cpu_s", Median(cpus), cpus.size()),
        // A long-lived process's mark depends on how its heap fragmented
        // over earlier runs (it moved by up to 25% between processes), so
        // this is the median mark of the fresh set-up probes.
        EndToEnd("peak_rss_mb", Median(peak_samples), peak_samples.size()),
        EndToEnd("setup_s", Median(setup_samples), setup_samples.size()),
    };
    for (const Metric& m : metrics) emit_ok = Emit(args.workload, m) && emit_ok;
    emit_ok = Emit(args.workload, Metric{"wall_raw_s", "s", Median(raw_walls),
                                         raw_walls.size(), "info", "", -1}) &&
              emit_ok;
    emit_ok = Emit(args.workload, Metric{"setup_raw_s", "s", setup.raw_seconds,
                                         1, "info", "", -1}) &&
              emit_ok;
    // Must read 0; a failure is never folded into a speed number.
    emit_ok = Emit(args.workload,
                   Metric{"failed_frac", "ratio",
                          static_cast<double>(failed) /
                              static_cast<double>(attempted),
                          attempted, "check", "", -1}) &&
              emit_ok;
    const bool correct = failed == 0 && emit_ok;
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced run: an untraced wall-time base, one execution whose report and
  // store facts feed the executor/store metrics, then the layer replay.
  for (int i = 0; i < 3; ++i) {
    ++attempted;
    const auto t0 = Clock::now();
    const Outcome run = Execute(configs);
    const double wall = Since(t0);
    if (!Verify(run, setup.expected).empty()) {
      ++failed;
      continue;
    }
    walls.push_back(wall);
  }
  ++attempted;
  const Outcome traced = Execute(configs);
  if (!Verify(traced, setup.expected).empty() || walls.empty()) {
    ++failed;
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  Tracer tracer(args.seed);
  TraceInputs in;
  in.workload = args.workload;
  in.configs = configs;
  in.outcome = &traced;
  in.wall_s = Median(walls);
  in.seconds = args.seconds;
  bool replay_ok = true;
  const std::vector<Metric> metrics = TraceLayers(in, tracer, replay_ok);
  for (const Metric& m : metrics) emit_ok = Emit(args.workload, m) && emit_ok;

  const std::string path = args.trace_out.empty()
                               ? ".bench_build/trace-" + args.workload + ".json"
                               : args.trace_out;
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << tracer.ChromeJson();
  file.close();
  const bool wrote = static_cast<bool>(file);
  std::fprintf(stderr, "drbench: %zu spans written to %s%s\n",
               tracer.spans().size(), path.c_str(), wrote ? "" : " (FAILED)");
  const bool correct = failed == 0 && replay_ok && emit_ok && wrote;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace drbench

int main(int argc, char** argv) { return drbench::Main(argc, argv); }
