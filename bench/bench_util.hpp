// Shared helpers for the drai benchmark binaries: table rendering, dataset
// fingerprinting, and the run-and-hash harness the byte-identity benches
// (and the differential test harness) are built on. Every bench regenerates
// one of the paper's tables/figures (or quantifies one of its claims) and
// prints it as an aligned text table, so bench_output.txt reads like the
// paper's evaluation section.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "domains/bio.hpp"
#include "domains/climate.hpp"
#include "domains/fusion.hpp"
#include "domains/materials.hpp"
#include "parallel/striped_store.hpp"

namespace drai::bench {

/// Aligned text table: set headers, add string rows, Print().
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : "";
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// One fingerprint over every file of the dataset (paths + bytes; List
/// returns paths sorted, so the digest is order-stable).
inline std::string DatasetHash(const par::StripedStore& store,
                               const std::string& prefix) {
  Sha256 hasher;
  for (const std::string& path : store.List(prefix)) {
    hasher.Update(path);
    hasher.Update(store.ReadAll(path).value());
  }
  return DigestToHex(hasher.Finish());
}

/// RunAndHash outcome: the archetype result plus the two identity
/// fingerprints every byte-identity comparison needs.
struct RunAndHashResult {
  Status status;                    ///< archetype status; rest valid iff ok
  domains::ArchetypeResult result;  ///< full archetype outcome
  std::string data_hash;            ///< DatasetHash over the written shards
  std::string provenance_hash;      ///< the run's provenance graph hash
};

/// The archetype entry point for each config type, so one template can run
/// any of the four.
inline Result<domains::ArchetypeResult> RunArchetypeConfig(
    par::StripedStore& store, const domains::ClimateArchetypeConfig& config) {
  return domains::RunClimateArchetype(store, config);
}
inline Result<domains::ArchetypeResult> RunArchetypeConfig(
    par::StripedStore& store, const domains::FusionArchetypeConfig& config) {
  return domains::RunFusionArchetype(store, config);
}
inline Result<domains::BioArchetypeResult> RunArchetypeConfig(
    par::StripedStore& store, const domains::BioArchetypeConfig& config) {
  return domains::RunBioArchetype(store, config);
}
inline Result<domains::MaterialsArchetypeResult> RunArchetypeConfig(
    par::StripedStore& store, const domains::MaterialsArchetypeConfig& config) {
  return domains::RunMaterialsArchetype(store, config);
}

/// Run an archetype against a fresh in-memory store and fingerprint what it
/// wrote — the one helper behind every "same bytes under different
/// execution" check (worker counts, backends, faults, overlap windows).
/// `Config` is any of the four archetype configs.
template <typename Config>
RunAndHashResult RunAndHash(const Config& config) {
  par::StripedStore store;
  RunAndHashResult out;
  auto run = RunArchetypeConfig(store, config);
  out.status = run.status();
  if (!run.ok()) return out;
  out.result = std::move(*run);  // keeps the shared ArchetypeResult part
  out.data_hash = DatasetHash(store, config.dataset_dir);
  out.provenance_hash = out.result.provenance_hash;
  return out;
}

}  // namespace drai::bench
