#include "core/quality.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "ndarray/kernels.hpp"

namespace drai::core {

double QualityReport::MissingFraction() const {
  uint64_t total = 0, nan = 0;
  for (const auto& [_, f] : features) {
    total += f.total_elements;
    nan += f.nan_elements;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(nan) / static_cast<double>(total);
}

double QualityReport::BalanceScore() const {
  if (label_counts.empty()) return 0.0;
  return stats::BalanceScore(label_counts);
}

double QualityReport::OverallScore() const {
  if (n_examples == 0) return 0.0;
  const double dup_fraction =
      static_cast<double>(duplicate_keys + duplicate_payloads) /
      static_cast<double>(2 * n_examples);
  const double balance = label_counts.empty() ? 1.0 : BalanceScore();
  double score = 1.0;
  score *= 1.0 - std::min(1.0, MissingFraction());
  score *= 1.0 - std::min(1.0, dup_fraction);
  score *= 0.5 + 0.5 * balance;  // imbalance halves the score at worst
  return score;
}

std::string QualityReport::ToText() const {
  std::string out;
  out += "examples: " + std::to_string(n_examples) + "\n";
  out += "duplicate keys: " + std::to_string(duplicate_keys) +
         ", duplicate payloads: " + std::to_string(duplicate_payloads) + "\n";
  out += "missing fraction: " + FormatDouble(MissingFraction(), 4) + "\n";
  out += "labeled fraction: " + FormatDouble(labeled_fraction, 4) + "\n";
  if (!label_counts.empty()) {
    out += "label balance (norm. entropy): " + FormatDouble(BalanceScore(), 4) +
           ", imbalance ratio: " +
           FormatDouble(stats::ImbalanceRatio(label_counts), 2) + "\n";
  }
  out += "overall score: " + FormatDouble(OverallScore(), 4) + "\n";
  for (const auto& [name, f] : features) {
    out += "  feature '" + name + "': mean=" + FormatDouble(f.stats.mean(), 4) +
           " std=" + FormatDouble(f.stats.stddev(), 4) +
           " min=" + FormatDouble(f.stats.min(), 4) +
           " max=" + FormatDouble(f.stats.max(), 4) +
           " missing=" + FormatDouble(f.MissingFraction(), 4) + "\n";
  }
  return out;
}

namespace {

/// The example's feature tensors in name order, each contiguous (a view
/// already contiguous shares its storage): the payload is their bytes
/// back to back, key excluded.
std::vector<NDArray> PayloadParts(const shard::Example& ex) {
  std::vector<NDArray> parts;
  parts.reserve(ex.features.size());
  for (const auto& [name, tensor] : ex.features) {
    parts.push_back(tensor.IsContiguous() ? tensor : tensor.AsContiguous());
  }
  return parts;
}

/// The payload's bytes back to back, to confirm a key match: feature
/// boundaries are not part of it.
Bytes PayloadBytes(const std::vector<NDArray>& parts) {
  Bytes out;
  for (const NDArray& part : parts) {
    const auto raw = part.raw_bytes();
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

}  // namespace

QualityReport AssessQuality(std::span<const shard::Example> examples) {
  QualityReport report;
  report.n_examples = examples.size();
  std::set<std::string> keys;
  // (chained CRC-32, total length) -> the examples holding each distinct
  // payload with that key; a key match counts only once the bytes agree.
  std::map<std::pair<uint32_t, size_t>, std::vector<size_t>> payloads;
  std::vector<int64_t> labels;
  for (size_t e = 0; e < examples.size(); ++e) {
    const shard::Example& ex = examples[e];
    if (!keys.insert(ex.key).second) ++report.duplicate_keys;
    // Keyed on feature bytes only, so a renamed byte-identical copy still
    // registers as a duplicate payload.
    const std::vector<NDArray> parts = PayloadParts(ex);
    uint32_t crc = 0;
    size_t length = 0;
    for (const NDArray& part : parts) {
      crc = Crc32(part.raw_bytes(), crc);
      length += part.nbytes();
    }
    std::vector<size_t>& seen = payloads[{crc, length}];
    bool duplicate = false;
    if (!seen.empty()) {
      const Bytes bytes = PayloadBytes(parts);
      duplicate = std::any_of(seen.begin(), seen.end(), [&](size_t earlier) {
        return PayloadBytes(PayloadParts(examples[earlier])) == bytes;
      });
    }
    if (duplicate) {
      ++report.duplicate_payloads;
    } else {
      seen.push_back(e);
    }

    for (const auto& [name, tensor] : ex.features) {
      if (name == "label") continue;
      FeatureQuality& fq = report.features[name];
      fq.total_elements += tensor.numel();
      ForEachAsDouble(tensor, [&fq](double v) {
        if (std::isnan(v)) ++fq.nan_elements;
        fq.stats.Add(v);
      });
    }
    const auto label = ex.Label();
    if (label.ok()) {
      labels.push_back(label.value());
    }
  }
  report.label_counts = stats::CountClasses(labels);
  report.labeled_fraction =
      examples.empty() ? 0.0
                       : static_cast<double>(labels.size()) /
                             static_cast<double>(examples.size());
  return report;
}

}  // namespace drai::core
