#include "core/quality.hpp"

#include <cmath>
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

QualityReport AssessQuality(std::span<const shard::Example> examples) {
  QualityReport report;
  report.n_examples = examples.size();
  std::set<std::string> keys;
  std::set<uint64_t> payload_hashes;
  std::vector<int64_t> labels;
  for (const shard::Example& ex : examples) {
    if (!keys.insert(ex.key).second) ++report.duplicate_keys;
    // Content hash over feature bytes only (key excluded), so a renamed
    // byte-identical copy still registers as a duplicate payload.
    Bytes content;
    for (const auto& [name, tensor] : ex.features) {
      const NDArray c = tensor.IsContiguous() ? tensor : tensor.AsContiguous();
      const auto raw = c.raw_bytes();
      content.insert(content.end(), raw.begin(), raw.end());
    }
    const uint64_t h = Fnv1a64(std::span<const std::byte>(content.data(),
                                                          content.size()));
    if (!payload_hashes.insert(h).second) ++report.duplicate_payloads;

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
