// drbench_compare — compare two benchmark result files.
//
//   drbench_compare BEFORE.txt AFTER.txt
//
// Each file holds the stdout of one or more drbench runs (any other lines
// are ignored). For every (workload, end-to-end metric) present in both it
// prints the median and quartiles of each side, the relative change of the
// medians (positive = worse), and a verdict against the metric's bound:
//   regressed   worse by more than the bound
//   improved    better by more than the bound
//   unchanged   within the bound
//   unresolved  either side's quartile spread, as a share of its median,
//               exceeds the bound, so the runs cannot resolve a change
// Exit status: 1 when any metric regressed, else 0.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"

namespace {

/// Values of a flat JSON object whose values are strings or numbers.
std::map<std::string, std::string> ParseFlat(const std::string& json) {
  std::map<std::string, std::string> out;
  size_t i = json.find('{');
  while (i != std::string::npos && i < json.size()) {
    const size_t k0 = json.find('"', i);
    if (k0 == std::string::npos) break;
    const size_t k1 = json.find('"', k0 + 1);
    if (k1 == std::string::npos) break;
    const std::string key = json.substr(k0 + 1, k1 - k0 - 1);
    size_t v = json.find(':', k1);
    if (v == std::string::npos) break;
    ++v;
    while (v < json.size() && json[v] == ' ') ++v;
    std::string value;
    if (v < json.size() && json[v] == '"') {
      const size_t e = json.find('"', v + 1);
      if (e == std::string::npos) break;
      value = json.substr(v + 1, e - v - 1);
      i = e + 1;
    } else {
      size_t e = v;
      while (e < json.size() && json[e] != ',' && json[e] != '}') ++e;
      value = json.substr(v, e - v);
      i = e;
    }
    out[key] = value;
    i = json.find_first_of(",}", i);
    if (i == std::string::npos || json[i] == '}') break;
    ++i;
  }
  return out;
}

struct Series {
  std::string unit;
  std::string better;
  double bound = 0;
  std::vector<double> values;
};
using Key = std::pair<std::string, std::string>;  // (workload, metric)

bool Load(const char* path, std::map<Key, Series>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("BENCH {", 0) != 0) continue;
    auto f = ParseFlat(line.substr(6));
    if (f["bench"] != "drbench" || f["kind"] != "end_to_end") continue;
    Series& s = out[{f["workload"], f["metric"]}];
    s.unit = f["unit"];
    s.better = f["better"];
    s.bound = std::strtod(f["bound"].c_str(), nullptr);
    s.values.push_back(std::strtod(f["value"].c_str(), nullptr));
  }
  return true;
}

double Spread(const std::vector<double>& v) {
  const double med = drbench::Median(v);
  return med != 0 ? (drbench::Quantile(v, 0.75) - drbench::Quantile(v, 0.25)) /
                        med
                  : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: drbench_compare BEFORE AFTER\n");
    return 2;
  }
  std::map<Key, Series> before, after;
  if (!Load(argv[1], before) || !Load(argv[2], after)) {
    std::fprintf(stderr, "drbench_compare: cannot read input files\n");
    return 2;
  }
  std::printf("%-24s %-24s %5s %30s %30s %8s %6s  %s\n", "workload", "metric",
              "n", "before median [q1, q3]", "after median [q1, q3]", "worse",
              "bound", "verdict");
  bool regressed = false;
  for (const auto& [key, b] : before) {
    const auto it = after.find(key);
    if (it == after.end()) continue;
    const Series& a = it->second;
    const double mb = drbench::Median(b.values);
    const double ma = drbench::Median(a.values);
    // Relative change, signed so that positive is always "worse".
    double worse = mb != 0 ? (ma - mb) / mb : 0;
    if (b.better == "higher") worse = -worse;
    const char* verdict = "unchanged";
    if (Spread(b.values) > b.bound || Spread(a.values) > b.bound) {
      verdict = "unresolved";
    } else if (worse > b.bound) {
      verdict = "regressed";
      regressed = true;
    } else if (worse < -b.bound) {
      verdict = "improved";
    }
    char bs[64], as[64];
    std::snprintf(bs, sizeof(bs), "%.4g [%.4g, %.4g]", mb,
                  drbench::Quantile(b.values, 0.25),
                  drbench::Quantile(b.values, 0.75));
    std::snprintf(as, sizeof(as), "%.4g [%.4g, %.4g]", ma,
                  drbench::Quantile(a.values, 0.25),
                  drbench::Quantile(a.values, 0.75));
    std::printf("%-24s %-24s %2zu/%-2zu %30s %30s %+7.1f%% %5.0f%%  %s\n",
                key.first.c_str(), key.second.c_str(), b.values.size(),
                a.values.size(), bs, as, 100 * worse, 100 * b.bound, verdict);
  }
  return regressed ? 1 : 0;
}
