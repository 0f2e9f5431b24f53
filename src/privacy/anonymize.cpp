#include "privacy/anonymize.hpp"

#include <algorithm>
#include <cstdio>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace drai::privacy {

Pseudonymizer::Pseudonymizer(std::string key, std::string prefix)
    : key_(std::move(key)), prefix_(std::move(prefix)) {
  if (key_.size() < 16) {
    throw std::invalid_argument(
        "Pseudonymizer: key must be at least 16 bytes");
  }
}

std::string Pseudonymizer::Token(std::string_view value) const {
  const Sha256Digest mac = HmacSha256(key_, value);
  // 16 hex chars (64 bits) is ample for collision-free tokens at any
  // realistic cohort size.
  return prefix_ + DigestToHex(mac).substr(0, 16);
}

Status Pseudonymizer::PseudonymizeColumn(Table& table,
                                         const std::string& column) const {
  const int col = table.ColumnIndex(column);
  if (col < 0) return NotFound("no such column: " + column);
  for (auto& row : table.rows) {
    if (!row[static_cast<size_t>(col)].empty()) {
      row[static_cast<size_t>(col)] = Token(row[static_cast<size_t>(col)]);
    }
  }
  return Status::Ok();
}

DateShifter::DateShifter(std::string key, int max_shift_days)
    : key_(std::move(key)), max_shift_days_(max_shift_days) {
  if (max_shift_days_ <= 0) {
    throw std::invalid_argument("DateShifter: max_shift_days must be > 0");
  }
}

int64_t DateShifter::ShiftFor(std::string_view subject_id) const {
  const Sha256Digest mac = HmacSha256(key_, subject_id);
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) h = (h << 8) | mac[static_cast<size_t>(i)];
  const int64_t span = 2 * static_cast<int64_t>(max_shift_days_) + 1;
  return static_cast<int64_t>(h % static_cast<uint64_t>(span)) -
         max_shift_days_;
}

// Civil-date conversion (Howard Hinnant's algorithms, public domain).
Result<int64_t> DateShifter::IsoToDays(const std::string& iso_date) {
  if (!LooksLikeIsoDate(iso_date)) {
    return InvalidArgument("not an ISO date: " + iso_date);
  }
  int64_t y = 0, m = 0, d = 0;
  if (!ParseInt64(iso_date.substr(0, 4), y) ||
      !ParseInt64(iso_date.substr(5, 2), m) ||
      !ParseInt64(iso_date.substr(8, 2), d)) {
    return InvalidArgument("unparseable ISO date: " + iso_date);
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) {
    return InvalidArgument("out-of-range ISO date: " + iso_date);
  }
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const uint64_t yoe = static_cast<uint64_t>(y - era * 400);
  const uint64_t doy =
      static_cast<uint64_t>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const uint64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

std::string DateShifter::DaysToIso(int64_t days) {
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const uint64_t doe = static_cast<uint64_t>(z - era * 146097);
  const uint64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const uint64_t mp = (5 * doy + 2) / 153;
  const uint64_t d = doy - (153 * mp + 2) / 5 + 1;
  const uint64_t m = mp + (mp < 10 ? 3 : static_cast<uint64_t>(-9));
  const int64_t year = y + (m <= 2);
  char buf[32];  // room for any int64 year: "-9223372036854775808-12-31"
  std::snprintf(buf, sizeof(buf), "%04lld-%02llu-%02llu",
                static_cast<long long>(year),
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(d));
  return buf;
}

Result<std::string> DateShifter::Shift(std::string_view subject_id,
                                       const std::string& iso_date) const {
  DRAI_ASSIGN_OR_RETURN(int64_t days, IsoToDays(iso_date));
  return DaysToIso(days + ShiftFor(subject_id));
}

Status DateShifter::ShiftColumn(Table& table,
                                const std::string& subject_column,
                                const std::string& date_column) const {
  const int subj = table.ColumnIndex(subject_column);
  const int date = table.ColumnIndex(date_column);
  if (subj < 0) return NotFound("no such column: " + subject_column);
  if (date < 0) return NotFound("no such column: " + date_column);
  for (auto& row : table.rows) {
    std::string& value = row[static_cast<size_t>(date)];
    if (value.empty()) continue;
    DRAI_ASSIGN_OR_RETURN(value, Shift(row[static_cast<size_t>(subj)], value));
  }
  return Status::Ok();
}

namespace {

/// Generalize one cell of a numeric-band column at a level.
std::string GeneralizeNumeric(const std::string& value, int64_t base_band,
                              size_t level) {
  int64_t v = 0;
  if (!ParseInt64(value, v)) return value;  // non-numeric passes through
  const int64_t band = base_band << level;
  const int64_t lo = (v / band) * band - (v < 0 && v % band != 0 ? band : 0);
  return std::to_string(lo) + "-" + std::to_string(lo + band - 1);
}

std::string GeneralizePrefix(const std::string& value, size_t base_len,
                             size_t level) {
  const size_t keep = base_len > level ? base_len - level : 0;
  if (value.size() <= keep) return value;
  std::string out = value.substr(0, keep);
  out.append(value.size() - keep, '*');
  return out;
}

/// Equivalence-class key over quasi columns.
std::string ClassKey(const std::vector<std::string>& row,
                     const std::vector<size_t>& quasi_idx) {
  std::string key;
  for (size_t c : quasi_idx) {
    key += row[c];
    key += '\x1f';
  }
  return key;
}

}  // namespace

Result<size_t> MinClassSize(const Table& table,
                            const std::vector<std::string>& quasi_columns) {
  DRAI_RETURN_IF_ERROR(table.Validate());
  if (table.rows.empty()) return static_cast<size_t>(0);
  std::vector<size_t> idx;
  for (const std::string& c : quasi_columns) {
    const int i = table.ColumnIndex(c);
    if (i < 0) return NotFound("no such column: " + c);
    idx.push_back(static_cast<size_t>(i));
  }
  std::map<std::string, size_t> counts;
  for (const auto& row : table.rows) ++counts[ClassKey(row, idx)];
  size_t mn = SIZE_MAX;
  for (const auto& [_, n] : counts) mn = std::min(mn, n);
  return mn;
}

Result<size_t> MinDiversity(const Table& table,
                            const std::vector<std::string>& quasi_columns,
                            const std::string& sensitive_column) {
  DRAI_RETURN_IF_ERROR(table.Validate());
  if (table.rows.empty()) return static_cast<size_t>(0);
  std::vector<size_t> idx;
  for (const std::string& c : quasi_columns) {
    const int i = table.ColumnIndex(c);
    if (i < 0) return NotFound("no such column: " + c);
    idx.push_back(static_cast<size_t>(i));
  }
  const int sens = table.ColumnIndex(sensitive_column);
  if (sens < 0) return NotFound("no such column: " + sensitive_column);
  std::map<std::string, std::set<std::string>> diversity;
  for (const auto& row : table.rows) {
    diversity[ClassKey(row, idx)].insert(row[static_cast<size_t>(sens)]);
  }
  size_t mn = SIZE_MAX;
  for (const auto& [_, s] : diversity) mn = std::min(mn, s.size());
  return mn;
}

Result<KAnonymityReport> EnforceKAnonymity(Table& table,
                                           const KAnonymityConfig& config) {
  DRAI_RETURN_IF_ERROR(table.Validate());
  if (config.k == 0) return InvalidArgument("k must be > 0");
  std::vector<std::string> quasi;
  for (const auto& [name, _] : config.numeric_bands) quasi.push_back(name);
  for (const auto& [name, _] : config.prefix_lengths) quasi.push_back(name);
  if (quasi.empty()) return InvalidArgument("no quasi-identifiers configured");
  std::vector<size_t> quasi_idx;
  for (const std::string& c : quasi) {
    const int i = table.ColumnIndex(c);
    if (i < 0) return NotFound("no such column: " + c);
    quasi_idx.push_back(static_cast<size_t>(i));
  }

  const Table original = table;
  KAnonymityReport report;
  for (size_t level = 0; level <= config.max_levels; ++level) {
    // Re-generalize from the original at this level.
    table = original;
    for (auto& row : table.rows) {
      for (const auto& [name, band] : config.numeric_bands) {
        const size_t c = static_cast<size_t>(table.ColumnIndex(name));
        row[c] = GeneralizeNumeric(row[c], band, level);
      }
      for (const auto& [name, len] : config.prefix_lengths) {
        const size_t c = static_cast<size_t>(table.ColumnIndex(name));
        row[c] = GeneralizePrefix(row[c], len, level);
      }
    }
    // Count classes; suppress rows in classes still below k.
    std::map<std::string, size_t> counts;
    for (const auto& row : table.rows) ++counts[ClassKey(row, quasi_idx)];
    size_t suppressed = 0;
    for (const auto& [_, n] : counts) {
      if (n < config.k) suppressed += n;
    }
    // Accept this level when suppression is under 10% of rows, or at the
    // final level regardless (suppress what remains).
    const bool acceptable =
        suppressed * 10 <= table.rows.size() || level == config.max_levels;
    if (!acceptable) continue;

    std::vector<std::vector<std::string>> kept;
    kept.reserve(table.rows.size());
    for (auto& row : table.rows) {
      if (counts[ClassKey(row, quasi_idx)] >= config.k) {
        kept.push_back(std::move(row));
      }
    }
    report.suppressed_rows = table.rows.size() - kept.size();
    table.rows = std::move(kept);
    report.generalization_level = level;
    std::map<std::string, size_t> final_counts;
    for (const auto& row : table.rows) ++final_counts[ClassKey(row, quasi_idx)];
    report.equivalence_classes = final_counts.size();
    size_t mn = table.rows.empty() ? 0 : SIZE_MAX;
    for (const auto& [_, n] : final_counts) mn = std::min(mn, n);
    report.k_achieved = table.rows.empty() ? 0 : mn;
    return report;
  }
  return Internal("unreachable: final level always accepted");
}

}  // namespace drai::privacy
