#include "core/bundle.hpp"

namespace drai::core {

Result<NDArray> DataBundle::Tensor(const std::string& name) const {
  auto it = tensors.find(name);
  if (it == tensors.end()) return NotFound("bundle tensor not found: " + name);
  return it->second;
}

Result<Bytes> DataBundle::Blob(const std::string& name) const {
  auto it = blobs.find(name);
  if (it == blobs.end()) return NotFound("bundle blob not found: " + name);
  return it->second;
}

std::optional<container::AttrValue> DataBundle::Attr(
    const std::string& name) const {
  auto it = attrs.find(name);
  if (it == attrs.end()) return std::nullopt;
  return it->second;
}

double DataBundle::AttrOr(const std::string& name, double fallback) const {
  auto it = attrs.find(name);
  if (it == attrs.end()) return fallback;
  switch (it->second.kind) {
    case container::AttrValue::Kind::kDouble: return it->second.d;
    case container::AttrValue::Kind::kInt:
      return static_cast<double>(it->second.i);
    default: return fallback;
  }
}

namespace {

constexpr uint32_t kBundleVersion = 1;

void WriteTable(ByteWriter& w, const privacy::Table& table) {
  w.PutVarU64(table.columns.size());
  for (const auto& c : table.columns) w.PutString(c);
  w.PutVarU64(table.rows.size());
  for (const auto& row : table.rows) {
    w.PutVarU64(row.size());
    for (const auto& cell : row) w.PutString(cell);
  }
}

Result<privacy::Table> ReadTable(ByteReader& r) {
  // The counts are untrusted, so nothing is sized from them: a count that
  // overruns the payload fails at the first missing element.
  privacy::Table table;
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    DRAI_RETURN_IF_ERROR(r.GetString(table.columns.emplace_back()));
  }
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t cells = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(cells));
    auto& row = table.rows.emplace_back();
    for (uint64_t c = 0; c < cells; ++c) {
      DRAI_RETURN_IF_ERROR(r.GetString(row.emplace_back()));
    }
  }
  return table;
}

void WriteSignal(ByteWriter& w, const timeseries::Signal& s) {
  w.PutString(s.name);
  w.PutVarU64(s.t.size());
  for (double t : s.t) w.PutF64(t);
  w.PutVarU64(s.v.size());
  for (double v : s.v) w.PutF64(v);
}

Result<timeseries::Signal> ReadSignal(ByteReader& r) {
  timeseries::Signal s;
  DRAI_RETURN_IF_ERROR(r.GetString(s.name));
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  if (n > r.remaining() / sizeof(double)) {
    return DataLoss("bundle signal: timestamp count exceeds payload");
  }
  s.t.resize(n);
  for (auto& t : s.t) DRAI_RETURN_IF_ERROR(r.GetF64(t));
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  if (n > r.remaining() / sizeof(double)) {
    return DataLoss("bundle signal: value count exceeds payload");
  }
  s.v.resize(n);
  for (auto& v : s.v) DRAI_RETURN_IF_ERROR(r.GetF64(v));
  return s;
}

}  // namespace

Bytes DataBundle::Serialize() const {
  ByteWriter w(SerializedSizeHint());
  Serialize(w);
  return w.Take();
}

void DataBundle::Serialize(ByteWriter& w) const {
  w.PutU32(kBundleVersion);
  w.PutVarU64(blobs.size());
  for (const auto& [name, b] : blobs) {
    w.PutString(name);
    w.PutBlob(b);
  }
  w.PutVarU64(tensors.size());
  for (const auto& [name, t] : tensors) {
    w.PutString(name);
    container::WriteTensor(w, t);
  }
  w.PutVarU64(tables.size());
  for (const auto& [name, table] : tables) {
    w.PutString(name);
    WriteTable(w, table);
  }
  w.PutVarU64(signal_sets.size());
  for (const auto& [name, signals] : signal_sets) {
    w.PutString(name);
    w.PutVarU64(signals.size());
    for (const auto& s : signals) WriteSignal(w, s);
  }
  w.PutVarU64(examples.size());
  for (const auto& ex : examples) {
    w.PutBlobWith(ex.SerializedSizeHint(),
                  [&](ByteWriter& out) { ex.Serialize(out); });
  }
  w.PutVarU64(attrs.size());
  for (const auto& [name, v] : attrs) {
    w.PutString(name);
    container::WriteAttr(w, v);
  }
}

uint64_t DataBundle::SerializedSizeHint() const {
  // Every name and count is a varint of at most a few bytes; 16 per entry
  // and 48 per tensor header cover them.
  uint64_t total = 64;
  for (const auto& [name, b] : blobs) total += name.size() + b.size() + 16;
  for (const auto& [name, t] : tensors) total += name.size() + t.nbytes() + 48;
  for (const auto& [name, table] : tables) {
    total += name.size() + 16;
    for (const auto& c : table.columns) total += c.size() + 2;
    for (const auto& row : table.rows) {
      total += 2;
      for (const auto& cell : row) total += cell.size() + 2;
    }
  }
  for (const auto& [name, signals] : signal_sets) {
    total += name.size() + 16;
    for (const auto& s : signals) {
      total += s.name.size() + 8 * (s.t.size() + s.v.size()) + 16;
    }
  }
  for (const auto& ex : examples) total += ex.SerializedSizeHint() + 4;
  for (const auto& [name, v] : attrs) {
    total += name.size() + v.s.size() + 8 * v.vec.size() + 16;
  }
  return total;
}

Result<DataBundle> DataBundle::Parse(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  uint32_t version = 0;
  DRAI_RETURN_IF_ERROR(r.GetU32(version));
  if (version != kBundleVersion) {
    return DataLoss("bundle version " + std::to_string(version) +
                    " unsupported");
  }
  DataBundle bundle;
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    Bytes b;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_RETURN_IF_ERROR(r.GetBlob(b));
    bundle.blobs.emplace(std::move(name), std::move(b));
  }
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(NDArray t, container::ReadTensor(r));
    bundle.tensors.emplace(std::move(name), std::move(t));
  }
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(privacy::Table table, ReadTable(r));
    bundle.tables.emplace(std::move(name), std::move(table));
  }
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    uint64_t count = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(count));
    // No reserve: the count is untrusted (see ReadTable).
    std::vector<timeseries::Signal> signals;
    for (uint64_t k = 0; k < count; ++k) {
      DRAI_ASSIGN_OR_RETURN(timeseries::Signal s, ReadSignal(r));
      signals.push_back(std::move(s));
    }
    bundle.signal_sets.emplace(std::move(name), std::move(signals));
  }
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    Bytes payload;
    DRAI_RETURN_IF_ERROR(r.GetBlob(payload));
    DRAI_ASSIGN_OR_RETURN(shard::Example ex, shard::Example::Parse(payload));
    bundle.examples.push_back(std::move(ex));
  }
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(container::AttrValue v, container::ReadAttr(r));
    bundle.attrs.emplace(std::move(name), std::move(v));
  }
  if (!r.exhausted()) {
    return DataLoss("bundle payload has trailing bytes");
  }
  return bundle;
}

DataBundle DataBundle::Clone() const {
  DataBundle out;
  out.blobs = blobs;
  for (const auto& [name, t] : tensors) {
    out.tensors.emplace(name, t.AsContiguous());
  }
  out.tables = tables;
  out.signal_sets = signal_sets;
  out.examples.reserve(examples.size());
  for (const auto& ex : examples) {
    shard::Example copy;
    copy.key = ex.key;
    for (const auto& [name, f] : ex.features) {
      copy.features.emplace(name, f.AsContiguous());
    }
    out.examples.push_back(std::move(copy));
  }
  out.attrs = attrs;
  return out;
}

uint64_t DataBundle::ApproxBytes() const {
  uint64_t total = 0;
  for (const auto& [_, b] : blobs) total += b.size();
  for (const auto& [_, t] : tensors) total += t.nbytes();
  for (const auto& [_, table] : tables) {
    for (const auto& row : table.rows) {
      for (const auto& cell : row) total += cell.size();
    }
  }
  for (const auto& [_, signals] : signal_sets) {
    for (const auto& s : signals) total += s.size() * 16;
  }
  for (const auto& ex : examples) total += ex.PayloadBytes();
  return total;
}

}  // namespace drai::core
