#include "container/sdf.hpp"

#include <cstring>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace drai::container {

// ---- SdfDataset ---------------------------------------------------------

SdfDataset::SdfDataset(const NDArray& data, SdfDatasetOptions options) {
  const NDArray contiguous = data.IsContiguous() ? data : data.AsContiguous();
  shape_ = contiguous.shape();
  dtype_ = contiguous.dtype();
  codec_ = options.codec;
  const size_t rows = shape_.empty() ? 1 : shape_[0];
  chunk_rows_ = options.chunk_rows == 0 ? rows : options.chunk_rows;
  if (chunk_rows_ == 0) chunk_rows_ = 1;

  const size_t row_bytes =
      rows == 0 ? 0 : contiguous.nbytes() / std::max<size_t>(rows, 1);
  const auto raw = contiguous.raw_bytes();
  size_t row = 0;
  while (row < rows || (rows == 0 && chunks_.empty())) {
    const size_t take = std::min(chunk_rows_, rows - row);
    const std::span<const std::byte> slice =
        raw.subspan(row * row_bytes, take * row_bytes);
    Chunk c;
    Result<Bytes> framed = codec::Encode(codec_, slice);
    if (!framed.ok()) framed = codec::Encode(codec::Codec::kNone, slice);
    c.encoded = std::move(framed).value();
    c.raw_crc = Crc32(slice);
    chunks_.push_back(std::move(c));
    row += take;
    if (rows == 0) break;
  }
  if (chunks_.empty()) {
    // Zero-row dataset still carries one empty chunk so the layout is
    // uniform.
    Chunk c;
    c.encoded = codec::Encode(codec::Codec::kNone, {}).value();
    c.raw_crc = Crc32(std::span<const std::byte>{});
    chunks_.push_back(std::move(c));
  }
}

size_t SdfDataset::stored_bytes() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.encoded.size();
  return total;
}

size_t SdfDataset::RowsInChunk(size_t index) const {
  const size_t rows = shape_.empty() ? 1 : shape_[0];
  const size_t start = index * chunk_rows_;
  if (start >= rows) return 0;
  return std::min(chunk_rows_, rows - start);
}

Result<NDArray> SdfDataset::DecodeChunk(size_t index) const {
  if (index >= chunks_.size()) return OutOfRange("chunk index out of range");
  DRAI_ASSIGN_OR_RETURN(Bytes raw, codec::Decode(chunks_[index].encoded));
  if (Crc32(raw) != chunks_[index].raw_crc) {
    return DataLoss("sdf chunk crc mismatch");
  }
  Shape chunk_shape = shape_;
  if (!chunk_shape.empty()) chunk_shape[0] = RowsInChunk(index);
  if (raw.size() != ShapeNumel(chunk_shape) * DTypeSize(dtype_)) {
    return DataLoss("sdf chunk size mismatch");
  }
  NDArray out = NDArray::Zeros(chunk_shape, dtype_);
  if (!raw.empty()) {
    std::memcpy(out.raw_bytes_mut().data(), raw.data(), raw.size());
  }
  return out;
}

Result<NDArray> SdfDataset::Read() const {
  const size_t rows = shape_.empty() ? 1 : shape_[0];
  return ReadRows(0, rows);
}

Result<NDArray> SdfDataset::ReadRows(size_t row_begin, size_t row_end) const {
  const size_t rows = shape_.empty() ? 1 : shape_[0];
  if (row_begin > row_end || row_end > rows) {
    return OutOfRange("ReadRows: bad row range");
  }
  Shape out_shape = shape_;
  if (!out_shape.empty()) out_shape[0] = row_end - row_begin;
  NDArray out = NDArray::Zeros(out_shape, dtype_);
  if (row_end == row_begin) return out;

  const size_t row_bytes = out.nbytes() / std::max<size_t>(row_end - row_begin, 1);
  auto out_bytes = out.raw_bytes_mut();
  const size_t first_chunk = row_begin / chunk_rows_;
  const size_t last_chunk = (row_end - 1) / chunk_rows_;
  for (size_t ci = first_chunk; ci <= last_chunk; ++ci) {
    DRAI_ASSIGN_OR_RETURN(NDArray chunk, DecodeChunk(ci));
    const size_t chunk_start_row = ci * chunk_rows_;
    const size_t lo = std::max(row_begin, chunk_start_row);
    const size_t hi = std::min(row_end, chunk_start_row + RowsInChunk(ci));
    if (lo >= hi) continue;
    const auto chunk_bytes = chunk.raw_bytes();
    std::memcpy(out_bytes.data() + (lo - row_begin) * row_bytes,
                chunk_bytes.data() + (lo - chunk_start_row) * row_bytes,
                (hi - lo) * row_bytes);
  }
  return out;
}

void SdfDataset::Serialize(ByteWriter& w) const {
  w.PutU8(static_cast<uint8_t>(dtype_));
  w.PutVarU64(shape_.size());
  for (size_t d : shape_) w.PutVarU64(d);
  w.PutVarU64(chunk_rows_);
  w.PutU8(static_cast<uint8_t>(codec_));
  w.PutVarU64(chunks_.size());
  for (const Chunk& c : chunks_) {
    w.PutBlob(c.encoded);
    w.PutU32(c.raw_crc);
  }
}

Result<SdfDataset> SdfDataset::Deserialize(ByteReader& r) {
  SdfDataset d;
  uint8_t dtype = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(dtype));
  if (dtype > static_cast<uint8_t>(DType::kU8)) {
    return DataLoss("sdf dataset: bad dtype");
  }
  d.dtype_ = static_cast<DType>(dtype);
  DRAI_RETURN_IF_ERROR(ReadShape(r, d.shape_, "sdf dataset"));
  uint64_t chunk_rows = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(chunk_rows));
  d.chunk_rows_ = static_cast<size_t>(chunk_rows);
  if (d.chunk_rows_ == 0) return DataLoss("sdf dataset: zero chunk_rows");
  uint8_t codec = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(codec));
  if (codec > static_cast<uint8_t>(codec::Codec::kXorF64)) {
    return DataLoss("sdf dataset: bad codec");
  }
  d.codec_ = static_cast<codec::Codec>(codec);
  uint64_t n_chunks = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_chunks));
  const size_t rows = d.shape_.empty() ? 1 : d.shape_[0];
  const size_t expected_chunks =
      rows == 0 ? 1 : (rows + d.chunk_rows_ - 1) / d.chunk_rows_;
  if (n_chunks != expected_chunks) {
    return DataLoss("sdf dataset: chunk count mismatch");
  }
  // Grow per chunk read, never from the claimed count.
  for (uint64_t k = 0; k < n_chunks; ++k) {
    Chunk c;
    DRAI_RETURN_IF_ERROR(r.GetBlob(c.encoded));
    DRAI_RETURN_IF_ERROR(r.GetU32(c.raw_crc));
    d.chunks_.push_back(std::move(c));
  }
  return d;
}

// ---- SdfGroup -----------------------------------------------------------

void SdfGroup::SetAttr(const std::string& name, AttrValue value) {
  attrs_[name] = std::move(value);
}

std::optional<AttrValue> SdfGroup::GetAttr(const std::string& name) const {
  auto it = attrs_.find(name);
  if (it == attrs_.end()) return std::nullopt;
  return it->second;
}

void SdfGroup::PutDataset(const std::string& name, const NDArray& data,
                          SdfDatasetOptions options) {
  datasets_[name] = SdfDataset(data, options);
}

const SdfDataset* SdfGroup::FindDataset(const std::string& name) const {
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : &it->second;
}

Result<NDArray> SdfGroup::ReadDataset(const std::string& name) const {
  const SdfDataset* d = FindDataset(name);
  if (d == nullptr) return NotFound("sdf dataset not found: " + name);
  return d->Read();
}

SdfGroup& SdfGroup::Child(const std::string& name) {
  auto it = children_.find(name);
  if (it == children_.end()) {
    it = children_.emplace(name, std::make_unique<SdfGroup>()).first;
  }
  return *it->second;
}

const SdfGroup* SdfGroup::FindChild(const std::string& name) const {
  auto it = children_.find(name);
  return it == children_.end() ? nullptr : it->second.get();
}

void SdfGroup::Serialize(ByteWriter& w) const {
  w.PutVarU64(attrs_.size());
  for (const auto& [name, value] : attrs_) {
    w.PutString(name);
    WriteAttr(w, value);
  }
  w.PutVarU64(datasets_.size());
  for (const auto& [name, ds] : datasets_) {
    w.PutString(name);
    ds.Serialize(w);
  }
  w.PutVarU64(children_.size());
  for (const auto& [name, child] : children_) {
    w.PutString(name);
    child->Serialize(w);
  }
}

Result<SdfGroup> SdfGroup::Deserialize(ByteReader& r, int depth) {
  if (depth > 64) return DataLoss("sdf group nesting too deep");
  SdfGroup g;
  uint64_t n_attrs = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_attrs));
  if (n_attrs > (1ull << 20)) return DataLoss("sdf: implausible attr count");
  for (uint64_t i = 0; i < n_attrs; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(AttrValue v, ReadAttr(r));
    g.attrs_[name] = std::move(v);
  }
  uint64_t n_datasets = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_datasets));
  if (n_datasets > (1ull << 20)) return DataLoss("sdf: implausible ds count");
  for (uint64_t i = 0; i < n_datasets; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(SdfDataset ds, SdfDataset::Deserialize(r));
    g.datasets_[name] = std::move(ds);
  }
  uint64_t n_children = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_children));
  if (n_children > (1ull << 20)) return DataLoss("sdf: implausible children");
  for (uint64_t i = 0; i < n_children; ++i) {
    std::string name;
    DRAI_RETURN_IF_ERROR(r.GetString(name));
    DRAI_ASSIGN_OR_RETURN(SdfGroup child, SdfGroup::Deserialize(r, depth + 1));
    g.children_[name] = std::make_unique<SdfGroup>(std::move(child));
  }
  return g;
}

// ---- SdfFile -------------------------------------------------------------

const SdfGroup* SdfFile::Resolve(const std::string& path) const {
  const SdfGroup* g = &root_;
  for (const std::string& comp : PathComponents(path)) {
    g = g->FindChild(comp);
    if (g == nullptr) return nullptr;
  }
  return g;
}

SdfGroup& SdfFile::ResolveOrCreate(const std::string& path) {
  SdfGroup* g = &root_;
  for (const std::string& comp : PathComponents(path)) {
    g = &g->Child(comp);
  }
  return *g;
}

Bytes SdfFile::Serialize() const {
  ByteWriter w;
  w.PutMagic({kMagic, 4});
  w.PutU16(kVersion);
  root_.Serialize(w);
  const uint32_t crc = Crc32(w.bytes());
  w.PutU32(crc);
  return w.Take();
}

Result<SdfFile> SdfFile::Parse(std::span<const std::byte> bytes) {
  if (bytes.size() < 10) return DataLoss("sdf: file too small");
  // Trailer CRC covers everything before it.
  ByteReader crc_reader(bytes.subspan(bytes.size() - 4));
  uint32_t stored_crc = 0;
  DRAI_RETURN_IF_ERROR(crc_reader.GetU32(stored_crc));
  if (Crc32(bytes.subspan(0, bytes.size() - 4)) != stored_crc) {
    return DataLoss("sdf: file crc mismatch");
  }
  ByteReader r(bytes.subspan(0, bytes.size() - 4));
  char magic[4];
  DRAI_RETURN_IF_ERROR(r.GetRaw(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) return DataLoss("sdf: bad magic");
  uint16_t version = 0;
  DRAI_RETURN_IF_ERROR(r.GetU16(version));
  if (version != kVersion) {
    return DataLoss("sdf: unsupported version " + std::to_string(version));
  }
  SdfFile f;
  DRAI_ASSIGN_OR_RETURN(f.root_, SdfGroup::Deserialize(r));
  if (!r.exhausted()) return DataLoss("sdf: trailing bytes");
  return f;
}

}  // namespace drai::container
