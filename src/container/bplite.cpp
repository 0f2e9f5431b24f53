#include "container/bplite.hpp"

#include <cstring>

#include "common/hash.hpp"
#include "container/tensor_io.hpp"

namespace drai::container {

BpWriter::BpWriter() {
  data_.PutMagic({kMagic, 4});
  data_.PutU16(1);  // version
}

void BpWriter::BeginStep() {
  if (finished_) throw std::logic_error("BpWriter reused after Finish");
  if (in_step_) throw std::logic_error("BeginStep inside an open step");
  in_step_ = true;
}

void BpWriter::Put(const std::string& name, const NDArray& array,
                   codec::Codec codec) {
  if (!in_step_) throw std::logic_error("Put outside a step");
  IndexEntry e;
  e.step = steps_completed_;
  e.name = name;
  e.offset = data_.size();
  WriteTensor(data_, array, codec);
  e.size = data_.size() - e.offset;
  index_.push_back(std::move(e));
}

void BpWriter::EndStep() {
  if (!in_step_) throw std::logic_error("EndStep without BeginStep");
  in_step_ = false;
  ++steps_completed_;
}

Bytes BpWriter::Finish() {
  if (in_step_) throw std::logic_error("Finish inside an open step");
  if (finished_) throw std::logic_error("BpWriter::Finish called twice");
  finished_ = true;

  ByteWriter footer;
  footer.PutU64(steps_completed_);
  footer.PutVarU64(index_.size());
  for (const IndexEntry& e : index_) {
    footer.PutU64(e.step);
    footer.PutString(e.name);
    footer.PutU64(e.offset);
    footer.PutU64(e.size);
  }
  const Bytes footer_bytes = footer.Take();

  data_.PutRaw(footer_bytes);
  data_.PutU64(footer_bytes.size());
  data_.PutU32(Crc32(footer_bytes));
  data_.PutMagic({kMagic, 4});  // tail magic, lets readers find the footer
  return data_.Take();
}

Result<BpReader> BpReader::Open(std::span<const std::byte> file) {
  BpReader rd;
  rd.file_ = file;
  // 4 magic + 2 version + footer_size(8) + crc(4) + 4 tail magic
  if (file.size() < 22) return DataLoss("bplite: file too small");
  if (std::memcmp(file.data(), BpWriter::kMagic, 4) != 0) {
    return DataLoss("bplite: bad head magic");
  }
  if (std::memcmp(file.data() + file.size() - 4, BpWriter::kMagic, 4) != 0) {
    return DataLoss("bplite: bad tail magic (torn file?)");
  }
  ByteReader tail(file.subspan(file.size() - 16, 12));
  uint64_t footer_size = 0;
  uint32_t footer_crc = 0;
  DRAI_RETURN_IF_ERROR(tail.GetU64(footer_size));
  DRAI_RETURN_IF_ERROR(tail.GetU32(footer_crc));
  if (footer_size + 22 > file.size()) return DataLoss("bplite: bad footer size");
  const auto footer_bytes =
      file.subspan(file.size() - 16 - footer_size, footer_size);
  if (Crc32(footer_bytes) != footer_crc) {
    return DataLoss("bplite: footer crc mismatch");
  }
  ByteReader footer(footer_bytes);
  uint64_t steps = 0;
  DRAI_RETURN_IF_ERROR(footer.GetU64(steps));
  rd.step_count_ = static_cast<size_t>(steps);
  uint64_t n_entries = 0;
  DRAI_RETURN_IF_ERROR(footer.GetVarU64(n_entries));
  if (n_entries > (1ull << 24)) return DataLoss("bplite: implausible index");
  rd.data_begin_ = 6;  // magic + version
  for (uint64_t i = 0; i < n_entries; ++i) {
    uint64_t step = 0, offset = 0, size = 0;
    std::string name;
    DRAI_RETURN_IF_ERROR(footer.GetU64(step));
    DRAI_RETURN_IF_ERROR(footer.GetString(name));
    DRAI_RETURN_IF_ERROR(footer.GetU64(offset));
    DRAI_RETURN_IF_ERROR(footer.GetU64(size));
    if (offset + size > file.size() - 16 - footer_size) {
      return DataLoss("bplite: index entry out of bounds");
    }
    rd.index_[{step, name}] = {offset, size};
  }
  return rd;
}

std::vector<std::string> BpReader::Variables(size_t step) const {
  std::vector<std::string> out;
  for (const auto& [key, _] : index_) {
    if (key.first == step) out.push_back(key.second);
  }
  return out;
}

Result<NDArray> BpReader::Get(size_t step, const std::string& name) const {
  auto it = index_.find({static_cast<uint64_t>(step), name});
  if (it == index_.end()) {
    return NotFound("bplite: no variable '" + name + "' in step " +
                    std::to_string(step));
  }
  const auto [offset, size] = it->second;
  ByteReader r(file_.subspan(offset, size));
  return ReadTensor(r);
}

}  // namespace drai::container
