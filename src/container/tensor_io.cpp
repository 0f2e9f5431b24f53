#include "container/tensor_io.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace drai::container {

void WriteTensor(ByteWriter& w, const NDArray& array, codec::Codec codec) {
  const NDArray contiguous =
      array.IsContiguous() ? array : array.AsContiguous();
  w.PutU8(static_cast<uint8_t>(contiguous.dtype()));
  w.PutVarU64(contiguous.rank());
  for (size_t d : contiguous.shape()) w.PutVarU64(d);
  const auto raw = contiguous.raw_bytes();
  if (codec != codec::Codec::kNone) {
    // Word codecs need aligned sizes; fall back to kNone when incompatible.
    if (Result<Bytes> framed = codec::Encode(codec, raw); framed.ok()) {
      w.PutBlob(*framed);
      w.PutU32(Crc32(raw));
      return;
    }
  }
  // The kNone frame goes straight into `w`, with no buffer of its own.
  w.PutVarU64(codec::NoneFrameSize(raw.size()));
  codec::AppendNoneFrame(w, raw);
  w.PutU32(Crc32(raw));
}

Status ReadShape(ByteReader& r, Shape& shape, std::string_view what) {
  uint64_t rank = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(rank));
  if (rank > 16) return DataLoss(std::string(what) + ": rank too large");
  shape.assign(rank, 0);
  uint64_t extent = 1;
  for (auto& d : shape) {
    uint64_t v = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(v));
    d = static_cast<size_t>(v);
    if (__builtin_mul_overflow(extent, std::max<uint64_t>(v, 1), &extent) ||
        extent > (1ull << 40)) {
      return DataLoss(std::string(what) + ": implausible size");
    }
  }
  return Status::Ok();
}

Result<NDArray> ReadTensor(ByteReader& r) {
  uint8_t dtype_byte = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(dtype_byte));
  if (dtype_byte > static_cast<uint8_t>(DType::kU8)) {
    return DataLoss("tensor: bad dtype byte");
  }
  const DType dtype = static_cast<DType>(dtype_byte);
  Shape shape;
  DRAI_RETURN_IF_ERROR(ReadShape(r, shape, "tensor"));
  const size_t numel = ShapeNumel(shape);
  Bytes framed;
  DRAI_RETURN_IF_ERROR(r.GetBlob(framed));
  DRAI_ASSIGN_OR_RETURN(Bytes raw, codec::Decode(framed));
  uint32_t crc = 0;
  DRAI_RETURN_IF_ERROR(r.GetU32(crc));
  if (crc != Crc32(raw)) return DataLoss("tensor: crc mismatch");
  if (raw.size() != numel * DTypeSize(dtype)) {
    return DataLoss("tensor: payload size mismatch");
  }
  NDArray out = NDArray::Zeros(shape, dtype);
  // An empty tensor's buffers may be null, and memcpy forbids null even for
  // zero bytes.
  if (!raw.empty()) std::memcpy(out.raw_bytes_mut().data(), raw.data(), raw.size());
  return out;
}

AttrValue AttrValue::Int(int64_t v) {
  AttrValue a;
  a.kind = Kind::kInt;
  a.i = v;
  return a;
}
AttrValue AttrValue::Double(double v) {
  AttrValue a;
  a.kind = Kind::kDouble;
  a.d = v;
  return a;
}
AttrValue AttrValue::String(std::string v) {
  AttrValue a;
  a.kind = Kind::kString;
  a.s = std::move(v);
  return a;
}
AttrValue AttrValue::DoubleVec(std::vector<double> v) {
  AttrValue a;
  a.kind = Kind::kDoubleVec;
  a.vec = std::move(v);
  return a;
}

std::string AttrValue::ToString() const {
  switch (kind) {
    case Kind::kInt: return std::to_string(i);
    case Kind::kDouble: return FormatDouble(d, 6);
    case Kind::kString: return s;
    case Kind::kDoubleVec: {
      std::string out = "[";
      for (size_t k = 0; k < vec.size(); ++k) {
        if (k) out += ", ";
        out += FormatDouble(vec[k], 6);
      }
      return out + "]";
    }
  }
  return "?";
}

bool AttrValue::operator==(const AttrValue& o) const {
  if (kind != o.kind) return false;
  switch (kind) {
    case Kind::kInt: return i == o.i;
    case Kind::kDouble: return d == o.d;
    case Kind::kString: return s == o.s;
    case Kind::kDoubleVec: return vec == o.vec;
  }
  return false;
}

void WriteAttr(ByteWriter& w, const AttrValue& v) {
  w.PutU8(static_cast<uint8_t>(v.kind));
  switch (v.kind) {
    case AttrValue::Kind::kInt: w.PutVarI64(v.i); break;
    case AttrValue::Kind::kDouble: w.PutF64(v.d); break;
    case AttrValue::Kind::kString: w.PutString(v.s); break;
    case AttrValue::Kind::kDoubleVec: {
      w.PutVarU64(v.vec.size());
      for (double x : v.vec) w.PutF64(x);
      break;
    }
  }
}

Result<AttrValue> ReadAttr(ByteReader& r) {
  uint8_t kind = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(kind));
  AttrValue v;
  switch (kind) {
    case 0:
      v.kind = AttrValue::Kind::kInt;
      DRAI_RETURN_IF_ERROR(r.GetVarI64(v.i));
      break;
    case 1:
      v.kind = AttrValue::Kind::kDouble;
      DRAI_RETURN_IF_ERROR(r.GetF64(v.d));
      break;
    case 2:
      v.kind = AttrValue::Kind::kString;
      DRAI_RETURN_IF_ERROR(r.GetString(v.s));
      break;
    case 3: {
      v.kind = AttrValue::Kind::kDoubleVec;
      uint64_t n = 0;
      DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
      if (n > (1ull << 24)) return DataLoss("attr: vector too large");
      for (uint64_t k = 0; k < n; ++k) {  // grow per value read
        double x = 0;
        DRAI_RETURN_IF_ERROR(r.GetF64(x));
        v.vec.push_back(x);
      }
      break;
    }
    default:
      return DataLoss("attr: bad kind byte");
  }
  return v;
}

}  // namespace drai::container
