// drai/container/tensor_io.hpp
//
// Shared NDArray <-> bytes serialization used by every container format.
// Layout: dtype:u8, rank:varint, dims:varint*, codec frame of the raw
// element bytes, crc32:u32 of the *raw* bytes (integrity survives codec
// changes). Arrays are stored contiguously (views are materialized).
#pragma once

#include "codec/codec.hpp"
#include "common/bytes.hpp"
#include "ndarray/ndarray.hpp"

namespace drai::container {

/// Append a serialized tensor to `w`.
void WriteTensor(ByteWriter& w, const NDArray& array,
                 codec::Codec codec = codec::Codec::kNone);

/// Parse a tensor written by WriteTensor. Validates CRC.
Result<NDArray> ReadTensor(ByteReader& r);

/// Reads a shape (rank varint, then the dims) into `shape`. kDataLoss,
/// with `what` in the message, for a rank above 16 or dims whose
/// overflow-checked product passes 2^40 elements. A zero dim counts as 1
/// in that product, so it bounds every partial product an array's strides
/// take, also in an empty array such as {0, 2^32, 2^32}; and the byte
/// count, elements times a dtype size of at most 8, fits in 64 bits.
Status ReadShape(ByteReader& r, Shape& shape, std::string_view what);

/// Attribute value for containers: int, float, string, or double vector.
struct AttrValue {
  enum class Kind : uint8_t { kInt = 0, kDouble = 1, kString = 2, kDoubleVec = 3 };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  double d = 0;
  std::string s;
  std::vector<double> vec;

  static AttrValue Int(int64_t v);
  static AttrValue Double(double v);
  static AttrValue String(std::string v);
  static AttrValue DoubleVec(std::vector<double> v);

  [[nodiscard]] std::string ToString() const;
  bool operator==(const AttrValue& o) const;
};

void WriteAttr(ByteWriter& w, const AttrValue& v);
Result<AttrValue> ReadAttr(ByteReader& r);

}  // namespace drai::container
