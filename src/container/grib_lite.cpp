#include "container/grib_lite.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "codec/codec.hpp"
#include "common/hash.hpp"
#include "ndarray/kernels.hpp"

namespace drai::container {

namespace {
constexpr char kGribMagic[4] = {'G', 'R', 'B', 'L'};
}

Result<Bytes> EncodeGribMessage(GribMessage& msg) {
  if (msg.field.rank() != 2) {
    return InvalidArgument("grib: field must be 2-D [lat, lon]");
  }
  if (!IsFloating(msg.field.dtype())) {
    return InvalidArgument("grib: field must be floating point");
  }
  if (msg.bits != 8 && msg.bits != 16) {
    return InvalidArgument("grib: bits must be 8 or 16");
  }
  msg.n_lat = msg.field.shape()[0];
  msg.n_lon = msg.field.shape()[1];

  // Pack to integers.
  const size_t n = msg.field.numel();
  std::vector<double> values;
  values.reserve(n);
  ForEachAsDouble(msg.field, [&values](double x) { values.push_back(x); });
  DRAI_ASSIGN_OR_RETURN(codec::LinearPack pack,
                        codec::LinearQuantize(values, msg.bits));
  msg.pack_error = codec::MeasureLinearError(values, pack);

  ByteWriter w;
  w.PutRaw(kGribMagic, 4);
  w.PutString(msg.variable);
  w.PutI64(msg.valid_time);
  w.PutI32(msg.level_hpa);
  w.PutVarU64(msg.n_lat);
  w.PutVarU64(msg.n_lon);
  w.PutU8(msg.bits);
  w.PutF64(pack.offset);
  w.PutF64(pack.scale);
  // Missing-value bitmap (real GRIB's section 6): 1 bit per cell, packed,
  // then RLE framed — all-present fields cost a few bytes.
  Bytes bitmap((n + 7) / 8, std::byte{0});
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      bitmap[i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
  DRAI_ASSIGN_OR_RETURN(Bytes bitmap_framed,
                        codec::Encode(codec::Codec::kRle, bitmap));
  w.PutBlob(bitmap_framed);
  if (msg.bits == 8) {
    w.PutRaw(pack.packed8.data(), pack.packed8.size());
  } else {
    // Little-endian 16-bit quanta.
    for (uint16_t q : pack.packed16) w.PutU16(q);
  }
  // CRC over the whole message body (after magic).
  const auto body = w.bytes().subspan(4);
  w.PutU32(Crc32(body));
  return w.Take();
}

Status AppendGribMessage(Bytes& file, GribMessage& msg) {
  DRAI_ASSIGN_OR_RETURN(Bytes encoded, EncodeGribMessage(msg));
  file.insert(file.end(), encoded.begin(), encoded.end());
  return Status::Ok();
}

Result<std::vector<GribMessage>> DecodeGribFile(
    std::span<const std::byte> file) {
  std::vector<GribMessage> out;
  ByteReader r(file);
  while (!r.exhausted()) {
    const size_t msg_start = r.position();
    char magic[4];
    DRAI_RETURN_IF_ERROR(r.GetRaw(magic, 4));
    if (std::memcmp(magic, kGribMagic, 4) != 0) {
      return DataLoss("grib: bad message magic at offset " +
                      std::to_string(msg_start));
    }
    GribMessage msg;
    DRAI_RETURN_IF_ERROR(r.GetString(msg.variable));
    DRAI_RETURN_IF_ERROR(r.GetI64(msg.valid_time));
    DRAI_RETURN_IF_ERROR(r.GetI32(msg.level_hpa));
    uint64_t n_lat = 0, n_lon = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(n_lat));
    DRAI_RETURN_IF_ERROR(r.GetVarU64(n_lon));
    if (n_lat == 0 || n_lon == 0 || n_lat * n_lon > (1ull << 32)) {
      return DataLoss("grib: implausible grid dims");
    }
    msg.n_lat = static_cast<size_t>(n_lat);
    msg.n_lon = static_cast<size_t>(n_lon);
    DRAI_RETURN_IF_ERROR(r.GetU8(msg.bits));
    if (msg.bits != 8 && msg.bits != 16) return DataLoss("grib: bad bits");
    double offset = 0, scale = 0;
    DRAI_RETURN_IF_ERROR(r.GetF64(offset));
    DRAI_RETURN_IF_ERROR(r.GetF64(scale));
    const size_t n = msg.n_lat * msg.n_lon;
    Bytes bitmap_framed;
    DRAI_RETURN_IF_ERROR(r.GetBlob(bitmap_framed));
    DRAI_ASSIGN_OR_RETURN(Bytes bitmap, codec::Decode(bitmap_framed));
    if (bitmap.size() != (n + 7) / 8) {
      return DataLoss("grib: bitmap size mismatch");
    }
    const auto is_missing = [&bitmap](size_t i) {
      return (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1;
    };

    // Check the payload holds every quantum before allocating the field:
    // the dims cap alone still admits a 32 GiB grid.
    const size_t quantum_bytes = msg.bits / 8;
    if (r.remaining() < n * quantum_bytes) {
      return DataLoss("grib: payload shorter than " + std::to_string(n) +
                      " quanta");
    }
    std::span<const std::byte> quanta;
    DRAI_RETURN_IF_ERROR(r.GetSpan(n * quantum_bytes, quanta));
    msg.field = NDArray::Zeros({msg.n_lat, msg.n_lon}, DType::kF64);
    const std::span<double> cells = msg.field.span<double>();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (size_t i = 0; i < n; ++i) {
      // Little-endian quanta, as EncodeGribMessage writes them.
      const size_t at = i * quantum_bytes;
      unsigned quantum = std::to_integer<unsigned>(quanta[at]);
      if (quantum_bytes == 2) {
        quantum |= std::to_integer<unsigned>(quanta[at + 1]) << 8;
      }
      cells[i] = is_missing(i)
                     ? nan
                     : offset + scale * static_cast<double>(quantum);
    }
    // Validate CRC (covers body between magic and crc).
    const size_t body_end = r.position();
    uint32_t stored_crc = 0;
    DRAI_RETURN_IF_ERROR(r.GetU32(stored_crc));
    const auto body = file.subspan(msg_start + 4, body_end - (msg_start + 4));
    if (Crc32(body) != stored_crc) {
      return DataLoss("grib: message crc mismatch for " + msg.variable);
    }
    out.push_back(std::move(msg));
  }
  return out;
}

}  // namespace drai::container
