#include "container/grib_lite.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

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

  // A contiguous f64 field is packed in place; other dtypes and strided
  // views are widened into one dense copy first.
  const size_t n = msg.field.numel();
  std::vector<double> copy;
  std::span<const double> values;
  if (msg.field.dtype() == DType::kF64 && msg.field.IsContiguous()) {
    values = std::as_const(msg.field).span<double>();
  } else {
    copy.reserve(n);
    ForEachAsDouble(msg.field, [&copy](double x) { copy.push_back(x); });
    values = copy;
  }
  DRAI_ASSIGN_OR_RETURN(codec::LinearPack pack,
                        codec::LinearQuantize(values, msg.bits));
  msg.pack_error = pack.error;

  // Missing-value bitmap (real GRIB's section 6): 1 bit per cell, packed,
  // then RLE framed — all-present fields cost a few bytes.
  Bytes bitmap((n + 7) / 8);
  for (size_t byte = 0; byte < bitmap.size(); ++byte) {
    unsigned bits = 0;
    const size_t end = std::min(n - 8 * byte, size_t{8});
    for (size_t k = 0; k < end; ++k) {
      bits |= unsigned{!std::isfinite(values[8 * byte + k])} << k;
    }
    bitmap[byte] = static_cast<std::byte>(bits);
  }
  DRAI_ASSIGN_OR_RETURN(Bytes bitmap_framed,
                        codec::Encode(codec::Codec::kRle, bitmap));

  // Presized: the fixed-width fields and four varints take at most 77 bytes.
  ByteWriter w(80 + msg.variable.size() + bitmap_framed.size() +
               n * (msg.bits / 8));
  w.PutMagic({kGribMagic, 4});
  w.PutString(msg.variable);
  w.PutI64(msg.valid_time);
  w.PutI32(msg.level_hpa);
  w.PutVarU64(msg.n_lat);
  w.PutVarU64(msg.n_lon);
  w.PutU8(msg.bits);
  w.PutF64(pack.offset);
  w.PutF64(pack.scale);
  w.PutBlob(bitmap_framed);
  if (msg.bits == 8) {
    w.PutRaw(pack.packed8.data(), pack.packed8.size());
  } else {
    w.PutU16s(pack.packed16);  // little-endian 16-bit quanta
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
    uint64_t n_cells = 0;
    if (n_lat == 0 || n_lon == 0 ||
        __builtin_mul_overflow(n_lat, n_lon, &n_cells) ||
        n_cells > (1ull << 32)) {
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
    double* cells = msg.field.span<double>().data();
    // Expand every quantum (little-endian, as EncodeGribMessage writes
    // them), then overwrite the missing cells; a cell's bytes are the same
    // as choosing NaN or offset + scale * q per cell.
    const auto* q = reinterpret_cast<const uint8_t*>(quanta.data());
    if (quantum_bytes == 2) {
      for (size_t i = 0; i < n; ++i) {
        const unsigned quantum = q[2 * i] | (unsigned{q[2 * i + 1]} << 8);
        cells[i] = offset + scale * static_cast<double>(quantum);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        cells[i] = offset + scale * static_cast<double>(q[i]);
      }
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (size_t byte = 0; byte < bitmap.size(); ++byte) {
      unsigned bits = std::to_integer<unsigned>(bitmap[byte]);
      if (bits == 0) continue;
      // Bits past the last cell are padding, never missing cells.
      if (8 * byte + 8 > n) bits &= (1u << (n - 8 * byte)) - 1;
      for (; bits != 0; bits &= bits - 1) {
        cells[8 * byte + static_cast<size_t>(std::countr_zero(bits))] = nan;
      }
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
