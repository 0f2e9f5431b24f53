#include "codec/codec.hpp"

#include <algorithm>
#include <cstring>

namespace drai::codec {

std::string_view CodecName(Codec c) {
  switch (c) {
    case Codec::kNone: return "none";
    case Codec::kRle: return "rle";
    case Codec::kDeltaI32: return "delta-i32";
    case Codec::kDeltaI64: return "delta-i64";
    case Codec::kLz: return "lz";
    case Codec::kXorF32: return "xor-f32";
    case Codec::kXorF64: return "xor-f64";
  }
  return "?";
}

namespace {

size_t WordWidth(Codec c) {
  switch (c) {
    case Codec::kDeltaI32:
    case Codec::kXorF32:
      return 4;
    case Codec::kDeltaI64:
    case Codec::kXorF64:
      return 8;
    default:
      return 1;
  }
}

}  // namespace

Result<Bytes> Encode(Codec codec, std::span<const std::byte> raw) {
  const size_t width = WordWidth(codec);
  if (raw.size() % width != 0) {
    return InvalidArgument(std::string("codec ") + std::string(CodecName(codec)) +
                           " requires size divisible by " +
                           std::to_string(width));
  }
  if (codec == Codec::kNone) {
    ByteWriter w(NoneFrameSize(raw.size()));
    AppendNoneFrame(w, raw);
    return w.Take();
  }
  Bytes packed;
  switch (codec) {
    case Codec::kNone: break;
    case Codec::kRle: packed = RleCompress(raw); break;
    case Codec::kDeltaI32: packed = DeltaCompressI32(raw); break;
    case Codec::kDeltaI64: packed = DeltaCompressI64(raw); break;
    case Codec::kLz: packed = LzCompress(raw); break;
    case Codec::kXorF32: packed = XorCompressF32(raw); break;
    case Codec::kXorF64: packed = XorCompressF64(raw); break;
  }
  // Sized from the packed payload, so a frame that does not compress never
  // regrows the buffer.
  ByteWriter w(1 + ByteWriter::VarU64Size(raw.size()) + packed.size());
  w.PutU8(static_cast<uint8_t>(codec));
  w.PutVarU64(raw.size());
  w.PutRaw(packed);
  return w.Take();
}

size_t NoneFrameSize(size_t raw_size) {
  return 1 + ByteWriter::VarU64Size(raw_size) + raw_size;
}

void AppendNoneFrame(ByteWriter& w, std::span<const std::byte> raw) {
  w.PutU8(static_cast<uint8_t>(Codec::kNone));
  w.PutVarU64(raw.size());
  w.PutRaw(raw);
}

Result<Codec> PeekCodec(std::span<const std::byte> framed) {
  if (framed.empty()) return DataLoss("empty codec frame");
  const uint8_t id = static_cast<uint8_t>(framed[0]);
  if (id > static_cast<uint8_t>(Codec::kXorF64)) {
    return DataLoss("unknown codec id " + std::to_string(id));
  }
  return static_cast<Codec>(id);
}

Result<Bytes> Decode(std::span<const std::byte> framed) {
  ByteReader r(framed);
  uint8_t id = 0;
  DRAI_RETURN_IF_ERROR(r.GetU8(id));
  if (id > static_cast<uint8_t>(Codec::kXorF64)) {
    return DataLoss("unknown codec id " + std::to_string(id));
  }
  const Codec codec = static_cast<Codec>(id);
  uint64_t raw_size = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(raw_size));
  std::span<const std::byte> payload;
  DRAI_RETURN_IF_ERROR(r.GetSpan(r.remaining(), payload));
  switch (codec) {
    case Codec::kNone: {
      if (payload.size() != raw_size) return DataLoss("kNone size mismatch");
      return Bytes(payload.begin(), payload.end());
    }
    case Codec::kRle:
      return RleDecompress(payload, raw_size);
    case Codec::kDeltaI32:
      return DeltaDecompressI32(payload, raw_size);
    case Codec::kDeltaI64:
      return DeltaDecompressI64(payload, raw_size);
    case Codec::kLz:
      return LzDecompress(payload, raw_size);
    case Codec::kXorF32:
      return XorDecompressF32(payload, raw_size);
    case Codec::kXorF64:
      return XorDecompressF64(payload, raw_size);
  }
  return Internal("unreachable codec");
}

// ---- RLE -------------------------------------------------------------
// Format: sequence of (count:varint, literal_flag:u8, then either one byte
// repeated `count` times, or `count` literal bytes). Runs >= 4 become
// repeats, shorter stretches are emitted as literal blocks.

Bytes RleCompress(std::span<const std::byte> raw) {
  ByteWriter w;
  size_t i = 0;
  const size_t n = raw.size();
  while (i < n) {
    // Measure the run starting at i.
    size_t run = 1;
    while (i + run < n && raw[i + run] == raw[i]) ++run;
    if (run >= 4) {
      w.PutVarU64(run);
      w.PutU8(1);  // repeat
      w.PutU8(static_cast<uint8_t>(raw[i]));
      i += run;
    } else {
      // Collect a literal stretch until the next long run (or end).
      size_t j = i;
      while (j < n) {
        size_t r2 = 1;
        while (j + r2 < n && raw[j + r2] == raw[j]) ++r2;
        if (r2 >= 4) break;
        j += r2;
      }
      const size_t len = j - i;
      w.PutVarU64(len);
      w.PutU8(0);  // literals
      w.PutRaw(raw.subspan(i, len));
      i = j;
    }
  }
  return w.Take();
}

Result<Bytes> RleDecompress(std::span<const std::byte> packed,
                            size_t raw_size) {
  Bytes out;
  // The header's claim is untrusted: cap the up-front reservation at the
  // payload size and let legitimate runs grow the buffer.
  out.reserve(std::min<size_t>(raw_size, packed.size()));
  ByteReader r(packed);
  while (!r.exhausted()) {
    uint64_t count = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(count));
    uint8_t flag = 0;
    DRAI_RETURN_IF_ERROR(r.GetU8(flag));
    // out.size() <= raw_size holds here, so this cannot wrap for any count.
    if (count > raw_size - out.size()) return DataLoss("RLE overruns raw size");
    if (flag == 1) {
      uint8_t b = 0;
      DRAI_RETURN_IF_ERROR(r.GetU8(b));
      out.insert(out.end(), count, static_cast<std::byte>(b));
    } else if (flag == 0) {
      std::span<const std::byte> lit;
      DRAI_RETURN_IF_ERROR(r.GetSpan(count, lit));
      out.insert(out.end(), lit.begin(), lit.end());
    } else {
      return DataLoss("RLE bad block flag");
    }
  }
  if (out.size() != raw_size) return DataLoss("RLE size mismatch");
  return out;
}

// ---- Delta varint ------------------------------------------------------

namespace {

template <typename T>
Bytes DeltaCompressT(std::span<const std::byte> raw) {
  const size_t n = raw.size() / sizeof(T);
  ByteWriter w;
  T prev = 0;
  for (size_t i = 0; i < n; ++i) {
    T v;
    std::memcpy(&v, raw.data() + i * sizeof(T), sizeof(T));
    // Wrapping difference: full-range int64 neighbours can differ by more
    // than INT64_MAX, where a signed subtraction would overflow.
    const int64_t delta =
        static_cast<int64_t>(static_cast<uint64_t>(v) - static_cast<uint64_t>(prev));
    w.PutVarI64(delta);
    prev = v;
  }
  return w.Take();
}

template <typename T>
Result<Bytes> DeltaDecompressT(std::span<const std::byte> packed,
                               size_t raw_size) {
  if (raw_size % sizeof(T) != 0) return DataLoss("delta raw size not aligned");
  const size_t n = raw_size / sizeof(T);
  // Every element takes at least one varint byte, so a header claiming more
  // elements than payload bytes is corrupt; reject it before allocating.
  if (n > packed.size()) return DataLoss("delta raw size exceeds payload");
  Bytes out(raw_size);
  ByteReader r(packed);
  T prev = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t delta = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarI64(delta));
    const T v = static_cast<T>(static_cast<uint64_t>(prev) +
                               static_cast<uint64_t>(delta));
    std::memcpy(out.data() + i * sizeof(T), &v, sizeof(T));
    prev = v;
  }
  if (!r.exhausted()) return DataLoss("delta trailing bytes");
  return out;
}

}  // namespace

Bytes DeltaCompressI32(std::span<const std::byte> raw) {
  return DeltaCompressT<int32_t>(raw);
}
Result<Bytes> DeltaDecompressI32(std::span<const std::byte> packed,
                                 size_t raw_size) {
  return DeltaDecompressT<int32_t>(packed, raw_size);
}
Bytes DeltaCompressI64(std::span<const std::byte> raw) {
  return DeltaCompressT<int64_t>(raw);
}
Result<Bytes> DeltaDecompressI64(std::span<const std::byte> packed,
                                 size_t raw_size) {
  return DeltaDecompressT<int64_t>(packed, raw_size);
}

}  // namespace drai::codec
