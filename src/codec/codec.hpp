// drai/codec/codec.hpp
//
// Byte-stream compression codecs for the container formats and shards.
// Every codec is self-framing: Encode() prepends a 1-byte codec id and the
// varint raw size, so Decode() can dispatch and validate without side
// channels. Corrupt or truncated payloads return kDataLoss, never UB.
//
// Codecs and the modality they target:
//   kRle     — byte runs: masks, one-hot tiles, categorical rasters
//   kDeltaI32/kDeltaI64 — monotone-ish integer streams: timestamps, indices
//   kLz      — general bytes (LZ77, 64 KiB window, greedy hash-chain match)
//   kXorF32/kXorF64 — smooth float fields (Gorilla-style XOR of consecutive
//                     words; climate/fusion data compresses well)
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace drai::codec {

enum class Codec : uint8_t {
  kNone = 0,
  kRle = 1,
  kDeltaI32 = 2,
  kDeltaI64 = 3,
  kLz = 4,
  kXorF32 = 5,
  kXorF64 = 6,
};

std::string_view CodecName(Codec c);

/// All known codecs (for sweeps/benches).
inline constexpr Codec kAllCodecs[] = {
    Codec::kNone, Codec::kRle,    Codec::kDeltaI32, Codec::kDeltaI64,
    Codec::kLz,   Codec::kXorF32, Codec::kXorF64,
};

/// Compress `raw` with `codec`, producing a self-framed buffer.
/// Word codecs (kDeltaI32/kXorF32/...) require raw.size() to be a multiple
/// of the word width (kInvalidArgument otherwise).
Result<Bytes> Encode(Codec codec, std::span<const std::byte> raw);

/// Size of Encode(kNone, raw) for `raw_size` input bytes.
size_t NoneFrameSize(size_t raw_size);
/// Append Encode(kNone, raw)'s bytes to `w` without building the frame in a
/// buffer of its own.
void AppendNoneFrame(ByteWriter& w, std::span<const std::byte> raw);

/// Inverse of Encode. Reads the frame header, validates, and reproduces the
/// original bytes exactly.
Result<Bytes> Decode(std::span<const std::byte> framed);

/// Peek at the codec id of a framed buffer.
Result<Codec> PeekCodec(std::span<const std::byte> framed);

// Raw (frameless) codec kernels, exposed for tests and for formats that do
// their own framing.
Bytes RleCompress(std::span<const std::byte> raw);
Result<Bytes> RleDecompress(std::span<const std::byte> packed, size_t raw_size);

Bytes DeltaCompressI32(std::span<const std::byte> raw);
Result<Bytes> DeltaDecompressI32(std::span<const std::byte> packed,
                                 size_t raw_size);
Bytes DeltaCompressI64(std::span<const std::byte> raw);
Result<Bytes> DeltaDecompressI64(std::span<const std::byte> packed,
                                 size_t raw_size);

Bytes LzCompress(std::span<const std::byte> raw);
Result<Bytes> LzDecompress(std::span<const std::byte> packed, size_t raw_size);

Bytes XorCompressF32(std::span<const std::byte> raw);
Result<Bytes> XorDecompressF32(std::span<const std::byte> packed,
                               size_t raw_size);
Bytes XorCompressF64(std::span<const std::byte> raw);
Result<Bytes> XorDecompressF64(std::span<const std::byte> packed,
                               size_t raw_size);

}  // namespace drai::codec
