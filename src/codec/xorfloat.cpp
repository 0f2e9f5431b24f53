// Gorilla-style XOR compression for float streams: each word is XORed with
// its predecessor; the result is encoded as (leading-zero-bytes, significant
// bytes). Smooth scientific fields change slowly word-to-word, so XOR
// residuals have many leading zero bytes. Byte-granular (not bit-granular)
// to keep the decoder simple and fast; ratios remain strong on real fields.
//
// Token per word: u8 header = number of significant bytes (0..width), then
// that many low-order bytes of the XOR residual.
#include <cstring>

#include "codec/codec.hpp"

namespace drai::codec {

namespace {

template <typename WordT>
Bytes XorCompressT(std::span<const std::byte> raw) {
  const size_t n = raw.size() / sizeof(WordT);
  ByteWriter w;
  WordT prev = 0;
  for (size_t i = 0; i < n; ++i) {
    WordT v;
    std::memcpy(&v, raw.data() + i * sizeof(WordT), sizeof(WordT));
    WordT x = v ^ prev;
    // Count significant (non-zero) low bytes.
    uint8_t sig = 0;
    WordT t = x;
    while (t != 0) {
      ++sig;
      t >>= 8;
    }
    w.PutU8(sig);
    for (uint8_t b = 0; b < sig; ++b) {
      w.PutU8(static_cast<uint8_t>(x >> (8 * b)));
    }
    prev = v;
  }
  return w.Take();
}

template <typename WordT>
Result<Bytes> XorDecompressT(std::span<const std::byte> packed,
                             size_t raw_size) {
  if (raw_size % sizeof(WordT) != 0) {
    return DataLoss("xor codec raw size not aligned");
  }
  const size_t n = raw_size / sizeof(WordT);
  // Every word takes at least its header byte, so a header claiming more
  // words than payload bytes is corrupt; reject it before allocating.
  if (n > packed.size()) return DataLoss("xor codec raw size exceeds payload");
  Bytes out(raw_size);
  ByteReader r(packed);
  WordT prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint8_t sig = 0;
    DRAI_RETURN_IF_ERROR(r.GetU8(sig));
    if (sig > sizeof(WordT)) return DataLoss("xor codec bad header");
    WordT x = 0;
    for (uint8_t b = 0; b < sig; ++b) {
      uint8_t byte = 0;
      DRAI_RETURN_IF_ERROR(r.GetU8(byte));
      x |= static_cast<WordT>(byte) << (8 * b);
    }
    const WordT v = x ^ prev;
    std::memcpy(out.data() + i * sizeof(WordT), &v, sizeof(WordT));
    prev = v;
  }
  if (!r.exhausted()) return DataLoss("xor codec trailing bytes");
  return out;
}

}  // namespace

Bytes XorCompressF32(std::span<const std::byte> raw) {
  return XorCompressT<uint32_t>(raw);
}
Result<Bytes> XorDecompressF32(std::span<const std::byte> packed,
                               size_t raw_size) {
  return XorDecompressT<uint32_t>(packed, raw_size);
}
Bytes XorCompressF64(std::span<const std::byte> raw) {
  return XorCompressT<uint64_t>(raw);
}
Result<Bytes> XorDecompressF64(std::span<const std::byte> packed,
                               size_t raw_size) {
  return XorDecompressT<uint64_t>(packed, raw_size);
}

}  // namespace drai::codec
