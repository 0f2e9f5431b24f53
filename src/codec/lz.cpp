// LZ77 with a hash-chain matcher over a 64 KiB window — the general-purpose
// byte codec (think "deflate without Huffman"). Token stream:
//   literal: 0x00, len:varint, bytes
//   match:   0x01, len:varint, distance:varint   (len >= 4)
#include <cstring>

#include "codec/codec.hpp"

namespace drai::codec {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kWindow = 1 << 16;
constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;

inline uint32_t HashAt(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

Bytes LzCompress(std::span<const std::byte> raw) {
  ByteWriter w;
  const size_t n = raw.size();
  if (n == 0) return w.Take();

  // head[h] = most recent position with hash h; prev[i % window] = previous
  // position in i's chain.
  std::vector<int64_t> head(kHashSize, -1);
  std::vector<int64_t> prev(kWindow, -1);

  size_t lit_start = 0;
  auto flush_literals = [&](size_t upto) {
    if (upto > lit_start) {
      w.PutU8(0x00);
      w.PutVarU64(upto - lit_start);
      w.PutRaw(raw.subspan(lit_start, upto - lit_start));
    }
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const uint32_t h = HashAt(raw.data() + i);
      int64_t cand = head[h];
      int chain = 32;  // bounded chain walk: speed/ratio tradeoff
      while (cand >= 0 && chain-- > 0 &&
             i - static_cast<size_t>(cand) <= kWindow) {
        const size_t c = static_cast<size_t>(cand);
        size_t len = 0;
        const size_t max_len = std::min(n - i, kMaxMatch);
        while (len < max_len && raw[c + len] == raw[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len >= 128) break;  // good enough
        }
        cand = prev[c % kWindow];
      }
    }
    if (best_len >= kMinMatch) {
      flush_literals(i);
      w.PutU8(0x01);
      w.PutVarU64(best_len);
      w.PutVarU64(best_dist);
      // Insert hash entries for the covered positions (sparsely, every
      // position would be exact but slower; every position is still cheap
      // here because chains are bounded).
      const size_t end = i + best_len;
      while (i < end && i + kMinMatch <= n) {
        const uint32_t h = HashAt(raw.data() + i);
        prev[i % kWindow] = head[h];
        head[h] = static_cast<int64_t>(i);
        ++i;
      }
      i = end;
      lit_start = i;
    } else {
      if (i + kMinMatch <= n) {
        const uint32_t h = HashAt(raw.data() + i);
        prev[i % kWindow] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      ++i;
    }
  }
  flush_literals(n);
  return w.Take();
}

Result<Bytes> LzDecompress(std::span<const std::byte> packed,
                           size_t raw_size) {
  // A match token is at least 4 bytes and yields at most kMaxMatch bytes, a
  // literal token yields fewer bytes than it holds. A header claiming more
  // than that bound is corrupt; reject it before reserving.
  if (raw_size / (kMaxMatch / 4) > packed.size()) {
    return DataLoss("LZ raw size exceeds payload bound");
  }
  Bytes out;
  out.reserve(raw_size);
  ByteReader r(packed);
  while (!r.exhausted()) {
    uint8_t tag = 0;
    DRAI_RETURN_IF_ERROR(r.GetU8(tag));
    if (tag == 0x00) {
      uint64_t len = 0;
      DRAI_RETURN_IF_ERROR(r.GetVarU64(len));
      if (out.size() + len > raw_size) return DataLoss("LZ literal overrun");
      std::span<const std::byte> lit;
      DRAI_RETURN_IF_ERROR(r.GetSpan(len, lit));
      out.insert(out.end(), lit.begin(), lit.end());
    } else if (tag == 0x01) {
      uint64_t len = 0, dist = 0;
      DRAI_RETURN_IF_ERROR(r.GetVarU64(len));
      DRAI_RETURN_IF_ERROR(r.GetVarU64(dist));
      if (dist == 0 || dist > out.size()) return DataLoss("LZ bad distance");
      if (len > kMaxMatch) return DataLoss("LZ match too long");
      if (out.size() + len > raw_size) return DataLoss("LZ match overrun");
      // Byte-at-a-time copy: overlapping matches (dist < len) must repeat.
      size_t src = out.size() - dist;
      for (uint64_t k = 0; k < len; ++k) {
        out.push_back(out[src + k]);
      }
    } else {
      return DataLoss("LZ bad token tag");
    }
  }
  if (out.size() != raw_size) return DataLoss("LZ size mismatch");
  return out;
}

}  // namespace drai::codec
