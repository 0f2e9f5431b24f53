#include "common/hash.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace drai {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// CRC-32 table generated at first use.
const uint32_t* CrcTable() {
  static const auto table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Bytewise table update of the inverted CRC register `c`.
uint32_t CrcTableUpdate(uint32_t c, std::span<const std::byte> data) {
  const uint32_t* t = CrcTable();
  for (std::byte b : data) {
    c = t[(c ^ static_cast<uint8_t>(b)) & 0xff] ^ (c >> 8);
  }
  return c;
}

constexpr std::array<uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// ---- Hardware kernels ------------------------------------------------------
//
// Compiled for their instruction sets with function-level target attributes,
// so the rest of the library keeps the baseline x86-64 ISA. They run only
// when CPUID reports the instructions; the flags are read once at static
// initialisation. A call made before that sees false and takes the portable
// path, which yields the same bytes.

bool CpuHasClmul() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  return (c & bit_PCLMUL) && (c & bit_SSE4_1);
}

bool CpuHasShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
}

const bool kUseClmul = CpuHasClmul();
const bool kUseShaNi = CpuHasShaNi();

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: carries the 128 bits of `acc` forward by the distance that
// the bit-reflected constant pair `k` encodes (low qword times low, high
// times high) and xors the result onto `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                               __m128i k,
                                                               __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// CRC-32 of n bytes by carry-less multiplication (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009): four 128-bit lanes fold 64 bytes per step, then fold to one lane,
// reduce 128 -> 64 -> 32 bits and finish with a Barrett reduction.
// Requires n >= 64 and n % 16 == 0; `crc` and the result are the inverted
// register, as in CrcTableUpdate.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Clmul(const uint8_t* p,
                                                               size_t n,
                                                               uint32_t crc) {
  // x^(512+64), x^512 | x^(128+64), x^128 | x^64 mod P, and P' | mu.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load128(p));
    x1 = Fold(x1, k1k2, Load128(p + 16));
    x2 = Fold(x2, k1k2, Load128(p + 32));
    x3 = Fold(x3, k1k2, Load128(p + 48));
  }
  __m128i x = Fold(Fold(Fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = Fold(x, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett: q = floor(x * mu / x^64), crc = x - q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

// Four SHA-256 rounds (group G of 16) plus the message-schedule work that
// overlaps them. w[G % 4] holds message words 4G..4G+3; sha256msg1/msg2
// compute the words of group G + 1 and G + 3 in the ring.
template <int G>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
ShaNiGroup(__m128i& abef, __m128i& cdgh, __m128i (&w)[4], const uint8_t* block,
           __m128i bswap) {
  constexpr int kCur = G % 4, kNext = (G + 1) % 4, kPrev = (G + 3) % 4;
  if constexpr (G < 4) w[kCur] = _mm_shuffle_epi8(Load128(block + 16 * G), bswap);
  const __m128i msg = _mm_add_epi32(
      w[kCur], _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(kSha256K.data() + 4 * G)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  if constexpr (G >= 3 && G <= 14) {
    w[kNext] = _mm_sha256msg2_epu32(
        _mm_add_epi32(w[kNext], _mm_alignr_epi8(w[kCur], w[kPrev], 4)), w[kCur]);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
  if constexpr (G >= 1 && G <= 12) w[kPrev] = _mm_sha256msg1_epu32(w[kPrev], w[kCur]);
}

template <int... G>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
ShaNiRounds(std::integer_sequence<int, G...>, __m128i& abef, __m128i& cdgh,
            const uint8_t* block, __m128i bswap) {
  __m128i w[4] = {};
  (ShaNiGroup<G>(abef, cdgh, w, block, bswap), ...);
}

// SHA-256 compression of nblocks consecutive 64-byte blocks with the SHA
// extensions; the 64 rounds are fully unrolled.
__attribute__((target("sha,sse4.1,ssse3"))) void ShaNiBlocks(
    std::array<uint32_t, 8>& state, const uint8_t* data, size_t nblocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  // sha256rnds2 keeps the state as {a,b,e,f} and {c,d,g,h}.
  const __m128i badc = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xF0);
  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef0 = abef, cdgh0 = cdgh;
    ShaNiRounds(std::make_integer_sequence<int, 16>{}, abef, cdgh, data, bswap);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

void Sha256Blocks(std::array<uint32_t, 8>& state, const uint8_t* data,
                  size_t nblocks) {
#if defined(__x86_64__)
  if (kUseShaNi) return ShaNiBlocks(state, data, nblocks);
#endif
  detail::Sha256PortableBlocks(state, data, nblocks);
}

}  // namespace

uint64_t Fnv1a64(std::span<const std::byte> data, uint64_t seed) {
  uint64_t h = kFnvOffset ^ seed;
  for (std::byte b : data) {
    h ^= static_cast<uint64_t>(static_cast<uint8_t>(b));
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view s, uint64_t seed) {
  return Fnv1a64(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(s.data()),
                                 s.size()),
      seed);
}

uint32_t Crc32(std::span<const std::byte> data, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
#if defined(__x86_64__)
  if (kUseClmul && data.size() >= 64) {
    const size_t bulk = data.size() & ~size_t{15};
    c = Crc32Clmul(reinterpret_cast<const uint8_t*>(data.data()), bulk, c);
    data = data.subspan(bulk);
  }
#endif
  return CrcTableUpdate(c, data) ^ 0xffffffffu;
}

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  return Crc32(
      std::span<const std::byte>(static_cast<const std::byte*>(data), n),
      seed);
}

namespace detail {

uint32_t Crc32Portable(std::span<const std::byte> data, uint32_t seed) {
  return CrcTableUpdate(seed ^ 0xffffffffu, data) ^ 0xffffffffu;
}

void Sha256PortableBlocks(std::array<uint32_t, 8>& state, const uint8_t* data,
                          size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::ProcessBlock(const uint8_t* block) {
  Sha256Blocks(state_, block, 1);
}

void Sha256::Update(std::span<const std::byte> data) {
  if (finished_) throw std::logic_error("Sha256 reused after Finish");
  if (data.empty()) return;
  total_bytes_ += data.size();
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  // Fill a partially-buffered block first.
  if (buffered_ > 0) {
    const size_t take = std::min(n, 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < 64) return;
    ProcessBlock(buffer_.data());
    buffered_ = 0;
  }
  // Whole blocks straight from the input, in one call.
  if (n >= 64) {
    Sha256Blocks(state_, p, n / 64);
    p += n & ~size_t{63};
    n &= 63;
  }
  // Stash the tail.
  if (n > 0) std::memcpy(buffer_.data(), p, n);
  buffered_ = n;
}

void Sha256::Update(std::string_view s) {
  Update(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size()));
}

Sha256Digest Sha256::Finish() {
  if (finished_) throw std::logic_error("Sha256 reused after Finish");
  finished_ = true;
  const uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 8-byte big-endian bit length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    while (buffered_ < 64) buffer_[buffered_++] = 0;
    ProcessBlock(buffer_.data());
    buffered_ = 0;
  }
  while (buffered_ < 56) buffer_[buffered_++] = 0;
  for (int i = 7; i >= 0; --i) {
    buffer_[buffered_++] = static_cast<uint8_t>((bit_len >> (8 * i)) & 0xff);
  }
  ProcessBlock(buffer_.data());

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(std::span<const std::byte> data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

Sha256Digest Sha256::Hash(std::string_view s) {
  Sha256 ctx;
  ctx.Update(s);
  return ctx.Finish();
}

std::string DigestToHex(const Sha256Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Sha256Digest HmacSha256(std::string_view key, std::string_view message) {
  std::array<uint8_t, 64> k{};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::Hash(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(ipad.data()), ipad.size()));
  inner.Update(message);
  const Sha256Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(opad.data()), opad.size()));
  outer.Update(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(inner_digest.data()),
      inner_digest.size()));
  return outer.Finish();
}

}  // namespace drai
