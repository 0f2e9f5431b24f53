// drai/common/hash.hpp
//
// Hashing used across drai:
//  * FNV-1a 64   — fast non-cryptographic hashing (split assignment, maps)
//  * CRC-32      — on-disk integrity for every container format
//  * SHA-256     — provenance content hashes (from-scratch implementation)
//  * HMAC-SHA256 — keyed pseudonymization of PHI/PII identifiers
//
// CRC-32 and SHA-256 pick their kernel once per process from CPUID: on x86-64
// with PCLMULQDQ the CRC folds 64 bytes per step by carry-less multiplication,
// and with the SHA extensions the SHA-256 compression uses sha256rnds2. Every
// other CPU runs the portable table loop and scalar rounds. Both paths give
// the same bytes; there is no switch to force one. The portable kernels stay
// reachable under `detail` so tests can compare the two.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace drai {

/// FNV-1a 64-bit over arbitrary bytes. Deterministic across platforms;
/// used for hash-based train/val/test splitting so splits are reproducible.
uint64_t Fnv1a64(std::span<const std::byte> data, uint64_t seed = 0);
uint64_t Fnv1a64(std::string_view s, uint64_t seed = 0);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
uint32_t Crc32(std::span<const std::byte> data, uint32_t seed = 0);
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// 32-byte SHA-256 digest.
using Sha256Digest = std::array<uint8_t, 32>;

/// Incremental SHA-256. Provenance records hash multi-gigabyte artifacts in
/// streaming fashion, so the context is update-based.
class Sha256 {
 public:
  Sha256();
  /// Absorb more input.
  void Update(std::span<const std::byte> data);
  void Update(std::string_view s);
  /// Finalize and return the digest. The context must not be reused after.
  Sha256Digest Finish();

  /// One-shot helpers.
  static Sha256Digest Hash(std::span<const std::byte> data);
  static Sha256Digest Hash(std::string_view s);

 private:
  void ProcessBlock(const uint8_t* block);
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  uint64_t total_bytes_ = 0;
  size_t buffered_ = 0;
  bool finished_ = false;
};

/// Lowercase hex encoding of a digest (64 chars).
std::string DigestToHex(const Sha256Digest& d);

/// HMAC-SHA256(key, message). Used by privacy::Pseudonymizer so the same
/// identifier maps to the same stable token under a given project key while
/// remaining infeasible to invert without the key.
Sha256Digest HmacSha256(std::string_view key, std::string_view message);

// ---- detail: test-only reference kernels -----------------------------------
// The portable code paths, whatever this CPU supports. Tests check the
// dispatched Crc32/Sha256 against them byte for byte.
namespace detail {

/// Bytewise-table CRC-32, same contract as Crc32.
uint32_t Crc32Portable(std::span<const std::byte> data, uint32_t seed = 0);

/// Scalar SHA-256 compression of `nblocks` consecutive 64-byte blocks into
/// `state` (no padding).
void Sha256PortableBlocks(std::array<uint32_t, 8>& state, const uint8_t* data,
                          size_t nblocks);

}  // namespace detail

}  // namespace drai
