// Tests for drai/common: status model, byte serialization, hashing, RNG,
// string utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"

namespace drai {
namespace {

// ---- Status / Result ----------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = DataLoss("shard 3 crc mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DATA_LOSS: shard 3 crc mismatch");
}

TEST(Status, UnavailableFactoryAndName) {
  const Status s = Unavailable("node 12 went away");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "UNAVAILABLE: node 12 went away");
}

TEST(Status, IsRetryableClassifiesTransientCodes) {
  // Only faults where the *same* operation can plausibly succeed on a
  // re-run count as retryable; deterministic failures must not.
  EXPECT_TRUE(Unavailable("timeout").IsRetryable());
  EXPECT_TRUE(ResourceExhausted("oom").IsRetryable());
  EXPECT_FALSE(Status::Ok().IsRetryable());
  EXPECT_FALSE(DataLoss("crc").IsRetryable());
  EXPECT_FALSE(Internal("bug").IsRetryable());
  EXPECT_FALSE(InvalidArgument("bad").IsRetryable());
  EXPECT_FALSE(NotFound("gone").IsRetryable());
  EXPECT_FALSE(FailedPrecondition("order").IsRetryable());
}

TEST(Status, OrDieThrowsOnError) {
  EXPECT_THROW(NotFound("x").OrDie(), std::runtime_error);
  EXPECT_NO_THROW(Status::Ok().OrDie());
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW(r.value(), std::runtime_error);
}

TEST(Result, OkStatusConstructionThrows) {
  EXPECT_THROW(Result<int> r{Status::Ok()}, std::invalid_argument);
}

Result<int> Doubler(Result<int> in) {
  DRAI_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(InvalidArgument("nope")).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- bytes ----------------------------------------------------------------

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-12345);
  w.PutF32(3.5f);
  w.PutF64(-2.25);
  w.PutString("hello");

  const Bytes buf = w.Take();
  ByteReader r(buf);
  uint8_t u8;
  uint16_t u16 = 0;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  float f32;
  double f64;
  std::string s;
  ASSERT_TRUE(r.GetU8(u8).ok());
  ASSERT_TRUE(r.GetU16(u16).ok());
  ASSERT_TRUE(r.GetU32(u32).ok());
  ASSERT_TRUE(r.GetU64(u64).ok());
  ASSERT_TRUE(r.GetI32(i32).ok());
  ASSERT_TRUE(r.GetF32(f32).ok());
  ASSERT_TRUE(r.GetF64(f64).ok());
  ASSERT_TRUE(r.GetString(s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -12345);
  EXPECT_EQ(f32, 3.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, TruncationIsDataLossNotUB) {
  ByteWriter w;
  w.PutU32(7);
  const Bytes buf = w.Take();
  ByteReader r(std::span<const std::byte>(buf).subspan(0, 2));
  uint32_t v;
  EXPECT_EQ(r.GetU32(v).code(), StatusCode::kDataLoss);
}

class VarintProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintProperty, UnsignedRoundTrip) {
  ByteWriter w;
  w.PutVarU64(GetParam());
  const Bytes buf = w.Take();
  ByteReader r(buf);
  uint64_t v = 1;
  ASSERT_TRUE(r.GetVarU64(v).ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(r.exhausted());
}

TEST_P(VarintProperty, SignedZigzagRoundTrip) {
  for (const int64_t sign : {1, -1}) {
    const int64_t x = sign * static_cast<int64_t>(GetParam() >> 1);
    ByteWriter w;
    w.PutVarI64(x);
    const Bytes buf = w.Take();
    ByteReader r(buf);
    int64_t v = 1;
    ASSERT_TRUE(r.GetVarI64(v).ok());
    EXPECT_EQ(v, x);
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintProperty,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           16383ull, 16384ull, 1ull << 32,
                                           UINT64_MAX, UINT64_MAX - 1,
                                           0x8080808080ull));

TEST(Bytes, VarintRandomRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.NextU64() >> (rng.UniformU64(64));
    ByteWriter w;
    w.PutVarU64(x);
    const Bytes buf = w.Take();
    ByteReader r(buf);
    uint64_t v;
    ASSERT_TRUE(r.GetVarU64(v).ok());
    ASSERT_EQ(v, x);
  }
}

TEST(Bytes, PatchU32) {
  ByteWriter w;
  w.PutU32(0);
  w.PutU32(99);
  w.PatchU32(0, 0xCAFEBABE);
  const Bytes buf = w.Take();
  ByteReader r(buf);
  uint32_t a, b;
  ASSERT_TRUE(r.GetU32(a).ok());
  ASSERT_TRUE(r.GetU32(b).ok());
  EXPECT_EQ(a, 0xCAFEBABE);
  EXPECT_EQ(b, 99u);
}

TEST(Bytes, PutBlobWithMatchesPutBlobWhateverTheHint) {
  // Blob sizes on both sides of the one- and two-byte varint boundaries,
  // against hints that are exact, too small and too large.
  for (size_t n : {0u, 5u, 127u, 128u, 300u, 16383u, 16384u}) {
    const Bytes blob(n, std::byte{0x5A});
    ByteWriter expected;
    expected.PutU8(7);
    expected.PutBlob(blob);
    expected.PutU8(9);
    const Bytes want = expected.Take();
    for (uint64_t hint : {uint64_t{0}, uint64_t{n}, uint64_t{1} << 40}) {
      ByteWriter w;
      w.PutU8(7);
      w.PutBlobWith(hint, [&](ByteWriter& out) { out.PutRaw(blob); });
      w.PutU8(9);
      EXPECT_EQ(w.Take(), want) << n << " " << hint;
    }
  }
}

TEST(Bytes, PatchPastEndThrows) {
  ByteWriter w;
  w.PutU16(1);
  EXPECT_THROW(w.PatchU32(0, 1), std::out_of_range);
}

// ---- hash ------------------------------------------------------------------

TEST(Hash, Sha256KnownVectors) {
  // FIPS 180-2 test vectors.
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Hash, Sha256MillionA) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(DigestToHex(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Hash, Sha256IncrementalMatchesOneShot) {
  Rng rng(3);
  std::string data(1037, '\0');
  for (char& c : data) c = static_cast<char>(rng.UniformU64(256));
  const auto oneshot = Sha256::Hash(data);
  for (const size_t cut : {0ul, 1ul, 63ul, 64ul, 65ul, 1000ul}) {
    Sha256 ctx;
    ctx.Update(std::string_view(data).substr(0, cut));
    ctx.Update(std::string_view(data).substr(cut));
    EXPECT_EQ(ctx.Finish(), oneshot) << "cut=" << cut;
  }
}

TEST(Hash, HmacSha256Rfc4231) {
  // RFC 4231 test case 2.
  EXPECT_EQ(DigestToHex(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 1: key = 20 bytes of 0x0b.
  EXPECT_EQ(DigestToHex(HmacSha256(std::string(20, '\x0b'), "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hash, Crc32KnownValue) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Hash, Crc32KnownValuesOnFoldPath) {
  // Buffers of >= 64 bytes take the carry-less-multiply kernel where the CPU
  // has one. Expected values from Python's zlib.crc32, an independent
  // implementation: zlib.crc32(b'a' * 2**20), zlib.crc32(bytes(4096)) and
  // zlib.crc32(bytes(range(256)) * 4).
  const std::string a(1 << 20, 'a');
  EXPECT_EQ(Crc32(a.data(), a.size()), 0xD7CD5672u);
  const std::string zeros(4096, '\0');
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()), 0xC71C0011u);
  std::string ramp(1024, '\0');
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32(ramp.data(), ramp.size()), 0xB70B4C26u);
}

// ---- hash: dispatched kernels against the portable reference --------------
//
// Crc32 and Sha256 may run hardware kernels; detail:: holds the portable
// code. Each test compares the two byte for byte.

std::vector<std::byte> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.UniformU64(256));
  return out;
}

// SHA-256 built only from detail::Sha256PortableBlocks (FIPS 180-4 padding).
Sha256Digest PortableSha256(std::span<const std::byte> data) {
  std::array<uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                   0x1f83d9ab, 0x5be0cd19};
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  const size_t whole = data.size() / 64;
  detail::Sha256PortableBlocks(state, p, whole);
  std::vector<uint8_t> tail(p + whole * 64, p + data.size());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) tail.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  detail::Sha256PortableBlocks(state, tail.data(), tail.size() / 64);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

Sha256Digest PortableSha256(std::string_view s) {
  return PortableSha256(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size()));
}

// RFC 2104 HMAC over PortableSha256.
Sha256Digest PortableHmac(std::string_view key, std::string_view message) {
  std::string k(key);
  if (k.size() > 64) {
    const Sha256Digest kd = PortableSha256(key);
    k.assign(reinterpret_cast<const char*>(kd.data()), kd.size());
  }
  k.resize(64, '\0');
  std::string inner(64, '\0'), outer(64, '\0');
  for (int i = 0; i < 64; ++i) {
    inner[i] = static_cast<char>(k[i] ^ 0x36);
    outer[i] = static_cast<char>(k[i] ^ 0x5c);
  }
  const Sha256Digest id = PortableSha256(inner.append(message));
  outer.append(reinterpret_cast<const char*>(id.data()), id.size());
  return PortableSha256(outer);
}

TEST(HashDifferential, Crc32AllShortLengthsAndOffsets) {
  const auto buf = RandomBytes(1100 + 16, 41);
  const std::span<const std::byte> all(buf);
  for (size_t off = 0; off < 16; ++off) {
    for (size_t len = 0; len <= 1100; ++len) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(Crc32(s), detail::Crc32Portable(s)) << "off=" << off << " len=" << len;
      ASSERT_EQ(Crc32(s, 0xDEADBEEFu), detail::Crc32Portable(s, 0xDEADBEEFu))
          << "seeded off=" << off << " len=" << len;
    }
  }
}

TEST(HashDifferential, Crc32OneMebibyteAtEveryOffset) {
  const auto buf = RandomBytes((1 << 20) + 16, 42);
  const std::span<const std::byte> all(buf);
  for (size_t off = 0; off < 16; ++off) {
    const auto s = all.subspan(off, 1 << 20);
    EXPECT_EQ(Crc32(s), detail::Crc32Portable(s)) << "off=" << off;
    EXPECT_EQ(Crc32(s, 0x12345678u), detail::Crc32Portable(s, 0x12345678u))
        << "off=" << off;
  }
}

TEST(HashDifferential, Crc32ChainsAcrossTheFoldThreshold) {
  const auto buf = RandomBytes(4096 + 77, 43);
  const std::span<const std::byte> all(buf);
  for (const size_t total : {size_t{100}, size_t{300}, all.size()}) {
    const auto whole = all.first(total);
    const uint32_t expect = detail::Crc32Portable(whole);
    for (const size_t cut : {0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 127, 128, 129}) {
      if (cut > total) continue;
      const uint32_t head = Crc32(whole.first(cut));
      EXPECT_EQ(Crc32(whole.subspan(cut), head), expect)
          << "total=" << total << " cut=" << cut;
    }
  }
}

TEST(HashDifferential, Sha256AllShortLengthsAndOffsets) {
  const auto buf = RandomBytes(1100 + 16, 44);
  const std::span<const std::byte> all(buf);
  for (size_t off = 0; off < 16; ++off) {
    for (size_t len = 0; len <= 1100; ++len) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(Sha256::Hash(s), PortableSha256(s)) << "off=" << off << " len=" << len;
    }
  }
}

TEST(HashDifferential, Sha256OneMebibyteAtEveryOffset) {
  const auto buf = RandomBytes((1 << 20) + 16, 45);
  const std::span<const std::byte> all(buf);
  for (size_t off = 0; off < 16; ++off) {
    const auto s = all.subspan(off, 1 << 20);
    EXPECT_EQ(Sha256::Hash(s), PortableSha256(s)) << "off=" << off;
  }
}

TEST(HashDifferential, Sha256IncrementalUpdateSplits) {
  const auto buf = RandomBytes(5000, 46);
  const std::span<const std::byte> all(buf);
  const Sha256Digest expect = PortableSha256(all);
  for (const size_t step : {1, 63, 64, 65, 127, 128}) {
    Sha256 ctx;
    for (size_t i = 0; i < all.size(); i += step) {
      ctx.Update(all.subspan(i, std::min(step, all.size() - i)));
    }
    EXPECT_EQ(ctx.Finish(), expect) << "step=" << step;
  }
}

TEST(HashDifferential, HmacMatchesPortableForLongAndShortKeys) {
  const auto bytes = RandomBytes(1000, 47);
  const std::string text(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  for (const size_t key_len : {0, 1, 32, 63, 64, 65, 100, 200}) {
    const std::string_view key = std::string_view(text).substr(0, key_len);
    for (const size_t msg_len : {0, 1, 55, 56, 64, 119, 120, 300, 700}) {
      const std::string_view msg = std::string_view(text).substr(300, msg_len);
      EXPECT_EQ(HmacSha256(key, msg), PortableHmac(key, msg))
          << "key=" << key_len << " msg=" << msg_len;
    }
  }
}

TEST(Hash, Fnv1aStableAndSeedSensitive) {
  const uint64_t a = Fnv1a64("drai");
  EXPECT_EQ(a, Fnv1a64("drai"));
  EXPECT_NE(a, Fnv1a64("drai", 1));
  EXPECT_NE(a, Fnv1a64("drai2"));
}

// ---- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(13);
  int counts[7] = {0};
  for (int i = 0; i < 70000; ++i) ++counts[rng.UniformU64(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  for (const double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, std::max(0.05, lambda * 0.05));
  }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(19);
  const std::vector<double> w = {1.0, 3.0, 6.0};
  int counts[3] = {0};
  for (int i = 0; i < 50000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0], 5000, 400);
  EXPECT_NEAR(counts[1], 15000, 700);
  EXPECT_NEAR(counts[2], 30000, 900);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Split();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, InvalidArgsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformU64(0), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(0), std::invalid_argument);
  EXPECT_THROW(rng.Categorical(std::vector<double>{0, 0}),
               std::invalid_argument);
}

// ---- strings -----------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.00 GiB");
}

TEST(Strings, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("  17 ", v));
  EXPECT_EQ(v, 17);
  EXPECT_FALSE(ParseInt64("12x", v));
  EXPECT_FALSE(ParseInt64("", v));
}

TEST(Strings, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5e3", v));
  EXPECT_DOUBLE_EQ(v, 2500.0);
  EXPECT_FALSE(ParseDouble("nanx", v));
}

TEST(Strings, NormalizePath) {
  EXPECT_EQ(NormalizePath("a//b/"), "/a/b");
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(NormalizePath(""), "/");
  EXPECT_EQ(PathComponents("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("train-00001.rec", "train-"));
  EXPECT_TRUE(EndsWith("train-00001.rec", ".rec"));
  EXPECT_FALSE(StartsWith("x", "xy"));
}

}  // namespace
}  // namespace drai
