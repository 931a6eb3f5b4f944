// Unit tests for the util substrate: hashing, fields, status, RNG.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "util/kwise_hash.h"
#include "util/mem_usage.h"
#include "util/sha256.h"
#include "util/mersenne_field.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/xxhash.h"

namespace gz {
namespace {

// ---------------- xxhash ------------------------------------------------

TEST(XxHashTest, Deterministic) {
  const char data[] = "graph zeppelin";
  EXPECT_EQ(XxHash64(data, sizeof(data), 7), XxHash64(data, sizeof(data), 7));
  EXPECT_NE(XxHash64(data, sizeof(data), 7), XxHash64(data, sizeof(data), 8));
}

TEST(XxHashTest, WordMatchesBufferVariant) {
  const std::vector<uint64_t> values = {0, 1, 42, 0xDEADBEEFCAFEULL,
                                        UINT64_MAX};
  for (uint64_t v : values) {
    for (uint64_t seed : std::vector<uint64_t>{0, 1, 999}) {
      EXPECT_EQ(XxHash64Word(v, seed), XxHash64(&v, sizeof(v), seed))
          << "v=" << v << " seed=" << seed;
    }
  }
}

TEST(XxHashTest, VariousLengths) {
  // Exercise all tail paths: 0..40 byte inputs must all hash without
  // colliding trivially.
  std::vector<uint8_t> buf(64, 0xAB);
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= 40; ++len) {
    seen.insert(XxHash64(buf.data(), len, 1));
  }
  EXPECT_EQ(seen.size(), 41u);
}

TEST(XxHashTest, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const uint64_t a = XxHash64Word(0x123456789ULL, 5);
    const uint64_t b = XxHash64Word(0x123456789ULL ^ (1ULL << bit), 5);
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / trials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(XxHashTest, DistributionRoughlyUniform) {
  // Bucket 100k hashes into 16 bins; each bin should be near 6250.
  int bins[16] = {0};
  for (uint64_t i = 0; i < 100000; ++i) {
    ++bins[XxHash64Word(i, 3) & 15];
  }
  for (int b = 0; b < 16; ++b) {
    EXPECT_GT(bins[b], 5500) << "bin " << b;
    EXPECT_LT(bins[b], 7000) << "bin " << b;
  }
}

// ---------------- Mersenne fields ---------------------------------------

TEST(MersenneFieldTest, Reduce61Identities) {
  EXPECT_EQ(Reduce61(0), 0u);
  EXPECT_EQ(Reduce61(kMersenne61), 0u);
  EXPECT_EQ(Reduce61(static_cast<unsigned __int128>(kMersenne61) * 3 + 7),
            7u);
}

TEST(MersenneFieldTest, MulModAgainstNaive) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t a = rng.NextBelow(kMersenne61);
    const uint64_t b = rng.NextBelow(kMersenne61);
    const uint64_t expect =
        static_cast<uint64_t>((static_cast<unsigned __int128>(a) * b) %
                              kMersenne61);
    EXPECT_EQ(MulMod61(a, b), expect);
  }
}

// ---------------- k-wise hash -------------------------------------------

TEST(KWiseHashTest, DeterministicAndSeedSensitive) {
  KWiseHash h1(42, 2), h2(42, 2), h3(43, 2);
  EXPECT_EQ(h1.Hash(7), h2.Hash(7));
  EXPECT_NE(h1.Hash(7), h3.Hash(7));
}

TEST(KWiseHashTest, OutputInField) {
  KWiseHash h(1, 4);
  for (uint64_t x = 0; x < 1000; ++x) EXPECT_LT(h.Hash(x), kMersenne61);
}

TEST(KWiseHashTest, PairwiseUniformOverFamily) {
  // 2-wise independence is a property of the *family*: for fixed inputs
  // (x, y), the pair (h(x), h(y)) must be uniform over random draws of
  // the hash function. Sample 2000 independently seeded functions.
  int bins[4][4] = {};
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    KWiseHash h(seed, 2);
    bins[h.Hash(123) % 4][h.Hash(456) % 4]++;
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_GT(bins[i][j], 60) << i << "," << j;  // expect ~125
      EXPECT_LT(bins[i][j], 200) << i << "," << j;
    }
  }
}

TEST(KWiseHashTest, HigherDegreeFamilies) {
  // k = 3 and 4 evaluate consistently and stay in the field.
  for (int k : {3, 4}) {
    KWiseHash h(17, k);
    for (uint64_t x = 0; x < 200; ++x) {
      EXPECT_LT(h.Hash(x), kMersenne61);
      EXPECT_EQ(h.Hash(x), h.Hash(x));
    }
  }
}

// ---------------- Status / Result ---------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---------------- RNG ----------------------------------------------------

TEST(SplitMix64Test, DeterministicBySeed) {
  SplitMix64 a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(SplitMix64Test, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(13), 13u);
}

TEST(SplitMix64Test, NextDoubleInUnitInterval) {
  SplitMix64 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64Test, BoolProbability) {
  SplitMix64 rng(3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.25);
  EXPECT_GT(heads, 2100);
  EXPECT_LT(heads, 2900);
}

// ---------------- misc utils ---------------------------------------------

TEST(MemUsageTest, FormatBytes) {
  char buf[32];
  EXPECT_STREQ(FormatBytes(512, buf, sizeof(buf)), "512 B");
  EXPECT_STREQ(FormatBytes(2048, buf, sizeof(buf)), "2.00 KiB");
  EXPECT_STREQ(FormatBytes(3 * 1024 * 1024, buf, sizeof(buf)), "3.00 MiB");
}

TEST(TimerTest, MeasuresElapsedAndFormatsRates) {
  WallTimer t;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.Seconds(), 0.0);
  char buf[32];
  EXPECT_STREQ(FormatRate(2.5e6, buf, sizeof(buf)), "2.50M");
  EXPECT_STREQ(FormatRate(1500, buf, sizeof(buf)), "1.5K");
}

// ---- CRC32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The classic check value plus the RFC 3720 (iSCSI) test patterns —
  // these pin the polynomial, reflection and finalization exactly, so
  // the wire checksum is interoperable, not just self-consistent.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  buf.assign(32, 0xFF);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShotAtEverySplit) {
  // The streamed-frame path folds payload pieces of arbitrary sizes;
  // any split must equal the one-shot CRC.
  std::vector<uint8_t> buf(257);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t want = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 13) {
    uint32_t crc = Crc32cExtend(0, buf.data(), split);
    crc = Crc32cExtend(crc, buf.data() + split, buf.size() - split);
    EXPECT_EQ(crc, want) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsEveryByteFlip) {
  std::vector<uint8_t> buf(64, 0x5C);
  const uint32_t want = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    for (const uint8_t flip : {0x01, 0x80, 0xFF}) {
      buf[i] ^= flip;
      EXPECT_NE(Crc32c(buf.data(), buf.size()), want);
      buf[i] ^= flip;
    }
  }
}

// ---- SHA-256 / HMAC -------------------------------------------------------

std::string HexOf(const uint8_t digest[kSha256Bytes]) {
  char buf[2 * kSha256Bytes + 1];
  for (size_t i = 0; i < kSha256Bytes; ++i) {
    std::snprintf(buf + 2 * i, 3, "%02x", digest[i]);
  }
  return std::string(buf, 2 * kSha256Bytes);
}

TEST(Sha256Test, FipsVectors) {
  uint8_t digest[kSha256Bytes];
  Sha256("", 0, digest);
  EXPECT_EQ(HexOf(digest),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
            "7852b855");
  Sha256("abc", 3, digest);
  EXPECT_EQ(HexOf(digest),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
            "f20015ad");
  // Two-block message (56 bytes forces the padding split).
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                    "nopq";
  Sha256(msg, std::strlen(msg), digest);
  EXPECT_EQ(HexOf(digest),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
            "19db06c1");
}

TEST(Sha256Test, HmacRfc4231Vectors) {
  uint8_t digest[kSha256Bytes];
  // Test case 1.
  std::vector<uint8_t> key(20, 0x0b);
  HmacSha256(key.data(), key.size(), "Hi There", 8, digest);
  EXPECT_EQ(HexOf(digest),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
            "2e32cff7");
  // Test case 2 (short ASCII key).
  const char* data2 = "what do ya want for nothing?";
  HmacSha256("Jefe", 4, data2, std::strlen(data2), digest);
  EXPECT_EQ(HexOf(digest),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b9"
            "64ec3843");
  // Test case 6 (131-byte key exercises the hash-the-key path).
  key.assign(131, 0xaa);
  const char* data6 =
      "Test Using Larger Than Block-Size Key - Hash Key First";
  HmacSha256(key.data(), key.size(), data6, std::strlen(data6), digest);
  EXPECT_EQ(HexOf(digest),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f"
            "0ee37f54");
}

TEST(Sha256Test, ConstantTimeEqualCompares) {
  const uint8_t a[4] = {1, 2, 3, 4};
  const uint8_t b[4] = {1, 2, 3, 4};
  const uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(ConstantTimeEqual(a, b, 4));
  EXPECT_FALSE(ConstantTimeEqual(a, c, 4));
}

}  // namespace
}  // namespace gz
