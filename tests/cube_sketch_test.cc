// Tests for CubeSketch: recovery, zero detection, linearity, failure
// probability, per-column sampling, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "cumulative_buckets.h"
#include "sketch/cube_sketch.h"
#include "util/random.h"
#include "util/xxhash.h"

namespace gz {
namespace {

CubeSketchParams MakeParams(uint64_t n, uint64_t seed, int cols = 7) {
  CubeSketchParams p;
  p.vector_len = n;
  p.seed = seed;
  p.cols = cols;
  return p;
}

// The one bucket scan over a CubeSketch's single round, asked for every
// column's sample; `kind` gets the scan's outcome.
std::vector<uint64_t> SampleColumns(const CubeSketch& s, SampleKind* kind) {
  std::vector<uint64_t> picks(s.cols());
  const ColumnSamples got =
      s.layout().SampleColumns(0, s.subsketch(0), picks.data(), s.cols());
  *kind = got.kind;
  picks.resize(got.count);
  return picks;
}

TEST(CubeSketchTest, EmptySketchReportsZero) {
  CubeSketch s(MakeParams(1000, 1));
  EXPECT_EQ(s.Query().kind, SampleKind::kZero);
}

TEST(CubeSketchTest, SingletonAlwaysRecovered) {
  // A vector with exactly one nonzero entry is recovered by the
  // deterministic bucket with probability 1.
  for (uint64_t idx : {0ULL, 1ULL, 500ULL, 999ULL}) {
    CubeSketch s(MakeParams(1000, 3));
    s.Update(idx);
    const SketchSample sample = s.Query();
    ASSERT_EQ(sample.kind, SampleKind::kGood) << "idx=" << idx;
    EXPECT_EQ(sample.index, idx);
  }
}

TEST(CubeSketchTest, DoubleToggleCancelsToZero) {
  CubeSketch s(MakeParams(1000, 5));
  s.Update(123);
  s.Update(123);
  EXPECT_EQ(s.Query().kind, SampleKind::kZero);
}

TEST(CubeSketchTest, IndexZeroIsValid) {
  // Index 0 must not be confused with "empty" (the +1 encoding).
  CubeSketch s(MakeParams(10, 7));
  s.Update(0);
  const SketchSample sample = s.Query();
  ASSERT_EQ(sample.kind, SampleKind::kGood);
  EXPECT_EQ(sample.index, 0u);
}

TEST(CubeSketchTest, ClearResets) {
  CubeSketch s(MakeParams(1000, 9));
  for (uint64_t i = 0; i < 50; ++i) s.Update(i);
  s.Clear();
  EXPECT_EQ(s.Query().kind, SampleKind::kZero);
}

TEST(CubeSketchTest, UpdateBatchMatchesLoop) {
  std::vector<uint64_t> indices = {1, 5, 9, 5, 200, 1, 77};
  CubeSketch a(MakeParams(1000, 11));
  CubeSketch b(MakeParams(1000, 11));
  for (uint64_t idx : indices) a.Update(idx);
  b.UpdateBatch(indices.data(), indices.size());
  EXPECT_EQ(a, b);
}

TEST(CubeSketchTest, OutOfRangeUpdateAborts) {
  CubeSketch s(MakeParams(10, 1));
  EXPECT_DEATH(s.Update(10), "idx < params_.vector_len");
}

TEST(CubeSketchTest, MergeParamMismatchAborts) {
  CubeSketch a(MakeParams(10, 1));
  CubeSketch b(MakeParams(10, 2));
  EXPECT_DEATH(a.Merge(b), "different parameters");
}

// --- Property: queries on random vectors return true support members ---

class CubeSketchRecoveryTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, uint64_t>> {};

TEST_P(CubeSketchRecoveryTest, RecoversSupportMember) {
  const auto [vector_len, support, seed] = GetParam();
  SplitMix64 rng(seed * 7919 + 1);
  int failures = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    CubeSketch s(MakeParams(vector_len, seed * 1000 + trial));
    std::set<uint64_t> in;
    while (in.size() < static_cast<size_t>(support)) {
      in.insert(rng.NextBelow(vector_len));
    }
    for (uint64_t idx : in) s.Update(idx);
    const SketchSample sample = s.Query();
    if (sample.kind == SampleKind::kFail) {
      ++failures;
      continue;
    }
    ASSERT_EQ(sample.kind, SampleKind::kGood);
    // Soundness: a Good answer must be a real support member.
    EXPECT_TRUE(in.count(sample.index) > 0)
        << "returned non-member " << sample.index;
  }
  // delta = 1/100 per sketch; 40 trials should essentially never fail
  // more than a couple of times.
  EXPECT_LE(failures, 3) << "suspiciously high failure rate";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeSketchRecoveryTest,
    ::testing::Combine(::testing::Values<uint64_t>(100, 10000, 1000000),
                       ::testing::Values(1, 2, 7, 50),
                       ::testing::Values<uint64_t>(1, 2, 3)));

// --- Property: linearity -------------------------------------------------

class CubeSketchLinearityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CubeSketchLinearityTest, MergeEqualsSketchOfSymmetricDifference) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed);
  const uint64_t n = 5000;
  CubeSketch sa(MakeParams(n, 42));
  CubeSketch sb(MakeParams(n, 42));
  CubeSketch sc(MakeParams(n, 42));  // Sketch of f_a XOR f_b.
  for (int i = 0; i < 200; ++i) {
    const uint64_t idx = rng.NextBelow(n);
    if (rng.NextBool(0.5)) {
      sa.Update(idx);
      sc.Update(idx);
    } else {
      sb.Update(idx);
      sc.Update(idx);
    }
  }
  sa.Merge(sb);
  EXPECT_EQ(sa, sc);
}

TEST_P(CubeSketchLinearityTest, SharedEntriesCancelOnMerge) {
  const uint64_t seed = GetParam();
  const uint64_t n = 5000;
  CubeSketch sa(MakeParams(n, 42));
  CubeSketch sb(MakeParams(n, 42));
  // Same single entry in both: the merge is the zero vector.
  sa.Update(seed % n);
  sb.Update(seed % n);
  sa.Merge(sb);
  EXPECT_EQ(sa.Query().kind, SampleKind::kZero);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeSketchLinearityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Observed failure rate stays below the design bound ------------------

TEST(CubeSketchTest, FailureRateBelowDelta) {
  // cols = 7 targets delta = 1/100. Measure over many random vectors.
  SplitMix64 rng(4242);
  const uint64_t n = 100000;
  int failures = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    CubeSketch s(MakeParams(n, 100000 + t));
    const int support = 1 + static_cast<int>(rng.NextBelow(300));
    std::set<uint64_t> in;
    while (in.size() < static_cast<size_t>(support)) {
      in.insert(rng.NextBelow(n));
    }
    for (uint64_t idx : in) s.Update(idx);
    if (s.Query().kind == SampleKind::kFail) ++failures;
  }
  // Expected failures ~ trials * delta = 4. Allow generous slack.
  EXPECT_LE(failures, 12);
}

// --- Per-column sampling --------------------------------------------------

TEST(CubeSketchColumnSampleTest, ZeroVectorGivesNoCandidates) {
  CubeSketch s(MakeParams(1000, 31));
  s.Update(17);
  s.Update(17);
  SampleKind kind;
  EXPECT_TRUE(SampleColumns(s, &kind).empty());
  EXPECT_EQ(kind, SampleKind::kZero);
}

TEST(CubeSketchColumnSampleTest, SingleIndexGivesTheDeterministicIndex) {
  for (uint64_t idx : {0ULL, 1ULL, 500ULL, 999ULL}) {
    CubeSketch s(MakeParams(1000, 37));
    s.Update(idx);
    SampleKind kind;
    EXPECT_EQ(SampleColumns(s, &kind), std::vector<uint64_t>{idx});
    EXPECT_EQ(kind, SampleKind::kGood);
  }
}

TEST(CubeSketchColumnSampleTest, SparseVectorGivesTrueCoordinatesPerColumn) {
  SplitMix64 rng(4343);
  const uint64_t n = 100000;
  size_t multi = 0;
  for (int trial = 0; trial < 100; ++trial) {
    CubeSketch s(MakeParams(n, 7000 + trial));
    const int support = 2 + static_cast<int>(rng.NextBelow(60));
    std::set<uint64_t> in;
    while (in.size() < static_cast<size_t>(support)) {
      in.insert(rng.NextBelow(n));
    }
    for (uint64_t idx : in) s.Update(idx);
    SampleKind kind;
    const std::vector<uint64_t> picks = SampleColumns(s, &kind);
    const SketchSample first = s.Query();
    ASSERT_EQ(kind, first.kind);
    if (kind != SampleKind::kGood) {
      EXPECT_TRUE(picks.empty());
      continue;
    }
    ASSERT_FALSE(picks.empty());
    EXPECT_LE(picks.size(), static_cast<size_t>(s.cols()));
    EXPECT_EQ(picks[0], first.index);
    for (uint64_t idx : picks) {
      EXPECT_TRUE(in.count(idx) > 0) << "returned non-member " << idx;
    }
    multi += picks.size() > 1;
  }
  // The columns are independent samplers: most sparse vectors yield
  // more than one sample.
  EXPECT_GE(multi, 50u);
}

TEST(CubeSketchColumnSampleTest, IdenticalForScalarAndDispatchedKernel) {
  SplitMix64 rng(99);
  const uint64_t n = 1 << 20;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> indices(1 + rng.NextBelow(200));
    for (uint64_t& idx : indices) idx = rng.NextBelow(n);
    CubeSketch scalar(MakeParams(n, 300 + trial));
    CubeSketch dispatched(MakeParams(n, 300 + trial));
    scalar.UpdateBatchWithKernel(SketchKernel::kScalar, indices.data(),
                                 indices.size());
    dispatched.UpdateBatch(indices.data(), indices.size());
    SampleKind scalar_kind, dispatched_kind;
    EXPECT_EQ(SampleColumns(scalar, &scalar_kind),
              SampleColumns(dispatched, &dispatched_kind));
    EXPECT_EQ(scalar_kind, dispatched_kind);
  }
}

// --- Exact-depth storage against the paper's cumulative buckets ----------

// A test-only copy of the paper's CubeSketch (Section 3.1) as this repo
// stored it through GZSNAP04: an update whose depth in column c is z is
// XORed into rows 0..z, in the serialized round layout, with
// SketchLayout's seed derivation. Sample() is the bucket scan over those
// buckets: the deterministic bucket, else each column's deepest
// verified bucket.
class CumulativeOracle {
 public:
  explicit CumulativeOracle(const CubeSketchParams& p)
      : vector_len_(p.vector_len),
        cols_(p.cols),
        rows_(SketchLayout(p.vector_len, p.cols, {p.seed}).rows()),
        bytes_(SketchLayout::RoundBytes(p.vector_len, p.cols), 0) {
    for (int c = 0; c < cols_; ++c) {
      col_seeds_.push_back(XxHash64Word(0x636f6c5f73656564ULL + c, p.seed));
    }
    for (int c = 0; c < cols_; ++c) {
      gamma_seeds_.push_back(
          XxHash64Word(0x67616d6d615f7364ULL + c, p.seed));
    }
    det_seed_ = XxHash64Word(0x6465745f73656564ULL, p.seed);
  }

  void Update(uint64_t idx) {
    const uint64_t enc = idx + 1;
    const size_t det = static_cast<size_t>(cols_) * rows_;
    Toggle(det, enc, XxHash64Word(enc, det_seed_));
    for (int c = 0; c < cols_; ++c) {
      const uint64_t h = XxHash64Word(enc, col_seeds_[c]);
      const int depth = std::min(std::countr_zero(h), rows_ - 1);
      const uint64_t checksum = XxHash64Word(enc, gamma_seeds_[c]);
      for (int r = 0; r <= depth; ++r) {
        Toggle(static_cast<size_t>(c) * rows_ + r, enc, checksum);
      }
    }
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

  std::vector<uint64_t> Sample(SampleKind* kind) const {
    const size_t det = static_cast<size_t>(cols_) * rows_;
    uint64_t alpha;
    uint32_t gamma;
    Bucket(det, &alpha, &gamma);
    if (alpha == 0 && gamma == 0) {
      *kind = SampleKind::kZero;
      return {};
    }
    *kind = SampleKind::kGood;
    if (alpha != 0 && alpha <= vector_len_ &&
        static_cast<uint32_t>(XxHash64Word(alpha, det_seed_)) == gamma) {
      return {alpha - 1};
    }
    std::vector<uint64_t> picks;
    for (int c = 0; c < cols_; ++c) {
      for (int r = rows_ - 1; r >= 0; --r) {
        Bucket(static_cast<size_t>(c) * rows_ + r, &alpha, &gamma);
        if (alpha != 0 && alpha <= vector_len_ &&
            static_cast<uint32_t>(XxHash64Word(alpha, gamma_seeds_[c])) ==
                gamma) {
          picks.push_back(alpha - 1);
          break;
        }
      }
    }
    if (picks.empty()) *kind = SampleKind::kFail;
    return picks;
  }

 private:
  // Bucket b's alpha and gamma in the round layout: for b < cols*rows a
  // column bucket, for b == cols*rows the deterministic one.
  size_t AlphaOffset(size_t b) const {
    const size_t column_buckets = static_cast<size_t>(cols_) * rows_;
    return b < column_buckets ? b * 8 : column_buckets * 12;
  }
  size_t GammaOffset(size_t b) const {
    const size_t column_buckets = static_cast<size_t>(cols_) * rows_;
    return b < column_buckets ? column_buckets * 8 + b * 4
                              : column_buckets * 12 + 8;
  }
  void Bucket(size_t b, uint64_t* alpha, uint32_t* gamma) const {
    std::memcpy(alpha, bytes_.data() + AlphaOffset(b), sizeof(*alpha));
    std::memcpy(gamma, bytes_.data() + GammaOffset(b), sizeof(*gamma));
  }
  void Toggle(size_t b, uint64_t enc, uint64_t checksum) {
    uint64_t alpha;
    uint32_t gamma;
    Bucket(b, &alpha, &gamma);
    alpha ^= enc;
    gamma ^= static_cast<uint32_t>(checksum);
    std::memcpy(bytes_.data() + AlphaOffset(b), &alpha, sizeof(alpha));
    std::memcpy(bytes_.data() + GammaOffset(b), &gamma, sizeof(gamma));
  }

  uint64_t vector_len_;
  int cols_;
  int rows_;
  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> col_seeds_;
  std::vector<uint64_t> gamma_seeds_;
  uint64_t det_seed_ = 0;
};

TEST(CubeSketchExactDepthTest, SuffixTransformEqualsCumulativeOracle) {
  // Under every supported kernel, batches of 1..64 random indices (both
  // lane widths, every tail length); tiny domains toggle indices back
  // out. After each batch the stored bytes, suffix-transformed, are the
  // oracle's bytes, and the sketch samples exactly what the oracle's
  // scan does.
  for (SketchKernel k : {SketchKernel::kScalar, SketchKernel::kAvx2,
                         SketchKernel::kAvx512}) {
    if (!SketchKernelSupported(k)) continue;
    for (uint64_t n : {1ULL, 2ULL, 1000ULL, 1ULL << 40}) {
      const CubeSketchParams params = MakeParams(n, 77 + n);
      SplitMix64 rng(n * 131 + static_cast<uint64_t>(k));
      CubeSketch sketch(params);
      CumulativeOracle oracle(params);
      for (size_t batch_size = 1; batch_size <= 64; ++batch_size) {
        std::vector<uint64_t> batch(batch_size);
        for (uint64_t& idx : batch) {
          idx = rng.NextBelow(n);
          oracle.Update(idx);
        }
        sketch.UpdateBatchWithKernel(k, batch.data(), batch.size());
        std::vector<uint8_t> stored(sketch.SerializedSize());
        sketch.SerializeTo(stored.data());
        SuffixXorRounds(sketch.layout(), stored.data(), 1);
        ASSERT_EQ(stored, oracle.bytes())
            << "kernel=" << SketchKernelName(k) << " n=" << n
            << " batch_size=" << batch_size;
        SampleKind kind, oracle_kind;
        EXPECT_EQ(SampleColumns(sketch, &kind), oracle.Sample(&oracle_kind));
        EXPECT_EQ(kind, oracle_kind);
      }
    }
  }
}

// --- Serialization --------------------------------------------------------

TEST(CubeSketchTest, SerializationRoundTrip) {
  CubeSketch a(MakeParams(4096, 17));
  SplitMix64 rng(5);
  for (int i = 0; i < 100; ++i) a.Update(rng.NextBelow(4096));

  std::vector<uint8_t> buf(a.SerializedSize());
  a.SerializeTo(buf.data());

  CubeSketch b(MakeParams(4096, 17));
  b.DeserializeFrom(buf.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Query().index, b.Query().index);
}

TEST(CubeSketchTest, SerializedBlobIsXorLinear) {
  // XOR of two serialized blobs == blob of the merged sketch; the
  // on-disk sketch store depends on this.
  CubeSketch a(MakeParams(512, 3));
  CubeSketch b(MakeParams(512, 3));
  a.Update(7);
  a.Update(100);
  b.Update(100);
  b.Update(450);

  std::vector<uint8_t> ba(a.SerializedSize()), bb(b.SerializedSize());
  a.SerializeTo(ba.data());
  b.SerializeTo(bb.data());
  for (size_t i = 0; i < ba.size(); ++i) ba[i] ^= bb[i];

  a.Merge(b);
  std::vector<uint8_t> merged(a.SerializedSize());
  a.SerializeTo(merged.data());
  EXPECT_EQ(ba, merged);
}

TEST(CubeSketchTest, ByteSizeMatchesBucketCount) {
  CubeSketch s(MakeParams(1 << 20, 1));
  // 12 bytes per bucket: cols * rows + 1 deterministic bucket.
  const size_t buckets = static_cast<size_t>(s.cols()) * s.rows() + 1;
  EXPECT_EQ(s.ByteSize(), buckets * 12);
}

TEST(CubeSketchTest, SizeGrowsLogarithmically) {
  const size_t small = CubeSketch(MakeParams(1000, 1)).ByteSize();
  const size_t big = CubeSketch(MakeParams(1000000000ULL, 1)).ByteSize();
  EXPECT_GT(big, small);
  EXPECT_LT(big, small * 4);  // log growth, not linear
}

TEST(CubeSketchTest, MergeIsCommutative) {
  CubeSketch a1(MakeParams(512, 21)), b1(MakeParams(512, 21));
  CubeSketch a2(MakeParams(512, 21)), b2(MakeParams(512, 21));
  for (uint64_t idx : {3ULL, 40ULL, 99ULL}) {
    a1.Update(idx);
    a2.Update(idx);
  }
  for (uint64_t idx : {40ULL, 200ULL}) {
    b1.Update(idx);
    b2.Update(idx);
  }
  a1.Merge(b1);  // a + b
  b2.Merge(a2);  // b + a
  EXPECT_EQ(a1, b2);
}

TEST(CubeSketchTest, QueryIsDeterministic) {
  CubeSketch s(MakeParams(4096, 23));
  SplitMix64 rng(4);
  for (int i = 0; i < 30; ++i) s.Update(rng.NextBelow(4096));
  const SketchSample first = s.Query();
  for (int i = 0; i < 5; ++i) {
    const SketchSample again = s.Query();
    EXPECT_EQ(again.kind, first.kind);
    EXPECT_EQ(again.index, first.index);
  }
}

TEST(CubeSketchTest, SamplesVaryAcrossSeeds) {
  // The sampler must actually sample: across independent hash draws the
  // recovered support member should not be constant.
  std::set<uint64_t> support = {5, 111, 222, 333, 444, 555, 666, 777};
  std::set<uint64_t> recovered;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    CubeSketch s(MakeParams(1000, seed));
    for (uint64_t idx : support) s.Update(idx);
    const SketchSample sample = s.Query();
    if (sample.kind == SampleKind::kGood) recovered.insert(sample.index);
  }
  EXPECT_GE(recovered.size(), 3u);
  for (uint64_t idx : recovered) EXPECT_TRUE(support.count(idx) > 0);
}

TEST(CubeSketchTest, HugeVectorLengthSupported) {
  // Vector lengths near 2^62 (edge index spaces of ~2^31-node graphs).
  const uint64_t n = 1ULL << 62;
  CubeSketch s(MakeParams(n, 9));
  s.Update(n - 1);
  const SketchSample sample = s.Query();
  ASSERT_EQ(sample.kind, SampleKind::kGood);
  EXPECT_EQ(sample.index, n - 1);
}

TEST(CubeSketchTest, ColumnCountScalesSizeLinearly) {
  const size_t three = CubeSketch(MakeParams(1 << 20, 1, 3)).ByteSize();
  const size_t nine = CubeSketch(MakeParams(1 << 20, 1, 9)).ByteSize();
  // 9-column sketch has 3x the column buckets (+ shared det bucket).
  EXPECT_GT(nine, three * 2);
  EXPECT_LT(nine, three * 4);
}

}  // namespace
}  // namespace gz
