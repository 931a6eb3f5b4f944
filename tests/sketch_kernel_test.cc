// Tests for the vectorized sketch-update kernel: every SIMD kernel must
// be bitwise-identical to the scalar path — lane hashes, bucket depths,
// checksums, serialized sketches, and end-to-end GraphSnapshot bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/graph_zeppelin.h"
#include "sketch/cube_sketch.h"
#include "sketch/node_sketch.h"
#include "sketch/sketch_kernel.h"
#include "util/random.h"
#include "util/xxhash.h"

namespace gz {
namespace {

std::vector<SketchKernel> SupportedKernels() {
  std::vector<SketchKernel> kernels = {SketchKernel::kScalar};
  if (SketchKernelSupported(SketchKernel::kAvx2)) {
    kernels.push_back(SketchKernel::kAvx2);
  }
  if (SketchKernelSupported(SketchKernel::kAvx512)) {
    kernels.push_back(SketchKernel::kAvx512);
  }
  return kernels;
}

CubeSketchParams MakeParams(uint64_t n, uint64_t seed, int cols = 7) {
  CubeSketchParams p;
  p.vector_len = n;
  p.seed = seed;
  p.cols = cols;
  return p;
}

// RAII: restore the auto-resolved kernel when a test that forces
// kernels finishes (tests share one process).
struct KernelRestorer {
  ~KernelRestorer() { ForceSketchKernel(BestSupportedSketchKernel()); }
};

// ---- Dispatch surface ----------------------------------------------------

TEST(SketchKernelTest, ParseNames) {
  SketchKernel k;
  ASSERT_TRUE(ParseSketchKernelName("scalar", &k));
  EXPECT_EQ(k, SketchKernel::kScalar);
  ASSERT_TRUE(ParseSketchKernelName("avx2", &k));
  EXPECT_EQ(k, SketchKernel::kAvx2);
  ASSERT_TRUE(ParseSketchKernelName("avx512", &k));
  EXPECT_EQ(k, SketchKernel::kAvx512);
  ASSERT_TRUE(ParseSketchKernelName("auto", &k));
  EXPECT_EQ(k, BestSupportedSketchKernel());
  EXPECT_FALSE(ParseSketchKernelName("", &k));
  EXPECT_FALSE(ParseSketchKernelName("AVX2", &k));
  EXPECT_FALSE(ParseSketchKernelName("sse", &k));
}

TEST(SketchKernelTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(SketchKernelSupported(SketchKernel::kScalar));
  EXPECT_TRUE(SketchKernelSupported(BestSupportedSketchKernel()));
  EXPECT_STREQ(SketchKernelName(SketchKernel::kScalar), "scalar");
  EXPECT_STREQ(SketchKernelName(SketchKernel::kAvx2), "avx2");
  EXPECT_STREQ(SketchKernelName(SketchKernel::kAvx512), "avx512");
}

// ---- Lane hashes ---------------------------------------------------------

TEST(SketchKernelTest, HashBatchMatchesScalarHash) {
  SplitMix64 rng(7);
  // Counts sweep lane-width boundaries for both 4- and 8-lane groups.
  for (size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 63u,
                       100u, 257u}) {
    std::vector<uint64_t> values(count);
    for (uint64_t& v : values) v = rng.Next();
    const uint64_t seed = rng.Next();
    std::vector<uint64_t> expect(count);
    for (size_t i = 0; i < count; ++i) {
      expect[i] = XxHash64Word(values[i], seed);
    }
    for (SketchKernel k : SupportedKernels()) {
      std::vector<uint64_t> out(count, 0);
      XxHash64WordBatch(k, values.data(), count, seed, out.data());
      EXPECT_EQ(out, expect) << "kernel=" << SketchKernelName(k)
                             << " count=" << count;
    }
  }
}

// ---- Randomized cross-kernel streams -------------------------------------

TEST(SketchKernelTest, RandomStreamsBitwiseEqualAcrossKernels) {
  // Inserts and deletes are both toggles; random index streams over
  // small domains revisit indices constantly, exercising cancellation.
  // vector_len covers 1, 2, and non-powers-of-two per the kernel
  // contract; batch sizes cross both lane widths and force tails.
  const std::vector<SketchKernel> kernels = SupportedKernels();
  for (uint64_t vector_len : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1000ULL,
                              12345ULL, 1ULL << 40}) {
    SplitMix64 rng(vector_len * 31 + 1);
    std::vector<CubeSketch> sketches;
    for (size_t i = 0; i < kernels.size(); ++i) {
      sketches.emplace_back(MakeParams(vector_len, 99));
    }
    const size_t batch_sizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17,
                                  31, 32, 33, 64, 100, 255};
    for (size_t bs : batch_sizes) {
      std::vector<uint64_t> batch(bs);
      for (uint64_t& idx : batch) idx = rng.NextBelow(vector_len);
      for (size_t i = 0; i < kernels.size(); ++i) {
        sketches[i].UpdateBatchWithKernel(kernels[i], batch.data(), bs);
      }
    }
    std::vector<uint8_t> scalar_bytes(sketches[0].SerializedSize());
    sketches[0].SerializeTo(scalar_bytes.data());
    for (size_t i = 1; i < kernels.size(); ++i) {
      EXPECT_EQ(sketches[0], sketches[i])
          << "kernel=" << SketchKernelName(kernels[i])
          << " vector_len=" << vector_len;
      std::vector<uint8_t> bytes(sketches[i].SerializedSize());
      sketches[i].SerializeTo(bytes.data());
      EXPECT_EQ(scalar_bytes, bytes)
          << "serialized divergence, kernel=" << SketchKernelName(kernels[i])
          << " vector_len=" << vector_len;
    }
  }
}

TEST(SketchKernelTest, BatchMatchesPerUpdateLoopForEveryKernel) {
  SplitMix64 rng(1234);
  const uint64_t n = 50000;
  std::vector<uint64_t> indices(301);
  for (uint64_t& idx : indices) idx = rng.NextBelow(n);

  CubeSketch reference(MakeParams(n, 5));
  for (uint64_t idx : indices) reference.Update(idx);

  for (SketchKernel k : SupportedKernels()) {
    CubeSketch batched(MakeParams(n, 5));
    batched.UpdateBatchWithKernel(k, indices.data(), indices.size());
    EXPECT_EQ(reference, batched) << "kernel=" << SketchKernelName(k);
  }
}

TEST(SketchKernelTest, NodeSketchBatchIdenticalUnderForcedKernels) {
  KernelRestorer restore;
  SplitMix64 rng(77);
  NodeSketchParams np;
  np.num_nodes = 300;
  np.seed = 21;
  std::vector<uint64_t> indices(500);
  const uint64_t edge_space = NumPossibleEdges(np.num_nodes);
  for (uint64_t& idx : indices) idx = rng.NextBelow(edge_space);

  NodeSketch reference(np);
  for (uint64_t idx : indices) reference.Update(idx);

  for (SketchKernel k : SupportedKernels()) {
    ForceSketchKernel(k);
    NodeSketch batched(np);
    batched.UpdateBatch(indices.data(), indices.size());
    EXPECT_EQ(reference, batched) << "kernel=" << SketchKernelName(k);
  }
}

// ---- Depth saturation ----------------------------------------------------

// XXH64's word variant is a bijection in the seed for fixed input, so
// we can invert it and craft a column seed making a chosen encoded
// index hash to exactly 0 — the depth-saturation corner (depth ==
// rows - 1 via the h == 0 branch) that random streams can never reach.
uint64_t InvOdd(uint64_t a) {
  uint64_t x = a;  // Newton: converges to a^-1 mod 2^64 in 5 steps.
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

uint64_t InvXorShiftRight(uint64_t y, int s) {
  uint64_t x = y;
  for (int i = 0; i < 8; ++i) x = y ^ (x >> s);
  return x;
}

uint64_t RotL(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }
uint64_t RotR(uint64_t v, int r) { return (v >> r) | (v << (64 - r)); }

uint64_t SeedMakingHashZero(uint64_t enc) {
  // Forward: h0 = seed + P5 + 8; h1 = h0 ^ round; h2 = rotl(h1,27)*P1
  // + P4; out = avalanche(h2). Run it backwards from out == 0.
  uint64_t h2 = 0;
  h2 = InvXorShiftRight(h2, 32);
  h2 *= InvOdd(kXxPrime3);
  h2 = InvXorShiftRight(h2, 29);
  h2 *= InvOdd(kXxPrime2);
  h2 = InvXorShiftRight(h2, 33);
  const uint64_t h1 = RotR((h2 - kXxPrime4) * InvOdd(kXxPrime1), 27);
  const uint64_t round = RotL(enc * kXxPrime2, 31) * kXxPrime1;
  const uint64_t h0 = h1 ^ round;
  return h0 - kXxPrime5 - 8;
}

TEST(SketchKernelTest, DepthSaturatedLanesMixedInOneLaneGroup) {
  const int cols = 3;
  const int rows = 6;
  const uint64_t saturating_idx = 41;
  const uint64_t zero_seed = SeedMakingHashZero(saturating_idx + 1);
  ASSERT_EQ(XxHash64Word(saturating_idx + 1, zero_seed), 0u)
      << "hash inversion is broken";

  // Column 0 saturates for the crafted index; other columns and the
  // remaining lanes take ordinary random depths.
  SplitMix64 rng(5150);
  std::vector<uint64_t> col_seeds = {zero_seed, rng.Next(), rng.Next()};
  std::vector<uint64_t> gamma_seeds = {rng.Next(), rng.Next(), rng.Next(),
                                       rng.Next()};
  // 11 indices: a full 8-lane group (crafted index inside it) plus a
  // tail, so every kernel mixes saturated and normal lanes.
  std::vector<uint64_t> indices = {3,  17, saturating_idx, 5, 29, 41,
                                   63, 2,  11, 7,  19};

  struct Buckets {
    std::vector<uint64_t> alphas;
    std::vector<uint32_t> gammas;
    uint64_t det_alpha = 0;
    uint32_t det_gamma = 0;
  };
  auto run = [&](SketchKernel k) {
    Buckets b;
    b.alphas.assign(static_cast<size_t>(cols) * rows, 0);
    b.gammas.assign(static_cast<size_t>(cols) * rows, 0);
    CubeSketchKernelArgs args;
    args.indices = indices.data();
    args.count = indices.size();
    args.cols = cols;
    args.rows = rows;
    args.col_seeds = col_seeds.data();
    args.gamma_seeds = gamma_seeds.data();
    args.alphas = b.alphas.data();
    args.gammas = b.gammas.data();
    args.det_alpha = &b.det_alpha;
    args.det_gamma = &b.det_gamma;
    CubeSketchUpdateBatch(k, args);
    return b;
  };

  const Buckets scalar = run(SketchKernel::kScalar);
  for (SketchKernel k : SupportedKernels()) {
    if (k == SketchKernel::kScalar) continue;
    const Buckets simd = run(k);
    EXPECT_EQ(scalar.alphas, simd.alphas) << "kernel=" << SketchKernelName(k);
    EXPECT_EQ(scalar.gammas, simd.gammas) << "kernel=" << SketchKernelName(k);
    EXPECT_EQ(scalar.det_alpha, simd.det_alpha);
    EXPECT_EQ(scalar.det_gamma, simd.det_gamma);
  }

  // The saturated index alone sits in column 0's last row only (the
  // h == 0 depth cap), under every kernel; as the paper's cumulative
  // bucket (the suffix XOR of the stored rows) it fills every row.
  for (SketchKernel k : SupportedKernels()) {
    // Pad with copies so SIMD kernels process it inside a full lane
    // group (even count of toggles cancels; odd count survives).
    std::vector<uint64_t> nine(9, saturating_idx);
    Buckets b;
    b.alphas.assign(static_cast<size_t>(cols) * rows, 0);
    b.gammas.assign(static_cast<size_t>(cols) * rows, 0);
    CubeSketchKernelArgs args;
    args.indices = nine.data();
    args.count = nine.size();
    args.cols = cols;
    args.rows = rows;
    args.col_seeds = col_seeds.data();
    args.gamma_seeds = gamma_seeds.data();
    args.alphas = b.alphas.data();
    args.gammas = b.gammas.data();
    args.det_alpha = &b.det_alpha;
    args.det_gamma = &b.det_gamma;
    CubeSketchUpdateBatch(k, args);
    uint64_t suffix = 0;
    for (int r = rows - 1; r >= 0; --r) {
      EXPECT_EQ(b.alphas[r], r == rows - 1 ? saturating_idx + 1 : 0)
          << "kernel=" << SketchKernelName(k) << " row=" << r;
      suffix ^= b.alphas[r];
      EXPECT_EQ(suffix, saturating_idx + 1)
          << "kernel=" << SketchKernelName(k) << " row=" << r;
    }
  }
}

// ---- Span-level bounds check ---------------------------------------------

TEST(SketchKernelTest, OutOfRangeBatchAborts) {
  CubeSketch s(MakeParams(10, 1));
  const uint64_t indices[] = {1, 3, 10};
  EXPECT_DEATH(s.UpdateBatch(indices, 3), "batch index out of range");

  NodeSketchParams np;
  np.num_nodes = 4;
  np.seed = 1;
  NodeSketch ns(np);
  const uint64_t bad = NumPossibleEdges(np.num_nodes);
  EXPECT_DEATH(ns.UpdateBatch(&bad, 1), "batch edge index out of range");
}

// ---- End to end ----------------------------------------------------------

TEST(SketchKernelTest, GraphSnapshotBytesIdenticalAcrossKernels) {
  KernelRestorer restore;
  // A full ingest pipeline per kernel — gutters, workers, delta
  // sketches — must produce byte-identical snapshots.
  SplitMix64 rng(90210);
  const uint64_t n = 200;
  std::vector<GraphUpdate> updates;
  for (int i = 0; i < 3000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBelow(n));
    NodeId v = static_cast<NodeId>(rng.NextBelow(n));
    if (u == v) v = (v + 1) % n;
    updates.push_back({Edge(u, v), UpdateType::kInsert});
  }
  // Delete a third of them again (toggle back).
  for (size_t i = 0; i < updates.size(); i += 3) {
    updates.push_back({updates[i].edge, UpdateType::kDelete});
  }

  std::vector<uint8_t> scalar_bytes;
  for (SketchKernel k : SupportedKernels()) {
    ForceSketchKernel(k);
    GraphZeppelinConfig config;
    config.num_nodes = n;
    config.seed = 4242;
    config.num_workers = 2;
    GraphZeppelin gz(config);
    GZ_CHECK_OK(gz.Init());
    gz.Update(updates.data(), updates.size());
    gz.Flush();
    const std::vector<uint8_t> bytes = gz.Snapshot().Serialize();
    if (k == SketchKernel::kScalar) {
      scalar_bytes = bytes;
    } else {
      EXPECT_EQ(scalar_bytes, bytes)
          << "snapshot divergence under kernel " << SketchKernelName(k);
    }
  }
}

}  // namespace
}  // namespace gz
