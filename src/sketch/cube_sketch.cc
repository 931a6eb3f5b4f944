#include "sketch/cube_sketch.h"

#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/xxhash.h"

namespace gz {
namespace {

// Domain-separation constants for deriving per-column hash seeds.
constexpr uint64_t kColSeedTag = 0x636f6c5f73656564ULL;    // "col_seed"
constexpr uint64_t kGammaSeedTag = 0x67616d6d615f7364ULL;  // "gamma_sd"
constexpr uint64_t kDetSeedTag = 0x6465745f73656564ULL;    // "det_seed"

int RowsForLength(uint64_t n) {
  GZ_CHECK(n >= 1);
  // ceil(log2(n)) geometric levels plus the always-on row 0.
  const int levels = (n <= 1) ? 1 : std::bit_width(n - 1);
  return levels + 1;
}

}  // namespace

size_t CubeSketch::NumBuckets(const CubeSketchParams& params) {
  GZ_CHECK(params.cols >= 1);
  // cols * rows column buckets plus the deterministic bucket.
  return static_cast<size_t>(params.cols) * RowsForLength(params.vector_len) +
         1;
}

CubeSketch::CubeSketch(const CubeSketchParams& params)
    : params_(params), rows_(RowsForLength(params.vector_len)) {
  GZ_CHECK(params_.vector_len >= 1);
  GZ_CHECK(params_.cols >= 1);
  const size_t column_buckets = NumBuckets(params_) - 1;
  alphas_.assign(column_buckets, 0);
  gammas_.assign(column_buckets, 0);
  col_seeds_.reserve(params_.cols);
  gamma_seeds_.reserve(params_.cols + 1);
  for (int c = 0; c < params_.cols; ++c) {
    col_seeds_.push_back(XxHash64Word(kColSeedTag + c, params_.seed));
    gamma_seeds_.push_back(XxHash64Word(kGammaSeedTag + c, params_.seed));
  }
  // Seed for the deterministic bucket's checksum.
  gamma_seeds_.push_back(XxHash64Word(kDetSeedTag, params_.seed));
}

// The update math itself lives in sketch_kernel.cc (UpdateOneScalar and
// the SIMD kernels); this file only owns storage and bounds checks.
void CubeSketch::Update(uint64_t idx) {
  GZ_CHECK(idx < params_.vector_len);
  // A single update can't fill a lane group; the scalar kernel is the
  // reference path and the fastest choice here.
  CubeSketchUpdateBatch(SketchKernel::kScalar, KernelArgs(&idx, 1));
}

void CubeSketch::UpdateBatch(const uint64_t* indices, size_t count) {
  if (count == 0) return;
  // Span-level bounds check, hoisted out of the per-update path: one
  // max-reduction pass (vectorizable) instead of a branch per update.
  uint64_t max_idx = 0;
  for (size_t i = 0; i < count; ++i) {
    max_idx = indices[i] > max_idx ? indices[i] : max_idx;
  }
  GZ_CHECK_MSG(max_idx < params_.vector_len, "batch index out of range");
  UpdateBatchPrechecked(indices, count);
}

void CubeSketch::UpdateBatchPrechecked(const uint64_t* indices, size_t count) {
  CubeSketchUpdateBatch(ActiveSketchKernel(), KernelArgs(indices, count));
}

void CubeSketch::UpdateBatchWithKernel(SketchKernel kernel,
                                       const uint64_t* indices, size_t count) {
  if (count == 0) return;
  uint64_t max_idx = 0;
  for (size_t i = 0; i < count; ++i) {
    max_idx = indices[i] > max_idx ? indices[i] : max_idx;
  }
  GZ_CHECK_MSG(max_idx < params_.vector_len, "batch index out of range");
  CubeSketchUpdateBatch(kernel, KernelArgs(indices, count));
}

CubeSketchKernelArgs CubeSketch::KernelArgs(const uint64_t* indices,
                                            size_t count) {
  CubeSketchKernelArgs args;
  args.indices = indices;
  args.count = count;
  args.cols = params_.cols;
  args.rows = rows_;
  args.col_seeds = col_seeds_.data();
  args.gamma_seeds = gamma_seeds_.data();
  args.alphas = alphas_.data();
  args.gammas = gammas_.data();
  args.det_alpha = &det_alpha_;
  args.det_gamma = &det_gamma_;
  return args;
}

SketchSample CubeSketch::Query() const {
  // Deterministic bucket: zero detection and O(1) singleton recovery.
  if (det_alpha_ == 0 && det_gamma_ == 0) return SketchSample::Zero();
  if (det_alpha_ != 0 && det_alpha_ <= params_.vector_len) {
    const uint32_t expect =
        static_cast<uint32_t>(XxHash64Word(det_alpha_, gamma_seeds_.back()));
    if (expect == det_gamma_) return SketchSample::Good(det_alpha_ - 1);
  }

  // Scan each column from the deepest (sparsest) row upward: deep rows
  // are the most likely to hold a single survivor.
  for (int c = 0; c < params_.cols; ++c) {
    for (int r = rows_ - 1; r >= 0; --r) {
      const uint64_t alpha = alphas_[BucketIndex(c, r)];
      const uint32_t gamma = gammas_[BucketIndex(c, r)];
      if (alpha == 0 || alpha > params_.vector_len) continue;
      const uint32_t expect =
          static_cast<uint32_t>(XxHash64Word(alpha, gamma_seeds_[c]));
      if (expect == gamma) return SketchSample::Good(alpha - 1);
    }
  }
  return SketchSample::Fail();
}

void CubeSketch::Merge(const CubeSketch& other) {
  GZ_CHECK_MSG(params_ == other.params_,
               "merging sketches with different parameters");
  for (size_t i = 0; i < alphas_.size(); ++i) {
    alphas_[i] ^= other.alphas_[i];
    gammas_[i] ^= other.gammas_[i];
  }
  det_alpha_ ^= other.det_alpha_;
  det_gamma_ ^= other.det_gamma_;
}

void CubeSketch::Clear() {
  std::memset(alphas_.data(), 0, alphas_.size() * sizeof(uint64_t));
  std::memset(gammas_.data(), 0, gammas_.size() * sizeof(uint32_t));
  det_alpha_ = 0;
  det_gamma_ = 0;
}

size_t CubeSketch::ByteSize() const {
  // 12 bytes per bucket (alpha u64 + gamma u32), including the
  // deterministic bucket.
  return NumBuckets(params_) * (sizeof(uint64_t) + sizeof(uint32_t));
}

size_t CubeSketch::SerializedSizeFor(const CubeSketchParams& params) {
  return NumBuckets(params) * (sizeof(uint64_t) + sizeof(uint32_t));
}

void CubeSketch::SerializeTo(uint8_t* out) const {
  std::memcpy(out, alphas_.data(), alphas_.size() * sizeof(uint64_t));
  out += alphas_.size() * sizeof(uint64_t);
  std::memcpy(out, gammas_.data(), gammas_.size() * sizeof(uint32_t));
  out += gammas_.size() * sizeof(uint32_t);
  std::memcpy(out, &det_alpha_, sizeof(det_alpha_));
  out += sizeof(det_alpha_);
  std::memcpy(out, &det_gamma_, sizeof(det_gamma_));
}

void CubeSketch::DeserializeFrom(const uint8_t* in) {
  std::memcpy(alphas_.data(), in, alphas_.size() * sizeof(uint64_t));
  in += alphas_.size() * sizeof(uint64_t);
  std::memcpy(gammas_.data(), in, gammas_.size() * sizeof(uint32_t));
  in += gammas_.size() * sizeof(uint32_t);
  std::memcpy(&det_alpha_, in, sizeof(det_alpha_));
  in += sizeof(det_alpha_);
  std::memcpy(&det_gamma_, in, sizeof(det_gamma_));
}

void CubeSketch::MergeSerialized(const uint8_t* in) {
  // Same layout as DeserializeFrom; memcpy per word keeps unaligned
  // reads defined and still vectorizes.
  for (uint64_t& a : alphas_) {
    uint64_t v;
    std::memcpy(&v, in, sizeof(v));
    a ^= v;
    in += sizeof(v);
  }
  for (uint32_t& g : gammas_) {
    uint32_t v;
    std::memcpy(&v, in, sizeof(v));
    g ^= v;
    in += sizeof(v);
  }
  uint64_t alpha;
  uint32_t gamma;
  std::memcpy(&alpha, in, sizeof(alpha));
  std::memcpy(&gamma, in + sizeof(alpha), sizeof(gamma));
  det_alpha_ ^= alpha;
  det_gamma_ ^= gamma;
}

}  // namespace gz
