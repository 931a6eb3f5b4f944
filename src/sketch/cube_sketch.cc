#include "sketch/cube_sketch.h"

#include <bit>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/xxhash.h"

namespace gz {
namespace {

// Domain-separation constants for deriving per-column hash seeds.
constexpr uint64_t kColSeedTag = 0x636f6c5f73656564ULL;    // "col_seed"
constexpr uint64_t kGammaSeedTag = 0x67616d6d615f7364ULL;  // "gamma_sd"
constexpr uint64_t kDetSeedTag = 0x6465745f73656564ULL;    // "det_seed"

constexpr size_t kBucketBytes = SketchLayout::kDetBucketBytes;

int RowsForLength(uint64_t n) {
  GZ_CHECK(n >= 1);
  // ceil(log2(n)) geometric levels plus the always-on row 0.
  const int levels = (n <= 1) ? 1 : std::bit_width(n - 1);
  return levels + 1;
}

}  // namespace

size_t SketchLayout::RoundBytes(uint64_t vector_len, int cols) {
  GZ_CHECK(cols >= 1);
  // cols * rows column buckets plus the deterministic bucket.
  return (static_cast<size_t>(cols) * RowsForLength(vector_len) + 1) *
         kBucketBytes;
}

size_t SketchLayout::RoundStride(uint64_t vector_len, int cols) {
  return (RoundBytes(vector_len, cols) + 7) & ~size_t{7};
}

SketchLayout::SketchLayout(uint64_t vector_len, int cols,
                           const std::vector<uint64_t>& round_seeds)
    : vector_len_(vector_len),
      cols_(cols),
      rows_(RowsForLength(vector_len)),
      rounds_(static_cast<int>(round_seeds.size())),
      column_buckets_(static_cast<size_t>(cols) * rows_),
      round_bytes_(RoundBytes(vector_len, cols)),
      round_stride_(RoundStride(vector_len, cols)) {
  GZ_CHECK(rounds_ >= 1);
  seeds_.reserve(round_seeds.size() * (2 * cols_ + 1));
  for (uint64_t seed : round_seeds) {
    for (int c = 0; c < cols_; ++c) {
      seeds_.push_back(XxHash64Word(kColSeedTag + c, seed));
    }
    for (int c = 0; c < cols_; ++c) {
      seeds_.push_back(XxHash64Word(kGammaSeedTag + c, seed));
    }
    // Seed for the deterministic bucket's checksum.
    seeds_.push_back(XxHash64Word(kDetSeedTag, seed));
  }
}

// The update math itself lives in sketch_kernel.cc (UpdateOneScalar and
// the SIMD kernels); the layout only points the kernel at one round.
void SketchLayout::Update(int round, uint8_t* slice, SketchKernel kernel,
                          const uint64_t* indices, size_t count) const {
  uint8_t* det = slice + det_offset();
  uint64_t det_alpha;
  std::memcpy(&det_alpha, det, sizeof(det_alpha));
  CubeSketchKernelArgs args;
  args.indices = indices;
  args.count = count;
  args.cols = cols_;
  args.rows = rows_;
  args.col_seeds = col_seeds(round);
  args.gamma_seeds = col_seeds(round) + cols_;
  args.alphas = reinterpret_cast<uint64_t*>(slice);
  args.gammas = reinterpret_cast<uint32_t*>(
      slice + column_buckets_ * sizeof(uint64_t));
  args.det_alpha = &det_alpha;
  args.det_gamma = reinterpret_cast<uint32_t*>(det + sizeof(uint64_t));
  CubeSketchUpdateBatch(kernel, args);
  std::memcpy(det, &det_alpha, sizeof(det_alpha));
}

ColumnSamples SketchLayout::SampleDeterministic(int round, const uint8_t* det,
                                                uint64_t* out) const {
  uint64_t det_alpha;
  uint32_t det_gamma;
  std::memcpy(&det_alpha, det, sizeof(det_alpha));
  std::memcpy(&det_gamma, det + sizeof(det_alpha), sizeof(det_gamma));
  // Zero detection and O(1) singleton recovery.
  if (det_alpha == 0 && det_gamma == 0) return {SampleKind::kZero, 0};
  if (det_alpha != 0 && det_alpha <= vector_len_) {
    const uint32_t expect = static_cast<uint32_t>(
        XxHash64Word(det_alpha, col_seeds(round)[2 * cols_]));
    if (expect == det_gamma) {
      out[0] = det_alpha - 1;
      return {SampleKind::kGood, 1};
    }
  }
  return {SampleKind::kFail, 0};
}

ColumnSamples SketchLayout::SampleColumns(int round, const uint8_t* slice,
                                          uint64_t* out, int max_out) const {
  const ColumnSamples det = SampleDeterministic(round, slice + det_offset(),
                                                out);
  if (det.kind != SampleKind::kFail) return det;

  const uint64_t* alphas = reinterpret_cast<const uint64_t*>(slice);
  const uint32_t* gammas = reinterpret_cast<const uint32_t*>(
      slice + column_buckets_ * sizeof(uint64_t));
  const uint64_t* gamma_seeds = col_seeds(round) + cols_;

  // Scan each column from the deepest (sparsest) row upward: deep rows
  // are the most likely to hold a single survivor. Stored row r holds
  // the updates of depth exactly r, so the paper's bucket r is the
  // running XOR of the rows passed so far. The first verified bucket is
  // the column's one sample.
  int count = 0;
  for (int c = 0; c < cols_ && count < max_out; ++c) {
    const size_t col = static_cast<size_t>(c) * rows_;
    uint64_t alpha = 0;
    uint32_t gamma = 0;
    for (int r = rows_ - 1; r >= 0; --r) {
      alpha ^= alphas[col + r];
      gamma ^= gammas[col + r];
      if (alpha == 0 || alpha > vector_len_) continue;
      const uint32_t expect =
          static_cast<uint32_t>(XxHash64Word(alpha, gamma_seeds[c]));
      if (expect == gamma) {
        out[count++] = alpha - 1;
        break;
      }
    }
  }
  if (count == 0) return {SampleKind::kFail, 0};
  return {SampleKind::kGood, count};
}

SketchSample SketchLayout::Query(int round, const uint8_t* slice) const {
  uint64_t index = 0;
  const ColumnSamples s = SampleColumns(round, slice, &index, 1);
  return {s.kind, index};
}

void XorBytes(uint8_t* dst, const uint8_t* src, size_t bytes) {
  // A plain byte loop: defined for any alignment, and -O3 vectorizes it.
  for (size_t i = 0; i < bytes; ++i) dst[i] ^= src[i];
}

SketchBlock::SketchBlock(std::shared_ptr<const SketchLayout> layout)
    : layout_(std::move(layout)),
      bytes_(layout_->rounds() * layout_->round_stride(), 0) {}

void SketchBlock::Clear() {
  std::memset(bytes_.data(), 0, bytes_.size());
}

void SketchBlock::UpdateRounds(SketchKernel kernel, const uint64_t* indices,
                               size_t count, const char* range_error) {
  if (count == 0) return;
  // One vectorizable max-reduction instead of a branch per update.
  uint64_t max_idx = 0;
  for (size_t i = 0; i < count; ++i) {
    max_idx = indices[i] > max_idx ? indices[i] : max_idx;
  }
  GZ_CHECK_MSG(max_idx < layout_->vector_len(), range_error);
  // Round-major: each round's buckets stay cache-resident (the unit of
  // the paper's sketch-level parallelism).
  for (int r = 0; r < layout_->rounds(); ++r) {
    layout_->Update(r, round_data(r), kernel, indices, count);
  }
}

void SketchBlock::MergeBlock(const SketchBlock& other) {
  XorBytes(bytes_.data(), other.bytes_.data(), bytes_.size());
}

void SketchBlock::SerializeTo(uint8_t* out) const {
  const size_t bytes = layout_->round_bytes();
  for (int r = 0; r < layout_->rounds(); ++r) {
    std::memcpy(out + r * bytes, subsketch(r), bytes);
  }
}

void SketchBlock::DeserializeFrom(const uint8_t* in) {
  const size_t bytes = layout_->round_bytes();
  for (int r = 0; r < layout_->rounds(); ++r) {
    std::memcpy(round_data(r), in + r * bytes, bytes);
  }
}

void SketchBlock::MergeIntoSerialized(uint8_t* record) const {
  const size_t bytes = layout_->round_bytes();
  for (int r = 0; r < layout_->rounds(); ++r) {
    XorBytes(record + r * bytes, subsketch(r), bytes);
  }
}

CubeSketch::CubeSketch(const CubeSketchParams& params)
    : SketchBlock(std::make_shared<const SketchLayout>(
          params.vector_len, params.cols,
          std::vector<uint64_t>{params.seed})),
      params_(params) {}

void CubeSketch::Update(uint64_t idx) {
  GZ_CHECK(idx < params_.vector_len);
  // A single update can't fill a lane group; the scalar kernel is the
  // reference path and the fastest choice here.
  UpdateRounds(SketchKernel::kScalar, &idx, 1, "index out of range");
}

void CubeSketch::UpdateBatchWithKernel(SketchKernel kernel,
                                       const uint64_t* indices, size_t count) {
  UpdateRounds(kernel, indices, count, "batch index out of range");
}

void CubeSketch::Merge(const CubeSketch& other) {
  GZ_CHECK_MSG(params_ == other.params_,
               "merging sketches with different parameters");
  MergeBlock(other);
}

}  // namespace gz
