// CubeSketch: the paper's l0-sampling sketch for vectors over Z_2
// (Section 3.1). Compared to the standard (a, b, c)-bucket sampler it
// replaces modular-exponentiation checksums with XOR of a second hash,
// shrinking buckets to 12 bytes and making the average update a handful
// of XORs.
//
// Geometry: `cols` independent columns (default 7, from delta = 1/100);
// each column has ceil(log2(n)) + 1 geometric rows. In the paper an
// update to vector index i lands in rows 0..z of column c, where z is
// the number of trailing zero bits of h1_c(i). Here it is stored once,
// in row z alone (z capped at rows - 1): stored row r is the XOR of the
// updates of depth exactly r, and the paper's bucket r is the XOR of
// stored rows r..rows-1, which the sampler forms as it scans a column
// from the deepest row up. The map is fixed and invertible, so merges,
// linearity and every sample are the paper's; an update costs one XOR
// per column. One extra deterministic bucket receives every update and
// is used both for O(1) recovery of singleton vectors and for
// zero-vector detection.
//
// Storage: one flat bucket block per sketch, laid out by a SketchLayout
// that every sketch of one vector family shares. A NodeSketch
// (node_sketch.h) is such a block with one round per Boruvka round; a
// CubeSketch is the same machinery with a single round.
//
// Linearity: two CubeSketches built with the same parameters and seed can
// be merged with Merge() (elementwise XOR); the result is exactly the
// sketch of the XOR (mod-2 sum) of the two input vectors.
#ifndef GZ_SKETCH_CUBE_SKETCH_H_
#define GZ_SKETCH_CUBE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sketch/sketch_kernel.h"
#include "sketch/sketch_sample.h"

namespace gz {

struct CubeSketchParams {
  uint64_t vector_len = 0;  // n: length of the sketched Z_2 vector.
  uint64_t seed = 0;        // All hash functions derive from this seed.
  int cols = 7;             // q * log(1/delta); 7 ~ delta = 1/100.

  friend bool operator==(const CubeSketchParams& a,
                         const CubeSketchParams& b) {
    return a.vector_len == b.vector_len && a.seed == b.seed &&
           a.cols == b.cols;
  }
};

// Immutable geometry and hash seeds of `rounds` CubeSketch rounds over
// one vector length, one seed per round, hashed once here. Round r of a
// block sits at byte r * round_stride, in serialized record order:
//
//   cols*rows alphas (u64, column-major) | cols*rows gammas (u32) |
//   det alpha (u64) | det gamma (u32)
//
// round_bytes = 12 * (cols*rows + 1), and a sketch's record is its
// rounds' records concatenated. The stride rounds round_bytes up to 8 so
// every round's alphas are 8-aligned; the det alpha's offset 12*cols*rows
// is 8-aligned only when round_bytes is not, so it is accessed through
// memcpy alone.
//
// Sampling is one bucket scan, SampleColumns(). A verified
// deterministic bucket is the one sample; otherwise the scan takes the
// deepest checksum-verified bucket of each column, so up to `cols`
// independent samples in column order. Query() is the first
// element of that scan. False positives: a bucket holding several
// indices passes its 32-bit checksum with probability 2^-32. The scan
// accepts at most one bucket per column, so a round sketch yields at
// most `cols` samples, each one such 2^-32 chance, and it checks at
// most cols * rows + 1 buckets, as a first-hit scan does: the chance
// that any sample is false stays below (cols * rows + 1) * 2^-32.
class SketchLayout {
 public:
  // Bytes of one bucket, and so of a round's deterministic bucket.
  static constexpr size_t kDetBucketBytes = sizeof(uint64_t) + sizeof(uint32_t);

  SketchLayout(uint64_t vector_len, int cols,
               const std::vector<uint64_t>& round_seeds);

  // One round's record size from the geometry alone (no seeds hashed),
  // and its 8-byte-padded stride in a block.
  static size_t RoundBytes(uint64_t vector_len, int cols);
  static size_t RoundStride(uint64_t vector_len, int cols);

  uint64_t vector_len() const { return vector_len_; }
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int rounds() const { return rounds_; }
  size_t round_bytes() const { return round_bytes_; }
  size_t round_stride() const { return round_stride_; }
  size_t record_bytes() const { return round_bytes_ * rounds_; }
  // Offset of the deterministic bucket in a round slice: its last
  // kDetBucketBytes bytes.
  size_t det_offset() const { return column_buckets_ * kDetBucketBytes; }

  // Runs `kernel` over a bounds-checked span in the round at `slice`.
  void Update(int round, uint8_t* slice, SketchKernel kernel,
              const uint64_t* indices, size_t count) const;

  // Samples the round at `slice`: a block's, or an XOR of several.
  // Writes at most `max_out` (>= 1) nonzero coordinates to `out`: the
  // deterministic bucket's alone, or else the deepest verified bucket
  // of each column in column order, stopping after `max_out` samples.
  ColumnSamples SampleColumns(int round, const uint8_t* slice,
                              uint64_t* out, int max_out) const;

  // SampleColumns() from the round's deterministic bucket alone (`det`,
  // kDetBucketBytes bytes): kZero, or kGood with the one coordinate in
  // out[0], exactly as SampleColumns() returns them on the whole slice.
  // kFail means the bucket does not decide the round; only the column
  // scan can.
  ColumnSamples SampleDeterministic(int round, const uint8_t* det,
                                    uint64_t* out) const;

  // The first sample of SampleColumns().
  SketchSample Query(int round, const uint8_t* slice) const;

 private:
  const uint64_t* col_seeds(int round) const {
    return seeds_.data() + static_cast<size_t>(round) * (2 * cols_ + 1);
  }

  uint64_t vector_len_;
  int cols_;
  int rows_;
  int rounds_;
  size_t column_buckets_;  // cols * rows.
  size_t round_bytes_;
  size_t round_stride_;
  // Per round: cols placement seeds, then cols + 1 checksum seeds.
  std::vector<uint64_t> seeds_;
};

// dst ^= src over `bytes` bytes: the one XOR routine behind every merge
// of sketch state, in memory or against serialized records.
void XorBytes(uint8_t* dst, const uint8_t* src, size_t bytes);

// XorBytes() over one deterministic bucket, inline: a fold of round
// summaries runs it once per node and round.
inline void XorDetBucket(uint8_t* dst, const uint8_t* src) {
  uint64_t alpha_d, alpha_s;
  uint32_t gamma_d, gamma_s;
  std::memcpy(&alpha_d, dst, sizeof(alpha_d));
  std::memcpy(&alpha_s, src, sizeof(alpha_s));
  std::memcpy(&gamma_d, dst + sizeof(alpha_d), sizeof(gamma_d));
  std::memcpy(&gamma_s, src + sizeof(alpha_s), sizeof(gamma_s));
  alpha_d ^= alpha_s;
  gamma_d ^= gamma_s;
  std::memcpy(dst, &alpha_d, sizeof(alpha_d));
  std::memcpy(dst + sizeof(alpha_d), &gamma_d, sizeof(gamma_d));
}

// One bucket block and its shared layout: the storage and operations of
// CubeSketch and NodeSketch. A copy is one allocation.
class SketchBlock {
 public:
  const SketchLayout& layout() const { return *layout_; }

  // Round `round`'s layout().round_bytes() bytes, 8-aligned.
  const uint8_t* subsketch(int round) const {
    return bytes_.data() + round * layout_->round_stride();
  }

  // Resets to the sketch of the zero vector.
  void Clear();

  // The paper's accounting, 12 bytes per bucket: the record size. The
  // block's stride padding (at most 4 B per round) is not counted.
  size_t ByteSize() const { return layout_->record_bytes(); }

  // Flat serialization, one memcpy or XOR pass per round.
  size_t SerializedSize() const { return layout_->record_bytes(); }
  void SerializeTo(uint8_t* out) const;
  void DeserializeFrom(const uint8_t* in);
  // record ^= this, for a same-params sketch's record.
  void MergeIntoSerialized(uint8_t* record) const;

 protected:
  explicit SketchBlock(std::shared_ptr<const SketchLayout> layout);

  // Bounds-checks the span once, then runs `kernel` in every round.
  void UpdateRounds(SketchKernel kernel, const uint64_t* indices,
                    size_t count, const char* range_error);
  // Elementwise XOR; the caller has checked the params match.
  void MergeBlock(const SketchBlock& other);

  std::shared_ptr<const SketchLayout> layout_;
  // rounds * round_stride bytes of raw storage, accessed as typed
  // buckets; operator new aligns it to 16. Padding stays zero.
  std::vector<uint8_t> bytes_;

 private:
  uint8_t* round_data(int round) {
    return const_cast<uint8_t*>(subsketch(round));
  }
};

class CubeSketch : public SketchBlock {
 public:
  explicit CubeSketch(const CubeSketchParams& params);

  // Toggles vector index `idx` (addition of 1 over Z_2).
  void Update(uint64_t idx);

  // Applies a batch of toggles through the active SIMD sketch kernel
  // (sketch_kernel.h), bounds-checking the span once. Bitwise-identical
  // to calling Update() per index, for every kernel.
  void UpdateBatch(const uint64_t* indices, size_t count) {
    UpdateBatchWithKernel(ActiveSketchKernel(), indices, count);
  }

  // Same as UpdateBatch but with an explicit kernel, so tests and
  // benches can compare kernels within one process.
  void UpdateBatchWithKernel(SketchKernel kernel, const uint64_t* indices,
                             size_t count);

  // Returns a nonzero coordinate, or kZero / kFail (see SketchSample).
  SketchSample Query() const { return layout().Query(0, subsketch(0)); }

  // Elementwise XOR with `other`, which must have identical params.
  // After the call, this sketch represents the mod-2 sum of both vectors.
  void Merge(const CubeSketch& other);

  const CubeSketchParams& params() const { return params_; }
  int rows() const { return layout().rows(); }
  int cols() const { return params_.cols; }

  friend bool operator==(const CubeSketch& a, const CubeSketch& b) {
    return a.params_ == b.params_ && a.bytes_ == b.bytes_;
  }

 private:
  CubeSketchParams params_;
};

}  // namespace gz

#endif  // GZ_SKETCH_CUBE_SKETCH_H_
