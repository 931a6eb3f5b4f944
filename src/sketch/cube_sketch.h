// CubeSketch: the paper's l0-sampling sketch for vectors over Z_2
// (Section 3.1). Compared to the standard (a, b, c)-bucket sampler it
// replaces modular-exponentiation checksums with XOR of a second hash,
// shrinking buckets to 12 bytes and making the average update a handful
// of XORs.
//
// Geometry: `cols` independent columns (default 7, from delta = 1/100);
// each column has ceil(log2(n)) + 1 geometric rows. An update to vector
// index i lands in rows 0..z of column c, where z is the number of
// trailing zero bits of h1_c(i). One extra deterministic bucket receives
// every update and is used both for O(1) recovery of singleton vectors
// and for zero-vector detection.
//
// Linearity: two CubeSketches built with the same parameters and seed can
// be merged with Merge() (elementwise XOR); the result is exactly the
// sketch of the XOR (mod-2 sum) of the two input vectors.
#ifndef GZ_SKETCH_CUBE_SKETCH_H_
#define GZ_SKETCH_CUBE_SKETCH_H_

#include <cstddef>
#include <cstdint>
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

class CubeSketch {
 public:
  explicit CubeSketch(const CubeSketchParams& params);

  // Toggles vector index `idx` (addition of 1 over Z_2).
  void Update(uint64_t idx);

  // Applies a batch of toggles through the active sketch kernel
  // (sketch_kernel.h): indices are bounds-checked once for the whole
  // span, then processed in lane groups — 4 (AVX2) or 8 (AVX-512)
  // placement hashes, checksums, and bucket depths per column computed
  // in SIMD, followed by a scalar scatter-XOR into the bucket rows.
  // Bitwise-identical to calling Update() per index, for every kernel.
  void UpdateBatch(const uint64_t* indices, size_t count);

  // Same, for callers that already validated every index against
  // vector_len (NodeSketch hoists one span check over all rounds).
  void UpdateBatchPrechecked(const uint64_t* indices, size_t count);

  // Same as UpdateBatch but with an explicit kernel, so tests and
  // benches can compare kernels within one process.
  void UpdateBatchWithKernel(SketchKernel kernel, const uint64_t* indices,
                             size_t count);

  // Returns a nonzero coordinate, or kZero / kFail (see SketchSample).
  SketchSample Query() const;

  // Elementwise XOR with `other`, which must have identical params.
  // After the call, this sketch represents the mod-2 sum of both vectors.
  void Merge(const CubeSketch& other);

  // Resets to the sketch of the zero vector.
  void Clear();

  const CubeSketchParams& params() const { return params_; }
  int rows() const { return rows_; }
  int cols() const { return params_.cols; }

  // Total bucket count for the given params: cols * rows plus the
  // deterministic bucket. The single source of bucket geometry shared
  // by the constructor, ByteSize(), and SerializedSizeFor().
  static size_t NumBuckets(const CubeSketchParams& params);

  // Exact in-memory payload size: 12 bytes per bucket (64-bit alpha +
  // 32-bit gamma), matching the paper's accounting.
  size_t ByteSize() const;

  // --- Flat serialization (used by the on-disk sketch store) -----------
  size_t SerializedSize() const { return ByteSize(); }
  // Record size for the given params without constructing a sketch;
  // lets deserializers validate a buffer length before allocating.
  static size_t SerializedSizeFor(const CubeSketchParams& params);
  void SerializeTo(uint8_t* out) const;
  void DeserializeFrom(const uint8_t* in);
  // Merge() with a serialized same-params sketch, read from the bytes.
  void MergeSerialized(const uint8_t* in);

  friend bool operator==(const CubeSketch& a, const CubeSketch& b) {
    return a.params_ == b.params_ && a.alphas_ == b.alphas_ &&
           a.gammas_ == b.gammas_ && a.det_alpha_ == b.det_alpha_ &&
           a.det_gamma_ == b.det_gamma_;
  }

 private:
  // Bucket index within the flattened column-major arrays.
  int BucketIndex(int col, int row) const { return col * rows_ + row; }

  // Borrowing view of this sketch's geometry/buckets for the kernel.
  CubeSketchKernelArgs KernelArgs(const uint64_t* indices, size_t count);

  CubeSketchParams params_;
  int rows_;
  // Structure-of-arrays bucket storage: alphas_[b] is the XOR of encoded
  // indices in bucket b, gammas_[b] the XOR of their checksums.
  std::vector<uint64_t> alphas_;
  std::vector<uint32_t> gammas_;
  // Deterministic bucket: receives every update.
  uint64_t det_alpha_ = 0;
  uint32_t det_gamma_ = 0;
  // Per-column seeds for the placement hash h1 and checksum hash h2.
  std::vector<uint64_t> col_seeds_;
  std::vector<uint64_t> gamma_seeds_;
};

}  // namespace gz

#endif  // GZ_SKETCH_CUBE_SKETCH_H_
