// The paper's CubeSketch buckets from the stored ones. A sketch stores
// row r of a column as the XOR of the updates whose depth is exactly r
// (capped at rows - 1); the paper's bucket r (Section 3.1) holds every
// update of depth >= r, which is the XOR of stored rows r..rows-1.
// Tests apply this suffix transform to compare stored bytes with a
// cumulative oracle and with digests of the cumulative layout.
#ifndef GZ_TESTS_CUMULATIVE_BUCKETS_H_
#define GZ_TESTS_CUMULATIVE_BUCKETS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sketch/cube_sketch.h"

namespace gz {

// Rewrites `num_rounds` consecutive serialized rounds of `layout`'s
// geometry (round_bytes() each) from stored rows to the paper's
// buckets, in place. The deterministic bucket is the same in both.
inline void SuffixXorRounds(const SketchLayout& layout, uint8_t* rounds,
                            size_t num_rounds) {
  const int rows = layout.rows();
  const size_t column_buckets = static_cast<size_t>(layout.cols()) * rows;
  for (size_t k = 0; k < num_rounds; ++k) {
    uint8_t* alphas = rounds + k * layout.round_bytes();
    uint8_t* gammas = alphas + column_buckets * sizeof(uint64_t);
    for (int c = 0; c < layout.cols(); ++c) {
      uint64_t alpha_acc = 0;
      uint32_t gamma_acc = 0;
      for (int r = rows - 1; r >= 0; --r) {
        const size_t b = static_cast<size_t>(c) * rows + r;
        uint64_t alpha;
        uint32_t gamma;
        std::memcpy(&alpha, alphas + b * sizeof(alpha), sizeof(alpha));
        std::memcpy(&gamma, gammas + b * sizeof(gamma), sizeof(gamma));
        alpha_acc ^= alpha;
        gamma_acc ^= gamma;
        std::memcpy(alphas + b * sizeof(alpha), &alpha_acc, sizeof(alpha));
        std::memcpy(gammas + b * sizeof(gamma), &gamma_acc, sizeof(gamma));
      }
    }
  }
}

}  // namespace gz

#endif  // GZ_TESTS_CUMULATIVE_BUCKETS_H_
