// k-wise independent hash family over a Mersenne-61 field:
//   h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod p
// Degree-(k-1) polynomials with random coefficients give a k-wise
// independent family (Wegman-Carter). The samplers' analyses need only
// 2-wise independence, but both samplers hash with XxHash64Word, as the
// paper does; this family is the "poly 2-wise" row that
// bench_ablation_sketch_params times against it.
#ifndef GZ_UTIL_KWISE_HASH_H_
#define GZ_UTIL_KWISE_HASH_H_

#include <cstdint>
#include <vector>

namespace gz {

class KWiseHash {
 public:
  // Draws the k coefficients deterministically from `seed`.
  KWiseHash(uint64_t seed, int k);

  // Evaluates the polynomial at x (x may be any 64-bit value; it is
  // reduced into the field first). Output is uniform in [0, 2^61 - 1).
  uint64_t Hash(uint64_t x) const;

 private:
  std::vector<uint64_t> coeffs_;  // coeffs_[i] multiplies x^i.
};

}  // namespace gz

#endif  // GZ_UTIL_KWISE_HASH_H_
