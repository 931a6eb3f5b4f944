// Mersenne-prime fields. The two primes are the standard l0-sampler's
// checksum moduli, one per word width (paper Section 3; the sampler
// reduces with plain `%` on purpose, see l0_standard.h):
//  * Mersenne31 (p = 2^31 - 1): all arithmetic fits in 64-bit words; used
//    when the sketched vector has length < 2^31.
//  * Mersenne61 (p = 2^61 - 1): products need 128-bit intermediates; this
//    is the "128-bit arithmetic" regime that slows the standard sampler on
//    long vectors.
// The Mersenne61 shift-reduction below serves the k-wise-independent hash
// family (kwise_hash.h).
#ifndef GZ_UTIL_MERSENNE_FIELD_H_
#define GZ_UTIL_MERSENNE_FIELD_H_

#include <cstdint>

namespace gz {

inline constexpr uint64_t kMersenne31 = (1ULL << 31) - 1;
inline constexpr uint64_t kMersenne61 = (1ULL << 61) - 1;

// ---- Mersenne61: needs 128-bit multiply ------------------------------------

inline uint64_t Reduce61(unsigned __int128 x) {
  uint64_t lo = static_cast<uint64_t>(x & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

inline uint64_t MulMod61(uint64_t a, uint64_t b) {
  return Reduce61(static_cast<unsigned __int128>(a) * b);
}

inline uint64_t AddMod61(uint64_t a, uint64_t b) {
  uint64_t r = a + b;  // a, b < 2^61 so no 64-bit overflow.
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

}  // namespace gz

#endif  // GZ_UTIL_MERSENNE_FIELD_H_
