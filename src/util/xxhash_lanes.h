// SIMD lane implementations of XxHash64Word: hash 4 (AVX2) or 8
// (AVX-512) 64-bit values against one seed in a single register pass.
//
// These are the hashing substrate of the batched cube-sketch update
// kernel (sketch/sketch_kernel.cc), which also exposes them as
// XxHash64WordBatch for bench_sketch_kernel's hash_mhashes_per_sec row.
// Every function is bit-identical to XxHash64Word lane by lane: same
// primes, same dataflow, just N lanes wide.
//
// All functions carry an explicit __attribute__((target(...))): the
// translation unit that includes this header is compiled with the
// global baseline flags (no -mavx2), and the dispatcher must prove CPU
// support at runtime before calling into them — the same discipline as
// util/crc32c.cc's SSE4.2 path. Keep these inline: GCC inlines a
// target-attributed callee into a caller whose target set is a
// superset, so the per-column hash calls melt into the kernel loop.
#ifndef GZ_UTIL_XXHASH_LANES_H_
#define GZ_UTIL_XXHASH_LANES_H_

#include <cstdint>

#include "util/xxhash.h"

#if defined(__x86_64__)

#include <immintrin.h>

// GCC 12's avx512 intrinsic headers use a self-initialized dummy
// (`__m512i __Y = __Y;`) that trips -Wmaybe-uninitialized when inlined
// into target-attributed callers (GCC PR 105593, fixed in GCC 13).
// Scope the suppression to the SIMD lane section only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define GZ_TARGET_AVX2 __attribute__((target("avx2")))
// F: core 512-bit integer ops, CD: vplzcntq (trailing-zero depth),
// DQ: vpmullq (native 64-bit lane multiply).
#define GZ_TARGET_AVX512 __attribute__((target("avx512f,avx512cd,avx512dq")))

namespace gz {

// ---- AVX2: 4 lanes ---------------------------------------------------

// Full 64x64->64 lane multiply. AVX2 has no vpmullq, so compose it from
// 32x32->64 partial products: lo*lo + ((lo*hi + hi*lo) << 32). The high
// cross products only contribute their low 32 bits after the shift,
// which is exactly mod-2^64 multiplication — bit-identical to scalar.
GZ_TARGET_AVX2 inline __m256i Mul64x4(__m256i x, __m256i y) {
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i ll = _mm256_mul_epu32(x, y);
  const __m256i lh = _mm256_mul_epu32(x, yh);
  const __m256i hl = _mm256_mul_epu32(xh, y);
  const __m256i cross = _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32);
  return _mm256_add_epi64(ll, cross);
}

GZ_TARGET_AVX2 inline __m256i RotL64x4(__m256i x, int r) {
  return _mm256_or_si256(_mm256_slli_epi64(x, r),
                         _mm256_srli_epi64(x, 64 - r));
}

// out[i] = XxHash64Word(values[i], seed) for 4 lanes.
GZ_TARGET_AVX2 inline __m256i XxHash64Word4(__m256i values, uint64_t seed) {
  const __m256i p1 = _mm256_set1_epi64x(static_cast<int64_t>(kXxPrime1));
  const __m256i p2 = _mm256_set1_epi64x(static_cast<int64_t>(kXxPrime2));
  const __m256i p3 = _mm256_set1_epi64x(static_cast<int64_t>(kXxPrime3));
  // Round(0, value): acc = rotl(value * P2, 31) * P1.
  __m256i acc = Mul64x4(values, p2);
  acc = RotL64x4(acc, 31);
  acc = Mul64x4(acc, p1);
  // h = seed + P5 + 8; h ^= acc; h = rotl(h, 27) * P1 + P4.
  __m256i h = _mm256_set1_epi64x(static_cast<int64_t>(seed + kXxPrime5 + 8));
  h = _mm256_xor_si256(h, acc);
  h = _mm256_add_epi64(Mul64x4(RotL64x4(h, 27), p1),
                       _mm256_set1_epi64x(static_cast<int64_t>(kXxPrime4)));
  // Avalanche.
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
  h = Mul64x4(h, p2);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
  h = Mul64x4(h, p3);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
  return h;
}

// Per-lane trailing-zero count of h, capped at `cap` (a broadcast
// 64-bit lane value <= 64); lanes with h == 0 saturate to the cap.
// Uses the branch-free identity tzcnt(h) = popcount((h & -h) - 1):
// h == 0 makes the mask all-ones (popcount 64), which the cap clamps —
// the same result the scalar path's explicit h == 0 test produces.
// Popcount is bytewise (nibble LUT via pshufb) folded with psadbw.
GZ_TARGET_AVX2 inline __m256i TrailingZerosCapped4(__m256i h, __m256i cap) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lowbit = _mm256_and_si256(h, _mm256_sub_epi64(zero, h));
  const __m256i mask =
      _mm256_sub_epi64(lowbit, _mm256_set1_epi64x(1));
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(mask, low4);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(mask, 4), low4);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  const __m256i sums = _mm256_sad_epu8(cnt, zero);  // Per-64-bit popcount.
  // Both operands are <= 64 with zero high halves, so a 32-bit unsigned
  // min is a correct 64-bit min (AVX2 has no vpminuq).
  return _mm256_min_epu32(sums, cap);
}

// ---- AVX-512: 8 lanes ------------------------------------------------

// out[i] = XxHash64Word(values[i], seed) for 8 lanes. vpmullq and
// vprolq make this a direct transliteration of the scalar dataflow.
GZ_TARGET_AVX512 inline __m512i XxHash64Word8(__m512i values, uint64_t seed) {
  const __m512i p1 = _mm512_set1_epi64(static_cast<int64_t>(kXxPrime1));
  const __m512i p2 = _mm512_set1_epi64(static_cast<int64_t>(kXxPrime2));
  const __m512i p3 = _mm512_set1_epi64(static_cast<int64_t>(kXxPrime3));
  __m512i acc = _mm512_mullo_epi64(values, p2);
  acc = _mm512_rol_epi64(acc, 31);
  acc = _mm512_mullo_epi64(acc, p1);
  __m512i h = _mm512_set1_epi64(static_cast<int64_t>(seed + kXxPrime5 + 8));
  h = _mm512_xor_si512(h, acc);
  h = _mm512_add_epi64(_mm512_mullo_epi64(_mm512_rol_epi64(h, 27), p1),
                       _mm512_set1_epi64(static_cast<int64_t>(kXxPrime4)));
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
  h = _mm512_mullo_epi64(h, p2);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 29));
  h = _mm512_mullo_epi64(h, p3);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 32));
  return h;
}

// Per-lane trailing-zero count capped at `cap`; h == 0 lanes saturate.
// tzcnt(h) = 63 - lzcnt(h & -h); for h == 0, lzcnt is 64, so the
// subtraction wraps to 2^64-1 and the unsigned min clamps to the cap —
// again matching the scalar h == 0 branch without one.
GZ_TARGET_AVX512 inline __m512i TrailingZerosCapped8(__m512i h, __m512i cap) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lowbit = _mm512_and_si512(h, _mm512_sub_epi64(zero, h));
  const __m512i tz = _mm512_sub_epi64(_mm512_set1_epi64(63),
                                      _mm512_lzcnt_epi64(lowbit));
  return _mm512_min_epu64(tz, cap);
}

}  // namespace gz

#pragma GCC diagnostic pop

#endif  // __x86_64__

#endif  // GZ_UTIL_XXHASH_LANES_H_
