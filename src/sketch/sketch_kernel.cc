#include "sketch/sketch_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstdio>
#include <cstring>

#include "util/check.h"
#include "util/xxhash.h"
#include "util/xxhash_lanes.h"

namespace gz {
namespace {

// ---- Scalar reference path -------------------------------------------
//
// This is THE definition of a sketch update; every SIMD kernel below
// must reproduce its bucket writes bit for bit. CubeSketch::Update
// routes through here too, so there is exactly one copy of the math.

inline void UpdateOneScalar(const CubeSketchKernelArgs& a, uint64_t idx) {
  const uint64_t enc = idx + 1;  // 0 is reserved for "empty".

  *a.det_alpha ^= enc;
  *a.det_gamma ^=
      static_cast<uint32_t>(XxHash64Word(enc, a.gamma_seeds[a.cols]));

  for (int c = 0; c < a.cols; ++c) {
    const uint64_t h = XxHash64Word(enc, a.col_seeds[c]);
    // Row z = number of trailing zero bits of h, capped at rows - 1
    // (countr_zero(0) = 64 >= rows - 1, so h == 0 saturates too).
    const int depth = std::min(std::countr_zero(h), a.rows - 1);
    const size_t b = static_cast<size_t>(c) * a.rows + depth;
    a.alphas[b] ^= enc;
    a.gammas[b] ^= static_cast<uint32_t>(XxHash64Word(enc, a.gamma_seeds[c]));
  }
}

void UpdateBatchScalar(const CubeSketchKernelArgs& a) {
  for (size_t i = 0; i < a.count; ++i) UpdateOneScalar(a, a.indices[i]);
}

#if defined(__x86_64__)

// See the matching pragma in util/xxhash_lanes.h: GCC 12 attributes its
// PR 105593 false positive to the function the intrinsics inline into,
// so the kernels need the suppression as well.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// ---- SIMD kernels ----------------------------------------------------
//
// Hashes in lanes: per lane group (4 under AVX2, 8 under AVX-512) one
// placement hash, one checksum hash, and one capped-tzcnt per column are
// computed in SIMD instead of per update. Each lane then XORs once into
// its column's bucket at that depth, as the scalar path does; the
// scatter is one branchless store per lane, so it stays scalar.
//
// Truncating checksums to 32 bits commutes with XOR, so the det
// accumulators fold full 64-bit lanes and truncate at the end.

GZ_TARGET_AVX2 void UpdateBatchAvx2(const CubeSketchKernelArgs& a) {
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i cap = _mm256_set1_epi64x(a.rows - 1);
  const size_t main = a.count & ~static_cast<size_t>(3);

  // Deterministic bucket: every update lands in it, no depth involved.
  {
    const uint64_t det_seed = a.gamma_seeds[a.cols];
    __m256i alpha_acc = _mm256_setzero_si256();
    __m256i gamma_acc = _mm256_setzero_si256();
    for (size_t i = 0; i < main; i += 4) {
      const __m256i enc = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.indices + i)),
          one);
      alpha_acc = _mm256_xor_si256(alpha_acc, enc);
      gamma_acc = _mm256_xor_si256(gamma_acc, XxHash64Word4(enc, det_seed));
    }
    alignas(32) uint64_t fold[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(fold), alpha_acc);
    *a.det_alpha ^= fold[0] ^ fold[1] ^ fold[2] ^ fold[3];
    _mm256_store_si256(reinterpret_cast<__m256i*>(fold), gamma_acc);
    *a.det_gamma ^=
        static_cast<uint32_t>(fold[0] ^ fold[1] ^ fold[2] ^ fold[3]);
  }

  alignas(32) uint64_t enc_lanes[4];
  alignas(32) uint64_t depth_lanes[4];
  alignas(32) uint64_t chk_lanes[4];

  for (int c = 0; c < a.cols; ++c) {
    uint64_t* alpha = a.alphas + static_cast<size_t>(c) * a.rows;
    uint32_t* gamma = a.gammas + static_cast<size_t>(c) * a.rows;
    for (size_t i = 0; i < main; i += 4) {
      const __m256i enc = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.indices + i)),
          one);
      const __m256i h = XxHash64Word4(enc, a.col_seeds[c]);
      const __m256i chk = XxHash64Word4(enc, a.gamma_seeds[c]);
      const __m256i depth = TrailingZerosCapped4(h, cap);
      _mm256_store_si256(reinterpret_cast<__m256i*>(enc_lanes), enc);
      _mm256_store_si256(reinterpret_cast<__m256i*>(depth_lanes), depth);
      _mm256_store_si256(reinterpret_cast<__m256i*>(chk_lanes), chk);
      for (int lane = 0; lane < 4; ++lane) {
        const uint64_t d = depth_lanes[lane];
        alpha[d] ^= enc_lanes[lane];
        gamma[d] ^= static_cast<uint32_t>(chk_lanes[lane]);
      }
    }
  }

  for (size_t i = main; i < a.count; ++i) UpdateOneScalar(a, a.indices[i]);
}

GZ_TARGET_AVX512 void UpdateBatchAvx512(const CubeSketchKernelArgs& a) {
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i cap = _mm512_set1_epi64(a.rows - 1);
  const size_t main = a.count & ~static_cast<size_t>(7);

  {
    const uint64_t det_seed = a.gamma_seeds[a.cols];
    __m512i alpha_acc = _mm512_setzero_si512();
    __m512i gamma_acc = _mm512_setzero_si512();
    for (size_t i = 0; i < main; i += 8) {
      const __m512i enc = _mm512_add_epi64(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a.indices + i)),
          one);
      alpha_acc = _mm512_xor_si512(alpha_acc, enc);
      gamma_acc = _mm512_xor_si512(gamma_acc, XxHash64Word8(enc, det_seed));
    }
    alignas(64) uint64_t fold[8];
    _mm512_store_si512(reinterpret_cast<void*>(fold), alpha_acc);
    uint64_t da = 0;
    for (uint64_t f : fold) da ^= f;
    *a.det_alpha ^= da;
    _mm512_store_si512(reinterpret_cast<void*>(fold), gamma_acc);
    uint64_t dg = 0;
    for (uint64_t f : fold) dg ^= f;
    *a.det_gamma ^= static_cast<uint32_t>(dg);
  }

  alignas(64) uint64_t enc_lanes[8];
  alignas(64) uint64_t depth_lanes[8];
  alignas(64) uint64_t chk_lanes[8];

  for (int c = 0; c < a.cols; ++c) {
    uint64_t* alpha = a.alphas + static_cast<size_t>(c) * a.rows;
    uint32_t* gamma = a.gammas + static_cast<size_t>(c) * a.rows;
    for (size_t i = 0; i < main; i += 8) {
      const __m512i enc = _mm512_add_epi64(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a.indices + i)),
          one);
      const __m512i h = XxHash64Word8(enc, a.col_seeds[c]);
      const __m512i chk = XxHash64Word8(enc, a.gamma_seeds[c]);
      const __m512i depth = TrailingZerosCapped8(h, cap);
      _mm512_store_si512(reinterpret_cast<void*>(enc_lanes), enc);
      _mm512_store_si512(reinterpret_cast<void*>(depth_lanes), depth);
      _mm512_store_si512(reinterpret_cast<void*>(chk_lanes), chk);
      for (int lane = 0; lane < 8; ++lane) {
        const uint64_t d = depth_lanes[lane];
        alpha[d] ^= enc_lanes[lane];
        gamma[d] ^= static_cast<uint32_t>(chk_lanes[lane]);
      }
    }
  }

  for (size_t i = main; i < a.count; ++i) UpdateOneScalar(a, a.indices[i]);
}

// ---- Lane-hash batch entries -----------------------------------------

GZ_TARGET_AVX2 void HashBatchAvx2(const uint64_t* values, size_t count,
                                  uint64_t seed, uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        XxHash64Word4(v, seed));
  }
  for (; i < count; ++i) out[i] = XxHash64Word(values[i], seed);
}

GZ_TARGET_AVX512 void HashBatchAvx512(const uint64_t* values, size_t count,
                                      uint64_t seed, uint64_t* out) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(values + i));
    _mm512_storeu_si512(reinterpret_cast<void*>(out + i),
                        XxHash64Word8(v, seed));
  }
  for (; i < count; ++i) out[i] = XxHash64Word(values[i], seed);
}

#pragma GCC diagnostic pop

#endif  // __x86_64__

// ---- Dispatch --------------------------------------------------------

SketchKernel ResolveFromEnv() {
  const SketchKernel best = BestSupportedSketchKernel();
  const char* value = std::getenv("GZ_SKETCH_KERNEL");
  if (value == nullptr || *value == '\0') return best;
  SketchKernel requested;
  if (!ParseSketchKernelName(value, &requested)) {
    std::fprintf(stderr,
                 "gz: unknown GZ_SKETCH_KERNEL value \"%s\" "
                 "(want scalar|avx2|avx512|auto); using %s\n",
                 value, SketchKernelName(best));
    return best;
  }
  if (!SketchKernelSupported(requested)) {
    // Widest supported kernel at or below the request; all kernels are
    // bitwise-identical, so the fallback only changes speed.
    const SketchKernel fallback =
        static_cast<int>(best) < static_cast<int>(requested) ? best
                                                             : SketchKernel::kScalar;
    std::fprintf(stderr,
                 "gz: GZ_SKETCH_KERNEL=%s not supported on this CPU; "
                 "using %s\n",
                 SketchKernelName(requested), SketchKernelName(fallback));
    return fallback;
  }
  return requested;
}

// -1 = no override; otherwise the forced kernel's enum value.
std::atomic<int> g_forced_kernel{-1};

}  // namespace

const char* SketchKernelName(SketchKernel kernel) {
  switch (kernel) {
    case SketchKernel::kScalar:
      return "scalar";
    case SketchKernel::kAvx2:
      return "avx2";
    case SketchKernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SketchKernelSupported(SketchKernel kernel) {
  switch (kernel) {
    case SketchKernel::kScalar:
      return true;
    case SketchKernel::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SketchKernel::kAvx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512cd") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

SketchKernel BestSupportedSketchKernel() {
  if (SketchKernelSupported(SketchKernel::kAvx512)) return SketchKernel::kAvx512;
  if (SketchKernelSupported(SketchKernel::kAvx2)) return SketchKernel::kAvx2;
  return SketchKernel::kScalar;
}

bool ParseSketchKernelName(const char* name, SketchKernel* out) {
  GZ_CHECK(name != nullptr && out != nullptr);
  if (std::strcmp(name, "scalar") == 0) {
    *out = SketchKernel::kScalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = SketchKernel::kAvx2;
  } else if (std::strcmp(name, "avx512") == 0) {
    *out = SketchKernel::kAvx512;
  } else if (std::strcmp(name, "auto") == 0) {
    *out = BestSupportedSketchKernel();
  } else {
    return false;
  }
  return true;
}

SketchKernel ActiveSketchKernel() {
  // Env resolution happens once (thread-safe static init); the forced
  // override wins so benches/tests can sweep kernels in-process.
  static const SketchKernel from_env = ResolveFromEnv();
  const int forced = g_forced_kernel.load(std::memory_order_relaxed);
  return forced >= 0 ? static_cast<SketchKernel>(forced) : from_env;
}

void ForceSketchKernel(SketchKernel kernel) {
  GZ_CHECK_MSG(SketchKernelSupported(kernel),
               "forcing a sketch kernel this CPU cannot run");
  g_forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

void CubeSketchUpdateBatch(SketchKernel kernel,
                           const CubeSketchKernelArgs& args) {
  switch (kernel) {
#if defined(__x86_64__)
    case SketchKernel::kAvx2:
      GZ_CHECK(SketchKernelSupported(kernel));
      UpdateBatchAvx2(args);
      return;
    case SketchKernel::kAvx512:
      GZ_CHECK(SketchKernelSupported(kernel));
      UpdateBatchAvx512(args);
      return;
#else
    case SketchKernel::kAvx2:
    case SketchKernel::kAvx512:
      GZ_CHECK_MSG(false, "SIMD sketch kernels require x86-64");
      return;
#endif
    case SketchKernel::kScalar:
      UpdateBatchScalar(args);
      return;
  }
  UpdateBatchScalar(args);
}

void XxHash64WordBatch(SketchKernel kernel, const uint64_t* values,
                       size_t count, uint64_t seed, uint64_t* out) {
  switch (kernel) {
#if defined(__x86_64__)
    case SketchKernel::kAvx2:
      GZ_CHECK(SketchKernelSupported(kernel));
      HashBatchAvx2(values, count, seed, out);
      return;
    case SketchKernel::kAvx512:
      GZ_CHECK(SketchKernelSupported(kernel));
      HashBatchAvx512(values, count, seed, out);
      return;
#else
    case SketchKernel::kAvx2:
    case SketchKernel::kAvx512:
      GZ_CHECK_MSG(false, "SIMD sketch kernels require x86-64");
      return;
#endif
    case SketchKernel::kScalar:
      break;
  }
  for (size_t i = 0; i < count; ++i) out[i] = XxHash64Word(values[i], seed);
}

}  // namespace gz
