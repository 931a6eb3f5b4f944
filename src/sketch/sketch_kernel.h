// Batched sketch-update kernel with runtime SIMD dispatch.
//
// The ingest hot loop is sketch-bound: every update costs
// (cols + 1) * rounds XxHash64Word calls plus one bucket XOR each, all
// of which the seed implementation ran scalar, one update at a time.
// This kernel amortizes the hashing over a lane group of updates —
// 4 lanes under AVX2, 8 under AVX-512 — computing placement hashes,
// bucket depths (trailing zeros) and checksums in SIMD, and only then
// XORing each update into its one bucket per column, the row at its
// depth (cube_sketch.h), with scalar stores.
//
// Every kernel is bitwise-identical to the scalar path: same hash
// function, same bucket algebra — only the evaluation order of XORs
// differs, and XOR commutes. The kernel is chosen once at startup from
// CPUID, overridable with GZ_SKETCH_KERNEL={scalar,avx2,avx512,auto}
// so conformance and chaos suites can pin cross-kernel equivalence.
// Dispatch is runtime-only (target-attributed functions, no global
// -mavx2), the same pattern as util/crc32c.cc: the binary still runs
// on any x86-64, and non-x86 builds compile the scalar path alone.
#ifndef GZ_SKETCH_SKETCH_KERNEL_H_
#define GZ_SKETCH_SKETCH_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace gz {

// Ordered by width so "best supported" is a max and a fallback from an
// unsupported request is a min.
enum class SketchKernel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// Stable lowercase name ("scalar", "avx2", "avx512").
const char* SketchKernelName(SketchKernel kernel);

// True if this CPU can execute `kernel` (kScalar is always true).
bool SketchKernelSupported(SketchKernel kernel);

// Widest kernel this CPU supports.
SketchKernel BestSupportedSketchKernel();

// Parses "scalar" / "avx2" / "avx512" / "auto" ("auto" resolves to
// BestSupportedSketchKernel()). Returns false on any other string.
// Note: parsing does not check CPU support; resolution does.
bool ParseSketchKernelName(const char* name, SketchKernel* out);

// The kernel every sketch update goes through. Resolved once from
// GZ_SKETCH_KERNEL (default "auto") capped to CPU support; an unknown
// value or an unsupported request falls back (with one stderr warning)
// to the widest supported kernel at or below the request.
SketchKernel ActiveSketchKernel();

// Overrides ActiveSketchKernel() for the rest of the process (benches
// sweeping kernels, tests pinning cross-kernel equivalence). The kernel
// must be supported on this CPU.
void ForceSketchKernel(SketchKernel kernel);

// One sketch round's geometry and bucket storage, flattened for the
// kernel. All pointers borrow from the round's block slice and its
// SketchLayout (cube_sketch.h); `indices` are raw vector indices already
// validated < vector_len by the caller (the span-level bounds check
// hoisted out of the per-update path).
struct CubeSketchKernelArgs {
  const uint64_t* indices = nullptr;
  size_t count = 0;
  int cols = 0;
  int rows = 0;
  const uint64_t* col_seeds = nullptr;    // [cols] placement-hash seeds.
  const uint64_t* gamma_seeds = nullptr;  // [cols + 1]; last = det bucket.
  uint64_t* alphas = nullptr;             // [cols * rows], column-major.
  uint32_t* gammas = nullptr;             // [cols * rows], column-major.
  uint64_t* det_alpha = nullptr;
  uint32_t* det_gamma = nullptr;
};

// Applies the batch to the bucket arrays with the given kernel. The
// kernel must be supported on this CPU. Counts of zero are fine; a tail
// shorter than the lane width runs scalar (identical math).
void CubeSketchUpdateBatch(SketchKernel kernel,
                           const CubeSketchKernelArgs& args);

// out[i] = XxHash64Word(values[i], seed), vectorized per `kernel`:
// the lane hashes the cube-sketch kernel runs, on their own, so
// bench_sketch_kernel's hash_mhashes_per_sec row can time them. Kernel
// must be supported on this CPU.
void XxHash64WordBatch(SketchKernel kernel, const uint64_t* values,
                       size_t count, uint64_t seed, uint64_t* out);

}  // namespace gz

#endif  // GZ_SKETCH_SKETCH_KERNEL_H_
