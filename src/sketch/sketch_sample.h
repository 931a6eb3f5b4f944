// Result type shared by all l0-samplers in this library.
#ifndef GZ_SKETCH_SKETCH_SAMPLE_H_
#define GZ_SKETCH_SKETCH_SAMPLE_H_

#include <cstdint>

namespace gz {

// Outcome of querying an l0-sketch:
//  * kGood — `index` is a nonzero coordinate of the sketched vector.
//  * kZero — the sketched vector is (with high probability) all-zero.
//  * kFail — the sketch could not produce a sample (probability <= delta).
enum class SampleKind : uint8_t { kGood = 0, kZero = 1, kFail = 2 };

struct SketchSample {
  SampleKind kind = SampleKind::kFail;
  uint64_t index = 0;  // Valid only when kind == kGood.

  static SketchSample Good(uint64_t idx) { return {SampleKind::kGood, idx}; }
  static SketchSample Zero() { return {SampleKind::kZero, 0}; }
  static SketchSample Fail() { return {SampleKind::kFail, 0}; }
};

// Outcome of sampling every column of one round sketch
// (SketchLayout::SampleColumns): kGood with `count` >= 1 coordinates
// written to the caller's buffer, or kZero / kFail with none.
struct ColumnSamples {
  SampleKind kind = SampleKind::kFail;
  int count = 0;
};

}  // namespace gz

#endif  // GZ_SKETCH_SKETCH_SAMPLE_H_
