// Sketch-content equality for snapshots whose update counts differ by
// construction: a range fold never touches counts, and a reader's count
// omits a retired shard's. The count lives only in the serialized
// header, so two snapshots hold the same sketches exactly when their
// serialized records, past the header, are bitwise-equal.
#ifndef GZ_TESTS_SKETCH_CONTENT_H_
#define GZ_TESTS_SKETCH_CONTENT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/graph_snapshot.h"

namespace gz {

inline bool SameSketchContent(const GraphSnapshot& a, const GraphSnapshot& b) {
  const std::vector<uint8_t> x = a.Serialize();
  const std::vector<uint8_t> y = b.Serialize();
  return x.size() == y.size() && x.size() >= GraphSnapshot::kHeaderBytes &&
         std::equal(x.begin() + GraphSnapshot::kHeaderBytes, x.end(),
                    y.begin() + GraphSnapshot::kHeaderBytes);
}

}  // namespace gz

#endif  // GZ_TESTS_SKETCH_CONTENT_H_
