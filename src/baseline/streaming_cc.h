// StreamingCC (Ahn–Guha–McGregor) built on the *standard* l0-sampler —
// the straw-man the paper analyzes in Section 3 to show why a direct
// implementation of the best known general sampler is infeasibly slow
// and large. Functionally correct; used at small scales by tests and by
// the Figure 4 benchmark, whose Section 3 feasibility row measures
// Update()'s edge-update rate.
//
// Characteristic vectors here are over the integers: edge {u, v} with
// u < v contributes +1 to f_u and -1 to f_v, which cancel when the
// endpoints' sketches are summed (Section 2.2).
#ifndef GZ_BASELINE_STREAMING_CC_H_
#define GZ_BASELINE_STREAMING_CC_H_

#include <cstdint>
#include <vector>

#include "core/connectivity.h"
#include "sketch/l0_standard.h"
#include "stream/stream_types.h"

namespace gz {

struct StreamingCcParams {
  uint64_t num_nodes = 0;
  uint64_t seed = 0;
  int cols = 7;
  int rounds = 0;  // 0 = ceil(log_{3/2} V), as in GraphZeppelin.
};

class StreamingCc {
 public:
  explicit StreamingCc(const StreamingCcParams& params);

  // Applies one stream update directly to both endpoint node sketches
  // (no buffering — this baseline predates the paper's I/O machinery).
  void Update(const GraphUpdate& update);

  // Connected components via Boruvka over copies of the sketches.
  ConnectivityResult Query() const;

  size_t ByteSize() const;
  int rounds() const { return rounds_; }

 private:
  StreamingCcParams params_;
  int rounds_;
  // sketches_[node][round]; all sketches of one round share hash seeds.
  std::vector<std::vector<StandardL0Sketch>> sketches_;
};

}  // namespace gz

#endif  // GZ_BASELINE_STREAMING_CC_H_
