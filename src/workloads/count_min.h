// Count-min side sketch: the heavy-hitter workload on the same linear
// algebra the connectivity sketches use. A turnstile CM sketch is a
// d x w grid of signed counters; update ((u,v), ±1) adds ±1 to one
// counter per row (a 2-wise-independent hash picks the column), and
// Estimate takes the row-wise minimum. Because the grid is LINEAR in
// the update stream, per-shard sketches built from a partitioned
// stream sum-merge to exactly the single-process sketch — the additive
// counterpart of the XOR snapshot fold, and the reason the distributed
// answer is EXACT (the CM error bound applies to estimates, not to the
// fold).
//
// HeavyHitterSketch pairs two CM grids — edge multiplicities keyed by
// EdgeToIndex, degrees keyed by node id (an insert of (u,v) is +1 on u
// AND +1 on v) — with bounded candidate tables so top-k is answerable:
// a CM grid alone cannot enumerate keys, so every first-touched key is
// admitted to an open-addressing table, and TopEdges/TopDegrees
// re-estimate the candidates against the (merged) grid. Routing
// partitions edges disjointly across shards, so the union of per-shard
// candidate sets equals the single-process set, and the folded sketch
// compares EQUAL (operator==: grids, candidate keys, flags) to the
// single-process sketch, not merely equivalent.
//
// Update cost is O(depth) counter writes per stream update with zero
// allocation, applied on the same flat GraphUpdate spans the batch
// pipeline routes (the caller feeds it the spans it gives
// GraphZeppelin::Update, before the gutters erase the sign:
// post-gutter UpdateBatch slabs carry only unsigned edge indices —
// XOR needs no sign — so the turnstile ±1 must ride the span).
//
// Exemplars: SNIPPETS.md Snippets 1-2 (rlz-store count_min_sketch.hpp,
// SketchConf BaseSketch) — power-of-two row width with mask reduction,
// Mersenne-field row hashes.
#ifndef GZ_WORKLOADS_COUNT_MIN_H_
#define GZ_WORKLOADS_COUNT_MIN_H_

#include <cstdint>
#include <vector>

#include "stream/stream_types.h"
#include "util/kwise_hash.h"
#include "util/status.h"

namespace gz {

struct CountMinParams {
  uint64_t seed = 42;
  uint32_t width = 1024;  // Counters per row; must be a power of two.
  uint32_t depth = 4;     // Rows (independent hash functions).

  friend bool operator==(const CountMinParams& a, const CountMinParams& b) {
    return a.seed == b.seed && a.width == b.width && a.depth == b.depth;
  }
};

// The bare turnstile CM grid over uint64 keys. Standalone so tests can
// pin its linearity/estimate properties without the candidate layer.
class CountMinSketch {
 public:
  // Hard caps the constructor enforces.
  static constexpr uint32_t kMaxDepth = 16;
  static constexpr uint32_t kMaxWidth = 1u << 26;

  CountMinSketch() = default;  // Invalid until assigned; valid() == false.
  explicit CountMinSketch(const CountMinParams& params);

  bool valid() const { return !counters_.empty(); }
  const CountMinParams& params() const { return params_; }

  // O(depth), no allocation.
  void Add(uint64_t key, int64_t delta);
  // Row-wise minimum: an overestimate of the key's net count whenever
  // every key's net count is non-negative (true for set-semantic edge
  // streams, where a delete only follows a matching insert).
  int64_t Estimate(uint64_t key) const;

  // Counter-wise sum; InvalidArgument unless geometry and seed match.
  Status Merge(const CountMinSketch& other);

  const std::vector<int64_t>& counters() const { return counters_; }

 private:
  CountMinParams params_;
  std::vector<KWiseHash> rows_;   // depth hashes, 2-wise independent.
  std::vector<int64_t> counters_;  // depth * width, row-major.
};

struct HeavyHitterParams {
  uint64_t num_nodes = 0;  // 0 = invalid/disabled.
  uint64_t seed = 42;
  uint32_t width = 2048;
  uint32_t depth = 4;
  // Candidate-table capacity (keys, not slots) for each of the edge
  // and degree tables. Once exceeded, new keys are dropped and the
  // sketch reports saturated(): estimates stay exact but top-k may
  // miss late-arriving keys.
  uint32_t candidates = 8192;

  friend bool operator==(const HeavyHitterParams& a,
                         const HeavyHitterParams& b) {
    return a.num_nodes == b.num_nodes && a.seed == b.seed &&
           a.width == b.width && a.depth == b.depth &&
           a.candidates == b.candidates;
  }
};

// One ranked answer row; `key` is an EdgeToIndex value for edges, a
// node id for degrees.
struct HeavyHitterEntry {
  uint64_t key = 0;
  int64_t count = 0;

  friend bool operator==(const HeavyHitterEntry& a,
                         const HeavyHitterEntry& b) {
    return a.key == b.key && a.count == b.count;
  }
};

class HeavyHitterSketch {
 public:
  // Hard cap the constructor enforces.
  static constexpr uint32_t kMaxCandidates = 1u << 24;

  HeavyHitterSketch() = default;  // Invalid until assigned.
  explicit HeavyHitterSketch(const HeavyHitterParams& params);

  bool valid() const { return params_.num_nodes != 0; }
  const HeavyHitterParams& params() const { return params_; }

  // The span hook: +1 per insert / -1 per delete on the edge grid,
  // ±1 on BOTH endpoints' degree counters. O(depth) writes per update,
  // zero allocation at steady state (candidate tables are sized once).
  void Update(const GraphUpdate* updates, size_t count);
  void Update(const GraphUpdate& update) { Update(&update, 1); }

  // Point estimates against the (possibly merged) grids.
  int64_t EdgeCount(const Edge& e) const;
  int64_t DegreeCount(NodeId node) const;

  // Top-k by estimated count over the candidate set, count descending
  // with key ascending as the tie-break — deterministic, so the folded
  // and single-process sketches rank identically. Allocates (query
  // path, not ingest path).
  std::vector<HeavyHitterEntry> TopEdges(size_t k) const;
  std::vector<HeavyHitterEntry> TopDegrees(size_t k) const;

  // Sum-merges grids and unions candidate sets (the union may exceed
  // `candidates`; merge is a query-/coordinator-path operation and may
  // allocate). InvalidArgument unless params match.
  Status Merge(const HeavyHitterSketch& other);

  // Equal logical state: params, update count, both grids, candidate
  // keys as sorted sets, saturation flags. A fold of per-shard sketches
  // compares equal to the single-process sketch.
  friend bool operator==(const HeavyHitterSketch& a,
                         const HeavyHitterSketch& b);

  uint64_t updates_applied() const { return updates_; }
  // True when a candidate table overflowed: top-k may then be missing
  // keys first seen after saturation (counts stay exact).
  bool saturated() const { return edge_saturated_ || degree_saturated_; }
  size_t edge_candidates() const { return edge_keys_.size; }
  size_t degree_candidates() const { return degree_keys_.size; }

 private:
  // Fixed-capacity open-addressing key set (tombstone-free: admit-only).
  struct KeySet {
    static constexpr uint64_t kEmpty = ~0ull;
    std::vector<uint64_t> slots;  // Power-of-two size, kEmpty = free.
    size_t size = 0;
    size_t capacity = 0;  // Admission cap (< slots.size()).

    void Reset(size_t cap);
    // True if admitted or already present; false when full and absent.
    bool Admit(uint64_t key);
    std::vector<uint64_t> SortedKeys() const;
  };

  CountMinParams GridParams(uint64_t salt) const;

  HeavyHitterParams params_;
  uint64_t updates_ = 0;
  CountMinSketch edge_grid_;
  CountMinSketch degree_grid_;
  KeySet edge_keys_;
  KeySet degree_keys_;
  bool edge_saturated_ = false;
  bool degree_saturated_ = false;
};

}  // namespace gz

#endif  // GZ_WORKLOADS_COUNT_MIN_H_
