// SnapshotCache: the epoch-versioned merged-snapshot cache behind the
// serving tier. The expensive query object in a sharded deployment is
// the merged GraphSnapshot, the XOR of every shard's sketches. The
// cache keeps that merged snapshot alive between queries, keyed by the
// cluster's exact position:
//
//   key = (routing-table epoch, per-shard watermark)
//   watermark = (updates ingested, migration deltas folded)
//
// Both watermark components matter: a migration delta changes a
// shard's sketch *content* without changing its update count, so
// (epoch, updates) alone would serve stale bytes mid-reshard. Given
// FIFO per-shard sockets, a shard's sketch state is a pure function of
// its watermark — which is what makes the key sound.
//
// Refresh is incremental, riding the same XOR linearity as elastic
// migration: the cache also retains the bytes it last pulled from each
// shard (one serialized node range per chunk). Those bytes are the
// cancel material: when shard s moves from content A to content B,
// folding A's retained bytes and then B's pulled bytes into the merged
// snapshot cancels A and installs B (A ^ A ^ B = B), and B's bytes are
// retained in A's place — node-range pulls from ONLY the moved shards,
// never a full re-fold. A shard with no retained bytes (new, or after a
// cold rebuild) has nothing to cancel, and a shard that vanished from
// the table (removed; its content migrated away) is cancelled by one
// more fold of its retained bytes.
//
// Cost model: a cold refresh costs one fold per pulled byte, starting
// from GraphSnapshot::Zero (no zeros are materialized: a node's first
// fold clones the shared zero sketch); a moved shard costs two
// (cancel, install); a vanished one costs one. Memory
// is (num_shards + 1) x one snapshot (retained bytes + the merged
// result); refresh traffic is proportional to the content that
// actually moved. Queries between watermarks are O(1) — they never
// touch the ingest path.
//
// Not thread-safe; the owner (QuerySession) serializes access.
#ifndef GZ_CORE_SNAPSHOT_CACHE_H_
#define GZ_CORE_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/graph_snapshot.h"
#include "sketch/node_sketch.h"
#include "util/status.h"

namespace gz {

// One shard's position: stream updates ingested + migration deltas
// folded. Equal watermarks (same epoch) imply bitwise-equal sketch
// content.
struct ShardWatermark {
  uint64_t num_updates = 0;
  uint64_t delta_seq = 0;

  friend bool operator==(const ShardWatermark& a, const ShardWatermark& b) {
    return a.num_updates == b.num_updates && a.delta_seq == b.delta_seq;
  }
  friend bool operator!=(const ShardWatermark& a, const ShardWatermark& b) {
    return !(a == b);
  }
};

// The cluster's full position; what the cache is keyed by.
using ShardWatermarks = std::map<int, ShardWatermark>;

class SnapshotCache {
 public:
  // Pulls the serialized node range [lo, hi) (GraphSnapshot byte
  // format) of `shard`'s current content into *delta. The cache
  // never cares where the bytes come from: a live RPC, an in-process
  // extract, or a pre-staged buffer.
  using RangePuller = std::function<Status(int shard, uint64_t lo,
                                           uint64_t hi,
                                           std::vector<uint8_t>* delta)>;

  // `nodes_per_chunk` bounds refresh scratch: each pull covers at most
  // this many nodes, so delta buffers stay small regardless of graph
  // size. 0 = one chunk per shard.
  explicit SnapshotCache(uint64_t nodes_per_chunk = 1 << 14)
      : nodes_per_chunk_(nodes_per_chunk) {}

  bool valid() const { return merged_.valid(); }

  // True iff the cached merged snapshot is exactly the cluster state at
  // (epoch, marks) — a query can be answered with zero pulls.
  bool Fresh(uint64_t epoch, const ShardWatermarks& marks) const {
    return valid() && epoch == epoch_ && marks == marks_;
  }

  // The shards Refresh(epoch, marks, ...) would pull content from —
  // callers that pre-stage pull buffers (QuerySession's consistency
  // protocol) need the exact set. Empty when Fresh().
  std::vector<int> PlannedPulls(uint64_t epoch,
                                const ShardWatermarks& marks) const;

  // Brings the merged snapshot to (epoch, marks): cancels vanished
  // shards, delta-refreshes moved ones (chunked pulls through
  // `puller`), installs new ones, then pins the update count to
  // `total_updates` (range folds never touch counts; the owner's
  // bookkeeping is the truth). `params` must be resolved (rounds > 0,
  // as shards report them): any other params read as a geometry change
  // and force a cold rebuild. On any pull/fold error the cache is
  // invalidated — a half-applied refresh must never serve.
  Status Refresh(uint64_t epoch, const ShardWatermarks& marks,
                 uint64_t total_updates, const NodeSketchParams& params,
                 const RangePuller& puller);

  // The served snapshot; only meaningful when valid().
  const GraphSnapshot& merged() const { return merged_; }
  // The routing epoch the cached snapshot is keyed at (0 before the
  // first refresh). With merged().num_updates(), the position a
  // standing-query notification reports.
  uint64_t epoch() const { return epoch_; }

  void Invalidate();

  // Observability for tests and the serving bench.
  uint64_t refreshes() const { return refreshes_; }
  uint64_t cold_builds() const { return cold_builds_; }
  uint64_t range_pulls() const { return range_pulls_; }

 private:
  // THE needs-pull predicate — the single definition both
  // PlannedPulls() and Refresh() consult, so the plan can never drift
  // from the pulls actually performed. A shard needs a pull when its
  // watermark differs from the recorded one; a shard the cache has no
  // record of needs one exactly when its content can be nonzero (a
  // zero watermark means a brand-new shard whose content is still the
  // XOR identity).
  bool NeedsPull(int shard, const ShardWatermark& mark) const {
    const auto it = marks_.find(shard);
    const bool known = valid() && it != marks_.end();
    return known ? it->second != mark : mark != ShardWatermark{};
  }

  // Pulls `shard` chunk by chunk; each chunk's retained bytes (if any)
  // are folded out of the merged snapshot, the pulled bytes folded in
  // and retained in their place.
  Status PullShard(int shard, const NodeSketchParams& params,
                   const RangePuller& puller);

  uint64_t nodes_per_chunk_;
  uint64_t epoch_ = 0;
  ShardWatermarks marks_;
  GraphSnapshot merged_;
  // The bytes last pulled from each shard, one serialized node range
  // per chunk, in node order: the XOR cancel material for the next
  // refresh. A shard never pulled has no entry.
  std::map<int, std::vector<std::vector<uint8_t>>> shard_bytes_;

  uint64_t refreshes_ = 0;
  uint64_t cold_builds_ = 0;
  uint64_t range_pulls_ = 0;
};

}  // namespace gz

#endif  // GZ_CORE_SNAPSHOT_CACHE_H_
