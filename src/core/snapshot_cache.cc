#include "core/snapshot_cache.h"

#include <algorithm>
#include <utility>

namespace gz {

std::vector<int> SnapshotCache::PlannedPulls(
    uint64_t epoch, const ShardWatermarks& marks) const {
  (void)epoch;  // Content is a function of per-shard marks alone; the
                // epoch only versions the key.
  std::vector<int> pulls;
  for (const auto& [shard, mark] : marks) {
    if (NeedsPull(shard, mark)) pulls.push_back(shard);
  }
  return pulls;
}

Status SnapshotCache::PullShard(int shard, const NodeSketchParams& params,
                                const RangePuller& puller) {
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t step =
      nodes_per_chunk_ == 0 ? num_nodes : nodes_per_chunk_;
  // The chunk layout is fixed by (params, nodes_per_chunk_); a chunk
  // with no retained bytes (the shard was never pulled) is empty.
  std::vector<std::vector<uint8_t>>& retained = shard_bytes_[shard];
  retained.resize((num_nodes + step - 1) / step);
  for (uint64_t lo = 0, chunk = 0; lo < num_nodes; lo += step, ++chunk) {
    const uint64_t hi = std::min(num_nodes, lo + step);
    std::vector<uint8_t> fresh;
    Status s = puller(shard, lo, hi, &fresh);
    if (!s.ok()) return s;
    ++range_pulls_;
    // The transition old -> new in XOR: the retained bytes cancel the
    // chunk's prior contribution, the fresh bytes install the current
    // one and become the next refresh's cancel material.
    std::vector<uint8_t>& old = retained[chunk];
    if (!old.empty()) {
      s = merged_.MergeSerialized(old.data(), old.size());
      if (!s.ok()) return s;
    }
    s = merged_.MergeSerialized(fresh.data(), fresh.size());
    if (!s.ok()) return s;
    old = std::move(fresh);
  }
  return Status::Ok();
}

Status SnapshotCache::Refresh(uint64_t epoch, const ShardWatermarks& marks,
                              uint64_t total_updates,
                              const NodeSketchParams& params,
                              const RangePuller& puller) {
  if (!valid() || !(merged_.params() == params)) {
    Invalidate();
    // The XOR identity, one shared zero sketch: a node is materialized
    // by its first fold, and every shard's bytes are folded in once.
    merged_ = GraphSnapshot::Zero(params);
    ++cold_builds_;
  }
  ++refreshes_;
  // Vanished shards (removed from the table; their content migrated to
  // survivors, whose watermarks moved): the shard's true final state is
  // zero, so one more fold of its retained bytes cancels it out of the
  // merged snapshot.
  for (auto it = shard_bytes_.begin(); it != shard_bytes_.end();) {
    if (marks.count(it->first) > 0) {
      ++it;
      continue;
    }
    for (const std::vector<uint8_t>& chunk : it->second) {
      const Status s = merged_.MergeSerialized(chunk.data(), chunk.size());
      if (!s.ok()) {
        Invalidate();
        return s;
      }
    }
    it = shard_bytes_.erase(it);
  }
  // New and moved shards, pulled exactly when the shared NeedsPull
  // predicate says so — the same predicate PlannedPulls() consulted, so
  // a pre-staging caller's plan always matches the pulls made here. A
  // shard whose watermark is unchanged is skipped outright (its sketch
  // content cannot have changed); a brand-new shard at the zero
  // watermark is the XOR identity and needs no pull.
  for (const auto& [shard, mark] : marks) {
    if (!NeedsPull(shard, mark)) continue;
    const Status s = PullShard(shard, params, puller);
    if (!s.ok()) {
      Invalidate();
      return s;
    }
  }
  // Range folds never touch update counts; the owner's durable
  // bookkeeping supplies the stream position.
  merged_.SetUpdates(total_updates);
  epoch_ = epoch;
  marks_ = marks;
  return Status::Ok();
}

void SnapshotCache::Invalidate() {
  merged_ = GraphSnapshot();
  shard_bytes_.clear();
  marks_.clear();
  epoch_ = 0;
}

}  // namespace gz
