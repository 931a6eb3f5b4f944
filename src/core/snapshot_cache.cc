#include "core/snapshot_cache.h"

#include <algorithm>
#include <utility>

namespace gz {
namespace {

// A same-params all-zero snapshot: the XOR identity, and the starting
// content of every shard the cache has not pulled from yet.
GraphSnapshot ZeroSnapshot(const NodeSketchParams& params) {
  return GraphSnapshot(
      std::vector<NodeSketch>(params.num_nodes, NodeSketch(params)), 0);
}

}  // namespace

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
  GraphSnapshot& content = shard_content_.at(shard);
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t step =
      nodes_per_chunk_ == 0 ? num_nodes : nodes_per_chunk_;
  std::vector<uint8_t> fresh;
  for (uint64_t lo = 0; lo < num_nodes; lo += step) {
    const uint64_t hi = std::min(num_nodes, lo + step);
    // The transition old -> new, expressed in XOR: folding the old
    // chunk cancels its prior contribution, folding the new chunk
    // installs the current one — in the merged snapshot AND in the
    // retained per-shard content (where old ^ old zeroes the chunk
    // first).
    const std::vector<uint8_t> old = content.ExtractNodeRange(lo, hi);
    fresh.clear();
    Status s = puller(shard, lo, hi, &fresh);
    if (!s.ok()) return s;
    ++range_pulls_;
    s = merged_.MergeSerialized(old.data(), old.size());
    if (!s.ok()) return s;
    s = merged_.MergeSerialized(fresh.data(), fresh.size());
    if (!s.ok()) return s;
    s = content.MergeSerialized(old.data(), old.size());
    if (!s.ok()) return s;
    s = content.MergeSerialized(fresh.data(), fresh.size());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status SnapshotCache::Refresh(uint64_t epoch, const ShardWatermarks& marks,
                              uint64_t total_updates,
                              const NodeSketchParams& params,
                              const RangePuller& puller) {
  if (!valid() || !(merged_.params() == params)) {
    Invalidate();
    merged_ = ZeroSnapshot(params);
    ++cold_builds_;
  }
  ++refreshes_;
  // Vanished shards (removed from the table; their content migrated to
  // survivors, whose watermarks moved): the shard's true final state is
  // zero, so one more fold of its last-known content cancels it out of
  // the merged snapshot.
  for (auto it = shard_content_.begin(); it != shard_content_.end();) {
    if (marks.count(it->first) > 0) {
      ++it;
      continue;
    }
    const GraphSnapshot& content = it->second;
    const uint64_t num_nodes = params.num_nodes;
    const uint64_t step =
        nodes_per_chunk_ == 0 ? num_nodes : nodes_per_chunk_;
    for (uint64_t lo = 0; lo < num_nodes; lo += step) {
      const uint64_t hi = std::min(num_nodes, lo + step);
      const std::vector<uint8_t> old = content.ExtractNodeRange(lo, hi);
      const Status s = merged_.MergeSerialized(old.data(), old.size());
      if (!s.ok()) {
        Invalidate();
        return s;
      }
    }
    it = shard_content_.erase(it);
  }
  // New and moved shards, pulled exactly when the shared NeedsPull
  // predicate says so — the same predicate PlannedPulls() consulted, so
  // a pre-staging caller's plan always matches the pulls made here. A
  // shard whose watermark is unchanged is skipped outright (its sketch
  // content cannot have changed); a brand-new shard at the zero
  // watermark is installed as the XOR identity without a pull.
  for (const auto& [shard, mark] : marks) {
    if (shard_content_.find(shard) == shard_content_.end()) {
      shard_content_.emplace(shard, ZeroSnapshot(params));
    }
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
  shard_content_.clear();
  marks_.clear();
  epoch_ = 0;
}

}  // namespace gz
