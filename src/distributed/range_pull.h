// The one pull-and-fold over a cluster's shards, behind a QuerySession's
// seqlock pulls and the coordinator's ShardCluster::Snapshot(): node
// range requests (MIGRATE_EXTRACT) to one replica per shard, every
// reply XOR-folded into one buffer per round, so the buffers hold the
// cluster's sketch (sketch linearity, paper Section 3.1).
//
// Samples do not add up, so they fold by copy: a node's record lands in
// its empty slot, and a record from a second shard that also touched
// the node raises the pull's overlap flag instead. A node touched on
// one shard only is exact, since the XOR of its slices would be that
// shard's slice; the caller treats an overlap by pulling the round
// whole.
//
// Pulls run in waves, each one Exchange() (shard_protocol.h) that sends
// every shard's first live replica one request per pull, for its next
// chunk of nodes, then folds the replies in send order, so a shard
// builds its next reply while the last is folded. A connection never
// has more than one request per pull outstanding, so the caller never
// blocks sending while a shard blocks writing an unread reply. A
// replica that loses sync (a failed send included) is reported dead
// and never used again; the next wave re-sends its chunk to the shard's
// next live replica: replicas are bitwise-equal at one position, so
// any of them serves any chunk.
#ifndef GZ_DISTRIBUTED_RANGE_PULL_H_
#define GZ_DISTRIBUTED_RANGE_PULL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/graph_snapshot.h"
#include "distributed/shard_protocol.h"
#include "util/status.h"

namespace gz {

// `part` of rounds [r_lo, r_hi), folded into (*rounds)[r - r_lo]: one
// zeroed buffer per round, V x round_stride for whole rounds,
// V x kSummaryBytes for summaries and V x SamplesBytes(cols) for
// samples (a zero record: untouched on every shard so far). A samples
// pull needs `overlap`, set once some node arrives touched from two
// shards.
struct RoundPull {
  int r_lo;
  int r_hi;
  RoundPart part;
  std::vector<std::vector<uint8_t>>* rounds;
  bool* overlap = nullptr;
};

// Replies received and their payload bytes, headers included.
struct PullTally {
  uint64_t replies = 0;
  uint64_t bytes = 0;
};

// Pulls every one of `pulls` of the nodes [0, V) from every shard in
// `shards` (each its replicas' sockets in failover order, negative for
// one that is not live) in chunks of `nodes_per_chunk` nodes (0 = one
// chunk), XOR-folding each reply, read into `reply`, into its pull's
// buffers. `on_dead` hears once of each replica (indices into `shards`)
// whose connection loses sync. Returns an error no retry can fix
// (an in-sync shard error other than FailedPrecondition); *round_error
// says the pull must be retried instead (a shard lost its last live
// replica, answered FailedPrecondition, or sent bytes that do not
// fold). Either way, every request sent to a socket still alive has had
// its reply read; the buffers are complete only when both are Ok.
Status PullAndFold(const NodeSketchParams& params,
                   const std::vector<std::vector<int>>& shards,
                   const std::vector<RoundPull>& pulls,
                   uint64_t nodes_per_chunk, ShardFrame* reply,
                   const std::function<void(size_t shard, size_t replica,
                                            const Status& error)>& on_dead,
                   PullTally* tally, Status* round_error);

}  // namespace gz

#endif  // GZ_DISTRIBUTED_RANGE_PULL_H_
