// Leaf-only gutters (paper Section 5.1): one RAM buffer per graph node
// — or per *node group* (Section 4.1: groups of cardinality
// max{1, B/log^3 V} so that a group's sketches fill a disk block) —
// flushed to the work queue whenever it fills. By default each gutter
// holds updates totalling a configurable fraction f of a node sketch's
// size (the paper's knob in Figure 15).
//
// Solo gutters (the common case) ARE pooled UpdateBatch slabs: a gutter
// fills in place and is handed to the work queue as-is, so the hot path
// performs no copies and — once the pool is warm — no allocations.
#ifndef GZ_BUFFER_LEAF_GUTTERS_H_
#define GZ_BUFFER_LEAF_GUTTERS_H_

#include <cstdint>
#include <vector>

#include "buffer/guttering_system.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"

namespace gz {

struct LeafGuttersParams {
  uint64_t num_nodes = 0;
  // Capacity of each gutter, in updates. Typical value:
  // f * node_sketch_bytes / sizeof(uint64_t) with f = 1/2. Clamped to
  // the pool's slab capacity.
  size_t gutter_capacity = 256;
  // Nodes sharing one gutter (paper: max{1, B / log^3 V}). With
  // groups > 1, a full gutter emits one batch per node present.
  uint64_t nodes_per_group = 1;
};

class LeafGutters : public GutteringSystem {
 public:
  // `pool` supplies the batch slabs; emitted batches are released back
  // to it by the consumer. Both pointers must outlive the gutters.
  LeafGutters(const LeafGuttersParams& params, BatchPool* pool,
              WorkQueue* queue);
  ~LeafGutters() override;
  LeafGutters(const LeafGutters&) = delete;
  LeafGutters& operator=(const LeafGutters&) = delete;

  void Insert(NodeId node, uint64_t edge_index) override;
  void InsertBatch(const GraphUpdate* updates, size_t count) override;
  void InsertNodes(const NodeUpdate* updates, size_t count) override;
  void ForceFlush() override;
  uint64_t num_nodes() const override { return params_.num_nodes; }
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override { return 0; }

  uint64_t num_groups() const {
    return params_.nodes_per_group == 1 ? solo_gutters_.size()
                                        : group_gutters_.size();
  }

 private:
  struct Record {
    NodeId node;
    uint64_t edge_index;
  };

  uint64_t GroupOf(NodeId node) const {
    return node / params_.nodes_per_group;
  }
  void InsertSolo(NodeId node, uint64_t edge_index);
  void InsertGrouped(NodeId node, uint64_t edge_index);
  void FlushGroup(uint64_t group);
  // Hands a filled slab to the queue; if the queue is closed, the slab
  // goes back to the pool so nothing leaks.
  void PushOrRecycle(UpdateBatch* batch);

  LeafGuttersParams params_;
  size_t capacity_;    // Effective per-gutter flush threshold.
  BatchPool* pool_;    // Not owned.
  WorkQueue* queue_;   // Not owned.
  // Exactly one of these is populated. Solo gutters hold a lazily
  // acquired slab per node (nullptr when empty); grouped gutters need
  // the destination node per record, so they buffer (node, index)
  // records and split into slabs at flush time.
  std::vector<UpdateBatch*> solo_gutters_;
  std::vector<std::vector<Record>> group_gutters_;
};

}  // namespace gz

#endif  // GZ_BUFFER_LEAF_GUTTERS_H_
