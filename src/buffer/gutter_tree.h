// Gutter tree (paper Section 4.1): a simplified buffer tree that
// collects fine-grained stream updates and delivers them to per-node
// leaf gutters I/O-efficiently.
//
// Shape: the root buffer lives in RAM; every other internal vertex owns
// a fixed-size buffer region in a preallocated file, with fan-out
// `fanout`. Leaves are one gutter per graph node, also on disk, sized to
// a configurable number of updates (the paper uses ~2x the node-sketch
// size). When a buffer fills it is flushed: its records are read back,
// partitioned among its children, and appended to their regions
// (recursively flushing full children first). When a leaf gutter fills,
// its contents are emitted to the work queue as one batch for a single
// graph node. Unlike a full buffer tree no rebalancing is ever needed
// because leaf data does not persist (Section 4.1).
#ifndef GZ_BUFFER_GUTTER_TREE_H_
#define GZ_BUFFER_GUTTER_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/guttering_system.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "util/status.h"

namespace gz {

struct GutterTreeParams {
  uint64_t num_nodes = 0;
  std::string file_path;       // Backing file (preallocated on Init).
  size_t buffer_bytes = 1 << 22;  // Internal-buffer size (paper: 8 MB).
  size_t fanout = 64;             // Children per internal vertex (paper: 512).
  size_t leaf_gutter_updates = 512;  // Leaf gutter capacity, in updates.
  // Graph nodes per leaf gutter (Section 4.1 node groups, cardinality
  // max{1, B/log^3 V}). Groups > 1 store (node, index) records in the
  // leaf and emit one batch per node present when the gutter fills.
  uint64_t nodes_per_group = 1;
};

class GutterTree : public GutteringSystem {
 public:
  // On-disk record: u32 graph node + u64 edge index.
  static constexpr size_t kRecordBytes = 12;

  // `pool` supplies the emitted batch slabs; the consumer releases them.
  GutterTree(const GutterTreeParams& params, BatchPool* pool,
             WorkQueue* queue);
  ~GutterTree() override;
  GutterTree(const GutterTree&) = delete;
  GutterTree& operator=(const GutterTree&) = delete;

  // Creates and preallocates the backing file. Must be called once
  // before the first Insert.
  Status Init();

  void Insert(NodeId node, uint64_t edge_index) override;
  void InsertBatch(const GraphUpdate* updates, size_t count) override;
  void InsertNodes(const NodeUpdate* updates, size_t count) override;
  void ForceFlush() override;
  uint64_t num_nodes() const override { return params_.num_nodes; }
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override { return file_bytes_; }

  // I/O counters (for the benchmarks' I/O-efficiency reporting).
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  struct Record {
    NodeId node;
    uint64_t edge_index;
  };

  // An internal tree vertex covering graph nodes [lo, hi).
  struct Internal {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint64_t span = 0;          // Graph nodes per child subrange.
    std::vector<uint32_t> children;  // Internal ids, unless leaves.
    bool children_are_leaves = false;
    uint32_t depth = 0;         // Root = 0; indexes scratch_.
    uint64_t file_offset = 0;   // 0 for the RAM-resident root.
    size_t capacity_bytes = 0;
    size_t fill_bytes = 0;
  };

  // Flush-path scratch, one set per tree level. A flush only ever
  // recurses downward (vertex at depth d partitions into children at
  // d+1), so per-level reuse is safe and steady-state flushing
  // allocates nothing once each level's buffers have grown to the
  // level's working set.
  struct LevelScratch {
    std::vector<Record> read_records;            // FlushInternal target.
    std::vector<std::vector<Record>> buckets;    // Partition output.
  };

  // Non-virtual insert body shared by Insert and the bulk paths.
  void InsertRecord(NodeId node, uint64_t edge_index);

  // Builds the vertex at [lo, hi) and returns its id in internals_.
  uint32_t BuildVertex(uint64_t lo, uint64_t hi, uint32_t depth);

  int ChildIndexFor(const Internal& v, NodeId node) const;

  // Appends records to internal vertex `id`, flushing it as needed.
  void DeliverToInternal(uint32_t id, const std::vector<Record>& records);
  // Reads back vertex `id`'s buffer and pushes everything down a level.
  void FlushInternal(uint32_t id);
  // Partitions `records` among v's children and delivers.
  void Partition(const Internal& v, const std::vector<Record>& records);
  // Appends records to leaf gutter `group`; emits batches when it
  // fills. All records must belong to the group.
  void DeliverToLeaf(uint64_t group, const std::vector<Record>& records);
  // Emits the leaf gutter contents (plus `extra`) as per-node batches.
  void EmitLeaf(uint64_t group, const std::vector<Record>& extra);

  uint64_t GroupOf(NodeId node) const {
    return node / params_.nodes_per_group;
  }
  uint64_t NumGroups() const {
    return (params_.num_nodes + params_.nodes_per_group - 1) /
           params_.nodes_per_group;
  }

  void WriteRecords(uint64_t offset, const Record* records, size_t count);
  // Replaces `out` with the decoded records (capacity is reused).
  void ReadRecordsInto(uint64_t offset, size_t bytes,
                       std::vector<Record>* out);

  GutterTreeParams params_;
  BatchPool* pool_;   // Not owned.
  WorkQueue* queue_;  // Not owned.
  int fd_ = -1;
  uint64_t file_bytes_ = 0;
  uint64_t leaf_region_offset_ = 0;
  size_t leaf_gutter_bytes_ = 0;

  std::vector<Internal> internals_;  // internals_[0] is the root.
  std::vector<Record> root_buffer_;  // RAM buffer of the root.
  size_t root_capacity_records_ = 0;
  std::vector<uint32_t> leaf_fill_;  // Updates currently in each leaf.

  // Recycled flush-path buffers (the leaf gutters' slab recycling,
  // applied to the internal path): per-level partition/read scratch, a
  // shared I/O staging buffer, and the leaf-emission accumulator. All
  // keep their capacity across flushes, so steady-state internal-path
  // work performs no heap allocations.
  uint32_t max_depth_ = 0;
  std::vector<LevelScratch> scratch_;
  std::vector<uint8_t> io_buf_;
  std::vector<Record> emit_records_;

  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  bool initialized_ = false;
};

}  // namespace gz

#endif  // GZ_BUFFER_GUTTER_TREE_H_
