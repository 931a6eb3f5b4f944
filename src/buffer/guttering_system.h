// Common interface of GraphZeppelin's two buffering structures
// (Section 5.1): the in-RAM leaf-only gutters and the on-disk gutter
// tree. Both collect fine-grained stream updates and emit them as
// per-node pooled batches into a WorkQueue, amortizing sketch access
// costs.
#ifndef GZ_BUFFER_GUTTERING_SYSTEM_H_
#define GZ_BUFFER_GUTTERING_SYSTEM_H_

#include <cstddef>
#include <cstdint>

#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "stream/stream_types.h"

namespace gz {

class GutteringSystem {
 public:
  virtual ~GutteringSystem() = default;

  // Buffers one directed half-update: `edge_index` must eventually be
  // applied to `node`'s sketch. Callers insert each undirected edge
  // twice, once per endpoint (paper Figure 8, edge_update()).
  virtual void Insert(NodeId node, uint64_t edge_index) = 0;

  // Bulk paths, one virtual call per span rather than per half-update.
  // InsertBatch buffers a span of stream updates, inserting each edge's
  // index for both endpoints: what GraphZeppelin::Update feeds after
  // batching at the API boundary. InsertNodes buffers each node update's
  // edge index for its one node: what GraphZeppelin::UpdateNodes feeds
  // on a shard, which is sent only the halves of the nodes it owns.
  virtual void InsertBatch(const GraphUpdate* updates, size_t count) = 0;
  virtual void InsertNodes(const NodeUpdate* updates, size_t count) = 0;

  // Forces every buffered update out as batches (possibly small ones).
  // Called at query time (paper cleanup()).
  virtual void ForceFlush() = 0;

  // Upper bound on the vertex count (drives EdgeToIndex in the bulk
  // path).
  virtual uint64_t num_nodes() const = 0;

  // RAM footprint of the buffering structure itself.
  virtual size_t RamByteSize() const = 0;

  // Bytes of disk backing the structure (0 for RAM-only systems).
  virtual size_t DiskByteSize() const = 0;
};

}  // namespace gz

#endif  // GZ_BUFFER_GUTTERING_SYSTEM_H_
