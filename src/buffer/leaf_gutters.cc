#include "buffer/leaf_gutters.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace gz {

LeafGutters::LeafGutters(const LeafGuttersParams& params, BatchPool* pool,
                         WorkQueue* queue)
    : params_(params), pool_(pool), queue_(queue) {
  GZ_CHECK(params_.num_nodes >= 1);
  GZ_CHECK(params_.gutter_capacity >= 1);
  GZ_CHECK(params_.nodes_per_group >= 1);
  GZ_CHECK(pool_ != nullptr);
  GZ_CHECK(queue_ != nullptr);
  // Solo gutters fill a slab in place, so their threshold cannot
  // exceed the slab capacity. Grouped gutters chunk node runs into as
  // many slabs as needed at flush time, so the configured capacity
  // (the paper's f knob) applies unclamped.
  capacity_ = params_.nodes_per_group == 1
                  ? std::min<size_t>(params_.gutter_capacity,
                                     pool_->slab_capacity())
                  : params_.gutter_capacity;
  const uint64_t groups =
      (params_.num_nodes + params_.nodes_per_group - 1) /
      params_.nodes_per_group;
  if (params_.nodes_per_group == 1) {
    solo_gutters_.assign(groups, nullptr);
  } else {
    group_gutters_.resize(groups);
  }
}

LeafGutters::~LeafGutters() {
  for (UpdateBatch* gutter : solo_gutters_) {
    if (gutter != nullptr) pool_->Release(gutter);
  }
}

void LeafGutters::PushOrRecycle(UpdateBatch* batch) {
  if (!queue_->Push(batch)) pool_->Release(batch);
}

void LeafGutters::InsertSolo(NodeId node, uint64_t edge_index) {
  UpdateBatch*& gutter = solo_gutters_[node];
  if (gutter == nullptr) {
    gutter = pool_->Acquire();
    gutter->node = node;
  }
  gutter->Append(edge_index);
  if (gutter->count >= capacity_) {
    PushOrRecycle(gutter);
    gutter = nullptr;
  }
}

void LeafGutters::InsertGrouped(NodeId node, uint64_t edge_index) {
  std::vector<Record>& gutter = group_gutters_[GroupOf(node)];
  if (gutter.capacity() == 0) gutter.reserve(capacity_);
  gutter.push_back(Record{node, edge_index});
  if (gutter.size() >= capacity_) FlushGroup(GroupOf(node));
}

void LeafGutters::Insert(NodeId node, uint64_t edge_index) {
  GZ_CHECK(node < params_.num_nodes);
  if (params_.nodes_per_group == 1) {
    InsertSolo(node, edge_index);
  } else {
    InsertGrouped(node, edge_index);
  }
}

void LeafGutters::InsertBatch(const GraphUpdate* updates, size_t count) {
  // Same work as the base-class loop, minus two virtual calls per
  // update: this span-oriented path is what the API-boundary batching
  // in GraphZeppelin::Update feeds.
  const uint64_t n = params_.num_nodes;
  if (params_.nodes_per_group == 1) {
    for (size_t i = 0; i < count; ++i) {
      const Edge& e = updates[i].edge;
      const uint64_t idx = EdgeToIndex(e, n);  // Checks e.v < num_nodes.
      InsertSolo(e.u, idx);
      InsertSolo(e.v, idx);
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      const Edge& e = updates[i].edge;
      const uint64_t idx = EdgeToIndex(e, n);
      InsertGrouped(e.u, idx);
      InsertGrouped(e.v, idx);
    }
  }
}

void LeafGutters::InsertNodes(const NodeUpdate* updates, size_t count) {
  // Edge() refuses a self-loop; EdgeToIndex checks both ids < n.
  const uint64_t n = params_.num_nodes;
  if (params_.nodes_per_group == 1) {
    for (size_t i = 0; i < count; ++i) {
      const NodeUpdate& h = updates[i];
      InsertSolo(h.node, EdgeToIndex(Edge(h.node, h.other), n));
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      const NodeUpdate& h = updates[i];
      InsertGrouped(h.node, EdgeToIndex(Edge(h.node, h.other), n));
    }
  }
}

void LeafGutters::FlushGroup(uint64_t group) {
  if (params_.nodes_per_group == 1) {
    UpdateBatch*& gutter = solo_gutters_[group];
    if (gutter != nullptr) {
      PushOrRecycle(gutter);
      gutter = nullptr;
    }
    return;
  }
  std::vector<Record>& records = group_gutters_[group];
  // Grouped mode: one run per node present, in node order (stable sort
  // keeps per-node update order intact). Sorting in place keeps the
  // flush allocation-free once the gutter's capacity is established.
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.node < b.node;
                   });
  size_t i = 0;
  while (i < records.size()) {
    const NodeId node = records[i].node;
    UpdateBatch* batch = pool_->Acquire();
    batch->node = node;
    while (i < records.size() && records[i].node == node) {
      if (batch->full()) {  // Run longer than a slab: emit a chunk.
        PushOrRecycle(batch);
        batch = pool_->Acquire();
        batch->node = node;
      }
      batch->Append(records[i].edge_index);
      ++i;
    }
    PushOrRecycle(batch);
  }
  records.clear();  // Keeps capacity: no realloc on the next fill.
}

void LeafGutters::ForceFlush() {
  const uint64_t groups = num_groups();
  for (uint64_t group = 0; group < groups; ++group) {
    const bool empty = params_.nodes_per_group == 1
                           ? solo_gutters_[group] == nullptr
                           : group_gutters_[group].empty();
    if (!empty) FlushGroup(group);
  }
}

size_t LeafGutters::RamByteSize() const {
  // Slab bytes are owned and accounted for by the BatchPool; only the
  // gutters' own structures are counted here.
  size_t total = sizeof(*this);
  total += solo_gutters_.capacity() * sizeof(UpdateBatch*);
  total += group_gutters_.capacity() * sizeof(std::vector<Record>);
  for (const auto& g : group_gutters_) total += g.capacity() * sizeof(Record);
  return total;
}

}  // namespace gz
