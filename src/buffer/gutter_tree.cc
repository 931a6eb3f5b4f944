#include "buffer/gutter_tree.h"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.h"

namespace gz {

GutterTree::GutterTree(const GutterTreeParams& params, BatchPool* pool,
                       WorkQueue* queue)
    : params_(params), pool_(pool), queue_(queue) {
  GZ_CHECK(params_.num_nodes >= 1);
  GZ_CHECK(params_.fanout >= 2);
  GZ_CHECK(params_.leaf_gutter_updates >= 1);
  GZ_CHECK(params_.nodes_per_group >= 1);
  GZ_CHECK(params_.buffer_bytes >= kRecordBytes * params_.fanout);
  GZ_CHECK(pool_ != nullptr);
  GZ_CHECK(queue_ != nullptr);
}

GutterTree::~GutterTree() {
  if (fd_ >= 0) ::close(fd_);
}

// The tree is built over *node groups*: [lo, hi) ranges below are in
// group units and each leaf is one group's gutter.
uint32_t GutterTree::BuildVertex(uint64_t lo, uint64_t hi, uint32_t depth) {
  const uint32_t id = static_cast<uint32_t>(internals_.size());
  internals_.emplace_back();
  {
    Internal& v = internals_[id];
    v.lo = lo;
    v.hi = hi;
    v.depth = depth;
    v.capacity_bytes = params_.buffer_bytes;
  }
  max_depth_ = std::max(max_depth_, depth);
  const uint64_t range = hi - lo;
  if (range <= params_.fanout) {
    Internal& v = internals_[id];
    v.children_are_leaves = true;
    v.span = 1;
    return id;
  }
  const uint64_t span =
      (range + params_.fanout - 1) / params_.fanout;  // ceil
  std::vector<uint32_t> children;
  for (uint64_t start = lo; start < hi; start += span) {
    const uint64_t end = std::min(hi, start + span);
    children.push_back(BuildVertex(start, end, depth + 1));  // may realloc
  }
  Internal& v = internals_[id];  // re-fetch after child recursion
  v.span = span;
  v.children = std::move(children);
  return id;
}

Status GutterTree::Init() {
  if (initialized_) return Status::FailedPrecondition("already initialized");
  BuildVertex(0, NumGroups(), 0);
  // Flushes recurse strictly downward, so one scratch set per level
  // serves every vertex at that level; a vertex has at most `fanout`
  // children (and a leaf-parent at most `fanout` gutter groups).
  scratch_.resize(max_depth_ + 1);
  for (LevelScratch& level : scratch_) {
    level.buckets.resize(params_.fanout);
  }

  // Assign file regions to every internal vertex except the RAM root.
  uint64_t offset = 0;
  for (size_t i = 1; i < internals_.size(); ++i) {
    internals_[i].file_offset = offset;
    offset += internals_[i].capacity_bytes;
  }
  leaf_region_offset_ = offset;
  leaf_gutter_bytes_ = params_.leaf_gutter_updates * kRecordBytes;
  file_bytes_ = leaf_region_offset_ + NumGroups() * leaf_gutter_bytes_;

  root_capacity_records_ = params_.buffer_bytes / kRecordBytes;
  root_buffer_.reserve(root_capacity_records_);
  leaf_fill_.assign(NumGroups(), 0);

  fd_ = ::open(params_.file_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create gutter tree file: " +
                           params_.file_path);
  }
  if (::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
    return Status::IoError("cannot preallocate gutter tree file");
  }
  initialized_ = true;
  return Status::Ok();
}

int GutterTree::ChildIndexFor(const Internal& v, NodeId node) const {
  const uint64_t group = GroupOf(node);
  GZ_CHECK(group >= v.lo && group < v.hi);
  return static_cast<int>((group - v.lo) / v.span);
}

void GutterTree::InsertRecord(NodeId node, uint64_t edge_index) {
  GZ_CHECK(node < params_.num_nodes);
  root_buffer_.push_back(Record{node, edge_index});
  if (root_buffer_.size() >= root_capacity_records_) {
    // Partition copies into per-level scratch and nothing on the flush
    // path appends to the root, so the buffer can be partitioned in
    // place and cleared (keeping its capacity) — no swap-and-reserve
    // allocation per root flush.
    Partition(internals_[0], root_buffer_);
    root_buffer_.clear();
  }
}

void GutterTree::Insert(NodeId node, uint64_t edge_index) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  InsertRecord(node, edge_index);
}

void GutterTree::InsertBatch(const GraphUpdate* updates, size_t count) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  const uint64_t n = params_.num_nodes;
  for (size_t i = 0; i < count; ++i) {
    const Edge& e = updates[i].edge;
    const uint64_t idx = EdgeToIndex(e, n);
    InsertRecord(e.u, idx);
    InsertRecord(e.v, idx);
  }
}

void GutterTree::InsertNodes(const NodeUpdate* updates, size_t count) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  const uint64_t n = params_.num_nodes;
  for (size_t i = 0; i < count; ++i) {
    const NodeUpdate& h = updates[i];
    InsertRecord(h.node, EdgeToIndex(Edge(h.node, h.other), n));
  }
}

void GutterTree::Partition(const Internal& v,
                           const std::vector<Record>& records) {
  // This level's recycled buckets; delivery below only recurses into
  // deeper levels, which have their own. Each used bucket is cleared
  // after delivery (keeping capacity), restoring the all-empty
  // invariant for the next flush at this level.
  std::vector<std::vector<Record>>& buckets = scratch_[v.depth].buckets;
  if (v.children_are_leaves) {
    // Group records per leaf gutter within [lo, hi).
    const uint64_t groups = v.hi - v.lo;
    for (const Record& r : records) {
      buckets[GroupOf(r.node) - v.lo].push_back(r);
    }
    for (uint64_t i = 0; i < groups; ++i) {
      if (!buckets[i].empty()) {
        DeliverToLeaf(v.lo + i, buckets[i]);
        buckets[i].clear();
      }
    }
    return;
  }
  for (const Record& r : records) {
    buckets[ChildIndexFor(v, r.node)].push_back(r);
  }
  for (size_t i = 0; i < v.children.size(); ++i) {
    if (!buckets[i].empty()) {
      DeliverToInternal(v.children[i], buckets[i]);
      buckets[i].clear();
    }
  }
}

void GutterTree::DeliverToInternal(uint32_t id,
                                   const std::vector<Record>& records) {
  size_t next = 0;
  while (next < records.size()) {
    Internal& v = internals_[id];
    const size_t space_records =
        (v.capacity_bytes - v.fill_bytes) / kRecordBytes;
    if (space_records == 0) {
      FlushInternal(id);
      continue;
    }
    const size_t chunk = std::min(space_records, records.size() - next);
    WriteRecords(v.file_offset + v.fill_bytes, records.data() + next, chunk);
    internals_[id].fill_bytes += chunk * kRecordBytes;
    next += chunk;
    if (internals_[id].fill_bytes >= internals_[id].capacity_bytes) {
      FlushInternal(id);
    }
  }
}

void GutterTree::FlushInternal(uint32_t id) {
  Internal& v = internals_[id];
  if (v.fill_bytes == 0) return;
  // The level's read scratch stays live across the recursive Partition;
  // deeper flushes read into their own level's scratch.
  std::vector<Record>& records = scratch_[v.depth].read_records;
  ReadRecordsInto(v.file_offset, v.fill_bytes, &records);
  v.fill_bytes = 0;
  Partition(v, records);
}

void GutterTree::DeliverToLeaf(uint64_t group,
                               const std::vector<Record>& records) {
  const uint32_t fill = leaf_fill_[group];
  if (fill + records.size() >= params_.leaf_gutter_updates) {
    EmitLeaf(group, records);
    return;
  }
  const uint64_t offset = leaf_region_offset_ + group * leaf_gutter_bytes_ +
                          static_cast<uint64_t>(fill) * kRecordBytes;
  WriteRecords(offset, records.data(), records.size());
  leaf_fill_[group] = fill + static_cast<uint32_t>(records.size());
}

void GutterTree::EmitLeaf(uint64_t group, const std::vector<Record>& extra) {
  const uint32_t fill = leaf_fill_[group];
  std::vector<Record>& records = emit_records_;  // Recycled accumulator.
  records.clear();
  if (fill > 0) {
    const uint64_t offset = leaf_region_offset_ + group * leaf_gutter_bytes_;
    ReadRecordsInto(offset, static_cast<size_t>(fill) * kRecordBytes,
                    &records);
  }
  records.insert(records.end(), extra.begin(), extra.end());
  leaf_fill_[group] = 0;

  // One run per node present, chunked into pooled slabs. For the
  // common single-node groups the gutter already is one run; larger
  // groups sort in place (std::sort, not stable_sort, whose hidden
  // temporary buffer would cost an allocation per emission — the
  // per-node order it preserved is immaterial, sketch updates are
  // commutative XOR toggles).
  if (params_.nodes_per_group > 1) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                return a.node < b.node;
              });
  }
  size_t i = 0;
  while (i < records.size()) {
    const NodeId node = records[i].node;
    UpdateBatch* batch = pool_->Acquire();
    batch->node = node;
    while (i < records.size() && records[i].node == node) {
      if (batch->full()) {  // Run longer than a slab: emit a chunk.
        if (!queue_->Push(batch)) pool_->Release(batch);
        batch = pool_->Acquire();
        batch->node = node;
      }
      batch->Append(records[i].edge_index);
      ++i;
    }
    if (!queue_->Push(batch)) pool_->Release(batch);
  }
}

void GutterTree::ForceFlush() {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  if (!root_buffer_.empty()) {
    Partition(internals_[0], root_buffer_);
    root_buffer_.clear();
  }
  // Internal ids are assigned parent-before-child, so ascending order
  // flushes top-down and nothing is left stranded.
  for (uint32_t id = 1; id < internals_.size(); ++id) FlushInternal(id);
  static const std::vector<Record> kEmpty;
  for (uint64_t group = 0; group < leaf_fill_.size(); ++group) {
    if (leaf_fill_[group] > 0) EmitLeaf(group, kEmpty);
  }
}

// Both I/O helpers stage through io_buf_: neither holds it across a
// call that could re-enter them, and the capacity persists, so encode/
// decode staging costs no allocations in steady state.
void GutterTree::WriteRecords(uint64_t offset, const Record* records,
                              size_t count) {
  io_buf_.resize(count * kRecordBytes);
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(&io_buf_[i * kRecordBytes], &records[i].node, 4);
    std::memcpy(&io_buf_[i * kRecordBytes + 4], &records[i].edge_index, 8);
  }
  const ssize_t wrote =
      ::pwrite(fd_, io_buf_.data(), io_buf_.size(),
               static_cast<off_t>(offset));
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(io_buf_.size()),
               "gutter tree pwrite");
  bytes_written_ += io_buf_.size();
}

void GutterTree::ReadRecordsInto(uint64_t offset, size_t bytes,
                                 std::vector<Record>* out) {
  GZ_CHECK(bytes % kRecordBytes == 0);
  io_buf_.resize(bytes);
  const ssize_t got =
      ::pread(fd_, io_buf_.data(), bytes, static_cast<off_t>(offset));
  GZ_CHECK_MSG(got == static_cast<ssize_t>(bytes), "gutter tree pread");
  bytes_read_ += bytes;
  out->resize(bytes / kRecordBytes);
  for (size_t i = 0; i < out->size(); ++i) {
    std::memcpy(&(*out)[i].node, &io_buf_[i * kRecordBytes], 4);
    std::memcpy(&(*out)[i].edge_index, &io_buf_[i * kRecordBytes + 4], 8);
  }
}

size_t GutterTree::RamByteSize() const {
  size_t scratch_bytes = io_buf_.capacity() +
                         emit_records_.capacity() * sizeof(Record);
  for (const LevelScratch& level : scratch_) {
    scratch_bytes += level.read_records.capacity() * sizeof(Record);
    for (const std::vector<Record>& b : level.buckets) {
      scratch_bytes += b.capacity() * sizeof(Record);
    }
  }
  return sizeof(*this) + root_buffer_.capacity() * sizeof(Record) +
         internals_.capacity() * sizeof(Internal) +
         leaf_fill_.capacity() * sizeof(uint32_t) + scratch_bytes;
}

}  // namespace gz
