#include "core/sketch_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace gz {
namespace {

// A record-sized buffer per thread, grown once and reused: the disk
// store's I/O allocates nothing per node or per batch.
uint8_t* RecordScratch(size_t bytes) {
  thread_local std::vector<uint8_t> buf;
  if (buf.size() < bytes) buf.resize(bytes);
  return buf.data();
}

}  // namespace

void SketchStore::ApplyBatch(NodeId node, const uint64_t* indices,
                             size_t count) {
  // Per thread and reused, like RecordScratch; rebuilt for other params.
  thread_local NodeSketch delta = zero_;
  if (!(delta.params() == params())) delta = zero_;
  delta.Clear();
  delta.UpdateBatch(indices, count);
  MergeDelta(node, delta);
}

// ---------------- InMemorySketchStore ---------------------------------

InMemorySketchStore::InMemorySketchStore(const NodeSketchParams& params)
    : SketchStore(params), shared_zero_(zero_) {
  // Every node shares the zero until its first write clones it; after
  // that, ingestion merges in place until a snapshot takes a reference.
  sketches_.assign(params.num_nodes, shared_zero_);
  locks_ = std::make_unique<std::mutex[]>(params.num_nodes);
}

NodeSketch& InMemorySketchStore::Writable(NodeId node) {
  if (sketches_[node].Shares(shared_zero_)) {
    materialized_.fetch_add(1, std::memory_order_relaxed);
  }
  return sketches_[node].Mutable();
}

void InMemorySketchStore::ApplyBatch(NodeId node, const uint64_t* indices,
                                     size_t count) {
  GZ_CHECK(node < num_nodes());
  std::lock_guard<std::mutex> lock(locks_[node]);
  Writable(node).UpdateBatch(indices, count);
}

void InMemorySketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < num_nodes());
  // A zero delta (a node range's untouched node) changes nothing, so it
  // must not give the node a sketch of its own.
  if (delta == zero_) return;
  std::lock_guard<std::mutex> lock(locks_[node]);
  Writable(node).Merge(delta);
}

void InMemorySketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < num_nodes());
  std::lock_guard<std::mutex> lock(locks_[node]);
  *out = *sketches_[node];
}

void SketchStore::ReadSummaries(NodeId node, int r_lo, int r_hi,
                                uint8_t* out) {
  const SketchLayout& layout = zero_.layout();
  uint8_t* window =
      RecordScratch(layout.round_bytes() * static_cast<size_t>(r_hi - r_lo));
  ReadRounds(node, r_lo, r_hi, window);
  for (int r = 0; r < r_hi - r_lo; ++r) {
    std::memcpy(out + r * GraphSnapshot::kSummaryBytes,
                window + r * layout.round_bytes() + layout.det_offset(),
                GraphSnapshot::kSummaryBytes);
  }
}

void InMemorySketchStore::ReadRounds(NodeId node, int r_lo, int r_hi,
                                     uint8_t* out) {
  GZ_CHECK(node < num_nodes() && 0 <= r_lo && r_lo < r_hi &&
           r_hi <= params().rounds);
  const size_t bytes = zero_.layout().round_bytes();
  std::lock_guard<std::mutex> lock(locks_[node]);
  for (int r = r_lo; r < r_hi; ++r) {
    std::memcpy(out + (r - r_lo) * bytes, sketches_[node]->subsketch(r),
                bytes);
  }
}

void InMemorySketchStore::ReadSummaries(NodeId node, int r_lo, int r_hi,
                                        uint8_t* out) {
  GZ_CHECK(node < num_nodes() && 0 <= r_lo && r_lo < r_hi &&
           r_hi <= params().rounds);
  const size_t det = zero_.layout().det_offset();
  std::lock_guard<std::mutex> lock(locks_[node]);
  for (int r = r_lo; r < r_hi; ++r) {
    std::memcpy(out + (r - r_lo) * GraphSnapshot::kSummaryBytes,
                sketches_[node]->subsketch(r) + det,
                GraphSnapshot::kSummaryBytes);
  }
}

CowSketch InMemorySketchStore::Share(NodeId node) {
  GZ_CHECK(node < num_nodes());
  std::lock_guard<std::mutex> lock(locks_[node]);
  return sketches_[node];
}

GraphSnapshot InMemorySketchStore::Capture(uint64_t num_updates) {
  std::vector<CowSketch> sketches;
  sketches.reserve(num_nodes());
  for (NodeId i = 0; i < num_nodes(); ++i) sketches.push_back(Share(i));
  return GraphSnapshot(std::move(sketches), num_updates);
}

void InMemorySketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < num_nodes());
  GZ_CHECK(sketch.params() == params());
  std::lock_guard<std::mutex> lock(locks_[node]);
  if (!(sketch == zero_)) {
    Writable(node) = sketch;
  } else if (!sketches_[node].Shares(shared_zero_)) {
    sketches_[node] = shared_zero_;
    materialized_.fetch_sub(1, std::memory_order_relaxed);
  }
}

size_t InMemorySketchStore::RamByteSize() const {
  return sizeof(*this) +
         num_nodes() * (sizeof(CowSketch) + sizeof(std::mutex)) +
         (materialized_.load(std::memory_order_relaxed) + 1) *
             zero_.ByteSize();
}

// ---------------- OnDiskSketchStore ------------------------------------

OnDiskSketchStore::OnDiskSketchStore(const NodeSketchParams& params,
                                     std::string path)
    : SketchStore(params),
      path_(std::move(path)),
      record_bytes_(zero_.SerializedSize()),
      locks_(std::make_unique<std::mutex[]>(num_nodes())) {}

OnDiskSketchStore::~OnDiskSketchStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status OnDiskSketchStore::Init() {
  if (fd_ >= 0) return Status::FailedPrecondition("already initialized");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create sketch store file: " + path_);
  }
  // All-zero bytes deserialize to empty sketches, so plain ftruncate
  // initializes every node's region.
  const off_t total = static_cast<off_t>(record_bytes_ * num_nodes());
  if (::ftruncate(fd_, total) != 0) {
    return Status::IoError("cannot preallocate sketch store file");
  }
  return Status::Ok();
}

// Reads `node`'s record into this thread's scratch buffer, under the
// caller's node lock.
uint8_t* OnDiskSketchStore::ReadRecord(NodeId node) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  uint8_t* record = RecordScratch(record_bytes_);
  const ssize_t got = ::pread(fd_, record, record_bytes_,
                              static_cast<off_t>(record_bytes_) * node);
  GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
               "sketch store pread");
  bytes_read_ += record_bytes_;
  return record;
}

void OnDiskSketchStore::WriteRecord(NodeId node, const uint8_t* record) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  ++writes_;
  const ssize_t wrote = ::pwrite(fd_, record, record_bytes_,
                                 static_cast<off_t>(record_bytes_) * node);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
}

void OnDiskSketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < num_nodes() && delta.params() == params());
  std::lock_guard<std::mutex> lock(locks_[node]);
  uint8_t* record = ReadRecord(node);
  // Serialization is XOR-linear: the delta XORs straight into the bytes.
  delta.MergeIntoSerialized(record);
  WriteRecord(node, record);
}

void OnDiskSketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < num_nodes() && out->params() == params());
  std::unique_lock<std::mutex> lock(locks_[node]);
  const uint8_t* record = ReadRecord(node);
  lock.unlock();
  out->DeserializeFrom(record);
}

void OnDiskSketchStore::ReadRounds(NodeId node, int r_lo, int r_hi,
                                   uint8_t* out) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(node < num_nodes() && 0 <= r_lo && r_lo < r_hi &&
           r_hi <= params().rounds);
  const size_t round_bytes = zero_.layout().round_bytes();
  const size_t bytes = round_bytes * static_cast<size_t>(r_hi - r_lo);
  std::lock_guard<std::mutex> lock(locks_[node]);
  const ssize_t got =
      ::pread(fd_, out, bytes,
              static_cast<off_t>(record_bytes_ * node + round_bytes * r_lo));
  GZ_CHECK_MSG(got == static_cast<ssize_t>(bytes), "sketch store pread");
  bytes_read_ += bytes;
}

void OnDiskSketchStore::ReadRound(int round, uint64_t lo, uint64_t hi,
                                  uint8_t* out) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  const SketchLayout& layout = zero_.layout();
  const size_t bytes = layout.round_bytes();
  for (uint64_t i = lo; i < hi; ++i) {
    const ssize_t got = ::pread(
        fd_, out + (i - lo) * layout.round_stride(), bytes,
        static_cast<off_t>(record_bytes_ * i + bytes * round));
    GZ_CHECK_MSG(got == static_cast<ssize_t>(bytes), "sketch store pread");
  }
  bytes_read_ += bytes * (hi - lo);
}

GraphSnapshot OnDiskSketchStore::Capture(uint64_t num_updates) {
  const uint64_t generation = writes_;
  // A summary costs the same one pread per node as its round, so every
  // load is of the whole round.
  return GraphSnapshot::Lazy(
      zero_, num_updates,
      [this, generation](int round, RoundPart, uint64_t block_nodes,
                         const GraphSnapshot::BlockRunner& run,
                         std::vector<uint8_t>* out) {
        const uint64_t n = num_nodes();
        const size_t stride = zero_.layout().round_stride();
        out->resize(n * stride);
        run((n + block_nodes - 1) / block_nodes, [&](size_t b) {
          const uint64_t lo = b * block_nodes;
          ReadRound(round, lo, std::min(lo + block_nodes, n),
                    out->data() + lo * stride);
        });
        GZ_CHECK_MSG(writes_ == generation,
                     "sketch store written under an unsealed capture");
        return Status::Ok();
      });
}

void OnDiskSketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < num_nodes() && sketch.params() == params());
  uint8_t* record = RecordScratch(record_bytes_);
  sketch.SerializeTo(record);
  std::lock_guard<std::mutex> lock(locks_[node]);
  WriteRecord(node, record);
}

size_t OnDiskSketchStore::RamByteSize() const {
  // Only metadata lives in RAM; sketches are on disk.
  return sizeof(*this) + num_nodes() * sizeof(std::mutex);
}

size_t OnDiskSketchStore::DiskByteSize() const {
  return record_bytes_ * num_nodes();
}

}  // namespace gz
