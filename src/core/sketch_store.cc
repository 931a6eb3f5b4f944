#include "core/sketch_store.h"

#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.h"

namespace gz {

CowSketch SketchStore::Share(NodeId node) {
  NodeSketch sketch(params_);
  Load(node, &sketch);
  return CowSketch(std::move(sketch));
}

// ---------------- InMemorySketchStore ---------------------------------

InMemorySketchStore::InMemorySketchStore(const NodeSketchParams& params)
    : SketchStore(params) {
  // One sketch per node, never shared at birth: ingestion merges in
  // place until a snapshot takes a reference.
  sketches_.reserve(params.num_nodes);
  for (uint64_t i = 0; i < params.num_nodes; ++i) {
    sketches_.emplace_back(NodeSketch(params));
  }
  // Normalize params_ (rounds may have been auto-filled).
  params_ = sketches_.front()->params();
  node_bytes_ = sketches_.front()->ByteSize();
  locks_ = std::make_unique<std::mutex[]>(params.num_nodes);
}

void InMemorySketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketches_[node].Mutable().Merge(delta);
}

void InMemorySketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  *out = *sketches_[node];
}

CowSketch InMemorySketchStore::Share(NodeId node) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  return sketches_[node];
}

void InMemorySketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK(sketch.params() == params_);
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketches_[node].Mutable() = sketch;
}

size_t InMemorySketchStore::RamByteSize() const {
  return sizeof(*this) + params_.num_nodes * (node_bytes_ + sizeof(std::mutex));
}

// ---------------- OnDiskSketchStore ------------------------------------

OnDiskSketchStore::OnDiskSketchStore(const NodeSketchParams& params,
                                     std::string path)
    : SketchStore(params), path_(std::move(path)) {
  // Normalize params (auto rounds) by building one prototype sketch.
  NodeSketch prototype(params_);
  params_ = prototype.params();
  record_bytes_ = prototype.SerializedSize();
  locks_ = std::make_unique<std::mutex[]>(params_.num_nodes);
}

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
  const off_t total =
      static_cast<off_t>(record_bytes_ * params_.num_nodes);
  if (::ftruncate(fd_, total) != 0) {
    return Status::IoError("cannot preallocate sketch store file");
  }
  return Status::Ok();
}

void OnDiskSketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  // Serialize the delta outside the lock; CubeSketch serialization is
  // XOR-linear, so merging is a bytewise XOR of the two blobs.
  std::vector<uint8_t> delta_buf(record_bytes_);
  delta.SerializeTo(delta_buf.data());

  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  std::lock_guard<std::mutex> lock(locks_[node]);
  std::vector<uint8_t> disk_buf(record_bytes_);
  ssize_t got = ::pread(fd_, disk_buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
               "sketch store pread");
  bytes_read_ += record_bytes_;

  // XOR word-wise (the blob is a multiple of 4 bytes by construction).
  uint8_t* dst = disk_buf.data();
  const uint8_t* src = delta_buf.data();
  size_t i = 0;
  for (; i + 8 <= record_bytes_; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < record_bytes_; ++i) dst[i] ^= src[i];

  ssize_t wrote = ::pwrite(fd_, disk_buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
}

void OnDiskSketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(out->SerializedSize() == record_bytes_);
  std::vector<uint8_t> buf(record_bytes_);
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  {
    std::lock_guard<std::mutex> lock(locks_[node]);
    ssize_t got = ::pread(fd_, buf.data(), record_bytes_, offset);
    GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
                 "sketch store pread");
  }
  bytes_read_ += record_bytes_;
  out->DeserializeFrom(buf.data());
}

void OnDiskSketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(sketch.SerializedSize() == record_bytes_);
  std::vector<uint8_t> buf(record_bytes_);
  sketch.SerializeTo(buf.data());
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  std::lock_guard<std::mutex> lock(locks_[node]);
  ssize_t wrote = ::pwrite(fd_, buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
}

size_t OnDiskSketchStore::RamByteSize() const {
  // Only metadata lives in RAM; sketches are on disk.
  return sizeof(*this) + params_.num_nodes * sizeof(std::mutex);
}

size_t OnDiskSketchStore::DiskByteSize() const {
  return record_bytes_ * params_.num_nodes;
}

}  // namespace gz
