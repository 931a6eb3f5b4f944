#include "baseline/disk_adjacency_graph.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.h"

namespace gz {

DiskAdjacencyGraph::DiskAdjacencyGraph(const DiskAdjacencyParams& params)
    : params_(params) {
  GZ_CHECK(params_.num_nodes >= 2);
  GZ_CHECK(params_.cache_vertices >= 2);
  if (params_.max_degree == 0) {
    params_.max_degree = static_cast<uint32_t>(params_.num_nodes - 1);
  }
  region_bytes_ = sizeof(uint32_t) +
                  static_cast<size_t>(params_.max_degree) * sizeof(NodeId);
}

DiskAdjacencyGraph::~DiskAdjacencyGraph() {
  if (fd_ >= 0) ::close(fd_);
}

Status DiskAdjacencyGraph::Init() {
  if (fd_ >= 0) return Status::FailedPrecondition("already initialized");
  fd_ = ::open(params_.file_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create adjacency file: " +
                           params_.file_path);
  }
  // Zero-filled regions decode as degree 0.
  const off_t total = static_cast<off_t>(region_bytes_ * params_.num_nodes);
  if (::ftruncate(fd_, total) != 0) {
    return Status::IoError("cannot preallocate adjacency file");
  }
  return Status::Ok();
}

DiskAdjacencyGraph::CacheEntry& DiskAdjacencyGraph::Fetch(NodeId v) {
  auto it = cache_.find(v);
  if (it != cache_.end()) {
    lru_.erase(it->second.lru_pos);
    lru_.push_front(v);
    it->second.lru_pos = lru_.begin();
    return it->second;
  }
  EvictIfNeeded();
  // Load the region from disk.
  CacheEntry entry;
  std::vector<uint8_t> buf(region_bytes_);
  const off_t offset = static_cast<off_t>(region_bytes_) * v;
  const ssize_t got = ::pread(fd_, buf.data(), region_bytes_, offset);
  GZ_CHECK_MSG(got == static_cast<ssize_t>(region_bytes_),
               "adjacency pread");
  bytes_read_ += region_bytes_;
  uint32_t degree;
  std::memcpy(&degree, buf.data(), sizeof(degree));
  GZ_CHECK(degree <= params_.max_degree);
  entry.neighbors.resize(degree);
  // An empty vector's data() may be null, which memcpy must never see.
  if (degree > 0) {
    std::memcpy(entry.neighbors.data(), buf.data() + sizeof(degree),
                degree * sizeof(NodeId));
  }
  lru_.push_front(v);
  entry.lru_pos = lru_.begin();
  return cache_.emplace(v, std::move(entry)).first->second;
}

void DiskAdjacencyGraph::EvictIfNeeded() {
  while (cache_.size() >= params_.cache_vertices) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    GZ_CHECK(it != cache_.end());
    if (it->second.dirty) WriteBack(victim, it->second);
    cache_.erase(it);
  }
}

void DiskAdjacencyGraph::WriteBack(NodeId v, const CacheEntry& entry) {
  std::vector<uint8_t> buf(region_bytes_, 0);
  const uint32_t degree = static_cast<uint32_t>(entry.neighbors.size());
  std::memcpy(buf.data(), &degree, sizeof(degree));
  if (degree > 0) {
    std::memcpy(buf.data() + sizeof(degree), entry.neighbors.data(),
                degree * sizeof(NodeId));
  }
  const off_t offset = static_cast<off_t>(region_bytes_) * v;
  const ssize_t wrote = ::pwrite(fd_, buf.data(), region_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(region_bytes_),
               "adjacency pwrite");
  bytes_written_ += region_bytes_;
}

void DiskAdjacencyGraph::Update(const GraphUpdate& update) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  const NodeId endpoints[2] = {update.edge.u, update.edge.v};
  for (int side = 0; side < 2; ++side) {
    const NodeId self = endpoints[side];
    const NodeId other = endpoints[1 - side];
    CacheEntry& entry = Fetch(self);
    if (update.type == UpdateType::kInsert) {
      GZ_CHECK_MSG(std::find(entry.neighbors.begin(), entry.neighbors.end(),
                             other) == entry.neighbors.end(),
                   "insert of an edge already present");
      GZ_CHECK(entry.neighbors.size() < params_.max_degree);
      entry.neighbors.push_back(other);
    } else {
      auto it =
          std::find(entry.neighbors.begin(), entry.neighbors.end(), other);
      GZ_CHECK_MSG(it != entry.neighbors.end(), "delete of an absent edge");
      *it = entry.neighbors.back();
      entry.neighbors.pop_back();
    }
    entry.dirty = true;
  }
  if (update.type == UpdateType::kInsert) {
    ++num_edges_;
  } else {
    --num_edges_;
  }
}

ConnectivityResult DiskAdjacencyGraph::ConnectedComponents() {
  ConnectivityResult result;
  result.component_of.assign(params_.num_nodes, 0);
  std::vector<bool> visited(params_.num_nodes, false);
  std::deque<NodeId> frontier;
  for (NodeId start = 0; start < params_.num_nodes; ++start) {
    if (visited[start]) continue;
    ++result.num_components;
    visited[start] = true;
    result.component_of[start] = start;
    frontier.push_back(start);
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      // Copy the neighbor list: BFS fetches evict cache entries.
      const std::vector<NodeId> neighbors = Fetch(cur).neighbors;
      for (const NodeId next : neighbors) {
        if (visited[next]) continue;
        visited[next] = true;
        result.component_of[next] = start;
        result.spanning_forest.push_back(Edge(cur, next));
        frontier.push_back(next);
      }
    }
  }
  return result;
}

size_t DiskAdjacencyGraph::RamByteSize() const {
  size_t total = sizeof(*this);
  for (const auto& [node, entry] : cache_) {
    total += sizeof(node) + sizeof(entry) +
             entry.neighbors.capacity() * sizeof(NodeId);
  }
  total += lru_.size() * (sizeof(NodeId) + 2 * sizeof(void*));
  return total;
}

size_t DiskAdjacencyGraph::DiskByteSize() const {
  return region_bytes_ * params_.num_nodes;
}

}  // namespace gz
