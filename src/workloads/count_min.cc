#include "workloads/count_min.h"

#include <algorithm>

#include "util/check.h"

namespace gz {
namespace {

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

// ---- CountMinSketch --------------------------------------------------------

CountMinSketch::CountMinSketch(const CountMinParams& params)
    : params_(params) {
  GZ_CHECK_MSG(IsPowerOfTwo(params_.width) && params_.width <= kMaxWidth,
               "CM width must be a power of two");
  GZ_CHECK_MSG(params_.depth >= 1 && params_.depth <= kMaxDepth,
               "CM depth out of range");
  rows_.reserve(params_.depth);
  for (uint32_t d = 0; d < params_.depth; ++d) {
    // Per-row seeds derived deterministically, so same-params sketches
    // hash identically (the precondition of exact merging).
    rows_.emplace_back(params_.seed * 0x9e3779b97f4a7c15ull + d + 1, 2);
  }
  counters_.assign(static_cast<size_t>(params_.depth) * params_.width, 0);
}

void CountMinSketch::Add(uint64_t key, int64_t delta) {
  GZ_CHECK_MSG(valid(), "Add on an invalid CountMinSketch");
  const uint32_t mask = params_.width - 1;
  for (uint32_t d = 0; d < params_.depth; ++d) {
    const size_t col = static_cast<size_t>(rows_[d].Hash(key)) & mask;
    counters_[static_cast<size_t>(d) * params_.width + col] += delta;
  }
}

int64_t CountMinSketch::Estimate(uint64_t key) const {
  GZ_CHECK_MSG(valid(), "Estimate on an invalid CountMinSketch");
  const uint32_t mask = params_.width - 1;
  int64_t best = INT64_MAX;
  for (uint32_t d = 0; d < params_.depth; ++d) {
    const size_t col = static_cast<size_t>(rows_[d].Hash(key)) & mask;
    best = std::min(best,
                    counters_[static_cast<size_t>(d) * params_.width + col]);
  }
  return best;
}

Status CountMinSketch::Merge(const CountMinSketch& other) {
  if (!valid() || !other.valid() || !(params_ == other.params_)) {
    return Status::InvalidArgument(
        "count-min merge requires matching geometry and seed");
  }
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  return Status::Ok();
}

// ---- HeavyHitterSketch::KeySet ---------------------------------------------

void HeavyHitterSketch::KeySet::Reset(size_t cap) {
  capacity = cap;
  // Slot count: power of two >= 2 * capacity, so the load factor stays
  // below 1/2 and probe chains stay short.
  size_t n = 16;
  while (n < cap * 2) n <<= 1;
  slots.assign(n, kEmpty);
  size = 0;
}

bool HeavyHitterSketch::KeySet::Admit(uint64_t key) {
  GZ_CHECK_MSG(key != kEmpty, "key collides with the empty sentinel");
  const size_t mask = slots.size() - 1;
  // Fibonacci scramble: keys are structured (small ints, triangular
  // indices), the probe sequence must not be.
  size_t i = (key * 0x9e3779b97f4a7c15ull) & mask;
  while (slots[i] != kEmpty) {
    if (slots[i] == key) return true;
    i = (i + 1) & mask;
  }
  if (size >= capacity) return false;
  slots[i] = key;
  ++size;
  return true;
}

std::vector<uint64_t> HeavyHitterSketch::KeySet::SortedKeys() const {
  std::vector<uint64_t> keys;
  keys.reserve(size);
  for (const uint64_t slot : slots) {
    if (slot != kEmpty) keys.push_back(slot);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---- HeavyHitterSketch -----------------------------------------------------

CountMinParams HeavyHitterSketch::GridParams(uint64_t salt) const {
  CountMinParams p;
  p.seed = params_.seed ^ salt;
  p.width = params_.width;
  p.depth = params_.depth;
  return p;
}

HeavyHitterSketch::HeavyHitterSketch(const HeavyHitterParams& params)
    : params_(params) {
  GZ_CHECK_MSG(params_.num_nodes >= 2, "need at least two nodes");
  GZ_CHECK_MSG(params_.candidates >= 1 &&
                   params_.candidates <= kMaxCandidates,
               "candidate capacity out of range");
  edge_grid_ = CountMinSketch(GridParams(0x65646765));    // "edge"
  degree_grid_ = CountMinSketch(GridParams(0x64656772));  // "degr"
  edge_keys_.Reset(params_.candidates);
  degree_keys_.Reset(params_.candidates);
}

void HeavyHitterSketch::Update(const GraphUpdate* updates, size_t count) {
  GZ_CHECK_MSG(valid(), "Update on an invalid HeavyHitterSketch");
  for (size_t i = 0; i < count; ++i) {
    const GraphUpdate& u = updates[i];
    const int64_t delta = u.type == UpdateType::kInsert ? 1 : -1;
    const uint64_t edge_key = EdgeToIndex(u.edge, params_.num_nodes);
    edge_grid_.Add(edge_key, delta);
    degree_grid_.Add(u.edge.u, delta);
    degree_grid_.Add(u.edge.v, delta);
    if (!edge_keys_.Admit(edge_key)) edge_saturated_ = true;
    if (!degree_keys_.Admit(u.edge.u)) degree_saturated_ = true;
    if (!degree_keys_.Admit(u.edge.v)) degree_saturated_ = true;
    ++updates_;
  }
}

int64_t HeavyHitterSketch::EdgeCount(const Edge& e) const {
  GZ_CHECK_MSG(valid(), "query on an invalid HeavyHitterSketch");
  return edge_grid_.Estimate(EdgeToIndex(e, params_.num_nodes));
}

int64_t HeavyHitterSketch::DegreeCount(NodeId node) const {
  GZ_CHECK_MSG(valid(), "query on an invalid HeavyHitterSketch");
  return degree_grid_.Estimate(node);
}

namespace {

std::vector<HeavyHitterEntry> RankTop(const std::vector<uint64_t>& keys,
                                      const CountMinSketch& grid, size_t k) {
  std::vector<HeavyHitterEntry> entries;
  entries.reserve(keys.size());
  for (const uint64_t key : keys) {
    entries.push_back({key, grid.Estimate(key)});
  }
  // Count descending, key ascending: a total order, so ranking is
  // deterministic across merge orders and shard layouts.
  const auto before = [](const HeavyHitterEntry& a,
                         const HeavyHitterEntry& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  };
  if (entries.size() > k) {
    std::partial_sort(entries.begin(), entries.begin() + k, entries.end(),
                      before);
    entries.resize(k);
  } else {
    std::sort(entries.begin(), entries.end(), before);
  }
  return entries;
}

}  // namespace

std::vector<HeavyHitterEntry> HeavyHitterSketch::TopEdges(size_t k) const {
  GZ_CHECK_MSG(valid(), "query on an invalid HeavyHitterSketch");
  return RankTop(edge_keys_.SortedKeys(), edge_grid_, k);
}

std::vector<HeavyHitterEntry> HeavyHitterSketch::TopDegrees(size_t k) const {
  GZ_CHECK_MSG(valid(), "query on an invalid HeavyHitterSketch");
  return RankTop(degree_keys_.SortedKeys(), degree_grid_, k);
}

Status HeavyHitterSketch::Merge(const HeavyHitterSketch& other) {
  if (!valid() || !other.valid() || !(params_ == other.params_)) {
    return Status::InvalidArgument(
        "heavy-hitter merge requires matching params");
  }
  Status s = edge_grid_.Merge(other.edge_grid_);
  if (!s.ok()) return s;
  s = degree_grid_.Merge(other.degree_grid_);
  if (!s.ok()) return s;
  // Candidate union. The merged set may exceed the admission cap —
  // grow it rather than dropping keys, so a coordinator fold never
  // loses a candidate either shard held (this runs on the query path,
  // where allocation is fine).
  auto fold_keys = [](KeySet* into, const KeySet& from) {
    const std::vector<uint64_t> keys = from.SortedKeys();
    if (into->size + keys.size() > into->capacity) {
      KeySet grown;
      grown.Reset(into->size + keys.size());
      for (const uint64_t key : into->SortedKeys()) grown.Admit(key);
      *into = std::move(grown);
    }
    for (const uint64_t key : keys) into->Admit(key);
  };
  fold_keys(&edge_keys_, other.edge_keys_);
  fold_keys(&degree_keys_, other.degree_keys_);
  edge_saturated_ = edge_saturated_ || other.edge_saturated_;
  degree_saturated_ = degree_saturated_ || other.degree_saturated_;
  updates_ += other.updates_;
  return Status::Ok();
}

bool operator==(const HeavyHitterSketch& a, const HeavyHitterSketch& b) {
  // Candidate tables compare as sorted key lists: a merged table may be
  // larger, and lay its keys out differently, than a single-stream one.
  return a.params_ == b.params_ && a.updates_ == b.updates_ &&
         a.edge_grid_.counters() == b.edge_grid_.counters() &&
         a.degree_grid_.counters() == b.degree_grid_.counters() &&
         a.edge_keys_.SortedKeys() == b.edge_keys_.SortedKeys() &&
         a.degree_keys_.SortedKeys() == b.degree_keys_.SortedKeys() &&
         a.edge_saturated_ == b.edge_saturated_ &&
         a.degree_saturated_ == b.degree_saturated_;
}

}  // namespace gz
