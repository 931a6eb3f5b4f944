#include "workloads/window_ingestor.h"

#include "util/check.h"

namespace gz {
namespace {

// Emitted updates buffered before the sink is invoked.
constexpr size_t kEmitSpan = 1024;

size_t NextPow2(size_t x) {
  size_t n = 16;
  while (n < x) n <<= 1;
  return n;
}

}  // namespace

WindowIngestor::WindowIngestor(const WindowIngestorParams& params, Sink sink)
    : params_(params), sink_(std::move(sink)) {
  GZ_CHECK_MSG(params_.num_nodes >= 2, "need at least two nodes");
  GZ_CHECK_MSG(params_.window >= 1, "window must hold at least one update");
  GZ_CHECK_MSG(sink_ != nullptr, "window ingestor needs a sink");
  ring_.resize(params_.window);
  // At most W distinct edges are live; 4x slots keeps probes short.
  presence_.resize(NextPow2(params_.window * 4));
  presence_mask_ = presence_.size() - 1;
  emit_.reserve(kEmitSpan);
}

WindowIngestor::Slot* WindowIngestor::FindSlot(uint64_t key) {
  size_t i = (key * 0x9e3779b97f4a7c15ull) & presence_mask_;
  while (presence_[i].used) {
    if (presence_[i].key == key) return &presence_[i];
    i = (i + 1) & presence_mask_;
  }
  presence_[i].key = key;
  presence_[i].count = 0;
  presence_[i].used = true;
  return &presence_[i];
}

void WindowIngestor::Emit(const Edge& e, UpdateType type) {
  emit_.push_back({e, type});
  if (emit_.size() >= kEmitSpan) Flush();
}

void WindowIngestor::ExpireOldest() {
  const size_t oldest = (ring_head_ + params_.window - ring_count_) %
                        params_.window;
  const Edge e = ring_[oldest];
  --ring_count_;
  Slot* slot = FindSlot(EdgeToIndex(e, params_.num_nodes));
  GZ_CHECK_MSG(slot->count >= 1, "expiring an edge with no presence");
  if (--slot->count == 0) {
    --live_edges_;
    Emit(e, UpdateType::kDelete);
    // Linear-probing deletion (backward shift): the slot must be freed
    // — a long stream touches unboundedly many distinct edges, and
    // dead entries would otherwise fill the fixed table.
    size_t i = static_cast<size_t>(slot - presence_.data());
    size_t j = i;
    while (true) {
      presence_[i].used = false;
      size_t home;
      do {
        j = (j + 1) & presence_mask_;
        if (!presence_[j].used) return;
        home = (presence_[j].key * 0x9e3779b97f4a7c15ull) & presence_mask_;
      } while (i <= j ? (i < home && home <= j) : (i < home || home <= j));
      presence_[i] = presence_[j];
      i = j;
    }
  }
}

void WindowIngestor::Observe(const Edge& e) {
  GZ_CHECK_MSG(e.u < e.v && e.v < params_.num_nodes, "u < v && v < num_nodes");
  if (ring_count_ == params_.window) ExpireOldest();
  Slot* slot = FindSlot(EdgeToIndex(e, params_.num_nodes));
  if (slot->count == 0) {
    ++live_edges_;
    Emit(e, UpdateType::kInsert);
  }
  ++slot->count;
  ring_[ring_head_] = e;
  ring_head_ = (ring_head_ + 1) % params_.window;
  ++ring_count_;
  ++observations_;
}

void WindowIngestor::Observe(const Edge* edges, size_t count) {
  for (size_t i = 0; i < count; ++i) Observe(edges[i]);
}

void WindowIngestor::Flush() {
  if (emit_.empty()) return;
  sink_(emit_.data(), emit_.size());
  emit_.clear();  // Keeps capacity: no realloc on refill.
}

}  // namespace gz
