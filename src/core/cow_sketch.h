// CowSketch: a copy-on-write handle to one NodeSketch, the unit of
// sharing between the in-RAM sketch store and the snapshots it hands
// out. Copying a handle shares the sketch (one atomic increment); a
// writer asks for Mutable(), which clones the sketch first only when
// another handle still shares it. So a snapshot costs V increments, and
// a snapshot held while ingestion continues costs one clone per node
// touched, never more.
//
// The uniqueness test is an acquire load of the count, paired with the
// acq_rel decrement of every other holder: a holder that read the
// sketch and then dropped its handle has finished reading before the
// writer that sees the count reach 1 starts writing (Rust's
// Arc::make_mut does the same). No standalone fences, so thread
// sanitizers can see every edge.
//
// A handle object itself is not synchronized: as with any value type,
// two threads touching the same handle need an external lock (the store
// holds its per-node lock). Distinct handles to one sketch need none.
#ifndef GZ_CORE_COW_SKETCH_H_
#define GZ_CORE_COW_SKETCH_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "sketch/node_sketch.h"

namespace gz {

class CowSketch {
 public:
  explicit CowSketch(NodeSketch sketch) : rep_(new Rep(std::move(sketch))) {}

  CowSketch(const CowSketch& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowSketch(CowSketch&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  CowSketch& operator=(CowSketch other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~CowSketch() {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
  }

  const NodeSketch& operator*() const { return rep_->sketch; }
  const NodeSketch* operator->() const { return &rep_->sketch; }

  // The sketch, writable: cloned first if any other handle shares it.
  NodeSketch& Mutable() {
    if (rep_->refs.load(std::memory_order_acquire) != 1) {
      *this = CowSketch(rep_->sketch);
    }
    return rep_->sketch;
  }

 private:
  struct Rep {
    explicit Rep(NodeSketch s) : sketch(std::move(s)) {}
    std::atomic<uint64_t> refs{1};
    NodeSketch sketch;
  };
  Rep* rep_;  // Null only in a moved-from handle.
};

}  // namespace gz

#endif  // GZ_CORE_COW_SKETCH_H_
