// Bounded MPMC work queue (paper Section 5.1): the buffering system
// produces per-node batches of sketch updates; Graph Workers consume
// them. Capacity is kept moderate (8 batches per worker in the paper)
// so neither side waits long while memory stays bounded.
//
// The queue is a fixed ring of UpdateBatch pointers: Push/Pop move one
// pointer each, so transit through the queue performs no heap
// allocation and no payload copies. Batch slabs themselves are owned by
// a BatchPool; the consumer releases a popped batch back to the pool
// once it has been applied.
#ifndef GZ_BUFFER_WORK_QUEUE_H_
#define GZ_BUFFER_WORK_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "buffer/update_batch.h"

namespace gz {

class WorkQueue {
 public:
  explicit WorkQueue(size_t capacity);

  // Blocks while the queue is full. Returns false if the queue was
  // closed; ownership of the batch then stays with the caller (who
  // should release it back to its pool). On success the queue owns the
  // batch until a consumer pops it. InFlight() is incremented only when
  // the push succeeds, so a rejected push can never strand the drain
  // barrier.
  bool Push(UpdateBatch* batch);

  // Blocks while the queue is empty. Returns the next batch, or nullptr
  // once the queue is closed *and* drained.
  UpdateBatch* Pop();

  // After Close(), pushes fail and pops drain the remaining batches.
  void Close();

  size_t ApproxSize();

  // In-flight accounting: a successful Push() increments; consumers
  // call MarkDone() after fully processing a popped batch. InFlight()
  // therefore counts batches that are queued or currently being
  // applied, which is what a drain barrier needs to wait on.
  void MarkDone() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }
  int64_t InFlight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<int64_t> in_flight_{0};
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<UpdateBatch*> ring_;  // Fixed capacity, allocated once.
  size_t head_ = 0;                 // Index of the next batch to pop.
  size_t size_ = 0;                 // Batches currently queued.
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace gz

#endif  // GZ_BUFFER_WORK_QUEUE_H_
