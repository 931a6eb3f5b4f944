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
//
// Caller-runs (opt-in): a queue given a BatchRunner hands a push that
// finds the ring full to the runner on the pushing thread, so a
// producer under backpressure applies the batch itself instead of
// sleeping. WorkerPool installs one for the life of its workers. A
// queue without a runner blocks the producer until a slot frees.
#ifndef GZ_BUFFER_WORK_QUEUE_H_
#define GZ_BUFFER_WORK_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "buffer/update_batch.h"

namespace gz {

// Applies a batch on the thread that pushes it (see WorkQueue).
class BatchRunner {
 public:
  // Applies `batch` and releases it to its pool. May be called from
  // several pushing threads at once.
  virtual void Run(UpdateBatch* batch) = 0;

 protected:
  ~BatchRunner() = default;
};

class WorkQueue {
 public:
  explicit WorkQueue(size_t capacity);

  // Returns false if the queue was closed; ownership of the batch then
  // stays with the caller (who should release it back to its pool).
  // Otherwise the batch is consumed: enqueued, or, when the ring is full
  // and a runner is installed, run by the runner on this thread. A
  // caller-run batch never enters the ring or InFlight(). When the ring
  // is full and there is no runner, Push blocks until a slot frees or
  // the queue closes. InFlight() is incremented only when the batch is
  // enqueued, so a rejected push can never strand the drain barrier.
  bool Push(UpdateBatch* batch);

  // Blocks while the queue is empty. Returns the next batch, or nullptr
  // once the queue is closed *and* drained.
  UpdateBatch* Pop();

  // Non-blocking Pop: the next batch, or nullptr if none is queued.
  UpdateBatch* TryPop();

  // After Close(), pushes fail and pops drain the remaining batches.
  void Close();

  // Installs (or, with nullptr, removes) the caller-runs hook. The
  // runner is called without the queue mutex held, and only by a push
  // that found the queue open and full. It must outlive every push that
  // may still be running it when it is removed.
  void SetRunner(BatchRunner* runner);

  size_t ApproxSize();

  // In-flight accounting: a successful enqueue increments; consumers
  // call MarkDone() after fully processing a popped batch. InFlight()
  // therefore counts batches that are queued or currently being
  // applied, which is what a drain barrier needs to wait on.
  void MarkDone() {
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      in_flight_.notify_all();
    }
  }
  int64_t InFlight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  // Blocks until InFlight() reaches zero.
  void WaitIdle() const;

 private:
  UpdateBatch* PopLocked();  // Requires mu_ held and size_ > 0.

  std::atomic<int64_t> in_flight_{0};
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<UpdateBatch*> ring_;  // Fixed capacity, allocated once.
  size_t head_ = 0;                 // Index of the next batch to pop.
  size_t size_ = 0;                 // Batches currently queued.
  size_t capacity_;
  bool closed_ = false;
  BatchRunner* runner_ = nullptr;   // Guarded by mu_.
};

}  // namespace gz

#endif  // GZ_BUFFER_WORK_QUEUE_H_
