#include "buffer/work_queue.h"

#include "util/check.h"

namespace gz {

WorkQueue::WorkQueue(size_t capacity)
    : ring_(capacity, nullptr), capacity_(capacity) {
  GZ_CHECK(capacity >= 1);
}

bool WorkQueue::Push(UpdateBatch* batch) {
  GZ_CHECK(batch != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  if (!closed_ && size_ == capacity_ && runner_ != nullptr) {
    BatchRunner* runner = runner_;
    lock.unlock();
    runner->Run(batch);
    return true;
  }
  not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
  // The closed check must come before any accounting: a batch rejected
  // here is handed back to the caller, so bumping in_flight_ for it
  // would deadlock a later Drain barrier.
  if (closed_) return false;
  ring_[(head_ + size_) % capacity_] = batch;
  ++size_;
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

UpdateBatch* WorkQueue::PopLocked() {
  UpdateBatch* batch = ring_[head_];
  ring_[head_] = nullptr;
  head_ = (head_ + 1) % capacity_;
  --size_;
  return batch;
}

UpdateBatch* WorkQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
  if (size_ == 0) return nullptr;  // Closed and drained.
  UpdateBatch* batch = PopLocked();
  lock.unlock();
  not_full_.notify_one();
  return batch;
}

UpdateBatch* WorkQueue::TryPop() {
  std::unique_lock<std::mutex> lock(mu_);
  if (size_ == 0) return nullptr;
  UpdateBatch* batch = PopLocked();
  lock.unlock();
  not_full_.notify_one();
  return batch;
}

void WorkQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

void WorkQueue::SetRunner(BatchRunner* runner) {
  std::lock_guard<std::mutex> lock(mu_);
  runner_ = runner;
}

size_t WorkQueue::ApproxSize() {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

void WorkQueue::WaitIdle() const {
  int64_t n;
  while ((n = in_flight_.load(std::memory_order_acquire)) > 0) {
    in_flight_.wait(n, std::memory_order_acquire);
  }
}

}  // namespace gz
