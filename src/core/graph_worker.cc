#include "core/graph_worker.h"

#include "util/check.h"

namespace gz {

WorkerPool::WorkerPool(WorkQueue* queue, BatchPool* batch_pool,
                       SketchStore* store, int num_workers)
    : queue_(queue), batch_pool_(batch_pool), store_(store),
      num_workers_(num_workers), caller_delta_(store->params()) {
  GZ_CHECK(queue_ != nullptr && batch_pool_ != nullptr && store_ != nullptr);
  GZ_CHECK(num_workers_ >= 1);
}

WorkerPool::~WorkerPool() { Stop(); }

void WorkerPool::Start() {
  GZ_CHECK_MSG(!started_, "pool already started");
  started_ = true;
  queue_->SetRunner(this);
  threads_.reserve(num_workers_);
  for (int i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void WorkerPool::WorkerLoop() {
  // Reusable delta sketch: cleared per batch, so the allocation cost is
  // paid once per worker, not per batch.
  NodeSketch delta(store_->params());
  UpdateBatch* batch = nullptr;
  while ((batch = queue_->Pop()) != nullptr) {
    Apply(batch, &delta);
    queue_->MarkDone();
  }
}

void WorkerPool::Apply(UpdateBatch* batch, NodeSketch* delta) {
  delta->Clear();
  delta->UpdateBatch(batch->edge_indices(), batch->count);
  store_->MergeDelta(batch->node, *delta);
  batch_pool_->Release(batch);
}

bool WorkerPool::TryRun(UpdateBatch* batch) {
  std::unique_lock<std::mutex> lock(caller_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  Apply(batch, &caller_delta_);
  return true;
}

void WorkerPool::Drain() {
  {
    std::unique_lock<std::mutex> lock(caller_mu_, std::try_to_lock);
    UpdateBatch* batch = nullptr;
    while (lock.owns_lock() && (batch = queue_->TryPop()) != nullptr) {
      Apply(batch, &caller_delta_);
      queue_->MarkDone();
    }
  }
  queue_->WaitIdle();
}

void WorkerPool::Stop() {
  if (!started_) return;
  queue_->SetRunner(nullptr);
  queue_->Close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  started_ = false;
}

}  // namespace gz
