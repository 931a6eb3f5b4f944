#include "core/graph_worker.h"

#include "util/check.h"

namespace gz {

WorkerPool::WorkerPool(WorkQueue* queue, BatchPool* batch_pool,
                       SketchStore* store, int num_workers)
    : queue_(queue), batch_pool_(batch_pool), store_(store),
      num_workers_(num_workers) {
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
  UpdateBatch* batch = nullptr;
  while ((batch = queue_->Pop()) != nullptr) {
    Run(batch);
    queue_->MarkDone();
  }
}

void WorkerPool::Run(UpdateBatch* batch) {
  store_->ApplyBatch(batch->node, batch->edge_indices(), batch->count);
  batch_pool_->Release(batch);
}

void WorkerPool::Drain() {
  UpdateBatch* batch = nullptr;
  while ((batch = queue_->TryPop()) != nullptr) {
    Run(batch);
    queue_->MarkDone();
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
