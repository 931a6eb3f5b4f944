// Graph Workers (paper Section 5.1): a pool of threads that pop
// per-node pooled batches from the work queue, sketch each batch into a
// private delta NodeSketch, and XOR-merge the delta into the store.
// Sketching the batch needs no lock (linearity); only the final merge
// synchronizes, which is the paper's small-critical-section trick.
//
// Each worker keeps one reusable delta sketch for its whole life and
// returns every consumed slab to the BatchPool, so the apply path does
// no heap allocation in steady state.
#ifndef GZ_CORE_GRAPH_WORKER_H_
#define GZ_CORE_GRAPH_WORKER_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "core/sketch_store.h"

namespace gz {

class WorkerPool {
 public:
  // `queue`, `batch_pool` and `store` must outlive the pool.
  WorkerPool(WorkQueue* queue, BatchPool* batch_pool, SketchStore* store,
             int num_workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start();

  // Blocks until the queue is empty and no worker is mid-batch. The
  // producer must have stopped pushing (e.g. after ForceFlush) for this
  // to be meaningful.
  void Drain();

  // Closes the queue and joins all workers. Called automatically by the
  // destructor.
  void Stop();

 private:
  void WorkerLoop();

  WorkQueue* queue_;
  BatchPool* batch_pool_;
  SketchStore* store_;
  int num_workers_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_WORKER_H_
