// Graph Workers (paper Section 5.1): a pool of threads that pop
// per-node pooled batches from the work queue and apply each one to the
// store with SketchStore::ApplyBatch, which locks only that node. The
// in-RAM store runs the sketch kernel straight into the node's sketch;
// the on-disk store sketches into a per-thread delta and XORs it into
// the node's record. Every consumed slab goes back to the BatchPool, so
// the apply path does no heap allocation in steady state.
//
// Caller-runs: while the pool is started it is the queue's BatchRunner.
// A producer whose push finds the queue full (gutter or tree emission
// under backpressure in Update, GutteringSystem::ForceFlush in Flush)
// applies that batch itself, through the same Run, instead of sleeping;
// Drain applies what is still queued on the calling thread before it
// waits. So num_workers Graph Workers run throughout, plus every pusher
// while it would otherwise block.
#ifndef GZ_CORE_GRAPH_WORKER_H_
#define GZ_CORE_GRAPH_WORKER_H_

#include <thread>
#include <vector>

#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "core/sketch_store.h"

namespace gz {

class WorkerPool : private BatchRunner {
 public:
  // `queue`, `batch_pool` and `store` must outlive the pool.
  WorkerPool(WorkQueue* queue, BatchPool* batch_pool, SketchStore* store,
             int num_workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start();

  // Applies still-queued batches on the calling thread, then blocks
  // until no batch is queued or mid-apply. The producer must have
  // stopped pushing (e.g. after ForceFlush) for this to be meaningful.
  void Drain();

  // Removes the caller-runs hook, closes the queue and joins all
  // workers. Called automatically by the destructor.
  void Stop();

 private:
  void WorkerLoop();
  // The one apply routine: ApplyBatch into the store, release the slab.
  void Run(UpdateBatch* batch) override;

  WorkQueue* queue_;
  BatchPool* batch_pool_;
  SketchStore* store_;
  int num_workers_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_WORKER_H_
