// Graph Workers (paper Section 5.1): a pool of threads that pop
// per-node pooled batches from the work queue, sketch each batch into a
// private delta NodeSketch, and XOR-merge the delta into the store.
// Sketching the batch needs no lock (linearity); only the final merge
// synchronizes, which is the paper's small-critical-section trick.
//
// Each worker keeps one reusable delta sketch for its whole life and
// returns every consumed slab to the BatchPool, so the apply path does
// no heap allocation in steady state.
//
// Caller-runs: while the pool is started it is the queue's BatchRunner.
// A producer whose push finds the queue full (gutter or tree emission
// under backpressure in Update, GutteringSystem::ForceFlush in Flush)
// applies that batch itself, through the same delta-then-merge path,
// instead of sleeping; Drain applies what is still queued on the
// calling thread before it waits. The caller side has one delta sketch,
// allocated once and guarded by a try-lock: a second concurrent pusher
// falls back to the queue's blocking wait. So num_workers Graph Workers
// run throughout, plus the caller while it would otherwise block.
#ifndef GZ_CORE_GRAPH_WORKER_H_
#define GZ_CORE_GRAPH_WORKER_H_

#include <cstdint>
#include <mutex>
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
  // The one apply routine: sketch `batch` into `delta`, merge it into
  // the store and release the slab.
  void Apply(UpdateBatch* batch, NodeSketch* delta);
  bool TryRun(UpdateBatch* batch) override;

  WorkQueue* queue_;
  BatchPool* batch_pool_;
  SketchStore* store_;
  int num_workers_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  std::mutex caller_mu_;     // Try-locked by the caller-runs paths.
  NodeSketch caller_delta_;  // Guarded by caller_mu_.
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_WORKER_H_
