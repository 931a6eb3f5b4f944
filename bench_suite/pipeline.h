// GraphZeppelin's ingest pipeline rebuilt from the library's public
// parts, with spans around every layer call.
//
// GraphZeppelin::Init wires BatchPool -> gutters -> WorkQueue -> Graph
// Workers -> SketchStore and runs the worker loop inside the library,
// where the benchmark cannot see it. TracedPipeline builds the same
// pipeline, with the same sizes, from the same public constructors and
// runs its own copy of the worker loop, so each Pop, sketch-kernel call
// and store merge gets a span. It offers the part of GraphZeppelin's
// interface the suite's passes use, so one pass function runs both. The
// suite requires its final snapshot to equal GraphZeppelin's bitwise for
// the same stream before it reports a single per-layer number.
#ifndef GZ_BENCH_SUITE_PIPELINE_H_
#define GZ_BENCH_SUITE_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/gutter_tree.h"
#include "buffer/guttering_system.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "core/sketch_store.h"
#include "trace.h"
#include "util/status.h"

namespace gz::bench_suite {

class TracedPipeline {
 public:
  // Work counts of one pipeline's life, read after the pass.
  struct Counters {
    uint64_t batches = 0;
    uint64_t node_updates = 0;
    uint32_t slab_capacity = 0;
    uint64_t tree_bytes_written = 0;
    uint64_t tree_bytes_read = 0;
    uint64_t store_bytes_read = 0;
    uint64_t store_bytes_written = 0;
  };

  // Worker spans go to logs named worker-<i> of (workload, pass).
  TracedPipeline(const GraphZeppelinConfig& config, Tracer* tracer,
                 const std::string& workload, int pass);
  ~TracedPipeline();
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  Status Init();

  // The GraphZeppelin calls of the same names, minus its API-boundary
  // span buffer, which the bulk Update() path bypasses anyway.
  void Update(const GraphUpdate* updates, size_t count);
  void Flush();
  GraphSnapshot Snapshot();
  size_t RamByteSize() const;
  size_t DiskByteSize() const;

  Counters counters() const;

 private:
  void WorkerLoop(Tracer::Log* log);

  GraphZeppelinConfig config_;
  Tracer* tracer_;
  std::string workload_;
  int pass_;
  std::string tree_path_;
  std::string store_path_;
  uint64_t num_updates_ = 0;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> node_updates_{0};

  // Same order as GraphZeppelin's members: gutters hold slabs, so they
  // are destroyed before the pool.
  std::unique_ptr<WorkQueue> queue_;
  std::unique_ptr<BatchPool> batch_pool_;
  std::unique_ptr<SketchStore> store_;
  std::unique_ptr<GutteringSystem> gutters_;
  GutterTree* tree_ = nullptr;              // gutters_, when a tree.
  OnDiskSketchStore* disk_store_ = nullptr;  // store_, when on disk.
  std::vector<std::thread> workers_;
};

}  // namespace gz::bench_suite

#endif  // GZ_BENCH_SUITE_PIPELINE_H_
