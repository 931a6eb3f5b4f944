#include "pipeline.h"

#include <algorithm>
#include <chrono>

#include <unistd.h>

#include "buffer/leaf_gutters.h"
#include "sketch/node_sketch.h"

namespace gz::bench_suite {

namespace {

std::string WorkFile(const std::string& dir, const char* stem, int pass) {
  static std::atomic<int> counter{0};
  return dir + "/" + stem + "_p" + std::to_string(::getpid()) + "_" +
         std::to_string(pass) + "_" + std::to_string(counter.fetch_add(1)) +
         ".bin";
}

}  // namespace

TracedPipeline::TracedPipeline(const GraphZeppelinConfig& config,
                               Tracer* tracer, const std::string& workload,
                               int pass)
    : config_(config), tracer_(tracer), workload_(workload), pass_(pass) {}

TracedPipeline::~TracedPipeline() {
  if (queue_ != nullptr) queue_->Close();
  for (std::thread& t : workers_) t.join();
  if (!tree_path_.empty()) ::unlink(tree_path_.c_str());
  if (!store_path_.empty()) ::unlink(store_path_.c_str());
}

// Every size below is computed exactly as GraphZeppelin::Init computes
// it; the snapshot-equality check catches any drift.
Status TracedPipeline::Init() {
  NodeSketchParams sp;
  sp.num_nodes = config_.num_nodes;
  sp.seed = config_.seed;
  sp.cols = config_.cols;
  sp.rounds = config_.rounds;
  if (config_.storage == GraphZeppelinConfig::Storage::kRam) {
    store_ = std::make_unique<InMemorySketchStore>(sp);
  } else {
    store_path_ = WorkFile(config_.disk_dir, "bench_suite_sketches", pass_);
    auto disk = std::make_unique<OnDiskSketchStore>(sp, store_path_);
    Status s = disk->Init();
    if (!s.ok()) return s;
    disk_store_ = disk.get();
    store_ = std::move(disk);
  }
  const size_t sketch_bytes = NodeSketch(store_->params()).ByteSize();
  queue_ = std::make_unique<WorkQueue>(static_cast<size_t>(8) *
                                       config_.num_workers);
  const size_t gutter_updates = std::max<size_t>(
      1, static_cast<size_t>(config_.gutter_fraction *
                             static_cast<double>(sketch_bytes)) /
             sizeof(uint64_t));
  batch_pool_ =
      std::make_unique<BatchPool>(static_cast<uint32_t>(gutter_updates));
  if (config_.buffering == GraphZeppelinConfig::Buffering::kLeafOnly) {
    LeafGuttersParams lp;
    lp.num_nodes = config_.num_nodes;
    lp.gutter_capacity = gutter_updates;
    lp.nodes_per_group = config_.nodes_per_gutter_group;
    gutters_ =
        std::make_unique<LeafGutters>(lp, batch_pool_.get(), queue_.get());
  } else {
    tree_path_ = WorkFile(config_.disk_dir, "bench_suite_tree", pass_);
    GutterTreeParams tp;
    tp.num_nodes = config_.num_nodes;
    tp.file_path = tree_path_;
    tp.buffer_bytes = config_.gutter_tree_buffer_bytes;
    tp.fanout = config_.gutter_tree_fanout;
    tp.leaf_gutter_updates = gutter_updates;
    tp.nodes_per_group = config_.nodes_per_gutter_group;
    auto tree =
        std::make_unique<GutterTree>(tp, batch_pool_.get(), queue_.get());
    Status s = tree->Init();
    if (!s.ok()) return s;
    tree_ = tree.get();
    gutters_ = std::move(tree);
  }
  for (int i = 0; i < config_.num_workers; ++i) {
    Tracer::Log* log =
        tracer_->NewLog("worker-" + std::to_string(i), workload_, pass_);
    workers_.emplace_back([this, log] { WorkerLoop(log); });
  }
  return Status::Ok();
}

// WorkerPool::WorkerLoop with a span around each layer call.
void TracedPipeline::WorkerLoop(Tracer::Log* log) {
  ScopedSpan root(log, "worker");
  NodeSketch delta(store_->params());
  while (true) {
    UpdateBatch* batch = nullptr;
    {
      ScopedSpan span(log, "buffer.queue_wait");
      batch = queue_->Pop();
    }
    if (batch == nullptr) break;
    {
      ScopedSpan span(log, "sketch.update");
      delta.Clear();
      delta.UpdateBatch(batch->edge_indices(), batch->count);
    }
    {
      ScopedSpan span(log, "core.store_merge");
      store_->MergeDelta(batch->node, delta);
    }
    node_updates_.fetch_add(batch->count, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_pool_->Release(batch);
    queue_->MarkDone();
  }
}

void TracedPipeline::Update(const GraphUpdate* updates, size_t count) {
  gutters_->InsertBatch(updates, count);
  num_updates_ += count;
}

// GraphZeppelin::Flush: ForceFlush, then WorkerPool::Drain's poll.
void TracedPipeline::Flush() {
  gutters_->ForceFlush();
  while (queue_->InFlight() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

GraphSnapshot TracedPipeline::Snapshot() {
  Flush();
  std::vector<NodeSketch> sketches;
  sketches.reserve(config_.num_nodes);
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    sketches.emplace_back(store_->params());
    store_->Load(i, &sketches.back());
  }
  return GraphSnapshot(std::move(sketches), num_updates_);
}

size_t TracedPipeline::RamByteSize() const {
  return store_->RamByteSize() + batch_pool_->RamByteSize() +
         gutters_->RamByteSize();
}

size_t TracedPipeline::DiskByteSize() const {
  return store_->DiskByteSize() + gutters_->DiskByteSize();
}

TracedPipeline::Counters TracedPipeline::counters() const {
  Counters c;
  c.batches = batches_.load();
  c.node_updates = node_updates_.load();
  c.slab_capacity = batch_pool_->slab_capacity();
  if (tree_ != nullptr) {
    c.tree_bytes_written = tree_->bytes_written();
    c.tree_bytes_read = tree_->bytes_read();
  }
  if (disk_store_ != nullptr) {
    c.store_bytes_read = disk_store_->bytes_read();
    c.store_bytes_written = disk_store_->bytes_written();
  }
  return c;
}

}  // namespace gz::bench_suite
