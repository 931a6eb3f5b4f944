#include "core/graph_zeppelin.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include <unistd.h>

#include "buffer/gutter_tree.h"
#include "buffer/leaf_gutters.h"
#include "util/check.h"

namespace gz {
namespace {

// Backing-file names combine seed and PID so two processes sharing one
// disk_dir cannot clobber each other, plus a process-wide counter so two
// same-seed instances in one process (e.g. thread: shards, or a test
// creating twins) cannot either.
std::string UniquePath(const std::string& dir, const char* stem,
                       uint64_t seed) {
  static std::atomic<uint64_t> instance_counter{0};
  return dir + "/" + stem + "_p" + std::to_string(::getpid()) + "_s" +
         std::to_string(seed) + "_i" +
         std::to_string(instance_counter.fetch_add(1)) + ".bin";
}

}  // namespace

GraphZeppelin::GraphZeppelin(const GraphZeppelinConfig& config)
    : config_(config) {
  GZ_CHECK_MSG(config_.num_nodes >= 2, "need at least two nodes");
  GZ_CHECK(config_.num_workers >= 1);
  GZ_CHECK(config_.gutter_fraction > 0.0);
}

GraphZeppelin::~GraphZeppelin() {
  SealCaptures();  // They read the store file, removed below.
  if (pool_ != nullptr) pool_->Stop();
  // Remove backing files; they are per-instance scratch state.
  if (!gutter_tree_path_.empty()) ::unlink(gutter_tree_path_.c_str());
  if (!sketch_store_path_.empty()) ::unlink(sketch_store_path_.c_str());
}

Status GraphZeppelin::Init() {
  if (initialized_) return Status::FailedPrecondition("already initialized");

  NodeSketchParams sp;
  sp.num_nodes = config_.num_nodes;
  sp.seed = config_.seed;
  sp.cols = config_.cols;
  sp.rounds = config_.rounds;

  // Sketch store.
  if (config_.storage == GraphZeppelinConfig::Storage::kRam) {
    store_ = std::make_unique<InMemorySketchStore>(sp);
  } else {
    sketch_store_path_ =
        UniquePath(config_.disk_dir, "gz_sketches", config_.seed);
    auto disk_store =
        std::make_unique<OnDiskSketchStore>(sp, sketch_store_path_);
    Status s = disk_store->Init();
    if (!s.ok()) return s;
    store_ = std::move(disk_store);
  }
  node_sketch_bytes_ = NodeSketch::SerializedSizeFor(store_->params());

  // Work queue: 8 batches per worker, as in the paper.
  queue_ = std::make_unique<WorkQueue>(
      static_cast<size_t>(8) * config_.num_workers);

  // Buffering system. Gutter capacity = f * sketch_bytes / 8B-per-update.
  const size_t gutter_updates = std::max<size_t>(
      1, static_cast<size_t>(config_.gutter_fraction *
                             static_cast<double>(node_sketch_bytes_)) /
             sizeof(uint64_t));
  // One slab size serves the whole pipeline: every emitted batch fits.
  batch_pool_ = std::make_unique<BatchPool>(
      static_cast<uint32_t>(gutter_updates));
  if (config_.buffering == GraphZeppelinConfig::Buffering::kLeafOnly) {
    LeafGuttersParams lp;
    lp.num_nodes = config_.num_nodes;
    lp.gutter_capacity = gutter_updates;
    lp.nodes_per_group = config_.nodes_per_gutter_group;
    gutters_ = std::make_unique<LeafGutters>(lp, batch_pool_.get(),
                                             queue_.get());
  } else {
    gutter_tree_path_ =
        UniquePath(config_.disk_dir, "gz_gutter_tree", config_.seed);
    GutterTreeParams tp;
    tp.num_nodes = config_.num_nodes;
    tp.file_path = gutter_tree_path_;
    tp.buffer_bytes = config_.gutter_tree_buffer_bytes;
    tp.fanout = config_.gutter_tree_fanout;
    tp.leaf_gutter_updates = gutter_updates;
    tp.nodes_per_group = config_.nodes_per_gutter_group;
    auto tree = std::make_unique<GutterTree>(tp, batch_pool_.get(),
                                             queue_.get());
    Status s = tree->Init();
    if (!s.ok()) return s;
    gutters_ = std::move(tree);
  }

  ingest_span_.reserve(kIngestSpanUpdates);
  pool_ = std::make_unique<WorkerPool>(queue_.get(), batch_pool_.get(),
                                       store_.get(), config_.num_workers);
  pool_->Start();
  initialized_ = true;
  return Status::Ok();
}

void GraphZeppelin::SealCaptures() {
  for (const auto& handle : unsealed_) GraphSnapshot::Seal(handle);
  unsealed_.clear();
}

void GraphZeppelin::DrainIngestSpan() {
  if (ingest_span_.empty()) return;
  if (!unsealed_.empty()) SealCaptures();
  // Both endpoints' characteristic vectors toggle the same coordinate
  // (paper Figure 8): InsertBatch inserts each edge's index twice.
  gutters_->InsertBatch(ingest_span_.data(), ingest_span_.size());
  ingest_span_.clear();  // Keeps capacity: no realloc on refill.
}

void GraphZeppelin::Update(const GraphUpdate& update) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // Fail fast at the API boundary: buffering would otherwise defer the
  // violation to an arbitrary later drain. Both halves are checked —
  // GraphUpdate is an aggregate, so a caller can bypass Edge's
  // normalizing constructor.
  GZ_CHECK_MSG(update.edge.u < update.edge.v &&
                   update.edge.v < config_.num_nodes,
               "u < v && v < num_nodes");
  ingest_span_.push_back(update);
  ++num_updates_;
  if (ingest_span_.size() >= kIngestSpanUpdates) DrainIngestSpan();
}

void GraphZeppelin::Update(const GraphUpdate* updates, size_t count) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  DrainIngestSpan();  // Preserve stream order with singly fed updates.
  if (!unsealed_.empty()) SealCaptures();
  gutters_->InsertBatch(updates, count);
  num_updates_ += count;
}

void GraphZeppelin::UpdateNodes(const NodeUpdate* updates, size_t count) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  DrainIngestSpan();
  if (!unsealed_.empty()) SealCaptures();
  gutters_->InsertNodes(updates, count);
  num_updates_ += count;
}

void GraphZeppelin::Flush() {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  DrainIngestSpan();
  gutters_->ForceFlush();
  pool_->Drain();
}

GraphSnapshot GraphZeppelin::Snapshot() {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // cleanup(): force updates out of buffers and wait for the workers,
  // so the capture is a consistent stream position.
  Flush();
  GraphSnapshot snapshot = store_->Capture(num_updates_);
  std::weak_ptr<GraphSnapshot::LazyRounds> handle = snapshot.lazy_rounds();
  if (!handle.expired()) {
    std::erase_if(unsealed_, [](const auto& h) { return h.expired(); });
    unsealed_.push_back(std::move(handle));
  }
  return snapshot;
}

Status GraphZeppelin::WriteNodeRangeTo(
    uint64_t lo, uint64_t hi, int r_lo, int r_hi, RoundPart part,
    const std::function<Status(const void* data, size_t size)>& write) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  if (!(lo < hi && hi <= config_.num_nodes)) {
    return Status::InvalidArgument("bad node range");
  }
  if (!(0 <= r_lo && r_lo < r_hi && r_hi <= store_->params().rounds)) {
    return Status::InvalidArgument("bad round window");
  }
  Flush();
  return GraphSnapshot::SaveToSink(
      write, store_->params(), lo, hi, r_lo, r_hi, num_updates_,
      [this, r_lo, r_hi, part](NodeId i, uint8_t* record) {
        if (part == RoundPart::kWhole) {
          store_->ReadRounds(i, r_lo, r_hi, record);
        } else {
          store_->ReadSummaries(i, r_lo, r_hi, record);
        }
      },
      part);
}

Status GraphZeppelin::MergeSerialized(const uint8_t* data, size_t size) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  Flush();
  SealCaptures();
  // Each record folds in through one scratch sketch and the store's
  // MergeDelta, the XOR the disk store's ApplyBatch also ends in.
  NodeSketch delta(store_->params());
  return GraphSnapshot::FoldSerialized(
      data, size, store_->params(), 0, store_->params().rounds,
      [this, &delta](NodeId i, const uint8_t* record) {
        delta.DeserializeFrom(record);
        store_->MergeDelta(i, delta);
      });
}

ConnectivityResult GraphZeppelin::ListSpanningForest() {
  return Connectivity(Snapshot(), config_.query_threads);
}

Status GraphZeppelin::SaveCheckpoint(const std::string& path) {
  // Streaming form of Snapshot().SaveToFile(path): the same bytes, but
  // only one record in flight, so a disk-backed store larger than RAM
  // can still checkpoint.
  return GraphSnapshot::SaveStream(
      path, [this](const GraphSnapshot::ByteSink& sink) {
        return WriteNodeRangeTo(0, config_.num_nodes, 0,
                                sketch_params().rounds, RoundPart::kWhole,
                                sink);
      });
}

Status GraphZeppelin::LoadCheckpoint(const std::string& path) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  SealCaptures();
  // Records go straight into the store without materializing a
  // snapshot.
  uint64_t saved_updates = 0;
  Status s = GraphSnapshot::LoadStream(
      path, store_->params(), &saved_updates,
      [this](NodeId i, const NodeSketch& sketch) {
        store_->Store(i, sketch);
      });
  if (!s.ok()) return s;
  num_updates_ = saved_updates;
  return Status::Ok();
}

const NodeSketchParams& GraphZeppelin::sketch_params() const {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  return store_->params();
}

size_t GraphZeppelin::RamByteSize() const {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // The batch pool owns every slab (held by gutters, queued, or free),
  // so gutter RamByteSize covers only the structures the gutters own.
  return store_->RamByteSize() + batch_pool_->RamByteSize() +
         gutters_->RamByteSize();
}

size_t GraphZeppelin::DiskByteSize() const {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  return store_->DiskByteSize() + gutters_->DiskByteSize();
}

}  // namespace gz
