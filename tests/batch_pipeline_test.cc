// End-to-end tests for the flat pooled-batch ingestion pipeline
// (gutters -> BatchPool slabs -> ring WorkQueue -> Graph Workers ->
// sketch store): a 4-way buffering x storage matrix with mid-stream
// queries, the caller-runs path pinned bitwise against per-node
// sketches, plus a multithreaded BatchPool stress test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/hash_adjacency_graph.h"
#include "buffer/gutter_tree.h"
#include "buffer/leaf_gutters.h"
#include "buffer/update_batch.h"
#include "core/connectivity.h"
#include "core/graph_worker.h"
#include "core/graph_zeppelin.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"
#include "util/random.h"

namespace gz {
namespace {

// ---- 4-way matrix: {leaf-only, gutter tree} x {RAM, disk} ---------------

struct PipelineCase {
  GraphZeppelinConfig::Buffering buffering;
  GraphZeppelinConfig::Storage storage;
  const char* name;
};

const PipelineCase kPipelineCases[] = {
    {GraphZeppelinConfig::Buffering::kLeafOnly,
     GraphZeppelinConfig::Storage::kRam, "leaf_ram"},
    {GraphZeppelinConfig::Buffering::kLeafOnly,
     GraphZeppelinConfig::Storage::kDisk, "leaf_disk"},
    {GraphZeppelinConfig::Buffering::kGutterTree,
     GraphZeppelinConfig::Storage::kRam, "tree_ram"},
    {GraphZeppelinConfig::Buffering::kGutterTree,
     GraphZeppelinConfig::Storage::kDisk, "tree_disk"}};

class BatchPipelineMatrixTest
    : public ::testing::TestWithParam<PipelineCase> {};

void ExpectSameComponents(const ConnectivityResult& got,
                          const ConnectivityResult& want, uint64_t n,
                          const char* where) {
  ASSERT_FALSE(got.failed) << where;
  EXPECT_EQ(got.num_components, want.num_components) << where;
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                want.component_of[i] == want.component_of[j])
          << where << ": nodes " << i << "," << j;
    }
  }
}

TEST_P(BatchPipelineMatrixTest, IngestQueryContinueRequery) {
  const PipelineCase& c = GetParam();
  const uint64_t n = 64;

  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 7;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 7;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);
  ASSERT_GT(stream.updates.size(), 100u);
  const size_t half = stream.updates.size() / 2;

  GraphZeppelinConfig config;
  config.num_nodes = n;
  config.seed = 13;
  config.num_workers = 3;
  config.buffering = c.buffering;
  config.storage = c.storage;
  config.disk_dir = ::testing::TempDir();
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());

  HashAdjacencyGraph reference(n);

  // First half through the bulk span API.
  gz.Update(stream.updates.data(), half);
  for (size_t i = 0; i < half; ++i) reference.Update(stream.updates[i]);

  // Mid-stream query: flushes buffers, drains workers, queries.
  ExpectSameComponents(gz.ListSpanningForest(),
                       reference.ConnectedComponents(), n, c.name);

  // Continue ingesting (single-update API this time: exercises the
  // API-boundary span buffering after a flush cycle).
  for (size_t i = half; i < stream.updates.size(); ++i) {
    gz.Update(stream.updates[i]);
    reference.Update(stream.updates[i]);
  }
  EXPECT_EQ(gz.num_updates_ingested(), stream.updates.size());

  // Re-query: the pipeline must have stayed consistent across the
  // flush / reuse cycle.
  ExpectSameComponents(gz.ListSpanningForest(),
                       reference.ConnectedComponents(), n, c.name);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchPipelineMatrixTest,
    ::testing::ValuesIn(kPipelineCases),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      return info.param.name;
    });

// ---- caller-runs: a producer blocked on a full queue applies the batch --

// Delegates to a real store and counts the batches applied on the
// producing (test) thread. Worker-thread applies wait until the
// producer has applied one more batch than when the store was last
// armed. With a one-slot queue and one-update slabs the workers stall
// holding their batches, the queue fills, and the producer's next push
// must run on the caller path: the gate makes it certain instead of
// likely. If the producer never applies one, the first wait times out
// and opens the gate, so a broken build fails the caller-apply checks
// instead of hanging.
class CallerGateStore : public SketchStore {
 public:
  explicit CallerGateStore(SketchStore* inner)
      : SketchStore(inner->params()), inner_(inner),
        producer_(std::this_thread::get_id()) {}

  void ApplyBatch(NodeId node, const uint64_t* indices,
                  size_t count) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (std::this_thread::get_id() == producer_) {
      ++caller_applies_;
      cv_.notify_all();
    } else {
      const bool producer_applied =
          cv_.wait_for(lock, std::chrono::seconds(5), [this] {
            return open_ || caller_applies_ > armed_at_;
          });
      if (!producer_applied) open_ = true;
    }
    lock.unlock();
    inner_->ApplyBatch(node, indices, count);
  }
  void MergeDelta(NodeId node, const NodeSketch& delta) override {
    inner_->MergeDelta(node, delta);
  }
  void Load(NodeId node, NodeSketch* out) override { inner_->Load(node, out); }
  void ReadRounds(NodeId node, int r_lo, int r_hi, uint8_t* out) override {
    inner_->ReadRounds(node, r_lo, r_hi, out);
  }
  GraphSnapshot Capture(uint64_t num_updates) override {
    return inner_->Capture(num_updates);
  }
  void Store(NodeId node, const NodeSketch& sketch) override {
    inner_->Store(node, sketch);
  }
  size_t RamByteSize() const override { return inner_->RamByteSize(); }
  size_t DiskByteSize() const override { return inner_->DiskByteSize(); }

  // Holds worker applies again until the producer runs one more.
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_at_ = caller_applies_;
    open_ = false;
  }
  uint64_t caller_applies() {
    std::lock_guard<std::mutex> lock(mu_);
    return caller_applies_;
  }

 private:
  SketchStore* inner_;
  const std::thread::id producer_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t caller_applies_ = 0;  // Guarded by mu_.
  uint64_t armed_at_ = 0;        // Guarded by mu_.
  bool open_ = false;           // Guarded by mu_; set by a timed-out wait.
};

using CallerRunsCase = std::tuple<PipelineCase, int /*workers*/>;

class CallerRunsPipelineTest
    : public ::testing::TestWithParam<CallerRunsCase> {};

// Every node's sketch built one update at a time, no pipeline at all.
GraphSnapshot SequentialReference(const NodeSketchParams& params,
                                  const std::vector<GraphUpdate>& updates,
                                  size_t count) {
  std::vector<NodeSketch> sketches(params.num_nodes, NodeSketch(params));
  for (size_t i = 0; i < count; ++i) {
    const Edge& e = updates[i].edge;
    const uint64_t idx = EdgeToIndex(e, params.num_nodes);
    sketches[e.u].Update(idx);
    sketches[e.v].Update(idx);
  }
  return GraphSnapshot(std::move(sketches), count);
}

TEST_P(CallerRunsPipelineTest, BitwiseEqualToPerNodeSketches) {
  const auto& [c, workers] = GetParam();
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 11;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 11;
  const std::vector<GraphUpdate> updates =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp).updates;
  ASSERT_GT(updates.size(), 100u);
  const size_t half = updates.size() / 2;

  NodeSketchParams sp;
  sp.num_nodes = n;
  sp.seed = 17;
  const std::string tag = std::string(c.name) + "_" +
                          std::to_string(workers) + "_" +
                          std::to_string(::getpid());
  std::unique_ptr<SketchStore> inner;
  const std::string store_path =
      ::testing::TempDir() + "/caller_runs_store_" + tag + ".bin";
  if (c.storage == GraphZeppelinConfig::Storage::kRam) {
    inner = std::make_unique<InMemorySketchStore>(sp);
  } else {
    auto disk = std::make_unique<OnDiskSketchStore>(sp, store_path);
    ASSERT_TRUE(disk->Init().ok());
    inner = std::move(disk);
  }
  CallerGateStore store(inner.get());

  // The tiny queue and slab: every half-update is its own batch, and
  // one queued batch makes the queue full.
  BatchPool batch_pool(1);
  WorkQueue queue(1);
  std::unique_ptr<GutteringSystem> gutters;
  const std::string tree_path =
      ::testing::TempDir() + "/caller_runs_tree_" + tag + ".bin";
  if (c.buffering == GraphZeppelinConfig::Buffering::kLeafOnly) {
    LeafGuttersParams lp;
    lp.num_nodes = n;
    lp.gutter_capacity = 1;
    gutters = std::make_unique<LeafGutters>(lp, &batch_pool, &queue);
  } else {
    GutterTreeParams gp;
    gp.num_nodes = n;
    gp.file_path = tree_path;
    gp.fanout = 4;
    gp.buffer_bytes = GutterTree::kRecordBytes * gp.fanout * 4;
    gp.leaf_gutter_updates = 1;
    auto tree = std::make_unique<GutterTree>(gp, &batch_pool, &queue);
    ASSERT_TRUE(tree->Init().ok());
    gutters = std::move(tree);
  }
  WorkerPool pool(&queue, &batch_pool, &store, workers);
  pool.Start();

  // Far more batches than workers plus the one slot: the producer must
  // have run some of them in Update or ForceFlush, before Drain.
  gutters->InsertBatch(updates.data(), half);
  gutters->ForceFlush();
  const uint64_t first_half_caller_applies = store.caller_applies();
  EXPECT_GT(first_half_caller_applies, 0u);
  pool.Drain();
  // Mid-stream query: the snapshot shares the in-RAM store's nodes, so
  // the in-place writes below must clone the nodes it holds. The disk
  // store's capture is round-lazy, so it is sealed before those writes,
  // as GraphZeppelin seals its captures.
  const GraphSnapshot mid = store.Capture(half);
  GraphSnapshot::Seal(mid.lazy_rounds());
  EXPECT_TRUE(mid == SequentialReference(sp, updates, half)) << c.name;
  HashAdjacencyGraph reference(n);
  for (size_t i = 0; i < half; ++i) reference.Update(updates[i]);
  ExpectSameComponents(Connectivity(mid), reference.ConnectedComponents(), n,
                       c.name);

  store.Arm();
  const uint64_t armed_caller_applies = store.caller_applies();
  gutters->InsertBatch(updates.data() + half, updates.size() - half);
  gutters->ForceFlush();
  EXPECT_GT(store.caller_applies(), armed_caller_applies);
  pool.Drain();
  EXPECT_EQ(queue.InFlight(), 0);
  EXPECT_TRUE(store.Capture(updates.size()) ==
              SequentialReference(sp, updates, updates.size()))
      << c.name;
  // The held snapshot never saw the second half.
  EXPECT_TRUE(mid == SequentialReference(sp, updates, half)) << c.name;

  pool.Stop();
  EXPECT_EQ(batch_pool.outstanding(), 0);
  gutters.reset();
  inner.reset();
  ::unlink(tree_path.c_str());
  ::unlink(store_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CallerRunsPipelineTest,
    ::testing::Combine(
        ::testing::ValuesIn(kPipelineCases),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<CallerRunsCase>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param)) + "w";
    });

// ---- BatchPool ----------------------------------------------------------

TEST(BatchPoolTest, AcquireGivesEmptySlabOfRequestedCapacity) {
  BatchPool pool(32);
  UpdateBatch* b = pool.Acquire();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 0u);
  EXPECT_EQ(b->capacity, 32u);
  EXPECT_FALSE(b->full());
  for (uint64_t i = 0; i < 32; ++i) b->Append(i);
  EXPECT_TRUE(b->full());
  pool.Release(b);
}

TEST(BatchPoolTest, RecyclesSlabsInsteadOfGrowing) {
  BatchPool pool(16);
  UpdateBatch* first = pool.Acquire();
  pool.Release(first);
  UpdateBatch* second = pool.Acquire();
  EXPECT_EQ(first, second);  // LIFO free list hands the slab back.
  EXPECT_EQ(pool.slabs_allocated(), 1u);
  pool.Release(second);
  for (int i = 0; i < 100; ++i) pool.Release(pool.Acquire());
  EXPECT_EQ(pool.slabs_allocated(), 1u);  // Steady state: no growth.
}

TEST(BatchPoolTest, ReleasedSlabComesBackCleared) {
  BatchPool pool(8);
  UpdateBatch* b = pool.Acquire();
  b->node = 5;
  b->Append(123);
  pool.Release(b);
  UpdateBatch* again = pool.Acquire();
  EXPECT_EQ(again->count, 0u);
  pool.Release(again);
}

// Satellite stress test: 8 threads acquire slabs, stamp them with a
// thread-unique pattern, verify the pattern survives, release. Catches
// double-handout (two threads holding one slab) and free-list
// corruption under contention.
TEST(BatchPoolTest, EightThreadAcquireReleaseStress) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 20000;
  constexpr uint32_t kCap = 16;
  BatchPool pool(kCap);
  std::atomic<bool> corrupt{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &corrupt, t] {
      SplitMix64 rng(static_cast<uint64_t>(t) * 7919 + 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        // Hold a small random number of slabs at once to vary free-list
        // pressure.
        UpdateBatch* held[4] = {nullptr, nullptr, nullptr, nullptr};
        const int n_held = 1 + static_cast<int>(rng.NextBelow(4));
        for (int h = 0; h < n_held; ++h) {
          UpdateBatch* b = pool.Acquire();
          if (b->count != 0) corrupt = true;
          b->node = static_cast<NodeId>(t);
          const uint64_t stamp =
              (static_cast<uint64_t>(t) << 32) | static_cast<uint64_t>(i);
          while (!b->full()) b->Append(stamp);
          held[h] = b;
        }
        for (int h = 0; h < n_held; ++h) {
          UpdateBatch* b = held[h];
          // If another thread also got this slab, our stamps are gone.
          if (b->node != static_cast<NodeId>(t) || b->count != kCap) {
            corrupt = true;
          }
          const uint64_t stamp =
              (static_cast<uint64_t>(t) << 32) | static_cast<uint64_t>(i);
          for (uint32_t k = 0; k < kCap; ++k) {
            if (b->edge_indices()[k] != stamp) corrupt = true;
          }
          pool.Release(b);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_EQ(pool.outstanding(), 0);
  // The pool never needs more slabs than the peak held at once.
  EXPECT_LE(pool.slabs_allocated(), 4u * kThreads);
}

}  // namespace
}  // namespace gz
