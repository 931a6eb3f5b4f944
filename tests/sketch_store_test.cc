// Tests for the in-memory and on-disk sketch stores.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "core/connectivity.h"
#include "core/sketch_store.h"
#include "util/random.h"

namespace gz {
namespace {

NodeSketchParams MakeParams(uint64_t num_nodes, uint64_t seed) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  p.rounds = 4;  // Keep tests fast.
  return p;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

NodeSketch SketchOf(const NodeSketchParams& params,
                    const std::vector<uint64_t>& indices) {
  NodeSketch s(params);
  s.UpdateBatch(indices.data(), indices.size());
  return s;
}

class SketchStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  // Builds a RAM or disk store according to the param.
  std::unique_ptr<SketchStore> MakeStore(const NodeSketchParams& params,
                                         const char* name) {
    if (!GetParam()) return std::make_unique<InMemorySketchStore>(params);
    auto store = std::make_unique<OnDiskSketchStore>(params, TempPath(name));
    GZ_CHECK_OK(store->Init());
    return store;
  }
};

TEST_P(SketchStoreTest, FreshStoreHoldsEmptySketches) {
  const NodeSketchParams params = MakeParams(8, 1);
  auto store = MakeStore(params, "store_fresh.bin");
  NodeSketch out(store->params());
  store->Load(3, &out);
  NodeSketch empty(store->params());
  EXPECT_EQ(out, empty);
}

TEST_P(SketchStoreTest, MergeDeltaAccumulates) {
  const NodeSketchParams params = MakeParams(8, 2);
  auto store = MakeStore(params, "store_acc.bin");
  const NodeSketchParams real = store->params();

  store->MergeDelta(2, SketchOf(real, {1, 5}));
  store->MergeDelta(2, SketchOf(real, {9}));

  NodeSketch expect = SketchOf(real, {1, 5, 9});
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, expect);
}

TEST_P(SketchStoreTest, NodesAreIndependent) {
  const NodeSketchParams params = MakeParams(4, 3);
  auto store = MakeStore(params, "store_indep.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(0, SketchOf(real, {1}));
  store->MergeDelta(3, SketchOf(real, {2}));

  NodeSketch got0(real), got3(real), empty(real);
  store->Load(0, &got0);
  store->Load(3, &got3);
  EXPECT_EQ(got0, SketchOf(real, {1}));
  EXPECT_EQ(got3, SketchOf(real, {2}));
  NodeSketch got1(real);
  store->Load(1, &got1);
  EXPECT_EQ(got1, empty);
}

TEST_P(SketchStoreTest, XorCancellation) {
  const NodeSketchParams params = MakeParams(4, 4);
  auto store = MakeStore(params, "store_cancel.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(1, SketchOf(real, {3}));
  store->MergeDelta(1, SketchOf(real, {3}));  // Same toggle cancels.
  NodeSketch got(real), empty(real);
  store->Load(1, &got);
  EXPECT_EQ(got, empty);
}

TEST_P(SketchStoreTest, ApplyBatchEqualsSketchOfTheXor) {
  // The ingest write path: toggles land in the node's sketch, and an
  // index applied in both batches cancels.
  const NodeSketchParams params = MakeParams(8, 13);
  auto store = MakeStore(params, "store_apply.bin");
  const NodeSketchParams real = store->params();
  const std::vector<uint64_t> first = {1, 5, 9};
  const std::vector<uint64_t> second = {5, 7};
  store->ApplyBatch(2, first.data(), first.size());
  store->ApplyBatch(2, second.data(), second.size());
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, SketchOf(real, {1, 9, 7}));
  EXPECT_NE(got, SketchOf(real, {1, 5, 9, 7}));
}

TEST_P(SketchStoreTest, ConcurrentMergesMatchSerial) {
  const NodeSketchParams params = MakeParams(16, 5);
  auto store = MakeStore(params, "store_conc.bin");
  const NodeSketchParams real = store->params();

  // 4 threads x 50 deltas, all hammering the same few nodes.
  constexpr int kThreads = 4;
  constexpr int kDeltas = 50;
  std::vector<std::vector<std::vector<uint64_t>>> plans(kThreads);
  SplitMix64 rng(99);
  const uint64_t max_index = NumPossibleEdges(16);
  for (int t = 0; t < kThreads; ++t) {
    for (int d = 0; d < kDeltas; ++d) {
      std::vector<uint64_t> batch;
      for (int i = 0; i < 20; ++i) batch.push_back(rng.NextBelow(max_index));
      plans[t].push_back(std::move(batch));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& batch : plans[t]) {
        const NodeId node = static_cast<NodeId>(batch[0] % 3);
        store->MergeDelta(node, SketchOf(real, batch));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Serial reference.
  std::vector<NodeSketch> expect;
  for (int i = 0; i < 3; ++i) expect.emplace_back(real);
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& batch : plans[t]) {
      const NodeId node = static_cast<NodeId>(batch[0] % 3);
      expect[node].Merge(SketchOf(real, batch));
    }
  }
  for (NodeId node = 0; node < 3; ++node) {
    NodeSketch got(real);
    store->Load(node, &got);
    EXPECT_EQ(got, expect[node]) << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(RamAndDisk, SketchStoreTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Disk" : "Ram";
                         });

TEST_P(SketchStoreTest, StoreOverwrites) {
  const NodeSketchParams params = MakeParams(6, 9);
  auto store = MakeStore(params, "store_overwrite.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(2, SketchOf(real, {1, 2}));
  // Overwrite with a fresh sketch: prior contents must vanish.
  store->Store(2, SketchOf(real, {4}));
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, SketchOf(real, {4}));
}

TEST_P(SketchStoreTest, SealedCaptureIsUnchangedByLaterWrites) {
  // A capture is a snapshot of the store: merges and overwrites that
  // land after it was taken and sealed never show through it.
  const NodeSketchParams params = MakeParams(6, 10);
  auto store = MakeStore(params, "store_share.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(4, SketchOf(real, {2, 7}));
  const GraphSnapshot held = store->Capture(5);
  GraphSnapshot::Seal(held.lazy_rounds());
  std::vector<NodeSketch> expect(6, NodeSketch(real));
  expect[4] = SketchOf(real, {2, 7});
  const GraphSnapshot want(expect, 5);
  store->MergeDelta(4, SketchOf(real, {9}));
  EXPECT_TRUE(held == want);
  store->Store(4, SketchOf(real, {1}));
  EXPECT_TRUE(held == want);
  NodeSketch got(real);
  store->Load(4, &got);
  EXPECT_EQ(got, SketchOf(real, {1}));
}

TEST_P(SketchStoreTest, CapturesDroppedOnAnotherThreadWhileMerging) {
  // 2 merging threads against a thread that keeps taking and dropping
  // captures (in RAM, handles to every node): every merge either clones
  // a shared node or lands in place, and the final state must equal a
  // serial fold. A disk capture that is never queried reads nothing.
  const NodeSketchParams params = MakeParams(8, 11);
  auto store = MakeStore(params, "store_share_conc.bin");
  const NodeSketchParams real = store->params();
  constexpr int kWriters = 2;
  constexpr int kDeltas = 200;
  std::vector<std::vector<NodeSketch>> deltas(kWriters);
  SplitMix64 rng(7);
  for (int t = 0; t < kWriters; ++t) {
    for (int d = 0; d < kDeltas; ++d) {
      deltas[t].push_back(
          SketchOf(real, {rng.NextBelow(NumPossibleEdges(8))}));
    }
  }
  std::atomic<bool> done{false};
  std::thread sharer([&] {
    std::vector<GraphSnapshot> held;
    while (!done.load()) {
      held.push_back(store->Capture(0));
      if (held.size() > 10) held.clear();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int d = 0; d < kDeltas; ++d) {
        store->MergeDelta(static_cast<NodeId>(d % 3), deltas[t][d]);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done = true;
  sharer.join();

  std::vector<NodeSketch> expect(8, NodeSketch(real));
  for (int t = 0; t < kWriters; ++t) {
    for (int d = 0; d < kDeltas; ++d) expect[d % 3].Merge(deltas[t][d]);
  }
  EXPECT_TRUE(store->Capture(0) == GraphSnapshot(expect, 0));
}

// Where `snap` holds node 1's sketch bytes: the sketch's identity, since
// a clone moves them to a new block and an in-place write does not.
const uint8_t* Node1Bytes(const GraphSnapshot& snap) {
  GraphSnapshot::RoundView view;
  GZ_CHECK_OK(snap.Round(0, snap.num_nodes(), nullptr, &view));
  return view.node(1);
}

// A capture at position 0 of `num_nodes` empty sketches but node 1's.
GraphSnapshot WithNode1(const NodeSketchParams& params, uint64_t num_nodes,
                        const NodeSketch& node1) {
  std::vector<NodeSketch> sketches(num_nodes, NodeSketch(params));
  sketches[1] = node1;
  return GraphSnapshot(std::move(sketches), 0);
}

TEST(InMemorySketchStoreTest, ClonesANodeOnlyWhileItIsShared) {
  // Copy-on-write, observed through object identity, for both write
  // paths (MergeDelta and ApplyBatch): a write to a node nobody else
  // holds lands in place; a write to a node a capture holds moves the
  // store to a clone and leaves the capture's object alone.
  InMemorySketchStore store(MakeParams(4, 12));
  const NodeSketchParams real = store.params();
  const uint8_t* before = Node1Bytes(store.Capture(0));  // Dropped at once.
  store.MergeDelta(1, SketchOf(real, {3}));
  EXPECT_EQ(Node1Bytes(store.Capture(0)), before) << "unshared node was cloned";
  const uint64_t four = 4;
  store.ApplyBatch(1, &four, 1);
  EXPECT_EQ(Node1Bytes(store.Capture(0)), before) << "unshared node was cloned";

  const GraphSnapshot held = store.Capture(0);
  store.MergeDelta(1, SketchOf(real, {5}));
  EXPECT_EQ(Node1Bytes(held), before);
  const uint8_t* clone = Node1Bytes(store.Capture(0));
  EXPECT_NE(clone, before) << "shared node was written in place";
  EXPECT_TRUE(held == WithNode1(real, 4, SketchOf(real, {3, 4})));
  EXPECT_TRUE(store.Capture(0) ==
              WithNode1(real, 4, SketchOf(real, {3, 4, 5})));

  // ApplyBatch into a held node: the clone is shared with a fresh
  // capture, so the write clones again and both holders stay unchanged.
  const GraphSnapshot held_clone = store.Capture(0);
  const uint64_t two = 2;
  store.ApplyBatch(1, &two, 1);
  EXPECT_EQ(Node1Bytes(held), before);
  EXPECT_EQ(Node1Bytes(held_clone), clone);
  EXPECT_NE(Node1Bytes(store.Capture(0)), clone)
      << "shared node was written in place";
  EXPECT_TRUE(held == WithNode1(real, 4, SketchOf(real, {3, 4})));
  EXPECT_TRUE(held_clone == WithNode1(real, 4, SketchOf(real, {3, 4, 5})));
  EXPECT_TRUE(store.Capture(0) ==
              WithNode1(real, 4, SketchOf(real, {3, 4, 5, 2})));
}

TEST(OnDiskSketchStoreTest, DiskByteSizeMatchesRecords) {
  const NodeSketchParams params = MakeParams(10, 6);
  OnDiskSketchStore store(params, TempPath("store_size.bin"));
  ASSERT_TRUE(store.Init().ok());
  NodeSketch prototype(store.params());
  EXPECT_EQ(store.DiskByteSize(), prototype.SerializedSize() * 10);
  // RAM footprint excludes the sketches themselves.
  EXPECT_LT(store.RamByteSize(), store.DiskByteSize());
}

TEST(OnDiskSketchStoreTest, TracksIoCounters) {
  const NodeSketchParams params = MakeParams(4, 7);
  OnDiskSketchStore store(params, TempPath("store_io.bin"));
  ASSERT_TRUE(store.Init().ok());
  store.MergeDelta(0, SketchOf(store.params(), {3}));
  EXPECT_GT(store.bytes_read(), 0u);
  EXPECT_GT(store.bytes_written(), 0u);
}

TEST(InMemorySketchStoreTest, RamByteSizeCountsSketches) {
  const NodeSketchParams params = MakeParams(8, 8);
  InMemorySketchStore store(params);
  NodeSketch prototype(store.params());
  EXPECT_GE(store.RamByteSize(), prototype.ByteSize() * 8);
}

// ---- Round-lazy captures of the disk store ---------------------------------

// A disk store, default round budget, holding the path 0 - 1 - ... - n-1.
std::unique_ptr<OnDiskSketchStore> PathStore(uint64_t n, const char* name) {
  NodeSketchParams params;
  params.num_nodes = n;
  params.seed = 31;
  auto store = std::make_unique<OnDiskSketchStore>(params, TempPath(name));
  GZ_CHECK_OK(store->Init());
  for (NodeId i = 0; i + 1 < n; ++i) {
    const uint64_t index = EdgeToIndex(Edge(i, i + 1), n);
    store->ApplyBatch(i, &index, 1);
    store->ApplyBatch(i + 1, &index, 1);
  }
  return store;
}

TEST(OnDiskSketchStoreTest, CaptureReadsOnlyTheRoundsAQueryUses) {
  constexpr uint64_t n = 64;
  auto store = PathStore(n, "store_lazy_bytes.bin");
  const size_t round_bytes =
      NodeSketch(store->params()).layout().round_bytes();
  const uint64_t before = store->bytes_read();
  const GraphSnapshot snapshot = store->Capture(n - 1);
  EXPECT_EQ(store->bytes_read(), before) << "a capture reads nothing";
  const ConnectivityResult r = Connectivity(snapshot, 1);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  ASSERT_LT(r.rounds_used, store->params().rounds);
  // rounds_used x V x round_bytes, where a whole-record capture read
  // V x record_bytes (every round).
  const uint64_t query_bytes = r.rounds_used * n * round_bytes;
  EXPECT_EQ(store->bytes_read() - before, query_bytes);
  // A second query over the capture reads nothing new.
  EXPECT_EQ(Connectivity(snapshot, 1).rounds_used, r.rounds_used);
  EXPECT_EQ(store->bytes_read() - before, query_bytes);
}

// The disk store's I/O fails stop, never wrong: a lazy load that could
// return bytes other than the capture's aborts on a GZ_CHECK.
TEST(OnDiskSketchStoreDeathTest, LazyLoadAfterUnsealedWriteAborts) {
  auto store = PathStore(16, "store_lazy_write.bin");
  const GraphSnapshot snapshot = store->Capture(15);
  const uint64_t index = 0;
  store->ApplyBatch(0, &index, 1);  // Written without sealing the capture.
  EXPECT_DEATH(Connectivity(snapshot, 1), "unsealed capture");
}

TEST(OnDiskSketchStoreDeathTest, ShortReadUnderACaptureAborts) {
  auto store = PathStore(16, "store_lazy_short.bin");
  const GraphSnapshot snapshot = store->Capture(15);
  ASSERT_EQ(::truncate(TempPath("store_lazy_short.bin").c_str(), 0), 0);
  EXPECT_DEATH(Connectivity(snapshot, 1), "sketch store pread");
}

// A write the file system refuses (here: past RLIMIT_FSIZE, with SIGXFSZ
// ignored so pwrite returns EFBIG) aborts too, even inside the file
// Init() preallocated.
TEST(OnDiskSketchStoreDeathTest, WriteFaultAborts) {
  constexpr uint64_t n = 64;
  auto store = PathStore(n, "store_write_fault.bin");
  const size_t record_bytes = NodeSketch(store->params()).SerializedSize();
  ASSERT_GE((n - 1) * record_bytes, 4096u);
  const uint64_t index = EdgeToIndex(Edge(0, n - 1), n);
  EXPECT_DEATH(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit;
        limit.rlim_cur = 4096;
        limit.rlim_max = 4096;
        ::setrlimit(RLIMIT_FSIZE, &limit);
        store->ApplyBatch(n - 1, &index, 1);
      },
      "sketch store pwrite");
}

}  // namespace
}  // namespace gz
