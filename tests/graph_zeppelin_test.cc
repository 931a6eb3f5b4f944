// End-to-end tests of the GraphZeppelin system across all four
// buffering x storage configurations.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/matrix_checker.h"
#include "core/graph_zeppelin.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

using Buffering = GraphZeppelinConfig::Buffering;
using Storage = GraphZeppelinConfig::Storage;

GraphZeppelinConfig MakeConfig(uint64_t num_nodes, uint64_t seed,
                               Buffering buffering, Storage storage) {
  GraphZeppelinConfig c;
  c.num_nodes = num_nodes;
  c.seed = seed;
  c.num_workers = 2;
  c.buffering = buffering;
  c.storage = storage;
  c.disk_dir = ::testing::TempDir();
  c.gutter_tree_buffer_bytes = 1 << 12;  // Small: force tree traffic.
  c.gutter_tree_fanout = 8;
  return c;
}

class GraphZeppelinConfigTest
    : public ::testing::TestWithParam<std::tuple<Buffering, Storage>> {};

TEST_P(GraphZeppelinConfigTest, SmallGraphEndToEnd) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(64, 7, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  // Two components: a path 0..9 and a triangle 20-21-22.
  for (NodeId i = 0; i + 1 < 10; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  gz.Update({Edge(20, 21), UpdateType::kInsert});
  gz.Update({Edge(21, 22), UpdateType::kInsert});
  gz.Update({Edge(20, 22), UpdateType::kInsert});

  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  // 64 - 10 - 3 singletons + path + triangle.
  EXPECT_EQ(r.num_components, 64u - 10u - 3u + 2u);
  EXPECT_EQ(r.component_of[0], r.component_of[9]);
  EXPECT_EQ(r.component_of[20], r.component_of[22]);
  EXPECT_NE(r.component_of[0], r.component_of[20]);
}

TEST_P(GraphZeppelinConfigTest, DeletionsDisconnect) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(16, 9, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  gz.Update({Edge(0, 1), UpdateType::kInsert});
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  gz.Update({Edge(1, 2), UpdateType::kDelete});

  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.component_of[0], r.component_of[1]);
  EXPECT_NE(r.component_of[1], r.component_of[2]);
}

TEST_P(GraphZeppelinConfigTest, QueriesMidStreamThenContinue) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(32, 11, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  gz.Update({Edge(0, 1), UpdateType::kInsert});
  const ConnectivityResult r1 = gz.ListSpanningForest();
  ASSERT_FALSE(r1.failed);
  EXPECT_EQ(r1.num_components, 31u);

  // Ingestion continues after the query.
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  gz.Update({Edge(2, 3), UpdateType::kInsert});
  const ConnectivityResult r2 = gz.ListSpanningForest();
  ASSERT_FALSE(r2.failed);
  EXPECT_EQ(r2.num_components, 29u);
  EXPECT_EQ(r2.component_of[0], r2.component_of[3]);
}

TEST_P(GraphZeppelinConfigTest, RandomStreamMatchesExactChecker) {
  const auto [buffering, storage] = GetParam();
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 21;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 21;
  tp.disconnect_count = 4;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelin gz(MakeConfig(n, 23, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  // Partitions must agree exactly.
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
  EXPECT_EQ(gz.num_updates_ingested(), stream.updates.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GraphZeppelinConfigTest,
    ::testing::Combine(::testing::Values(Buffering::kLeafOnly,
                                         Buffering::kGutterTree),
                       ::testing::Values(Storage::kRam, Storage::kDisk)),
    [](const ::testing::TestParamInfo<std::tuple<Buffering, Storage>>& info) {
      std::string name =
          std::get<0>(info.param) == Buffering::kLeafOnly ? "LeafOnly"
                                                          : "GutterTree";
      name += std::get<1>(info.param) == Storage::kRam ? "Ram" : "Disk";
      return name;
    });

TEST(GraphZeppelinTest, DestructionWithBufferedUpdatesIsClean) {
  // Destroying an instance with unflushed gutters and queued batches
  // must shut down workers without deadlock or crash.
  for (auto buffering : {Buffering::kLeafOnly, Buffering::kGutterTree}) {
    GraphZeppelin gz(MakeConfig(32, 71, buffering, Storage::kRam));
    ASSERT_TRUE(gz.Init().ok());
    for (NodeId i = 0; i + 1 < 32; ++i) {
      gz.Update({Edge(i, i + 1), UpdateType::kInsert});
    }
    // No flush, no query: destructor runs with work in flight.
  }
  SUCCEED();
}

TEST(GraphZeppelinTest, InitRequiredBeforeUpdate) {
  GraphZeppelin gz(MakeConfig(8, 1, Buffering::kLeafOnly, Storage::kRam));
  EXPECT_DEATH(gz.Update({Edge(0, 1), UpdateType::kInsert}), "Init");
}

TEST(GraphZeppelinTest, DoubleInitFails) {
  GraphZeppelin gz(MakeConfig(8, 1, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.Init().code(), StatusCode::kFailedPrecondition);
}

TEST(GraphZeppelinTest, ByteSizeAccounting) {
  GraphZeppelin ram(MakeConfig(64, 2, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(ram.Init().ok());
  EXPECT_GT(ram.RamByteSize(), ram.node_sketch_bytes() * 64);
  EXPECT_EQ(ram.DiskByteSize(), 0u);

  GraphZeppelin disk(
      MakeConfig(64, 3, Buffering::kGutterTree, Storage::kDisk));
  ASSERT_TRUE(disk.Init().ok());
  EXPECT_GT(disk.DiskByteSize(), disk.node_sketch_bytes() * 64);
  // On disk, RAM holds only buffers/metadata: far below the sketch total.
  EXPECT_LT(disk.RamByteSize(), disk.DiskByteSize());
}

TEST(GraphZeppelinTest, ConfigurableRounds) {
  GraphZeppelinConfig c =
      MakeConfig(64, 4, Buffering::kLeafOnly, Storage::kRam);
  c.rounds = 3;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.sketch_params().rounds, 3);
}

TEST(GraphZeppelinTest, GroupedGuttersMatchChecker) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.2;
  ep.seed = 51;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 51;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelinConfig c = MakeConfig(n, 52, Buffering::kLeafOnly,
                                     Storage::kRam);
  c.nodes_per_gutter_group = 6;  // Section 4.1 node groups.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphZeppelinTest, GutterTreeWithNodeGroupsMatchesChecker) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 61;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 61;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelinConfig c =
      MakeConfig(n, 62, Buffering::kGutterTree, Storage::kDisk);
  c.nodes_per_gutter_group = 5;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphZeppelinTest, HotNodeUnderManyWorkers) {
  // Every edge touches node 0: all batches race on one sketch. The
  // delta-XOR merge must serialize correctly.
  GraphZeppelinConfig c =
      MakeConfig(64, 63, Buffering::kLeafOnly, Storage::kRam);
  c.num_workers = 8;
  c.gutter_fraction = 1e-9;  // One-update batches: maximum contention.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId v = 1; v < 64; ++v) {
    gz.Update({Edge(0, v), UpdateType::kInsert});
  }
  for (NodeId v = 32; v < 64; ++v) {
    gz.Update({Edge(0, v), UpdateType::kDelete});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u + 32u);  // Star of 32 + 32 singletons.
  EXPECT_TRUE(r.Connected(0, 31));
  EXPECT_FALSE(r.Connected(0, 32));
}

TEST(GraphZeppelinTest, UnwritableDiskDirFailsInit) {
  GraphZeppelinConfig c =
      MakeConfig(8, 64, Buffering::kGutterTree, Storage::kDisk);
  c.disk_dir = "/nonexistent_dir_for_gz_test";
  GraphZeppelin gz(c);
  EXPECT_FALSE(gz.Init().ok());
}

TEST(GraphZeppelinTest, TinyGuttersStillCorrect) {
  GraphZeppelinConfig c =
      MakeConfig(24, 53, Buffering::kLeafOnly, Storage::kRam);
  c.gutter_fraction = 1e-9;  // Clamps to one update per gutter.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId i = 0; i + 1 < 24; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
}

TEST(GraphZeppelinTest, MinimalTwoNodeGraph) {
  GraphZeppelin gz(MakeConfig(2, 54, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update({Edge(0, 1), UpdateType::kInsert});
  ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  gz.Update({Edge(0, 1), UpdateType::kDelete});
  r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 2u);
}

TEST(GraphZeppelinTest, OutOfRangeNodeAborts) {
  GraphZeppelin gz(MakeConfig(8, 55, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_DEATH(gz.Update({Edge(0, 8), UpdateType::kInsert}), "v < num_nodes");
}

class GraphZeppelinSeedSweepTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GraphZeppelinSeedSweepTest, NeverWrongAcrossSeeds) {
  // A miniature Section 6.3 inside the unit suite: many sketch seeds on
  // one stream, every answer exact.
  const uint64_t seed = GetParam();
  const uint64_t n = 40;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 5;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 5;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) checker.Update(u);
  const size_t expect = checker.ConnectedComponents().num_components;

  GraphZeppelin gz(MakeConfig(n, seed * 7919 + 13, Buffering::kLeafOnly,
                              Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  for (const GraphUpdate& u : stream.updates) gz.Update(u);
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphZeppelinSeedSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(GraphZeppelinTest, ManyWorkersProduceSameAnswer) {
  GraphZeppelinConfig c =
      MakeConfig(32, 5, Buffering::kLeafOnly, Storage::kRam);
  c.num_workers = 8;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId i = 0; i + 1 < 32; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
}


// ---- Round-lazy disk captures ---------------------------------------------
//
// A disk store's Snapshot() reads a round from the file only when a
// query reaches it. These pin that such a capture is bitwise the eager
// capture at its stream position, whatever happens to the instance
// afterwards.

// 1024 nodes: the query pool engages from there (kMinParallelSampleRoots).
constexpr uint64_t kLazyNodes = 1024;

std::vector<GraphUpdate> LazyStream(uint64_t seed) {
  ErdosRenyiParams ep;
  ep.num_nodes = kLazyNodes;
  ep.p = 2.5 / kLazyNodes;  // Sparse: many components, 2-3 rounds.
  ep.seed = seed;
  StreamTransformParams tp;
  tp.num_nodes = kLazyNodes;
  tp.seed = seed;
  return BuildStream(ErdosRenyiGenerator(ep).Generate(), tp).updates;
}

// The whole records of nodes [lo, hi) at `gz`'s position, as
// WriteNodeRangeTo streams them.
std::vector<uint8_t> RangeBytes(GraphZeppelin& gz, uint64_t lo, uint64_t hi) {
  std::vector<uint8_t> bytes;
  GZ_CHECK_OK(gz.WriteNodeRangeTo(
      lo, hi, 0, gz.sketch_params().rounds, RoundPart::kWhole,
      [&bytes](const void* data, size_t n) {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        bytes.insert(bytes.end(), p, p + n);
        return Status::Ok();
      }));
  return bytes;
}

// The eager capture at `gz`'s position: its whole records, deserialized.
GraphSnapshot EagerCapture(GraphZeppelin& gz) {
  const std::vector<uint8_t> bytes =
      RangeBytes(gz, 0, gz.sketch_params().num_nodes);
  return GraphSnapshot::Deserialize(bytes.data(), bytes.size()).value();
}

void ExpectSameResult(const ConnectivityResult& got,
                      const ConnectivityResult& want) {
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.rounds_used, want.rounds_used);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_TRUE(got.spanning_forest == want.spanning_forest);
  EXPECT_EQ(got.component_of, want.component_of);
}

class LazyCaptureTest : public ::testing::TestWithParam<Buffering> {};

TEST_P(LazyCaptureTest, EqualsEagerCaptureBitwise) {
  GraphZeppelin gz(MakeConfig(kLazyNodes, 61, GetParam(), Storage::kDisk));
  ASSERT_TRUE(gz.Init().ok());
  const std::vector<GraphUpdate> updates = LazyStream(61);
  gz.Update(updates.data(), updates.size());
  const GraphSnapshot eager = EagerCapture(gz);
  {
    const GraphSnapshot lazy = gz.Snapshot();
    ASSERT_FALSE(lazy.lazy_rounds().expired()) << "capture is not lazy";
    EXPECT_TRUE(lazy == eager);
  }
  EXPECT_EQ(gz.Snapshot().Serialize(), eager.Serialize());

  // Fresh captures, so each loads its rounds under its own thread count;
  // windows that start past round 0 load only their own rounds.
  const std::pair<int, int> windows[] = {{0, -1}, {1, -1}, {2, 2}};
  for (const auto& [first, count] : windows) {
    // A two-round window may end unfinished; it must do so identically.
    const ConnectivityResult want =
        BoruvkaConnectivity(eager, first, count, 1);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("first " + std::to_string(first) + ", threads " +
                   std::to_string(threads));
      ExpectSameResult(
          BoruvkaConnectivity(gz.Snapshot(), first, count, threads), want);
    }
  }
  for (int threads : {1, 4}) {
    ExpectSameResult(Connectivity(gz.Snapshot(), threads),
                     BoruvkaConnectivity(eager, 0, -1, 1));
  }
}

TEST_P(LazyCaptureTest, HeldCaptureSurvivesLaterWrites) {
  // Each capture is taken unloaded and held across one kind of store
  // write; the instance must seal it first, or it would read the
  // changed (or removed) file.
  const std::vector<GraphUpdate> updates = LazyStream(62);
  const size_t half = updates.size() / 2;
  auto gz = std::make_unique<GraphZeppelin>(
      MakeConfig(kLazyNodes, 62, GetParam(), Storage::kDisk));
  ASSERT_TRUE(gz->Init().ok());
  gz->Update(updates.data(), half);
  const std::string checkpoint = ::testing::TempDir() + "/lazy_capture_" +
                                 std::to_string(static_cast<int>(GetParam())) +
                                 ".snap";
  ASSERT_TRUE(gz->SaveCheckpoint(checkpoint).ok());

  GraphSnapshot held = gz->Snapshot();
  GraphSnapshot want = EagerCapture(*gz);
  for (size_t i = half; i < updates.size(); ++i) gz->Update(updates[i]);
  gz->Flush();
  EXPECT_FALSE(EagerCapture(*gz) == want);
  EXPECT_TRUE(held == want) << "after Update";

  held = gz->Snapshot();
  want = EagerCapture(*gz);
  const std::vector<uint8_t> range = RangeBytes(*gz, 0, kLazyNodes / 2);
  ASSERT_TRUE(gz->MergeSerialized(range.data(), range.size()).ok());
  EXPECT_FALSE(EagerCapture(*gz) == want);
  EXPECT_TRUE(held == want) << "after MergeSerialized";

  held = gz->Snapshot();
  want = EagerCapture(*gz);
  ASSERT_TRUE(gz->LoadCheckpoint(checkpoint).ok());
  EXPECT_FALSE(EagerCapture(*gz) == want);
  EXPECT_TRUE(held == want) << "after LoadCheckpoint";

  held = gz->Snapshot();
  want = EagerCapture(*gz);
  gz.reset();
  EXPECT_TRUE(held == want) << "after destruction";
  ExpectSameResult(Connectivity(held, 4), BoruvkaConnectivity(want, 0, -1, 1));
  std::remove(checkpoint.c_str());
}

TEST_P(LazyCaptureTest, QueryOnAnotherThreadWhileUpdateSeals) {
  // A reader thread queries a capture while the owner's next Update
  // seals it: both load rounds of one capture, each round once.
  const std::vector<GraphUpdate> updates = LazyStream(63);
  GraphZeppelin gz(MakeConfig(kLazyNodes, 63, GetParam(), Storage::kDisk));
  ASSERT_TRUE(gz.Init().ok());
  constexpr size_t kParts = 4;
  const size_t part = updates.size() / kParts;
  for (size_t p = 0; p + 1 < kParts; ++p) {
    gz.Update(updates.data() + p * part, part);
    const GraphSnapshot held = gz.Snapshot();
    const GraphSnapshot want = EagerCapture(gz);
    ConnectivityResult got;
    std::thread reader([&] { got = Connectivity(held, 4); });
    gz.Update(updates.data() + (p + 1) * part, 1);
    reader.join();
    ExpectSameResult(got, BoruvkaConnectivity(want, 0, -1, 1));
    EXPECT_TRUE(held == want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Disk, LazyCaptureTest,
    ::testing::Values(Buffering::kLeafOnly, Buffering::kGutterTree),
    [](const ::testing::TestParamInfo<Buffering>& info) {
      return info.param == Buffering::kLeafOnly ? "LeafOnly" : "GutterTree";
    });

}  // namespace
}  // namespace gz
