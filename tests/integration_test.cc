// Full-pipeline integration tests: generator -> stream transform ->
// stream file -> GraphZeppelin (all configs) -> connectivity, verified
// against the exact checker at multiple checkpoints — the paper's
// Section 6.3 methodology at test scale.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "baseline/matrix_checker.h"
#include "core/graph_zeppelin.h"
#include "stream/kronecker_generator.h"
#include "stream/stream_file.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

using Buffering = GraphZeppelinConfig::Buffering;
using Storage = GraphZeppelinConfig::Storage;

void ExpectSamePartition(const ConnectivityResult& got,
                         const ConnectivityResult& expect, uint64_t n) {
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j])
          << i << " vs " << j;
    }
  }
}

TEST(IntegrationTest, KroneckerStreamThroughFileToQuery) {
  // kron7-style dense stream, round-tripped through the binary file
  // format, ingested by GraphZeppelin, checked at 25/50/75/100%.
  const int scale = 7;
  KroneckerParams kp;
  kp.scale = scale;
  kp.density = 0.4;
  kp.seed = 2;
  KroneckerGenerator gen(kp);
  const uint64_t n = gen.num_nodes();

  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 2;
  const StreamTransformResult stream = BuildStream(gen.Generate(), tp);

  const std::string path =
      std::string(::testing::TempDir()) + "/integration_kron.gzst";
  ASSERT_TRUE(WriteStreamFile(path, n, stream.updates).ok());

  GraphZeppelinConfig config;
  config.num_nodes = n;
  config.seed = 77;
  config.num_workers = 2;
  config.disk_dir = ::testing::TempDir();
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);

  StreamReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.num_updates(), stream.updates.size());
  const uint64_t total = reader.num_updates();
  uint64_t consumed = 0;
  uint64_t next_checkpoint = total / 4;
  GraphUpdate u;
  while (reader.Next(&u)) {
    gz.Update(u);
    checker.Update(u);
    ++consumed;
    if (consumed == next_checkpoint || consumed == total) {
      ExpectSamePartition(gz.ListSpanningForest(),
                          checker.ConnectedComponents(), n);
      next_checkpoint += total / 4;
    }
  }
  EXPECT_TRUE(reader.status().ok());

  // Final graph: the disconnected nodes must be isolated.
  const ConnectivityResult final_result = gz.ListSpanningForest();
  for (NodeId d : stream.disconnected_nodes) {
    for (NodeId other = 0; other < n; ++other) {
      if (other == d) continue;
      if (final_result.component_of[other] == final_result.component_of[d]) {
        // d's component must contain only other disconnected singletons —
        // i.e. nobody, since singletons keep distinct roots.
        ADD_FAILURE() << "disconnected node " << d << " shares component";
      }
    }
  }
  std::remove(path.c_str());
}

class IntegrationConfigTest
    : public ::testing::TestWithParam<std::tuple<Buffering, Storage>> {};

TEST_P(IntegrationConfigTest, DenseKroneckerAllConfigs) {
  const auto [buffering, storage] = GetParam();
  KroneckerParams kp;
  kp.scale = 6;  // 64 nodes, ~1000 edges at density 0.5.
  kp.density = 0.5;
  kp.seed = 5;
  KroneckerGenerator gen(kp);
  const uint64_t n = gen.num_nodes();

  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 5;
  tp.churn_fraction = 0.1;
  tp.phantom_fraction = 0.1;
  const StreamTransformResult stream = BuildStream(gen.Generate(), tp);

  GraphZeppelinConfig config;
  config.num_nodes = n;
  config.seed = 123;
  config.buffering = buffering;
  config.storage = storage;
  config.num_workers = 3;
  config.disk_dir = ::testing::TempDir();
  config.gutter_tree_buffer_bytes = 1 << 12;
  config.gutter_tree_fanout = 8;
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  ExpectSamePartition(gz.ListSpanningForest(), checker.ConnectedComponents(),
                      n);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, IntegrationConfigTest,
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

TEST(IntegrationTest, SoakAllConfigsWithCheckpointHandoff) {
  // kron9-scale soak: each of the four buffering x storage configs
  // ingests half the stream, checkpoints, hands off to a *fresh*
  // instance (different buffering) that finishes the stream; every
  // final answer must match the exact checker.
  KroneckerParams kp;
  kp.scale = 9;
  kp.density = 0.5;
  kp.seed = 99;
  KroneckerGenerator gen(kp);
  const uint64_t n = gen.num_nodes();
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 99;
  const StreamTransformResult stream = BuildStream(gen.Generate(), tp);
  const size_t half = stream.updates.size() / 2;

  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) checker.Update(u);
  const size_t expect = checker.ConnectedComponents().num_components;

  const std::pair<Buffering, Storage> configs[] = {
      {Buffering::kLeafOnly, Storage::kRam},
      {Buffering::kLeafOnly, Storage::kDisk},
      {Buffering::kGutterTree, Storage::kRam},
      {Buffering::kGutterTree, Storage::kDisk},
  };
  int config_index = 0;
  for (const auto& [buffering, storage] : configs) {
    GraphZeppelinConfig first_config;
    first_config.num_nodes = n;
    first_config.seed = 500 + config_index;
    first_config.buffering = buffering;
    first_config.storage = storage;
    first_config.num_workers = 2;
    first_config.disk_dir = ::testing::TempDir();
    GraphZeppelin first(first_config);
    ASSERT_TRUE(first.Init().ok());
    for (size_t i = 0; i < half; ++i) first.Update(stream.updates[i]);
    const std::string ckpt = std::string(::testing::TempDir()) +
                             "/soak_" + std::to_string(config_index) +
                             ".ckpt";
    ASSERT_TRUE(first.SaveCheckpoint(ckpt).ok());

    // Handoff to the *other* buffering structure; sketches carry over.
    GraphZeppelinConfig second_config = first_config;
    second_config.buffering = buffering == Buffering::kLeafOnly
                                  ? Buffering::kGutterTree
                                  : Buffering::kLeafOnly;
    GraphZeppelin second(second_config);
    ASSERT_TRUE(second.Init().ok());
    ASSERT_TRUE(second.LoadCheckpoint(ckpt).ok());
    for (size_t i = half; i < stream.updates.size(); ++i) {
      second.Update(stream.updates[i]);
    }
    const ConnectivityResult r = second.ListSpanningForest();
    ASSERT_FALSE(r.failed) << "config " << config_index;
    EXPECT_EQ(r.num_components, expect) << "config " << config_index;
    std::remove(ckpt.c_str());
    ++config_index;
  }
}

TEST(IntegrationTest, ReliabilityMiniTrial) {
  // Scaled-down Section 6.3: many independent streams and query points,
  // expecting zero sketch failures and zero wrong partitions.
  int failures = 0;
  for (uint64_t trial = 0; trial < 12; ++trial) {
    KroneckerParams kp;
    kp.scale = 5;
    kp.density = 0.3;
    kp.seed = trial;
    KroneckerGenerator gen(kp);
    const uint64_t n = gen.num_nodes();
    StreamTransformParams tp;
    tp.num_nodes = n;
    tp.seed = trial;
    const StreamTransformResult stream = BuildStream(gen.Generate(), tp);

    GraphZeppelinConfig config;
    config.num_nodes = n;
    config.seed = trial * 17 + 3;
    config.num_workers = 2;
    config.disk_dir = ::testing::TempDir();
    GraphZeppelin gz(config);
    ASSERT_TRUE(gz.Init().ok());
    AdjacencyMatrixChecker checker(n);
    for (const GraphUpdate& u : stream.updates) {
      gz.Update(u);
      checker.Update(u);
    }
    const ConnectivityResult got = gz.ListSpanningForest();
    const ConnectivityResult expect = checker.ConnectedComponents();
    if (got.failed || got.num_components != expect.num_components) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace gz
