// Tests for sharded (distributed-style) ingestion: linearity makes
// shard-merged queries exact. Every correctness case runs on both
// single-machine substrates — shard threads in this process and real
// gz_shard worker processes, both fed over sockets by the one
// ShardCluster coordinator — against one shared ground-truth check,
// since the substrate must be invisible above the API.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algos/bridges.h"
#include "algos/spanning_forests.h"
#include "baseline/matrix_checker.h"
#include "cluster_substrate.h"
#include "core/connectivity.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

GraphZeppelinConfig BaseConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 2;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// A started cluster of `shards` shards on `substrate`.
std::unique_ptr<ShardCluster> StartCluster(const GraphZeppelinConfig& base,
                                           int shards, Substrate substrate) {
  auto cluster = std::make_unique<ShardCluster>(
      base, shards, OnSubstrate(substrate, shards));
  GZ_CHECK_OK(cluster->Start());
  return cluster;
}

ConnectivityResult Components(ShardCluster* cluster) {
  return Connectivity(FoldedSnapshot(cluster));
}

TEST(ShardedTest, ShardRoutingDeterministicAndBounded) {
  ShardCluster sharded(BaseConfig(64, 1), 4);
  for (NodeId u = 0; u < 20; ++u) {
    const Edge e(u, static_cast<NodeId>(u + 10));
    const int shard = RouteToShard(e, 64, sharded.routing_table());
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, RouteToShard(e, 64, sharded.routing_table()));
  }
}

TEST(ShardedTest, RoutingRoughlyBalanced) {
  ShardCluster sharded(BaseConfig(256, 2), 4);
  int counts[4] = {0, 0, 0, 0};
  for (NodeId u = 0; u < 255; ++u) {
    for (NodeId v = u + 1; v < 256; v += 17) {
      ++counts[RouteToShard(Edge(u, v), 256, sharded.routing_table())];
    }
  }
  int total = counts[0] + counts[1] + counts[2] + counts[3];
  for (int c : counts) {
    EXPECT_GT(c, total / 8);
    EXPECT_LT(c, total / 2);
  }
}

TEST(ShardedTest, RoutingIdenticalAcrossSubstrates) {
  // An external stream partitioner must be able to pre-split a stream
  // for either deployment; the hash may not depend on the substrate.
  ShardCluster thread(BaseConfig(128, 5), 5,
                      OnSubstrate(Substrate::kThread, 5));
  ShardCluster process(BaseConfig(128, 5), 5,
                       OnSubstrate(Substrate::kProcess, 5));
  for (NodeId u = 0; u < 60; ++u) {
    const Edge e(u, static_cast<NodeId>(u + 13));
    EXPECT_EQ(RouteToShard(e, 128, thread.routing_table()),
              RouteToShard(e, 128, process.routing_table()));
  }
}

TEST(ShardedTest, RoutingIsPureFunctionOfTableAcrossSubstratesAndReshards) {
  // The regression the epoch table exists for: routing must be a pure
  // function of (edge, table) that coordinator, shards and any
  // external partitioner share — on every substrate, through elastic
  // reshard operations, with no hidden substrate- or history-dependent
  // state. Both clusters run the same reshard schedule; after every
  // step their tables are identical and every edge routes identically
  // (and identically to the raw pure function).
  const uint64_t n = 128;
  const std::unique_ptr<ShardCluster> thread =
      StartCluster(BaseConfig(n, 6), 2, Substrate::kThread);
  const std::unique_ptr<ShardCluster> process =
      StartCluster(BaseConfig(n, 6), 2, Substrate::kProcess);

  auto check_agreement = [&](const char* step) {
    ASSERT_TRUE(thread->routing_table() == process->routing_table())
        << step;
    for (NodeId u = 0; u < 80; ++u) {
      const Edge e(u, static_cast<NodeId>(u + 11));
      const int expect = RouteToShard(e, n, thread->routing_table());
      EXPECT_EQ(RouteToShard(e, n, process->routing_table()), expect)
          << step;
    }
  };
  check_agreement("initial");

  ASSERT_TRUE(thread->SplitShard(1, "thread:").ok());
  ASSERT_TRUE(process->SplitShard(1).ok());
  check_agreement("after first split");

  ASSERT_TRUE(thread->SplitShard(0, "thread:").ok());
  ASSERT_TRUE(process->SplitShard(0).ok());
  check_agreement("after second split");

  for (ShardCluster* cluster : {thread.get(), process.get()}) {
    ASSERT_TRUE(cluster->BeginRemoveShard(1).ok());
    while (cluster->migration_active()) {
      ASSERT_TRUE(cluster->PumpMigration().ok());
    }
  }
  check_agreement("after remove");
}

// ---- Dual-substrate matrix ------------------------------------------------

class ShardedSubstrateTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(ShardedSubstrateTest, ElasticOpsBeforeStartAreErrorsNotCrashes) {
  ShardCluster sharded(BaseConfig(32, 9), 2, OnSubstrate(GetParam(), 2));
  const std::string grow = SubstrateEndpoint(GetParam());
  EXPECT_EQ(sharded.BeginRemoveShard(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.SplitShard(0, grow).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.PumpMigration().code(),
            StatusCode::kFailedPrecondition);
  // And Start() afterwards still brings the cluster up normally.
  ASSERT_TRUE(sharded.Start().ok());
  ASSERT_TRUE(sharded.SplitShard(0, grow).ok());
}

TEST_P(ShardedSubstrateTest, SingleShardMatchesPlainInstance) {
  const uint64_t n = 32;
  const std::unique_ptr<ShardCluster> sharded =
      StartCluster(BaseConfig(n, 3), 1, GetParam());
  GraphZeppelin plain(BaseConfig(n, 3));
  ASSERT_TRUE(plain.Init().ok());

  for (NodeId i = 0; i + 1 < 12; ++i) {
    const GraphUpdate u{Edge(i, i + 1), UpdateType::kInsert};
    ASSERT_TRUE(sharded->Update(u).ok());
    plain.Update(u);
  }
  const ConnectivityResult a = Components(sharded.get());
  const ConnectivityResult b = plain.ListSpanningForest();
  ASSERT_FALSE(a.failed);
  ASSERT_FALSE(b.failed);
  EXPECT_EQ(a.num_components, b.num_components);
}

TEST_P(ShardedSubstrateTest, UpdateCountsSumToTotal) {
  const std::unique_ptr<ShardCluster> sharded =
      StartCluster(BaseConfig(64, 4), 3, GetParam());
  const int total = 200;
  int ingested = 0;
  for (NodeId u = 0; u < 63 && ingested < total; ++u) {
    for (NodeId v = u + 1; v < 64 && ingested < total; v += 3) {
      ASSERT_TRUE(sharded->Update({Edge(u, v), UpdateType::kInsert}).ok());
      ++ingested;
    }
  }
  uint64_t sum = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    Result<ShardStats> stats = sharded->Stats(s);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    sum += stats.value().num_updates;
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(ingested));
}

TEST_P(ShardedSubstrateTest, ForestDecompositionOverShardedSnapshot) {
  // Composition: the k-edge-connectivity certificate extracted from a
  // *sharded* ingest must expose the same bridge as a single instance.
  const uint64_t n = 16;
  GraphZeppelinConfig base = BaseConfig(n, 8);
  base.rounds = RoundsForForests(n, 2);
  const std::unique_ptr<ShardCluster> sharded =
      StartCluster(base, 3, GetParam());

  // Two triangles joined by one bridge.
  const Edge edges[] = {Edge(0, 1), Edge(1, 2), Edge(0, 2),
                        Edge(3, 4), Edge(4, 5), Edge(3, 5),
                        Edge(2, 3)};
  for (const Edge& e : edges) {
    ASSERT_TRUE(sharded->Update({e, UpdateType::kInsert}).ok());
  }
  const GraphSnapshot snapshot = FoldedSnapshot(sharded.get());
  const Result<ForestDecomposition> extracted =
      ExtractSpanningForests(snapshot, 2);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  const ForestDecomposition& d = extracted.value();
  ASSERT_FALSE(d.failed);
  const EdgeList bridges = FindBridges(n, d.CertificateEdges());
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges[0], Edge(2, 3));
}

TEST_P(ShardedSubstrateTest, SnapshotFoldMatchesSingleInstanceBitwise) {
  // The coordinator's fold of the shards' serialized [0, V) ranges must
  // produce exactly the snapshot a single instance ingesting the whole
  // stream would: the shard partition of the stream (and the substrate)
  // is invisible after aggregation.
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 6;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  const std::unique_ptr<ShardCluster> sharded =
      StartCluster(BaseConfig(n, 31), 3, GetParam());
  GraphZeppelin single(BaseConfig(n, 31));
  ASSERT_TRUE(single.Init().ok());
  for (const Edge& e : edges) {
    ASSERT_TRUE(sharded->Update({e, UpdateType::kInsert}).ok());
    single.Update({e, UpdateType::kInsert});
  }

  const GraphSnapshot folded = FoldedSnapshot(sharded.get());
  const GraphSnapshot expect = single.Snapshot();
  EXPECT_TRUE(folded == expect);
  EXPECT_EQ(folded.num_updates(), edges.size());
}

TEST_P(ShardedSubstrateTest, DiskShardsDoNotCollide) {
  // Several disk-backed shards share a seed; per-shard instance tags
  // (plus per-process pids, or the per-instance counter for thread
  // shards) must keep their backing files separate.
  GraphZeppelinConfig base = BaseConfig(32, 7);
  base.storage = GraphZeppelinConfig::Storage::kDisk;
  const std::unique_ptr<ShardCluster> sharded =
      StartCluster(base, 3, GetParam());
  for (NodeId i = 0; i + 1 < 16; ++i) {
    ASSERT_TRUE(sharded->Update({Edge(i, i + 1), UpdateType::kInsert}).ok());
  }
  const ConnectivityResult r = Components(sharded.get());
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 32u - 16u + 1u);
}

TEST_P(ShardedSubstrateTest, BulkSpanIngestionMatchesSingleUpdates) {
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 9;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});

  const std::unique_ptr<ShardCluster> bulk =
      StartCluster(BaseConfig(n, 13), 3, GetParam());
  ASSERT_TRUE(bulk->Update(updates.data(), updates.size()).ok());

  const std::unique_ptr<ShardCluster> single =
      StartCluster(BaseConfig(n, 13), 3, GetParam());
  for (const GraphUpdate& u : updates) ASSERT_TRUE(single->Update(u).ok());

  EXPECT_TRUE(FoldedSnapshot(bulk.get()) == FoldedSnapshot(single.get()));
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, ShardedSubstrateTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- Randomized correctness sweep, both substrates ------------------------

class ShardedCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Substrate>> {
};

TEST_P(ShardedCorrectnessTest, MatchesExactCheckerOnRandomStream) {
  const auto [num_shards, seed, substrate] = GetParam();
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.12;
  ep.seed = seed;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = seed;
  tp.disconnect_count = 3;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  const std::unique_ptr<ShardCluster> sharded =
      StartCluster(BaseConfig(n, seed + 20), num_shards, substrate);
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    ASSERT_TRUE(sharded->Update(u).ok());
    checker.Update(u);
  }
  const ConnectivityResult got = Components(sharded.get());
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndSeeds, ShardedCorrectnessTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(Substrate::kThread,
                                         Substrate::kProcess)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t, Substrate>>&
           info) {
      return "Shards" + std::to_string(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param)) +
             SubstrateName(std::get<2>(info.param));
    });

}  // namespace
}  // namespace gz
