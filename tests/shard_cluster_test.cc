// Sharded ingestion through the ShardCluster coordinator: shards fed
// over sockets, queried via serialized-snapshot aggregation, with fault
// injection (SIGKILL mid-stream, restart from checkpoint, replay) that
// must be invisible in the final result.
//
// Every drill runs over ALL THREE substrates, each a ShardListener
// dialed over loopback TCP: thread (listeners on threads of this
// process), local (fork/exec'd `gz_shard --listen` children) and tcp
// (`gz_shard --listen` processes started by the suite and dialed by
// endpoint, with an auth secret) — the substrate must be invisible in
// every result too. A local "SIGKILL" is a real one; a thread or tcp
// one is a connection abort: the listener discards its instance and
// re-accepts. All are the same state loss, recovered the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cluster_substrate.h"
#include "core/graph_zeppelin.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_transport.h"
#include "stream/erdos_renyi_generator.h"
#include "util/status.h"

namespace gz {
namespace {

GraphZeppelinConfig BaseConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

class ShardClusterTest : public ::testing::TestWithParam<Substrate> {
 protected:
  // Options for `endpoints` shard replicas on the substrate under test.
  ShardClusterOptions MakeOptions(int endpoints,
                                  ShardClusterOptions options = {}) {
    return OnSubstrate(GetParam(), endpoints, std::move(options),
                       &listeners_);
  }

  // One more listener (for split-onto-a-new-machine drills).
  std::string SpawnListener() {
    std::vector<std::string> endpoints;
    StartSubstrateListeners(1, &listeners_, &endpoints);
    return endpoints.back();
  }

  std::vector<std::unique_ptr<ListenerShard>> listeners_;
};

// A long toggle stream over a fixed edge set: `reps` passes of inserts.
// Sketch updates are XOR toggles, so an odd rep count leaves exactly
// the base graph; this scales update volume without changing the
// answer.
std::vector<GraphUpdate> ToggleStream(const EdgeList& edges, int reps) {
  std::vector<GraphUpdate> updates;
  updates.reserve(edges.size() * reps);
  for (int r = 0; r < reps; ++r) {
    for (const Edge& e : edges) {
      updates.push_back({e, UpdateType::kInsert});
    }
  }
  return updates;
}

// `snap` with `extra` more updates counted and the same sketches: a
// merge with a zero snapshot, whose count merges add.
GraphSnapshot PlusUpdates(GraphSnapshot snap, uint64_t extra) {
  const GraphSnapshot zero(
      std::vector<NodeSketch>(snap.num_nodes(), NodeSketch(snap.params())),
      extra);
  GZ_CHECK_OK(snap.Merge(zero));
  return snap;
}

// Ground truth: one in-process GraphZeppelin ingesting the same stream.
GraphSnapshot SingleProcessSnapshot(const GraphZeppelinConfig& base,
                                    const std::vector<GraphUpdate>& updates) {
  GraphZeppelin single(base);
  GZ_CHECK_OK(single.Init());
  single.Update(updates.data(), updates.size());
  return single.Snapshot();
}

TEST_P(ShardClusterTest, MillionUpdatesAcrossThreeProcessesMatchBitwise) {
  // Acceptance bar: >= 1M updates across >= 3 shard processes, queried
  // via serialized-snapshot aggregation, bitwise-identical to one
  // in-process instance ingesting the identical stream.
  const uint64_t n = 512;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.02;
  ep.seed = 11;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  ASSERT_GT(edges.size(), 1000u);
  const int reps =
      static_cast<int>(1'000'000 / edges.size()) | 1;  // Odd: graph stays.
  const std::vector<GraphUpdate> updates = ToggleStream(edges, reps);
  ASSERT_GE(updates.size(), 1'000'000u);

  const GraphZeppelinConfig base = BaseConfig(n, 77);
  ShardCluster cluster(base, 3, MakeOptions(3));
  ASSERT_TRUE(cluster.Start().ok());
  // Feed in bursts, as a stream driver would.
  const size_t burst = 100'000;
  for (size_t off = 0; off < updates.size(); off += burst) {
    const size_t count = std::min(burst, updates.size() - off);
    ASSERT_TRUE(cluster.Update(updates.data() + off, count).ok());
  }
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());

  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);

  const ConnectivityResult got = Connectivity(std::move(folded).value());
  const ConnectivityResult want = Connectivity(expect);
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.component_of, want.component_of);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillRestartFromCheckpointReplaysToBitwiseIdentical) {
  // The fault-injection drill: SIGKILL a shard mid-stream, restart it
  // from its last checkpoint, replay the coordinator's unacked batches,
  // and the final connectivity result must be bitwise-identical to a
  // run that never crashed.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 21;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 91);
  ShardCluster cluster(base, 3, MakeOptions(3));
  ASSERT_TRUE(cluster.Start().ok());

  // Phase 1: first third, then checkpoint every shard.
  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());
  EXPECT_EQ(cluster.unacked_updates(1), 0u);

  // Phase 2: second third, then murder shard 1 mid-stream.
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());
  cluster.KillReplica(1, 0);
  EXPECT_FALSE(cluster.shard_down(0));
  EXPECT_TRUE(cluster.shard_down(1));
  EXPECT_FALSE(cluster.shard_down(2));

  // Phase 3: ingestion continues while shard 1 is down — its slice
  // buffers in the coordinator's unacked log. Barriers refuse until the
  // shard is restored.
  ASSERT_TRUE(
      cluster.Update(updates.data() + 2 * third, updates.size() - 2 * third)
          .ok());
  EXPECT_GT(cluster.unacked_updates(1), 0u);
  EXPECT_EQ(cluster.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster.Snapshot().ok());

  // Restart: restore the checkpoint, replay everything since.
  ASSERT_TRUE(cluster.RestartReplica(1, 0).ok());
  EXPECT_FALSE(cluster.shard_down(1));

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());

  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);
  const ConnectivityResult got = Connectivity(std::move(folded).value());
  const ConnectivityResult want = Connectivity(expect);
  ASSERT_FALSE(got.failed);
  ASSERT_FALSE(want.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.component_of, want.component_of);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillBeforeAnyCheckpointReplaysFromScratch) {
  // No checkpoint yet: the unacked log covers the whole stream, so a
  // restart rebuilds the shard from zero.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 31;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 1);

  const GraphZeppelinConfig base = BaseConfig(n, 17);
  ShardCluster cluster(base, 3, MakeOptions(3));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size() / 2).ok());
  cluster.KillReplica(2, 0);
  ASSERT_TRUE(cluster
                  .Update(updates.data() + updates.size() / 2,
                          updates.size() - updates.size() / 2)
                  .ok());
  ASSERT_TRUE(cluster.RestartReplica(2, 0).ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, RepeatedKillsOfDifferentShards) {
  // Every shard dies at least once; checkpoints interleave with kills.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 41;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t chunk = updates.size() / 4;

  const GraphZeppelinConfig base = BaseConfig(n, 53);
  ShardCluster cluster(base, 3, MakeOptions(3));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), chunk).ok());
  cluster.KillReplica(0, 0);
  {
    const Status restarted = cluster.RestartReplica(0, 0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  }

  ASSERT_TRUE(cluster.Update(updates.data() + chunk, chunk).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());
  cluster.KillReplica(1, 0);
  ASSERT_TRUE(cluster.Update(updates.data() + 2 * chunk, chunk).ok());
  ASSERT_TRUE(cluster.RestartReplica(1, 0).ok());

  cluster.KillReplica(2, 0);
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 3 * chunk,
                          updates.size() - 3 * chunk)
                  .ok());
  ASSERT_TRUE(cluster.RestartReplica(2, 0).ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, AutoCheckpointBoundsTheUnackedLogs) {
  // With a checkpoint interval set, ingestion alone must truncate the
  // durability logs — coordinator memory is bounded by the interval,
  // not the stream length.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 61;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 9);

  const GraphZeppelinConfig base = BaseConfig(n, 23);
  ShardClusterOptions options;
  options.checkpoint_interval_updates = 256;
  ShardCluster cluster(base, 3, MakeOptions(3, options));
  ASSERT_TRUE(cluster.Start().ok());
  for (size_t off = 0; off < updates.size(); off += 100) {
    const size_t count = std::min<size_t>(100, updates.size() - off);
    ASSERT_TRUE(cluster.Update(updates.data() + off, count).ok());
  }
  // Every log was truncated along the way, never explicitly.
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_LT(cluster.unacked_updates(s), updates.size() / 2);
  }
  // Auto-checkpoints are real checkpoints: kill + restart recovers.
  cluster.KillReplica(0, 0);
  {
    const Status restarted = cluster.RestartReplica(0, 0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  }
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, UnwritableCheckpointDirFailsWithoutFencingShards) {
  // An application-level checkpoint failure (every shard replies
  // kError in sync) must surface as an error WITHOUT marking healthy
  // shards down or leaving replies queued: the very next barrier and
  // snapshot still work and are correct.
  const uint64_t n = 64;
  GraphZeppelinConfig base = BaseConfig(n, 67);
  ShardClusterOptions options;
  options.checkpoint_dir = "/nonexistent-checkpoint-dir";
  ShardCluster cluster(base, 3, MakeOptions(3, options));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 40; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());

  EXPECT_EQ(cluster.Checkpoint().code(), StatusCode::kIoError);
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_FALSE(cluster.shard_down(s)) << "shard " << s;
    EXPECT_GT(cluster.unacked_updates(s), 0u);  // Nothing truncated.
  }
  ASSERT_TRUE(cluster.Flush().ok());  // Reply stream still 1:1.
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, StatsReportPerShardStreamPositions) {
  const GraphZeppelinConfig base = BaseConfig(64, 3);
  ShardCluster cluster(base, 3, MakeOptions(3));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 40; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  // Shard positions count node updates: two per stream update.
  uint64_t total = 0;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    Result<ShardStats> stats = cluster.Stats(s);
    ASSERT_TRUE(stats.ok());
    total += stats.value().num_updates;
    EXPECT_GT(stats.value().ram_bytes, 0u);
  }
  EXPECT_EQ(total, 2 * updates.size());
  EXPECT_EQ(FoldedSnapshot(&cluster).num_updates(), updates.size());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// Every edge of the complete graph on `n` nodes, inserted once.
std::vector<GraphUpdate> CompleteGraphStream(uint64_t n) {
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      updates.push_back({Edge(u, v), UpdateType::kInsert});
    }
  }
  return updates;
}

// ---- Node ownership -------------------------------------------------------

TEST_P(ShardClusterTest, ShardsHoldOnlyTheNodeSketchesTheyOwn) {
  // A dense stream touches every node, so an unsharded instance holds V
  // node sketches. A shard is sent only the halves of the nodes it owns
  // and holds only those (plus the shared zero): at least one sketch
  // per node it does not own below the unsharded instance.
  const uint64_t n = 64;
  const std::vector<GraphUpdate> updates = CompleteGraphStream(n);
  const GraphZeppelinConfig base = BaseConfig(n, 401);
  GraphZeppelin single(base);
  ASSERT_TRUE(single.Init().ok());
  single.Update(updates.data(), updates.size());
  single.Flush();
  const uint64_t unsharded = single.RamByteSize();

  ShardCluster cluster(base, 2, MakeOptions(2));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  for (int s = 0; s < 2; ++s) {
    uint64_t owned = 0;
    for (NodeId u = 0; u < n; ++u) {
      owned += NodeOwner(u, cluster.routing_table()) == s;
    }
    ASSERT_GT(owned, 0u);
    ASSERT_LT(owned, n);
    Result<ShardStats> stats = cluster.Stats(s);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_LE(stats.value().ram_bytes + (n - owned) * single.node_sketch_bytes(),
              unsharded)
        << "shard " << s << " owns " << owned << " of " << n << " nodes";
    // Each owned node's n - 1 halves, and nothing else.
    EXPECT_EQ(stats.value().num_updates, owned * (n - 1));
  }
  EXPECT_TRUE(FoldedSnapshot(&cluster) == single.Snapshot());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, RestoredAndRejoinedReplicasHoldWhatTheirPeerHolds) {
  // Restore + replay and rejoin + reconcile rebuild a replica's content
  // without giving it a sketch for any node it does not own: afterwards
  // it reports its healthy peer's ram_bytes exactly. The stream leaves
  // every gutter below its flush threshold, so each replica's batch
  // pool holds one slab per owned node whatever the worker timing.
  const uint64_t n = 64;
  const std::vector<GraphUpdate> updates = CompleteGraphStream(n);
  const GraphZeppelinConfig base = BaseConfig(n, 409);
  {
    GraphZeppelin probe(base);
    ASSERT_TRUE(probe.Init().ok());
    ASSERT_LT(n - 1, probe.node_sketch_bytes() / 2 / sizeof(uint64_t))
        << "a node's halves would fill its gutter";
  }
  ShardClusterOptions options;
  options.replication_factor = 2;
  ShardCluster cluster(base, 2, MakeOptions(2 * 2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  Result<ShardStats> peer = cluster.Stats(1);  // Replica (1, 0).
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();

  // Restore + replay: replica (1, 1) has no checkpoint, so it replays
  // the whole log. Fencing replica 0 makes Stats() read replica 1.
  cluster.KillReplica(1, 1);
  ASSERT_TRUE(cluster.RestartReplica(1, 1).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  cluster.KillReplica(1, 0);
  Result<ShardStats> restored = cluster.Stats(1);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().ram_bytes, peer.value().ram_bytes);

  // Rejoin + reconcile: replica (1, 0) comes back empty and is repaired
  // by range folds, which skip the zero records of nodes it does not
  // own. It has ingested nothing, so its pool holds no slab yet.
  uint64_t repaired = 0;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_GT(repaired, 0u);
  Result<ShardStats> rejoined = cluster.Stats(1);
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  EXPECT_LT(rejoined.value().ram_bytes, peer.value().ram_bytes);
  // The stream again (which toggles every edge back out) gives it its
  // slabs; its sketches were all there already.
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  rejoined = cluster.Stats(1);
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  EXPECT_EQ(rejoined.value().ram_bytes, peer.value().ram_bytes);

  std::vector<GraphUpdate> twice = updates;
  twice.insert(twice.end(), updates.begin(), updates.end());
  EXPECT_TRUE(FoldedSnapshot(&cluster) == SingleProcessSnapshot(base, twice));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, RemovingASplitSourceMatchesBitwise) {
  // A split leaves the source holding its earlier halves of the nodes
  // it hands over; removing the source then migrates those along with
  // everything else, and the fold stays exact.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 421;
  const std::vector<GraphUpdate> updates =
      ToggleStream(ErdosRenyiGenerator(ep).Generate(), 3);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 431);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, MakeOptions(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  Result<int> child = cluster.SplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(0).ok());
  size_t fed = 2 * third;
  while (cluster.migration_active()) {
    const size_t count = std::min<size_t>(third / 8 + 1, updates.size() - fed);
    ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  EXPECT_TRUE(cluster.shard_removed(0));
  ASSERT_TRUE(cluster.Update(updates.data() + fed, updates.size() - fed).ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// ---- Elastic resharding ---------------------------------------------------

TEST_P(ShardClusterTest, RemoveShardUnderLoadMatchesBitwise) {
  // Updates must keep flowing between every migration step — zero
  // stream pause — and the final fold must be bitwise-identical to a
  // single instance that never sharded at all.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 71;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);

  const GraphZeppelinConfig base = BaseConfig(n, 111);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;  // Several pump steps.
  ShardCluster cluster(base, 3, MakeOptions(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  const size_t burst = updates.size() / 24 + 1;
  size_t fed = 0;
  auto feed_burst = [&] {
    if (fed >= updates.size()) return false;
    const size_t count = std::min(burst, updates.size() - fed);
    EXPECT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
    return true;
  };
  for (int i = 0; i < 4; ++i) feed_burst();

  ASSERT_TRUE(cluster.BeginRemoveShard(1).ok());
  size_t bursts_during_migration = 0;
  while (cluster.migration_active()) {
    if (feed_burst()) ++bursts_during_migration;
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  EXPECT_GT(bursts_during_migration, 2u);  // The stream never paused.
  EXPECT_TRUE(cluster.shard_removed(1));
  EXPECT_EQ(cluster.num_active_shards(), 2);
  while (feed_burst()) {
  }

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, TwoSplitsUnderLoadMatchBitwise) {
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 81;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);

  const GraphZeppelinConfig base = BaseConfig(n, 131);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 1, MakeOptions(1, options));
  ASSERT_TRUE(cluster.Start().ok());

  const size_t third = updates.size() / 3;
  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());

  // 1 -> 2 by splitting shard 0: instant (an empty shard is the XOR
  // identity).
  Result<int> added = cluster.SplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 1);
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());

  // 2 -> 3 by splitting shard 0 again, then the rest in bursts.
  Result<int> split = cluster.SplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split.value(), 2);
  size_t fed = 2 * third;
  while (fed < updates.size()) {
    const size_t count = std::min(third / 4 + 1, updates.size() - fed);
    ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
  }
  EXPECT_EQ(cluster.num_active_shards(), 3);

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, SplitMovesRoutingSlotsButNoState) {
  // A split is a routing change only: the child takes every second
  // slot of the source and starts as a zero sketch, the source keeps
  // everything it ingested, and neither is sent a migration delta. The
  // XOR fold stays exact because it never cared which shard holds
  // which contribution.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 83;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t half = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 137);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, MakeOptions(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  Result<ShardStats> before = cluster.Stats(0);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Result<int> child = cluster.SplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(child.value(), 2);
  EXPECT_FALSE(cluster.migration_active());
  EXPECT_EQ(cluster.pending_delta_count(0), 0u);
  EXPECT_EQ(cluster.pending_delta_count(child.value()), 0u);
  EXPECT_GT(TableSlotCount(cluster.routing_table(), child.value()), 0);
  Result<ShardStats> source = cluster.Stats(0);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value().num_updates, before.value().num_updates);
  EXPECT_EQ(source.value().delta_seq, before.value().delta_seq);
  Result<ShardStats> grown = cluster.Stats(child.value());
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(grown.value().num_updates, 0u);
  EXPECT_EQ(grown.value().delta_seq, 0u);

  ASSERT_TRUE(cluster.Update(updates.data() + half, updates.size() - half)
                  .ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillSourceMidMigrationRestartReissueConverges) {
  // The drill: SIGKILL the migration source after the epoch bump and
  // mid-chunk-stream, before any checkpoint ack covers the migration
  // deltas. Restart + unacked replay + pending-delta replay + the
  // re-issued remaining chunks must converge to the same bytes.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 91;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t quarter = updates.size() / 4;

  const GraphZeppelinConfig base = BaseConfig(n, 151);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 3, MakeOptions(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), quarter).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());
  ASSERT_TRUE(cluster.Update(updates.data() + quarter, quarter).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(1).ok());  // Epoch bump.
  ASSERT_TRUE(cluster.PumpMigration().ok());      // A couple of chunks...
  ASSERT_TRUE(cluster.PumpMigration().ok());
  cluster.KillReplica(1, 0);  // ...then murder the source.
  EXPECT_GT(cluster.pending_delta_count(1), 0u);  // Cancels in flight.

  // The stream keeps flowing while the source is down.
  ASSERT_TRUE(cluster.Update(updates.data() + 2 * quarter, quarter).ok());
  // Pumping against a dead source refuses instead of corrupting.
  EXPECT_EQ(cluster.PumpMigration().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(cluster.RestartReplica(1, 0).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 3 * quarter,
                          updates.size() - 3 * quarter)
                  .ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillTargetMidMigrationRestartConverges) {
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 101;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 171);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 3, MakeOptions(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(2).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  const int target = 0;  // The lowest-id survivor takes the drained state.
  cluster.KillReplica(target, 0);  // Installed chunks not yet checkpointed.
  EXPECT_GT(cluster.pending_delta_count(target), 0u);

  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());
  ASSERT_TRUE(cluster.RestartReplica(target, 0).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 2 * third,
                          updates.size() - 2 * third)
                  .ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, TargetDiesUndetectedMidRemovalStillConverges) {
  // The nastiest chunk-failure interleaving: the migration target dies
  // WITHOUT the coordinator noticing (no KillReplica fencing), so the
  // next pump extracts fine and only the install send fails. The
  // source's XOR-cancel for that chunk must still be delivered (or its
  // shard fenced) — if it were silently stranded, later deltas would
  // close the sequence gap and the chunk would cancel out of the
  // global fold for good.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 107;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t quarter = updates.size() / 4;

  const GraphZeppelinConfig base = BaseConfig(n, 211);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, MakeOptions(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), 2 * quarter).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(0).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  ASSERT_TRUE(cluster.Update(updates.data() + 2 * quarter, quarter).ok());
  const int target = 1;  // The lowest-id survivor takes the drained state.
  ASSERT_GT(cluster.pending_delta_count(target), 0u);
  cluster.KillReplica(target, 0, /*observed=*/false);
  // This pump extracts from the healthy source, then fails to install
  // on the dead target; the coordinator must fence the target itself.
  EXPECT_FALSE(cluster.PumpMigration().ok());
  EXPECT_TRUE(cluster.shard_down(target));

  ASSERT_TRUE(cluster.RestartReplica(target, 0).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 3 * quarter,
                          updates.size() - 3 * quarter)
                  .ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, CheckpointMidMigrationCoversDeltasExactly) {
  // A checkpoint between pump steps truncates the pending-delta logs;
  // a kill + restart AFTER it must replay only what the checkpoint
  // does not cover — the delta-sequence reconciliation in action.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.07;
  ep.seed = 113;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t half = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 191);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, MakeOptions(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(0).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());  // Covers the chunks so far.
  EXPECT_EQ(cluster.pending_delta_count(0), 0u);
  EXPECT_EQ(cluster.pending_delta_count(1), 0u);

  ASSERT_TRUE(cluster.PumpMigration().ok());  // One uncovered chunk...
  cluster.KillReplica(0, 0);
  ASSERT_TRUE(cluster.Update(updates.data() + half, updates.size() - half)
                  .ok());
  ASSERT_TRUE(cluster.RestartReplica(0, 0).ok());  // ...replayed here.
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  EXPECT_TRUE(cluster.shard_removed(0));

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, DiskBackedShardProcessesWork) {
  // Disk-backed gutter tree + on-disk sketch store inside each shard;
  // per-shard instance tags (and per-process pids, or the per-instance
  // counter for thread shards) keep backing files separate.
  GraphZeppelinConfig base = BaseConfig(64, 7);
  base.storage = GraphZeppelinConfig::Storage::kDisk;
  base.buffering = GraphZeppelinConfig::Buffering::kGutterTree;
  ShardCluster cluster(base, 2, MakeOptions(2));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 32; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const ConnectivityResult r = Connectivity(std::move(folded).value());
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 64u - 32u + 1u);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, SplitOntoTcpEndpointGrowsAcrossMachines) {
  // Elastic growth onto "another machine": SplitShard with a tcp://
  // endpoint attaches a listener-mode shard to a running cluster (a
  // mixed cluster when the base transport is thread or local). The
  // result must stay bitwise-identical to an unsharded instance.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 121;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t half = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 231);
  ShardClusterOptions options = MakeOptions(2);
  // TCP endpoints need the handshake secret even in local base mode.
  options.auth_secret = kSubstrateSecret;
  ShardCluster cluster(base, 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());

  Result<int> added = cluster.SplitShard(0, SpawnListener());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE(cluster.Update(updates.data() + half, updates.size() - half)
                  .ok());
  // The tcp shard really participates: it owns slots and took updates.
  Result<ShardStats> stats = cluster.Stats(added.value());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().num_updates, 0u);

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));

  // And it can be drained back out (remove pumps its state to
  // survivors over the same wire).
  ASSERT_TRUE(cluster.BeginRemoveShard(added.value()).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  Result<GraphSnapshot> after = cluster.Snapshot();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// ---- Replication ----------------------------------------------------------

TEST_P(ShardClusterTest, ReplicaKillDrillRepairsWithZeroStreamPause) {
  // The replication acceptance drill: at R=2, SIGKILL one replica of a
  // shard mid-stream. Ingestion and queries continue with ZERO pause
  // (the surviving replica carries the shard), the killed replica
  // rejoins via reconnect + anti-entropy — no checkpoint restore, no
  // replay — and afterwards it can serve the shard ALONE, bitwise
  // identical to a single unsharded instance.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 221;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 241);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  // 3 shards x 2 replicas: the TCP variant needs one listener per
  // REPLICA (endpoints are shard-major, replicas consecutive).
  ShardCluster cluster(base, 3, MakeOptions(3 * 2, options));
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.replication(), 2);

  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  cluster.KillReplica(1, 1);  // Murder one replica mid-stream.
  EXPECT_TRUE(cluster.replica_down(1, 1));
  EXPECT_FALSE(cluster.replica_down(1, 0));

  // Zero stream pause: ingestion keeps flowing...
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());
  // ...and so do queries — the fold fails over to the live replica.
  {
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    const std::vector<GraphUpdate> prefix(updates.begin(),
                                          updates.begin() + 2 * third);
    EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, prefix));
  }

  // Rejoin: reconnect + reconcile. The replica comes back empty and
  // anti-entropy transfers exactly the reference's content.
  uint64_t repaired = 0;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(cluster.replica_down(1, 1));
  for (const int s : cluster.ActiveShards()) {
    EXPECT_FALSE(cluster.shard_down(s));
  }

  // Finish the stream, then kill the OTHER replica: the repaired one
  // now carries the shard alone, and the fold must still be bitwise
  // identical to the unsharded ground truth.
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 2 * third,
                          updates.size() - 2 * third)
                  .ok());
  cluster.KillReplica(1, 0);
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));

  // And a second reconcile rejoins replica 0 from the repaired one.
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_FALSE(cluster.replica_down(1, 0));
  ASSERT_TRUE(cluster.Flush().ok());  // All-replica barrier works again.
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// A fresh directory under the test temp dir, so a scan of it finds only
// the checkpoint files one cluster writes.
std::string MakeCheckpointDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name + "_XXXXXX";
  GZ_CHECK(::mkdtemp(dir.data()) != nullptr);
  return dir;
}

// The published files in `dir` (no .tmp leftovers), sorted.
std::vector<std::string> CheckpointFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  GZ_CHECK(d != nullptr);
  while (const struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name[0] == '.' || name.ends_with(".tmp")) continue;
    files.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

TEST_P(ShardClusterTest, ReconcileDetectsAndRepairsInjectedDivergence) {
  // Silent corruption drill: a checkpoint rots on disk (one body byte
  // flipped; a checkpoint body carries no checksum) and a replica
  // restarts from it. The restore lands at the books' position, so only
  // its content diverges. Folds from the healthy replica are
  // unaffected; Reconcile() must detect the divergence (the healthy
  // replica 0 is the reference), repair it chunk-by-chunk, and
  // converge: a second pass finds nothing, and the repaired replica
  // serves the shard alone.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 241;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);

  const GraphZeppelinConfig base = BaseConfig(n, 261);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  options.checkpoint_dir = MakeCheckpointDir("gz_rot_ckpt");
  {
    ShardCluster cluster(base, 2, MakeOptions(2 * 2, options));
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
    ASSERT_TRUE(cluster.Checkpoint().ok());

    // Rot every checkpoint file; only replica (0, 1) restarts from one.
    for (const std::string& file : CheckpointFiles(options.checkpoint_dir)) {
      FILE* f = std::fopen(file.c_str(), "r+b");
      ASSERT_NE(f, nullptr) << file;
      ASSERT_EQ(std::fseek(f, GraphSnapshot::kHeaderBytes, SEEK_SET), 0);
      const int byte = std::fgetc(f);
      ASSERT_NE(byte, EOF) << file;
      ASSERT_EQ(std::fseek(f, GraphSnapshot::kHeaderBytes, SEEK_SET), 0);
      ASSERT_EQ(std::fputc(byte ^ 0x01, f), byte ^ 0x01);
      ASSERT_EQ(std::fclose(f), 0);
    }
    cluster.KillReplica(0, 1);
    {
      const Status restarted = cluster.RestartReplica(0, 1);
      ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    }

    // The healthy replica still answers for the shard.
    const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
    {
      Result<GraphSnapshot> folded = cluster.Snapshot();
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
      EXPECT_TRUE(folded.value() == expect);
    }

    uint64_t repaired = 0;
    ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
    EXPECT_GT(repaired, 0u) << "the injected divergence went undetected";
    ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
    EXPECT_EQ(repaired, 0u) << "a repaired cluster must reconcile clean";

    cluster.KillReplica(0, 0);
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_EQ(folded.value().num_updates(), updates.size());
    EXPECT_TRUE(folded.value() == expect)
        << "the repaired replica's content still diverges";
    ASSERT_TRUE(cluster.Shutdown().ok());
  }
  ::rmdir(options.checkpoint_dir.c_str());
}

TEST_P(ShardClusterTest, ReconcileIsANoOpOnAHealthyUnreplicatedCluster) {
  // R=1 parity: Reconcile() exists but has nothing to compare a lone
  // replica against — a healthy cluster reconciles clean with zero
  // repairs and an unchanged fold.
  const GraphZeppelinConfig base = BaseConfig(64, 271);
  ShardCluster cluster(base, 2, MakeOptions(2));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 40; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  uint64_t repaired = 7;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_EQ(repaired, 0u);
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, ReplicaCursorsDivergeOverOneSharedLog) {
  // The two replicas of shard 1 end up with DIFFERENT checkpoint
  // cursors into the shard's one update log and one delta log: replica
  // 0 checkpoints at P1, replica 1 rejoins through Reconcile and
  // checkpoints at P2 while shard 0 drains into shard 1. The log must stay pinned at the lower
  // cursor, so a classic restore+replay of replica 0 still finds every
  // update from P1 on and every delta past its checkpoint's sequence
  // number, although its sibling's cursor is ahead.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 281;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t p1 = updates.size() / 4;
  const size_t p2 = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 291);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, MakeOptions(2 * 2, options));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), p1).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());  // Both replicas commit P1.
  ASSERT_TRUE(cluster.Update(updates.data() + p1, p2 - p1).ok());
  ASSERT_TRUE(cluster.BeginRemoveShard(0).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  // Shard 1, the lowest-id survivor, gets the deltas.
  ASSERT_GT(cluster.pending_delta_count(1), 0u);

  // Replica 1 rejoins from empty and commits its own checkpoint at P2;
  // replica 0's cursor stays at P1 and pins the log.
  cluster.KillReplica(1, 1);
  uint64_t repaired = 0;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(cluster.replica_down(1, 1));
  EXPECT_GT(cluster.unacked_updates(1), 0u);

  ASSERT_TRUE(cluster.Update(updates.data() + p2, updates.size() - p2).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }

  // Restore replica 0 from its P1 checkpoint and replay past it.
  cluster.KillReplica(1, 0);
  {
    const Status restarted = cluster.RestartReplica(1, 0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  }
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  {
    Result<GraphSnapshot> folded = cluster.Snapshot();  // Reads replica 0.
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_EQ(folded.value().num_updates(), updates.size());
    EXPECT_TRUE(folded.value() == expect);
  }
  // The same fold through replica 1 alone.
  cluster.KillReplica(1, 0);
  {
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_TRUE(folded.value() == expect);
  }
  {
    const Status restarted = cluster.RestartReplica(1, 0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  }

  // With every cursor at the head, both logs drain.
  ASSERT_TRUE(cluster.Checkpoint().ok());
  EXPECT_EQ(cluster.unacked_updates(1), 0u);
  EXPECT_EQ(cluster.pending_delta_count(1), 0u);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, CheckpointIsAPlainSnapshotFile) {
  // A shard checkpoint is the GraphSnapshot byte format and nothing
  // else: with one shard, the one file Checkpoint() writes loads with
  // GraphSnapshot::LoadFromFile and equals the cluster's fold bitwise.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 311;
  const std::vector<GraphUpdate> updates =
      ToggleStream(ErdosRenyiGenerator(ep).Generate(), 3);
  const GraphZeppelinConfig base = BaseConfig(n, 313);
  ShardClusterOptions options;
  options.checkpoint_dir = MakeCheckpointDir("gz_plain_ckpt");
  {
    ShardCluster cluster(base, 1, MakeOptions(1, options));
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
    ASSERT_TRUE(cluster.Checkpoint().ok());
    const std::vector<std::string> files =
        CheckpointFiles(options.checkpoint_dir);
    ASSERT_EQ(files.size(), 1u);
    Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(files[0]);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    // The one shard owns every node, so it was sent both halves of every
    // update: its checkpoint counts twice the stream's updates.
    EXPECT_EQ(loaded.value().num_updates(), 2 * updates.size());
    EXPECT_TRUE(loaded.value() ==
                PlusUpdates(folded.value(), updates.size()));
    EXPECT_TRUE(loaded.value() ==
                PlusUpdates(SingleProcessSnapshot(base, updates),
                            updates.size()));
    ASSERT_TRUE(cluster.Shutdown().ok());
  }
  EXPECT_TRUE(CheckpointFiles(options.checkpoint_dir).empty());
  ::rmdir(options.checkpoint_dir.c_str());
}

TEST_P(ShardClusterTest, RestartNeverReadsTheUnackedCheckpointSlot) {
  // Two checkpoints fill both slots of the one replica; the older, at
  // P1, is no longer the acked one. What that slot holds must not
  // matter — it stands in for a checkpoint whose ack was lost — so it
  // is overwritten with garbage, and a restart from the acked P2
  // checkpoint plus replay must still fold bitwise to one instance.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 317;
  const std::vector<GraphUpdate> updates =
      ToggleStream(ErdosRenyiGenerator(ep).Generate(), 5);
  const size_t p1 = updates.size() / 3;
  const size_t p2 = 2 * updates.size() / 3;
  const GraphZeppelinConfig base = BaseConfig(n, 331);
  ShardClusterOptions options;
  options.checkpoint_dir = MakeCheckpointDir("gz_slot_ckpt");
  {
    ShardCluster cluster(base, 1, MakeOptions(1, options));
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.Update(updates.data(), p1).ok());
    ASSERT_TRUE(cluster.Checkpoint().ok());
    ASSERT_TRUE(cluster.Update(updates.data() + p1, p2 - p1).ok());
    ASSERT_TRUE(cluster.Checkpoint().ok());
    ASSERT_TRUE(
        cluster.Update(updates.data() + p2, updates.size() - p2).ok());
    cluster.KillReplica(0, 0);

    // The unacked slot is the file at P1 (one shard: its count is both
    // halves of every update, twice the stream position).
    const std::vector<std::string> files =
        CheckpointFiles(options.checkpoint_dir);
    ASSERT_EQ(files.size(), 2u);
    std::string unacked;
    for (const std::string& file : files) {
      Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(file);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      if (loaded.value().num_updates() == 2 * p1) unacked = file;
    }
    ASSERT_FALSE(unacked.empty());
    FILE* f = std::fopen(unacked.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "not a checkpoint";
    ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
    ASSERT_EQ(std::fclose(f), 0);

    const Status restarted = cluster.RestartReplica(0, 0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_EQ(folded.value().num_updates(), updates.size());
    EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
    ASSERT_TRUE(cluster.Shutdown().ok());
  }
  EXPECT_TRUE(CheckpointFiles(options.checkpoint_dir).empty());
  ::rmdir(options.checkpoint_dir.c_str());
}

TEST_P(ShardClusterTest, CheckpointWriteFaultKeepsTheAckedSlotAndTheLogs) {
  // A checkpoint at P1 succeeds; the next one cannot create its file (a
  // directory sits at the unacked slot's .tmp path). That is a clean
  // kIoError: no replica fenced, no log trimmed, and a later restart
  // restores the P1 slot and replays to the single-instance bytes.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 337;
  const std::vector<GraphUpdate> updates =
      ToggleStream(ErdosRenyiGenerator(ep).Generate(), 5);
  const size_t p1 = updates.size() / 3;
  const size_t p2 = 2 * updates.size() / 3;
  const GraphZeppelinConfig base = BaseConfig(n, 347);
  ShardClusterOptions options;
  options.checkpoint_dir = MakeCheckpointDir("gz_fault_ckpt");
  {
    ShardCluster cluster(base, 2, MakeOptions(2, options));
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.Update(updates.data(), p1).ok());
    ASSERT_TRUE(cluster.Checkpoint().ok());
    ASSERT_TRUE(cluster.Update(updates.data() + p1, p2 - p1).ok());

    // Each published file is a shard's acked P1 slot; its other slot is
    // where the next checkpoint writes.
    const std::vector<std::string> acked =
        CheckpointFiles(options.checkpoint_dir);
    ASSERT_EQ(acked.size(), 2u);
    std::vector<std::string> blocked;
    for (const std::string& file : acked) {
      ASSERT_TRUE(file.ends_with("_c0.bin") || file.ends_with("_c1.bin"))
          << file;
      std::string other = file;
      char& slot = other[other.size() - std::string("0.bin").size()];
      slot = slot == '0' ? '1' : '0';
      blocked.push_back(other + ".tmp");
      ASSERT_EQ(::mkdir(blocked.back().c_str(), 0755), 0) << blocked.back();
    }
    std::vector<uint64_t> unacked;
    for (int s = 0; s < cluster.num_shards(); ++s) {
      unacked.push_back(cluster.unacked_updates(s));
      EXPECT_GT(unacked.back(), 0u) << "shard " << s;
    }

    EXPECT_EQ(cluster.Checkpoint().code(), StatusCode::kIoError);
    for (int s = 0; s < cluster.num_shards(); ++s) {
      EXPECT_FALSE(cluster.shard_down(s)) << "shard " << s;
      EXPECT_EQ(cluster.unacked_updates(s), unacked[s]) << "shard " << s;
    }

    ASSERT_TRUE(
        cluster.Update(updates.data() + p2, updates.size() - p2).ok());
    cluster.KillReplica(0, 0);
    const Status restarted = cluster.RestartReplica(0, 0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_EQ(folded.value().num_updates(), updates.size());
    EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
    ASSERT_TRUE(cluster.Shutdown().ok());
    for (const std::string& dir : blocked) ::rmdir(dir.c_str());
  }
  EXPECT_TRUE(CheckpointFiles(options.checkpoint_dir).empty());
  ::rmdir(options.checkpoint_dir.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, ShardClusterTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess,
                      Substrate::kTcp),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  GZ_CHECK(dir != nullptr);
  size_t count = 0;
  while (const struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

TEST(ShardClusterThreadTest, KillRestartDestroyLoopLeavesNoShardThreads) {
  // thread: shards live in the test's own address space, so a leaked
  // server thread (or one of its Graph Workers) would outlive the
  // cluster here, where a leaked child process would not. Each round
  // kills one shard mid-stream, restarts it (or, every third round,
  // destroys the cluster with the shard still down), checks the fold
  // bitwise, and destroys the cluster — with an explicit Shutdown()
  // on even rounds, through the destructor on odd ones. Afterwards the
  // process's thread count must be back at its baseline.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 301;
  const std::vector<GraphUpdate> updates =
      ToggleStream(ErdosRenyiGenerator(ep).Generate(), 3);
  const size_t half = updates.size() / 2;
  const GraphZeppelinConfig base = BaseConfig(n, 307);
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);

  const size_t baseline = ThreadCount();
  for (int round = 0; round < 6; ++round) {
    {
      ShardCluster cluster(base, 3, OnSubstrate(Substrate::kThread, 3));
      ASSERT_TRUE(cluster.Start().ok());
      EXPECT_GT(ThreadCount(), baseline);
      ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
      if (round % 2 == 1) {
        ASSERT_TRUE(cluster.Checkpoint().ok());
      }
      const int victim = round % 3;
      cluster.KillReplica(victim, 0);
      ASSERT_TRUE(cluster
                      .Update(updates.data() + half, updates.size() - half)
                      .ok());
      if (round % 3 == 2) continue;  // Destroyed with the shard down.
      ASSERT_TRUE(cluster.RestartReplica(victim, 0).ok()) << "round " << round;
      Result<GraphSnapshot> folded = cluster.Snapshot();
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
      EXPECT_TRUE(folded.value() == expect) << "round " << round;
      if (round % 2 == 0) {
        ASSERT_TRUE(cluster.Shutdown().ok());
      }
    }
    // A joined thread leaves /proc/self/task a moment after its join
    // returns; allow that, never a live thread.
    size_t now = ThreadCount();
    for (int wait = 0; wait < 200 && now != baseline; ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      now = ThreadCount();
    }
    EXPECT_EQ(now, baseline) << "threads outlived the cluster in round "
                             << round;
  }
}

TEST(ShardClusterTcpTest, WrongAuthSecretFailsStartWithoutCrash) {
  // A coordinator holding the wrong secret must be told so at Start()
  // — a clean FailedPrecondition, no crash on either side, and the
  // listener survives to serve a correctly keyed coordinator next.
  ListenerShard listener;
  ASSERT_TRUE(listener
                  .Start(DefaultShardBinary(), ::testing::TempDir(),
                         ::testing::TempDir() + "/gz_wrong_secret.log",
                         "right-secret")
                  .ok());
  const GraphZeppelinConfig base = BaseConfig(64, 3);
  {
    ShardClusterOptions options;
    options.shard_endpoints = {listener.endpoint()};
    options.auth_secret = "wrong-secret";
    ShardCluster cluster(base, 1, options);
    const Status s = cluster.Start();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(s.message().find("authentication"), std::string::npos);
  }
  ASSERT_TRUE(listener.Running());
  ShardClusterOptions options;
  options.shard_endpoints = {listener.endpoint()};
  options.auth_secret = "right-secret";
  ShardCluster cluster(base, 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 16; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST(ShardClusterTcpTest, SnapshotFailsOverPastAListenerThatDiedUnseen) {
  // Shard 0's first replica's listener process dies without the
  // coordinator hearing of it, so its socket still looks alive. The
  // snapshot pull (several chunks per shard) must read that replica's
  // EOF, fence it, and pull its chunks from the shard's other replica.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 349;
  const std::vector<GraphUpdate> updates =
      ToggleStream(ErdosRenyiGenerator(ep).Generate(), 3);
  const GraphZeppelinConfig base = BaseConfig(n, 353);
  std::vector<std::unique_ptr<ListenerShard>> listeners;
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  options.auth_secret = kSubstrateSecret;
  StartSubstrateListeners(4, &listeners, &options.shard_endpoints);
  ShardCluster cluster(base, 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  listeners[0]->Stop();  // Shard-major: shard 0, replica 0.

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(cluster.replica_down(0, 0));
  EXPECT_FALSE(cluster.replica_down(0, 1));
  EXPECT_FALSE(cluster.shard_down(1));
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST(ShardClusterTcpTest, MalformedEndpointFailsStartCleanly) {
  const GraphZeppelinConfig base = BaseConfig(64, 5);
  ShardClusterOptions options;
  options.shard_endpoints = {"carrier-pigeon://coop:7"};
  ShardCluster cluster(base, 1, options);
  const Status s = cluster.Start();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ShardClusterConfigTest, OutOfRangeReplicationFactorFailsStartCleanly) {
  const GraphZeppelinConfig base = BaseConfig(64, 9);
  for (const int r : {0, -1, 9}) {
    ShardClusterOptions options;
    options.replication_factor = r;
    ShardCluster cluster(base, 2, options);
    const Status s = cluster.Start();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "factor " << r;
  }
}

TEST(ShardClusterConfigTest, TooManyEndpointsForTheReplicaLayoutFailStart) {
  // 2 shards x 2 replicas = 4 endpoint positions; a fifth entry has
  // nowhere to go and must be a config error, not a silent drop.
  const GraphZeppelinConfig base = BaseConfig(64, 13);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.shard_endpoints = {"local:", "local:", "local:", "local:",
                             "local:"};
  ShardCluster cluster(base, 2, options);
  const Status s = cluster.Start();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gz
