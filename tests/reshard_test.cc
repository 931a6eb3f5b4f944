// Randomized resharding chaos suite: a seeded random schedule of
// insert/delete updates interleaved with SplitShard / BeginRemoveShard
// operations at random points, on ALL shard substrates:
// shard listeners on threads in this process, gz_shard listener
// children the coordinator spawns, and listener processes the suite
// starts and names by tcp:// endpoint (+ auth secret) — every one
// dialed over loopback TCP under every resharding drill.
//
// The property under test is the tentpole claim of elastic resharding:
// through ANY reshard schedule the stream never pauses (updates are fed
// between every migration step and an ingest-progress assertion
// enforces they really flowed), and the final folded snapshot is
// bitwise-identical — sketches AND update count — to a single
// GraphZeppelin instance that ingested the identical stream with no
// sharding at all. Schedules cover N -> M active-shard transitions
// across {1..4} -> {1..4}, including both corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cluster_substrate.h"
#include "core/graph_zeppelin.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_transport.h"
#include "stream/erdos_renyi_generator.h"
#include "util/status.h"

namespace gz {
namespace {

constexpr uint64_t kNumNodes = 96;
constexpr int kMaxShards = 4;

GraphZeppelinConfig BaseConfig(uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = kNumNodes;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// A random insert/delete stream: edges from an Erdos-Renyi graph are
// inserted in random order; along the way, random already-inserted
// edges are deleted (and may be re-inserted by a later pass). The
// ground truth is whatever a single instance computes — the suite
// checks shard-schedule invisibility, not graph semantics.
std::vector<GraphUpdate> BuildChaosStream(uint64_t seed) {
  ErdosRenyiParams ep;
  ep.num_nodes = kNumNodes;
  ep.p = 0.08;
  ep.seed = seed + 1000;
  EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::mt19937_64 rng(seed * 7919 + 13);
  std::shuffle(edges.begin(), edges.end(), rng);

  std::vector<GraphUpdate> updates;
  std::vector<Edge> live;
  for (int pass = 0; pass < 3; ++pass) {
    for (const Edge& e : edges) {
      updates.push_back({e, UpdateType::kInsert});
      live.push_back(e);
      if (!live.empty() && rng() % 100 < 35) {
        const size_t pick = rng() % live.size();
        updates.push_back({live[pick], UpdateType::kDelete});
        live.erase(live.begin() + pick);
      }
    }
  }
  return updates;
}

// One reshard operation, chosen to steer the active count toward
// `target_shards` while staying inside [1, kMaxShards]; grown shards
// live at `grow_endpoint`. Returns a human-readable label for failure
// messages.
std::string RandomReshardOp(ShardCluster* sharded, std::mt19937_64* rng,
                            int target_shards,
                            const std::string& grow_endpoint) {
  const std::vector<int> active = sharded->ActiveShards();
  const int count = static_cast<int>(active.size());
  bool grow;
  if (count <= 1) {
    grow = true;
  } else if (count >= kMaxShards) {
    grow = false;
  } else if (count < target_shards) {
    grow = true;
  } else if (count > target_shards) {
    grow = false;
  } else {
    grow = ((*rng)() % 2) == 0;
  }
  if (grow) {
    // A split moves routing slots only (a removal is the one
    // migration). Flip between a random source and the shard that owns
    // the most slots.
    int source = active[0];
    if (((*rng)() % 2) == 0) {
      source = active[(*rng)() % active.size()];
    } else {
      for (const int id : active) {
        if (TableSlotCount(sharded->routing_table(), id) >
            TableSlotCount(sharded->routing_table(), source)) {
          source = id;
        }
      }
    }
    Result<int> id = sharded->SplitShard(source, grow_endpoint);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return "split(" + std::to_string(source) + ")";
  }
  const int victim = active[(*rng)() % active.size()];
  Status s = sharded->BeginRemoveShard(victim);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return "remove(" + std::to_string(victim) + ")";
}

struct Schedule {
  int start_shards;
  int end_shards;
  uint64_t seed;
};

class ReshardChaosTest
    : public ::testing::TestWithParam<std::tuple<Schedule, Substrate>> {};

TEST_P(ReshardChaosTest, FoldedSnapshotBitwiseEqualsSingleInstance) {
  const auto [schedule, substrate] = GetParam();
  std::mt19937_64 rng(schedule.seed);
  const std::vector<GraphUpdate> updates = BuildChaosStream(schedule.seed);
  const GraphZeppelinConfig base = BaseConfig(schedule.seed + 5);

  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 12;  // Many pump steps per reshard.
  // On kTcp the initial shards are listeners and elastic children spawn
  // locally: a mixed cluster, the harder case.
  std::vector<std::unique_ptr<ListenerShard>> listeners;
  const std::string grow_endpoint = SubstrateEndpoint(substrate);
  ShardCluster sharded(base, schedule.start_shards,
                       OnSubstrate(substrate, schedule.start_shards, options,
                                   &listeners));
  ASSERT_TRUE(sharded.Start().ok());

  // Feed plan: the stream goes out in small bursts; reshard ops fire at
  // random burst indices, and while a migration is active one burst is
  // fed between every two pump steps.
  const size_t burst = updates.size() / 40 + 1;
  size_t fed = 0;
  auto feed_burst = [&] {
    if (fed >= updates.size()) return false;
    const size_t count = std::min(burst, updates.size() - fed);
    EXPECT_TRUE(sharded.Update(updates.data() + fed, count).ok());
    fed += count;
    return true;
  };

  // Enough ops to reach the target count plus some churn on the way.
  const int churn = 1 + static_cast<int>(rng() % 3);
  int ops_left =
      std::abs(schedule.end_shards - schedule.start_shards) + 2 * churn;
  std::vector<std::string> op_log;
  while (fed < updates.size() || ops_left > 0 ||
         sharded.migration_active()) {
    if (sharded.migration_active()) {
      // THE zero-stream-pause property: ingestion interleaves with
      // every migration step. feed_before/feed_after prove updates
      // actually flowed while this migration was active.
      const size_t feed_before = fed;
      while (sharded.migration_active()) {
        feed_burst();
        ASSERT_TRUE(sharded.PumpMigration().ok()) << op_log.back();
      }
      if (feed_before < updates.size()) {
        ASSERT_GT(fed, feed_before)
            << "stream paused during " << op_log.back();
      }
      continue;
    }
    if (ops_left > 0 && (fed >= updates.size() || rng() % 4 == 0)) {
      // Bias the tail ops toward the target so the schedule lands on
      // end_shards exactly.
      const int remaining_adjust = std::abs(
          schedule.end_shards -
          static_cast<int>(sharded.ActiveShards().size()));
      const int target = (ops_left > remaining_adjust)
                             ? (rng() % kMaxShards) + 1
                             : schedule.end_shards;
      op_log.push_back(
          RandomReshardOp(&sharded, &rng, target, grow_endpoint));
      --ops_left;
      continue;
    }
    feed_burst();
  }
  ASSERT_EQ(static_cast<int>(sharded.ActiveShards().size()),
            schedule.end_shards)
      << ::testing::PrintToString(op_log);

  // Ground truth: one instance, no sharding, identical stream.
  GraphZeppelin single(base);
  ASSERT_TRUE(single.Init().ok());
  single.Update(updates.data(), updates.size());

  Result<GraphSnapshot> snapshot = sharded.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  GraphSnapshot folded = std::move(snapshot).value();
  GraphSnapshot expect = single.Snapshot();
  EXPECT_EQ(folded.num_updates(), updates.size());
  EXPECT_TRUE(folded == expect) << ::testing::PrintToString(op_log);

  const ConnectivityResult got = Connectivity(std::move(folded));
  const ConnectivityResult want = Connectivity(std::move(expect));
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.component_of, want.component_of);
}

TEST(ReshardReplicationTest, ReconcileUnderALiveRemovalStaysBitwise) {
  // Replication meets elasticity: at R=2, kill one replica of the
  // migration TARGET while a removal drains into it, reconcile it back
  // WITHOUT pausing the migration or the stream, finish the removal,
  // and the final fold — including one served by the repaired replica
  // alone — must be bitwise-identical to an unsharded instance.
  const uint64_t seed = 171;
  const std::vector<GraphUpdate> updates = BuildChaosStream(seed);
  const GraphZeppelinConfig base = BaseConfig(seed + 5);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 12;
  ShardCluster cluster(base, 2, options);
  ASSERT_TRUE(cluster.Start().ok());

  const size_t burst = updates.size() / 30 + 1;
  size_t fed = 0;
  const auto feed_burst = [&] {
    if (fed >= updates.size()) return;
    const size_t count = std::min(burst, updates.size() - fed);
    ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
  };
  for (int i = 0; i < 8; ++i) feed_burst();

  ASSERT_TRUE(cluster.BeginRemoveShard(0).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  // Shard 1, the lowest-id survivor, takes the drained state.
  ASSERT_GT(cluster.pending_delta_count(1), 0u);
  feed_burst();
  ASSERT_TRUE(cluster.PumpMigration().ok());

  cluster.KillReplica(1, 1);  // The target loses a replica mid-removal.
  // The migration keeps pumping on the surviving replicas, with
  // ingestion interleaved — zero pause on either axis.
  feed_burst();
  ASSERT_TRUE(cluster.PumpMigration().ok());
  feed_burst();

  // Anti-entropy mid-migration: the dead replica rejoins while chunks
  // are still moving (its repaired content includes the half-finished
  // migration — linear diffs don't care).
  uint64_t repaired = 0;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(cluster.replica_down(1, 1));

  while (cluster.migration_active()) {
    feed_burst();
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  while (fed < updates.size()) feed_burst();

  GraphZeppelin single(base);
  ASSERT_TRUE(single.Init().ok());
  single.Update(updates.data(), updates.size());
  const GraphSnapshot expect = single.Snapshot();

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == expect);

  // The mid-removal repair really converged: the repaired replica can
  // carry the surviving shard by itself.
  cluster.KillReplica(1, 0);
  folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == expect);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// Four N -> M transitions covering both corners of {1..4}, each on all
// three substrates: 12 randomized schedules total.
INSTANTIATE_TEST_SUITE_P(
    Schedules, ReshardChaosTest,
    ::testing::Combine(
        ::testing::Values(Schedule{1, 4, 17}, Schedule{4, 1, 29},
                          Schedule{2, 3, 43}, Schedule{3, 2, 59}),
        ::testing::Values(Substrate::kThread, Substrate::kProcess,
                          Substrate::kTcp)),
    [](const ::testing::TestParamInfo<std::tuple<Schedule, Substrate>>&
           info) {
      const Schedule& schedule = std::get<0>(info.param);
      return "From" + std::to_string(schedule.start_shards) + "To" +
             std::to_string(schedule.end_shards) +
             SubstrateName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gz
