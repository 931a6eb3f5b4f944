// Extension bench (paper Section 8): sharded ingestion. Sketch
// linearity lets shards ingest disjoint stream partitions with zero
// coordination; a query XORs shard snapshots node-wise.
//
// One ShardCluster coordinator runs per shard count over each of the
// three endpoint kinds, every shard a listener dialed over loopback
// TCP: thread: shards (listeners on threads of this process — the
// framing and serialized-snapshot fold with no process boundary),
// local: gz_shard children the coordinator spawns (the same frames
// plus the process boundary), and gz_shard listeners the bench starts
// and names by tcp:// endpoint with the cluster's auth secret. Each row also reports the measured CRC32C throughput and
// the estimated share of ingest wall time the v3 per-frame checksum
// costs over v2 framing (v2 shipped the same bytes unchecksummed, so
// the delta is exactly one CRC pass over the frame bytes on each
// side). GZ_BENCH_SHARDS_MAX caps the shard-count sweep (CI smokes
// with 2). On a single core the per-shard pipelines add overhead; with
// real cores/machines per shard, rates multiply (paper Section 8).
// With --rebalance, a second benchmark runs instead: elastic reshard
// operations fire while the stream is flowing — a split (a routing
// change: no state moves), then a live removal of the split child,
// whose state migrates chunk by chunk — and the JSON reports both wall
// times plus the worst per-burst update latency during the removal vs
// the steady-state baseline — the "rebalance under load" column. A stall-free reshard
// keeps the two latencies in the same ballpark; a flush-barrier design
// would spike the migration column by the whole shard drain time.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/connectivity.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_transport.h"
#include "util/crc32c.h"
#include "util/timer.h"

namespace {

// The substrate column: listener threads, spawned gz_shard children, or
// gz_shard listeners started here and dialed by tcp:// endpoint.
enum class BenchMode { kThread, kProcess, kProcessTcp };

constexpr char kBenchSecret[] = "bench-secret";

const char* BenchModeName(BenchMode mode) {
  switch (mode) {
    case BenchMode::kThread:
      return "thread";
    case BenchMode::kProcess:
      return "process";
    default:
      return "tcp";
  }
}

// Options placing `endpoints` shard replicas on the mode's substrate:
// thread: endpoints, local children (the default), or freshly stood-up
// listener-mode gz_shards dialed over TCP.
gz::ShardClusterOptions OptionsFor(
    BenchMode mode, int endpoints,
    std::vector<std::unique_ptr<gz::ListenerShard>>* listeners,
    gz::ShardClusterOptions options = {}) {
  if (mode == BenchMode::kThread) {
    options.shard_endpoints.assign(endpoints, "thread:");
  } else if (mode == BenchMode::kProcessTcp) {
    options.auth_secret = kBenchSecret;
    GZ_CHECK_OK(gz::StartListenerShards(
        gz::DefaultShardBinary(), endpoints, "/tmp", /*log_prefix=*/"",
        options.auth_secret, listeners, &options.shard_endpoints));
  }
  return options;
}

// Measured CRC32C throughput on this machine (bytes/sec), over a
// frame-sized buffer.
double MeasureCrcBytesPerSec() {
  std::vector<uint8_t> buf(1 << 20, 0xA7);
  uint32_t sink = 0;
  gz::WallTimer timer;
  int reps = 0;
  while (timer.Seconds() < 0.05) {
    sink ^= gz::Crc32c(buf.data(), buf.size());
    ++reps;
  }
  // Keep the sink alive so the loop cannot be discarded.
  if (sink == 0xDEADBEEF) std::fprintf(stderr, "\n");
  return static_cast<double>(buf.size()) * reps / timer.Seconds();
}

// v3-vs-v2 framing delta: v2 shipped identical bytes without the
// trailer, so the added cost is one CRC pass over the update-frame
// bytes on the send side and one on the receive side.
double EstimatedChecksumSeconds(size_t updates, double crc_bytes_per_sec) {
  const double frame_bytes =
      static_cast<double>(updates) * sizeof(gz::GraphUpdate);
  return 2.0 * frame_bytes / crc_bytes_per_sec;
}

int RunRebalanceBench(const gz::bench::Workload& w) {
  using namespace gz;
  std::printf("[\n");
  bool first = true;
  for (const BenchMode mode :
       {BenchMode::kThread, BenchMode::kProcess, BenchMode::kProcessTcp}) {
    GraphZeppelinConfig base = bench::DefaultGzConfig();
    base.num_nodes = w.num_nodes;
    base.num_workers = 1;
    ShardClusterOptions options;
    options.migrate_nodes_per_chunk =
        std::max<uint64_t>(1, w.num_nodes / 64);
    std::vector<std::unique_ptr<ListenerShard>> listeners;
    options = OptionsFor(mode, 2, &listeners, std::move(options));
    ShardCluster cluster(base, 2, options);
    GZ_CHECK_OK(cluster.Start());

    const std::vector<GraphUpdate>& updates = w.stream.updates;
    const size_t burst = 4096;
    size_t fed = 0;
    double max_burst_baseline = 0, max_burst_migrating = 0;
    uint64_t bursts_during_migration = 0;
    auto feed_burst = [&](double* max_burst) {
      if (fed >= updates.size()) return false;
      const size_t count = std::min(burst, updates.size() - fed);
      WallTimer t;
      GZ_CHECK_OK(cluster.Update(updates.data() + fed, count));
      *max_burst = std::max(*max_burst, t.Seconds());
      fed += count;
      return true;
    };

    // Phase 1: steady state over the first third (baseline latency).
    while (fed < updates.size() / 3) feed_burst(&max_burst_baseline);

    // Phase 2: split shard 0 under load (the child on the same
    // substrate, except tcp, which grows a local child). A split moves
    // routing slots only, so this times spawning and configuring the
    // child.
    WallTimer split_timer;
    Result<int> split =
        cluster.SplitShard(0, mode == BenchMode::kThread ? "thread:" : "");
    GZ_CHECK_MSG(split.ok(), split.status().ToString().c_str());
    const double split_seconds = split_timer.Seconds();

    // Phase 3: more steady state, then remove the split child.
    const size_t resume_at = fed;
    while (fed < resume_at + updates.size() / 6) {
      if (!feed_burst(&max_burst_baseline)) break;
    }
    WallTimer remove_timer;
    GZ_CHECK_OK(cluster.BeginRemoveShard(split.value()));
    while (cluster.migration_active()) {
      bursts_during_migration += feed_burst(&max_burst_migrating);
      GZ_CHECK_OK(cluster.PumpMigration());
    }
    const double remove_seconds = remove_timer.Seconds();

    while (feed_burst(&max_burst_baseline)) {
    }
    GZ_CHECK_OK(cluster.Flush());

    Result<GraphSnapshot> merged = cluster.Snapshot();
    GZ_CHECK_OK(merged.status());
    const ConnectivityResult r =
        Connectivity(std::move(merged).value(), base.query_threads);
    GZ_CHECK(!r.failed);
    std::printf(
        "%s  {\"bench\": \"ext_sharded_rebalance\", \"workload\": \"%s\",\n"
        "   \"mode\": \"%s\", \"updates\": %zu,\n"
        "   \"split_seconds\": %.4f, \"remove_seconds\": %.4f,\n"
        "   \"bursts_during_migration\": %llu,\n"
        "   \"max_burst_ms_baseline\": %.3f,\n"
        "   \"max_burst_ms_during_migration\": %.3f,\n"
        "   \"components\": %zu}",
        first ? "" : ",\n", w.name.c_str(), BenchModeName(mode),
        updates.size(), split_seconds, remove_seconds,
        static_cast<unsigned long long>(bursts_during_migration),
        max_burst_baseline * 1e3, max_burst_migrating * 1e3,
        r.num_components);
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}

int RunReplicationBench(const gz::bench::Workload& w) {
  // The replication column: what does R=2 cost on the ingest path
  // (every routed slab is sent twice), and how does XOR anti-entropy
  // repair of a killed replica compare against the classic
  // checkpoint-restore + log-replay restart of the same replica.
  using namespace gz;
  std::printf("[\n");
  bool first = true;
  for (const BenchMode mode : {BenchMode::kProcess, BenchMode::kProcessTcp}) {
    GraphZeppelinConfig base = bench::DefaultGzConfig();
    base.num_nodes = w.num_nodes;
    base.num_workers = 1;
    const std::vector<GraphUpdate>& updates = w.stream.updates;
    const int shards = 2;

    double ingest_seconds[3] = {0, 0, 0};
    double repair_seconds = 0, restore_seconds = 0;
    uint64_t repair_chunks = 0;
    size_t components = 0;
    for (const int replication : {1, 2}) {
      ShardClusterOptions options;
      options.replication_factor = replication;
      // Auto-checkpointing off: the restore column must measure a
      // restart against the HALF-STREAM-OLD checkpoint taken below,
      // not whatever fresher one the interval happened to cut.
      options.checkpoint_interval_updates = 0;
      std::vector<std::unique_ptr<ListenerShard>> listeners;
      options = OptionsFor(mode, shards * replication, &listeners,
                           std::move(options));
      ShardCluster cluster(base, shards, options);
      GZ_CHECK_OK(cluster.Start());

      // Checkpoint at the halfway mark: a replica killed at the END of
      // the stream then restores a half-stream-old checkpoint and
      // replays the other half — the representative mid-stream-crash
      // shape — while anti-entropy repair moves O(graph) sketch bytes
      // regardless of how long ago the last checkpoint was.
      const size_t half = updates.size() / 2;
      WallTimer timer;
      GZ_CHECK_OK(cluster.Update(updates.data(), half));
      GZ_CHECK_OK(cluster.Checkpoint());
      GZ_CHECK_OK(
          cluster.Update(updates.data() + half, updates.size() - half));
      GZ_CHECK_OK(cluster.Flush());
      ingest_seconds[replication] = timer.Seconds();

      if (replication == 2) {
        // Both recovery paths start from the same wound: replica 1 of
        // shard 1 killed at the end of the stream, checkpoint half a
        // stream stale. Restore is measured FIRST — anti-entropy's
        // finalizer writes a fresh checkpoint, which would hand the
        // restart an artificially empty replay log.
        cluster.KillReplica(1, 1);
        WallTimer restore_timer;
        GZ_CHECK_OK(cluster.RestartReplica(1, 1));
        restore_seconds = restore_timer.Seconds();

        cluster.KillReplica(1, 1);
        WallTimer repair_timer;
        GZ_CHECK_OK(cluster.Reconcile(&repair_chunks));
        repair_seconds = repair_timer.Seconds();

        Result<GraphSnapshot> merged = cluster.Snapshot();
        GZ_CHECK_OK(merged.status());
        const ConnectivityResult r =
            Connectivity(std::move(merged).value(), base.query_threads);
        GZ_CHECK(!r.failed);
        components = r.num_components;
      }
      GZ_CHECK_OK(cluster.Shutdown());
    }
    std::printf(
        "%s  {\"bench\": \"ext_sharded_replication\", \"workload\": \"%s\",\n"
        "   \"mode\": \"%s\", \"shards\": %d, \"updates\": %zu,\n"
        "   \"updates_per_sec_r1\": %.0f, \"updates_per_sec_r2\": %.0f,\n"
        "   \"replication_overhead_pct\": %.1f,\n"
        "   \"repair_seconds\": %.4f, \"repair_chunks\": %llu,\n"
        "   \"restore_seconds\": %.4f,\n"
        "   \"components\": %zu}",
        first ? "" : ",\n", w.name.c_str(), BenchModeName(mode), shards,
        updates.size(),
        static_cast<double>(updates.size()) / ingest_seconds[1],
        static_cast<double>(updates.size()) / ingest_seconds[2],
        100.0 * (ingest_seconds[2] / ingest_seconds[1] - 1.0),
        repair_seconds, static_cast<unsigned long long>(repair_chunks),
        restore_seconds, components);
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gz;
  const int scale = bench::GetEnvInt("GZ_BENCH_KRON_MAX", 10) - 1;
  const bench::Workload w = bench::MakeKronWorkload(scale);
  if (argc > 1 && std::strcmp(argv[1], "--rebalance") == 0) {
    std::fprintf(stderr, "sharded rebalance bench: %s, %zu updates\n",
                 w.name.c_str(), w.stream.updates.size());
    return RunRebalanceBench(w);
  }
  if (argc > 1 && std::strcmp(argv[1], "--replication") == 0) {
    std::fprintf(stderr, "sharded replication bench: %s, %zu updates\n",
                 w.name.c_str(), w.stream.updates.size());
    return RunReplicationBench(w);
  }

  std::fprintf(stderr, "sharded bench: %s, %zu updates\n", w.name.c_str(),
               w.stream.updates.size());

  const int max_shards = bench::GetEnvInt("GZ_BENCH_SHARDS_MAX", 8);
  const double crc_bytes_per_sec = MeasureCrcBytesPerSec();
  size_t expect_components = 0;
  bool have_expectation = false;
  std::printf("[\n");
  bool first = true;
  for (int shards : {1, 2, 4, 8}) {
    if (shards > max_shards) continue;
    for (const BenchMode mode :
         {BenchMode::kThread, BenchMode::kProcess, BenchMode::kProcessTcp}) {
      GraphZeppelinConfig base = bench::DefaultGzConfig();
      base.num_nodes = w.num_nodes;
      base.num_workers = 1;  // One worker per shard: shards ARE parallelism.
      std::vector<std::unique_ptr<ListenerShard>> listeners;
      ShardCluster cluster(base, shards,
                           OptionsFor(mode, shards, &listeners));
      GZ_CHECK_OK(cluster.Start());

      WallTimer timer;
      GZ_CHECK_OK(
          cluster.Update(w.stream.updates.data(), w.stream.updates.size()));
      GZ_CHECK_OK(cluster.Flush());  // Ingestion includes applying all.
      const double ingest_seconds = timer.Seconds();

      // Query split: aggregation (shard snapshots -> one merged
      // snapshot: the serialized-bytes fold over the sockets) vs the
      // Boruvka solve on the result.
      WallTimer agg_timer;
      Result<GraphSnapshot> merged = cluster.Snapshot();
      GZ_CHECK_OK(merged.status());
      const double agg_seconds = agg_timer.Seconds();
      WallTimer solve_timer;
      const ConnectivityResult r =
          Connectivity(std::move(merged).value(), base.query_threads);
      const double solve_seconds = solve_timer.Seconds();
      GZ_CHECK(!r.failed);
      if (!have_expectation) {
        expect_components = r.num_components;
        have_expectation = true;
      } else {
        // Mode and shard count are invisible in the result.
        GZ_CHECK(r.num_components == expect_components);
      }

      // The v3 checksum's share of this row's ingest wall time.
      const double checksum_seconds = EstimatedChecksumSeconds(
          w.stream.updates.size(), crc_bytes_per_sec);
      std::printf(
          "%s  {\"bench\": \"ext_sharded\", \"workload\": \"%s\",\n"
          "   \"shards\": %d, \"mode\": \"%s\",\n"
          "   \"updates\": %zu, \"updates_per_sec\": %.0f,\n"
          "   \"snapshot_agg_seconds\": %.4f, \"query_seconds\": %.4f,\n"
          "   \"crc32c_gb_per_sec\": %.2f,\n"
          "   \"checksum_overhead_vs_v2_pct\": %.3f,\n"
          "   \"components\": %zu}",
          first ? "" : ",\n", w.name.c_str(), shards, BenchModeName(mode),
          w.stream.updates.size(),
          static_cast<double>(w.stream.updates.size()) / ingest_seconds,
          agg_seconds, solve_seconds, crc_bytes_per_sec / 1e9,
          100.0 * checksum_seconds / ingest_seconds, r.num_components);
      first = false;
    }
  }
  std::printf("\n]\n");
  return 0;
}
