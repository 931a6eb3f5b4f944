// The shard substrates the cluster suites run every case on, each a
// ShardListener dialed over loopback TCP: listener threads inside the
// test process (thread:), `gz_shard --listen` children the coordinator
// spawns (local:), and `gz_shard --listen` processes the suite starts,
// dialed by endpoint with an auth secret (tcp://). All sit behind the
// one ShardCluster coordinator and must give bitwise-identical answers.
#ifndef GZ_TESTS_CLUSTER_SUBSTRATE_H_
#define GZ_TESTS_CLUSTER_SUBSTRATE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "util/check.h"

namespace gz {

enum class Substrate { kThread, kProcess, kTcp };

// The secret kTcp clusters and their listeners share.
inline constexpr char kSubstrateSecret[] = "cluster-substrate-secret";

// The endpoint URI SplitShard passes to grow a shard on `substrate`. A
// kTcp cluster grows onto local: children — a mixed cluster — since a
// listener is not a URI but a running process.
inline std::string SubstrateEndpoint(Substrate substrate) {
  return substrate == Substrate::kThread ? "thread:" : "local:";
}

// Test-name suffix for a parameterized case.
inline std::string SubstrateName(Substrate substrate) {
  switch (substrate) {
    case Substrate::kThread:
      return "Thread";
    case Substrate::kProcess:
      return "Process";
    case Substrate::kTcp:
      return "Tcp";
  }
  return "";
}

// Stands up `count` listener shards keyed with kSubstrateSecret,
// appending them to `*listeners` (which must outlive any cluster that
// dials them) and their URIs to `*endpoints`. Harness failure aborts at
// the cause rather than surfacing as an endpoint error deep in a drill.
inline void StartSubstrateListeners(
    int count, std::vector<std::unique_ptr<ListenerShard>>* listeners,
    std::vector<std::string>* endpoints) {
  GZ_CHECK_OK(StartListenerShards(
      DefaultShardBinary(), count, ::testing::TempDir(),
      ::testing::TempDir() + "/gz_listener_" + std::to_string(::getpid()) +
          "_",
      kSubstrateSecret, listeners, endpoints));
}

// `options` with all `endpoints` shard replicas placed on `substrate`.
// kTcp starts one listener per replica into `*listeners`.
inline ShardClusterOptions OnSubstrate(
    Substrate substrate, int endpoints, ShardClusterOptions options = {},
    std::vector<std::unique_ptr<ListenerShard>>* listeners = nullptr) {
  options.shard_endpoints.clear();
  if (substrate == Substrate::kTcp) {
    GZ_CHECK(listeners != nullptr);
    options.auth_secret = kSubstrateSecret;
    StartSubstrateListeners(endpoints, listeners, &options.shard_endpoints);
  } else {
    options.shard_endpoints.assign(endpoints, SubstrateEndpoint(substrate));
  }
  return options;
}

// The cluster's aggregated fold, which every sharded answer is pinned
// against; aborts on failure.
inline GraphSnapshot FoldedSnapshot(ShardCluster* cluster) {
  Result<GraphSnapshot> snapshot = cluster->Snapshot();
  GZ_CHECK_OK(snapshot.status());
  return std::move(snapshot).value();
}

}  // namespace gz

#endif  // GZ_TESTS_CLUSTER_SUBSTRATE_H_
