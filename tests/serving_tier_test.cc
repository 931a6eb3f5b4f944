// Serving-tier suite: the multi-session listener and QuerySession — the
// read-side client that answers queries from shard listeners, through
// its watermark-keyed cached snapshot, without ever touching the
// coordinator.
//
// The load-bearing property: at a quiesced position a cached or rebuilt
// snapshot must be BITWISE identical to the coordinator's full fold —
// after ingest, a split, a live removal, replica failover, and
// concurrent reader sessions. A reader snapshot is round-lazy: a cold
// Snapshot() pulls every shard's samples of round 0 (round 0 whole when
// some node was touched on two shards) and every later round's summary,
// and a query pulls a later round whole only where its summaries do not
// decide it (and ==, which reads every round, pulls every round not yet
// whole), each at the snapshot's position or not at all. While a removal
// migrates, a reader answer may be torn across shards (see
// query_session.h); the chaos drill below checks only that such answers
// stay well formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "cluster_substrate.h"
#include "core/graph_zeppelin.h"
#include "distributed/query_session.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "sketch_content.h"
#include "stream/erdos_renyi_generator.h"
#include "workloads/k_connectivity.h"
#include "util/check.h"

namespace gz {
namespace {

constexpr uint64_t kNumNodes = 96;
constexpr char kSecret[] = "serving-tier-secret";

GraphZeppelinConfig BaseConfig(uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = kNumNodes;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// Insert/delete chaos stream (the reshard suite's shape, smaller).
std::vector<GraphUpdate> BuildStream(uint64_t seed) {
  ErdosRenyiParams ep;
  ep.num_nodes = kNumNodes;
  ep.p = 0.08;
  ep.seed = seed + 1000;
  EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  std::vector<Edge> live;
  uint64_t rng = seed * 7919 + 13;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const Edge& e : edges) {
      updates.push_back({e, UpdateType::kInsert});
      live.push_back(e);
      if (next() % 100 < 30) {
        const size_t pick = next() % live.size();
        updates.push_back({live[pick], UpdateType::kDelete});
        live.erase(live.begin() + pick);
      }
    }
  }
  return updates;
}

// Chunks a refresh pull sweep covers for one shard at this suite's
// nodes-per-chunk granularity.
constexpr uint64_t kChunk = 16;
constexpr uint64_t kChunksPerShard = (kNumNodes + kChunk - 1) / kChunk;
// Range replies of one shard's cold pull: round 0's samples and the
// later rounds' summaries, one request each per chunk.
constexpr uint64_t kColdPullsPerShard = 2 * kChunksPerShard;

// A one-connection relay on a loopback port in front of the listener at
// `upstream`: it answers the reader's handshake itself, then forwards
// each request over its own reader session and each reply back. `edit`
// sees every frame before it is forwarded (`reply` says which way) and
// may rewrite it, or return false to drop the reader's connection. The
// relay ends when the reader hangs up, so destroy it after the session
// that dialed it.
class ReaderRelay {
 public:
  using Edit = std::function<bool(ShardFrame* frame, bool reply)>;

  ReaderRelay(const std::string& upstream, Edit edit) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    GZ_CHECK(listen_fd_ >= 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    GZ_CHECK(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0);
    GZ_CHECK(::listen(listen_fd_, 1) == 0);
    socklen_t addr_len = sizeof(addr);
    GZ_CHECK(::getsockname(listen_fd_,
                           reinterpret_cast<struct sockaddr*>(&addr),
                           &addr_len) == 0);
    port_ = ntohs(addr.sin_port);
    Result<ShardEndpoint> target = ParseShardEndpoint(upstream);
    GZ_CHECK_OK(target.status());
    thread_ = std::thread([this, target = std::move(target).value(),
                           edit = std::move(edit)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      TcpShardTransport up(target, kSecret, ShardSessionRole::kReader);
      ShardFrame frame;
      if (up.Connect().ok() && ServerHandshake(fd, kSecret).ok()) {
        while (RecvFrame(fd, &frame).ok() && edit(&frame, false) &&
               SendFrame(up.fd(), frame.type, frame.payload.data(),
                         frame.payload.size())
                   .ok() &&
               RecvFrame(up.fd(), &frame).ok() && edit(&frame, true) &&
               SendFrame(fd, frame.type, frame.payload.data(),
                         frame.payload.size())
                   .ok()) {
        }
      }
      ::close(fd);
    });
  }
  ~ReaderRelay() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // Wakes the relay if never dialed.
    thread_.join();
    ::close(listen_fd_);
  }
  std::string endpoint() const {
    return "tcp://127.0.0.1:" + std::to_string(port_);
  }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

// ---- TCP serving tier -----------------------------------------------------

// Listener fleet + coordinator + QuerySession readers over loopback.
class ServingTierTcpTest : public ::testing::Test {
 protected:
  void StartFleet(int num_shards) {
    GZ_CHECK_OK(StartListenerShards(
        DefaultShardBinary(), num_shards, ::testing::TempDir(),
        ::testing::TempDir() + "/gz_serving_l", kSecret, &listeners_,
        &endpoints_));
  }
  QuerySessionOptions ReaderOptions(const std::string& secret = kSecret) {
    QuerySessionOptions qo;
    qo.endpoints = endpoints_;
    qo.auth_secret = secret;
    qo.nodes_per_chunk = kChunk;
    return qo;
  }
  std::vector<std::unique_ptr<ListenerShard>> listeners_;
  std::vector<std::string> endpoints_;
};

TEST_F(ServingTierTcpTest,
       ConcurrentReadersStayBitwiseExactThroughALiveRemoval) {
  // The chaos drill: reader sessions hammer the fleet while the
  // coordinator ingests, splits shard 0 onto a fourth listener and then
  // drains that child back out with a live removal migration.
  // Every successfully served answer came off the seqlock at ONE
  // position; at quiesce points reader answers are bitwise equal to
  // the coordinator's full fold. A reader killed mid-session and a
  // reader with the wrong secret disturb nothing.
  StartFleet(3);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.migrate_nodes_per_chunk = kChunk;
  ShardCluster sharded(BaseConfig(77), 3, options);
  ASSERT_TRUE(sharded.Start().ok());
  // A fourth listener for the split child, so its removal migrates
  // state between two listeners.
  std::vector<std::string> grown_endpoints;
  GZ_CHECK_OK(StartListenerShards(
      DefaultShardBinary(), 1, ::testing::TempDir(),
      ::testing::TempDir() + "/gz_serving_x", kSecret, &listeners_,
      &grown_endpoints));

  const std::vector<GraphUpdate> updates = BuildStream(77);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(sharded.Update(updates.data(), half).ok());
  ASSERT_TRUE(sharded.Flush().ok());

  // Quiesced bitwise pin, reader vs coordinator.
  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  {
    GraphSnapshot full = FoldedSnapshot(&sharded);
    EXPECT_TRUE(*served == full);
    EXPECT_EQ(served->num_updates(), full.num_updates());
  }
  // Unmoved position: answered from the reader's cache, zero pulls.
  const uint64_t pulls = session.range_pulls();
  ASSERT_TRUE(session.Snapshot(&served).ok());
  EXPECT_EQ(session.range_pulls(), pulls);
  EXPECT_EQ(session.last_refresh_rounds(), 1);

  // Wrong-secret reader drill: refused at the handshake, before any
  // frame of graph state moves.
  {
    QuerySession intruder(ReaderOptions("not-the-secret"));
    EXPECT_FALSE(intruder.Connect().ok());
  }

  // Chaos phase: 2 reader threads query continuously while the
  // coordinator splits and removes, with ingest between pump steps.
  std::atomic<bool> stop{false};
  std::atomic<int> served_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      QuerySession qs(ReaderOptions());
      if (!qs.Connect().ok()) return;
      while (!stop.load()) {
        Result<ConnectivityResult> cc = qs.Connectivity(1);
        // A moving position may legitimately exhaust the seqlock's
        // retry budget mid-migration; any served answer must be a
        // coherent snapshot (Boruvka on garbage would fail/crash).
        if (cc.ok()) {
          served_ok.fetch_add(1);
          EXPECT_FALSE(cc.value().failed) << "reader " << r;
        }
      }
    });
  }
  // A reader killed mid-flight: connect, query once, vanish abruptly.
  {
    QuerySession doomed(ReaderOptions());
    ASSERT_TRUE(doomed.Connect().ok());
    const GraphSnapshot* snap = nullptr;
    ASSERT_TRUE(doomed.Snapshot(&snap).ok());
  }  // Dtor drops all its connections with no goodbye.

  Result<int> child = sharded.SplitShard(0, grown_endpoints[0]);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  // Before any ingest the child sits at the zero watermark, the XOR
  // identity: a session over all four listeners pulls only the three
  // original shards and still serves the coordinator's fold.
  {
    QuerySessionOptions grown = ReaderOptions();
    grown.endpoints.push_back(grown_endpoints[0]);
    QuerySession split_reader(grown);
    ASSERT_TRUE(split_reader.Connect().ok());
    const GraphSnapshot* snap = nullptr;
    s = split_reader.Snapshot(&snap);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(split_reader.range_pulls(), 3 * kColdPullsPerShard);
    EXPECT_TRUE(*snap == FoldedSnapshot(&sharded));
  }
  // One span lands partly on the child, so its removal drains real
  // state into shard 0.
  size_t fed = half;
  ASSERT_TRUE(sharded.Update(updates.data() + fed, 256).ok());
  fed += 256;
  ASSERT_TRUE(sharded.BeginRemoveShard(child.value()).ok());
  int pumps = 0;
  while (sharded.migration_active()) {
    const size_t count = std::min<size_t>(64, updates.size() - fed);
    if (count > 0) {
      ASSERT_TRUE(sharded.Update(updates.data() + fed, count).ok());
      fed += count;
    }
    ASSERT_TRUE(sharded.PumpMigration().ok());
    ++pumps;
  }
  EXPECT_GE(pumps, 2);
  while (fed < updates.size()) {
    const size_t count = std::min<size_t>(256, updates.size() - fed);
    ASSERT_TRUE(sharded.Update(updates.data() + fed, count).ok());
    fed += count;
  }
  ASSERT_TRUE(sharded.Flush().ok());
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(served_ok.load(), 0) << "no reader ever served an answer";

  // Quiesce again, over the original three endpoints: the child has
  // retired into shard 0, so a fresh session serves the final position.
  QuerySession quiesced(ReaderOptions());
  ASSERT_TRUE(quiesced.Connect().ok());
  s = quiesced.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  GraphSnapshot full = FoldedSnapshot(&sharded);
  EXPECT_EQ(full.num_updates(), updates.size());
  // A reader's count omits the retired child's updates (the "Honest
  // limitation" in query_session.h); the sketch content is exact.
  EXPECT_TRUE(SameSketchContent(*served, full));

  // And the writer path survived every reader drill above.
  const ConnectivityResult coord = Connectivity(full);
  const ConnectivityResult reader_cc = Connectivity(*served, 1);
  ASSERT_FALSE(coord.failed);
  ASSERT_FALSE(reader_cc.failed);
  EXPECT_EQ(coord.num_components, reader_cc.num_components);
}

TEST_F(ServingTierTcpTest, ReaderCacheSurvivesASplitThatMovesNoContent) {
  // A split moves routing slots inside the coordinator and nothing
  // else: no shard's watermark moves, so a session over the original
  // listeners keeps its cached snapshot — zero new pulls, one seqlock
  // round — and that snapshot is still the coordinator's fold, because
  // the fresh child is a zero sketch.
  StartFleet(3);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster sharded(BaseConfig(91), 3, options);
  ASSERT_TRUE(sharded.Start().ok());
  std::vector<std::string> grown_endpoints;
  GZ_CHECK_OK(StartListenerShards(
      DefaultShardBinary(), 1, ::testing::TempDir(),
      ::testing::TempDir() + "/gz_serving_s", kSecret, &listeners_,
      &grown_endpoints));
  const std::vector<GraphUpdate> updates = BuildStream(91);
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(sharded.Flush().ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const uint64_t pulls = session.range_pulls();
  EXPECT_EQ(pulls, 3 * kColdPullsPerShard);

  Result<int> child = sharded.SplitShard(0, grown_endpoints[0]);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(session.range_pulls(), pulls);
  EXPECT_EQ(session.last_refresh_rounds(), 1);
  EXPECT_TRUE(*served == FoldedSnapshot(&sharded));
}

TEST_F(ServingTierTcpTest, SessionLimitRefusesTheOverflowReaderCleanly) {
  // Bounded sessions: with GZ_SHARD_MAX_SESSIONS=2 the third session
  // is refused with a clean kResourceExhausted error — not a hang, not
  // a silent close — and the admitted sessions keep working.
  ::setenv("GZ_SHARD_MAX_SESSIONS", "2", 1);
  StartFleet(1);
  ::unsetenv("GZ_SHARD_MAX_SESSIONS");
  const Result<ShardEndpoint> ep = ParseShardEndpoint(endpoints_[0]);
  ASSERT_TRUE(ep.ok());
  TcpShardTransport first(ep.value(), kSecret, ShardSessionRole::kReader);
  TcpShardTransport second(ep.value(), kSecret, ShardSessionRole::kReader);
  ASSERT_TRUE(first.Connect().ok());
  ASSERT_TRUE(second.Connect().ok());
  TcpShardTransport overflow(ep.value(), kSecret,
                             ShardSessionRole::kReader);
  const Status s = overflow.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("session limit"), std::string::npos);
  // The admitted sessions still answer.
  ShardFrame reply;
  for (const ShardReply& pong :
       Exchange({{first.fd(), ShardMessageType::kPing},
                 {second.fd(), ShardMessageType::kPing}},
                &reply, nullptr)) {
    EXPECT_TRUE(pong.status.ok());
  }
}

TEST_F(ServingTierTcpTest, FailedConnectLeavesNoPartialSession) {
  // Connect() is all or nothing: a dial that fails part-way must not
  // keep the shards it did reach, or the next Snapshot() would fold a
  // partial graph and return it as the answer.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster sharded(BaseConfig(97), 2, options);
  ASSERT_TRUE(sharded.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(97);
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(sharded.Flush().ok());

  QuerySessionOptions qo = ReaderOptions();
  qo.endpoints = {endpoints_[0], "tcp://127.0.0.1:1"};
  QuerySession session(qo);
  ASSERT_FALSE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  const Status s = session.Snapshot(&served);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  ASSERT_TRUE(sharded.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, SessionServesAgainAfterItsReplicaRestarts) {
  // While the coordinator restarts a replica, its listener answers the
  // reader "shard not configured". That reply is in sync, so the
  // session keeps the connection: the same session serves again once
  // the replica is back, bitwise equal to the coordinator's fold.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster sharded(BaseConfig(103), 2, options);
  ASSERT_TRUE(sharded.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(103);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(sharded.Update(updates.data(), half).ok());
  ASSERT_TRUE(sharded.Flush().ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // The listener drops its instance once it sees its writer gone.
  sharded.KillReplica(0, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.ok() && std::chrono::steady_clock::now() < deadline) {
    s = session.Snapshot(&served);
  }
  ASSERT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("not configured"), std::string::npos)
      << s.ToString();

  ASSERT_TRUE(
      sharded.Update(updates.data() + half, updates.size() - half).ok());
  ASSERT_TRUE(sharded.RestartReplica(0, 0).ok());
  ASSERT_TRUE(sharded.Flush().ok());
  s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(served->num_updates(), updates.size());
  EXPECT_TRUE(*served == FoldedSnapshot(&sharded));
}

TEST(LoopbackShardTest, MintedSecretAdmitsOnlyTheOwningCoordinator) {
  // local: and thread: shards listen on a loopback port any process on
  // the machine can reach. Under a cluster with no secret, each
  // transport mints its own, so a peer that finds the port but dials
  // with the cluster's empty secret fails authentication.
  ShardTransportOptions options;
  options.binary = DefaultShardBinary();
  options.log_path = ::testing::TempDir() + "/gz_loopback_" +
                     std::to_string(::getpid()) + ".log";
  for (const char* uri : {"local:", "thread:"}) {
    Result<ShardEndpoint> endpoint = ParseShardEndpoint(uri);
    ASSERT_TRUE(endpoint.ok());
    std::unique_ptr<ShardTransport> shard =
        MakeShardTransport(endpoint.value(), options);
    Status s = shard->Connect();
    ASSERT_TRUE(s.ok()) << uri << ": " << s.ToString();
    struct sockaddr_in peer;
    socklen_t peer_len = sizeof(peer);
    ASSERT_EQ(::getpeername(shard->fd(),
                            reinterpret_cast<struct sockaddr*>(&peer),
                            &peer_len),
              0);
    TcpShardTransport intruder(
        ShardEndpoint::Tcp("127.0.0.1", ntohs(peer.sin_port)), "");
    s = intruder.Connect();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
        << uri << ": " << s.ToString();
    EXPECT_NE(s.message().find("authentication"), std::string::npos)
        << uri << ": " << s.ToString();
    shard->Terminate();
  }
  ::unlink(options.log_path.c_str());
}

TEST_F(ServingTierTcpTest, StalledPreAuthPeerDoesNotBlockTheWriter) {
  // The DoS window the multi-session listener closes: a peer that
  // connects and goes silent — pre-handshake, or mid-frame as a reader
  // — stalls only its own session thread. The coordinator connects,
  // configures and serves regardless.
  StartFleet(1);
  const Result<ShardEndpoint> ep = ParseShardEndpoint(endpoints_[0]);
  ASSERT_TRUE(ep.ok());

  // Silent pre-auth connection, parked for the whole test.
  struct addrinfo hints = {}, *addrs = nullptr;
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  const std::string port = std::to_string(ep.value().port);
  ASSERT_EQ(::getaddrinfo("127.0.0.1", port.c_str(), &hints, &addrs), 0);
  const int silent_fd =
      ::socket(addrs->ai_family, addrs->ai_socktype, addrs->ai_protocol);
  ASSERT_GE(silent_fd, 0);
  ASSERT_EQ(::connect(silent_fd, addrs->ai_addr, addrs->ai_addrlen), 0);
  ::freeaddrinfo(addrs);

  // The writer attaches and operates THROUGH the stalled peer's window.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(91), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(91);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());

  // A reader stalled MID-FRAME (header only, payload never comes)
  // likewise stalls only itself.
  TcpShardTransport stalled(ep.value(), kSecret,
                            ShardSessionRole::kReader);
  ASSERT_TRUE(stalled.Connect().ok());
  const uint8_t partial[4] = {0x47, 0x5A, 0x53, 0x50};  // Header prefix.
  ASSERT_EQ(::send(stalled.fd(), partial, sizeof(partial), MSG_NOSIGNAL),
            4);

  Result<ShardStats> stats = cluster.Stats(0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The one shard owns every node: both halves of every update.
  EXPECT_EQ(stats.value().num_updates, 2 * updates.size());
  // A well-behaved reader admitted alongside the two stalled peers is
  // served normally.
  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  Result<GraphSnapshot> full = cluster.Snapshot();
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(*served == full.value());
  ::close(silent_fd);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, SilentListenerYieldsDeadlineExceededNotAHang) {
  // The reader-hang bug: a listener that accepts and AUTHENTICATES,
  // then never answers another byte, used to park the QuerySession in
  // a blocking recv() forever. With a receive deadline the stalled
  // request fails with DeadlineExceeded in bounded time, and the dead
  // connection is excluded from later sweeps instead of re-hanging.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd,
                          reinterpret_cast<struct sockaddr*>(&addr),
                          &addr_len),
            0);
  const int port = ntohs(addr.sin_port);

  // The impostor: speaks the v3 handshake honestly, then goes mute.
  std::atomic<bool> stop{false};
  std::atomic<int> session_fd{-1};
  std::thread silent_listener([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    session_fd.store(fd);
    if (!ServerHandshake(fd, kSecret).ok()) return;
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  QuerySessionOptions qo;
  qo.endpoints = {"tcp://127.0.0.1:" + std::to_string(port)};
  qo.auth_secret = kSecret;
  qo.nodes_per_chunk = kChunk;
  qo.receive_deadline_seconds = 1;
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());  // Handshake really completes.

  const auto t0 = std::chrono::steady_clock::now();
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  // Bounded: one deadline (1s) plus slack, nowhere near a hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                .count(),
            10);

  // The connection is now marked dead: later probes fail fast with the
  // saved error instead of waiting out another deadline.
  const auto t1 = std::chrono::steady_clock::now();
  bool fresh = false;
  s = session.PollPositions(&fresh);
  const auto poll_elapsed = std::chrono::steady_clock::now() - t1;
  EXPECT_FALSE(s.ok());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                poll_elapsed)
                .count(),
            1000);

  stop.store(true);
  if (session_fd.load() >= 0) ::close(session_fd.load());
  ::close(listen_fd);
  silent_listener.join();
}

TEST_F(ServingTierTcpTest, DuplicateShardIdIsAnErrorFromPollAndSnapshot) {
  // Misconfiguration drill: two UNRELATED single-shard clusters both
  // serve shard id 0 at replication 1. A session dialed across both is
  // pointed at garbage — Snapshot() always said so, and PollPositions()
  // must report the same FailedPrecondition rather than disguising the
  // config error as mere staleness.
  StartFleet(2);
  ShardClusterOptions options_a;
  options_a.auth_secret = kSecret;
  options_a.shard_endpoints = {endpoints_[0]};
  ShardCluster cluster_a(BaseConfig(101), 1, options_a);
  ASSERT_TRUE(cluster_a.Start().ok());
  ShardClusterOptions options_b;
  options_b.auth_secret = kSecret;
  options_b.shard_endpoints = {endpoints_[1]};
  // Same config on purpose: identical geometry gets PAST the
  // geometry-agreement check, so the duplicate id itself must trip.
  ShardCluster cluster_b(BaseConfig(101), 1, options_b);
  ASSERT_TRUE(cluster_b.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(101);
  ASSERT_TRUE(cluster_a.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster_b.Update(updates.data(), updates.size()).ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("serve shard id"), std::string::npos)
      << s.ToString();

  bool fresh = true;
  s = session.PollPositions(&fresh);
  ASSERT_FALSE(s.ok()) << "a misconfigured session must not poll Ok";
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("serve shard id"), std::string::npos)
      << s.ToString();

  ASSERT_TRUE(cluster_a.Shutdown().ok());
  ASSERT_TRUE(cluster_b.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, ReaderFailsOverToAliveReplicaMidSweep) {
  // Replication on the read side: both replicas of one shard serve
  // readers, and a session dialed across both survives the death of
  // either listener — the position sweep and the content pulls fail
  // over to the live group member, bitwise-identically. Only when the
  // LAST replica dies does the session surface an error.
  StartFleet(2);  // Two listeners, ONE shard at R=2 (shard-major).
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(111), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(111);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  Result<GraphSnapshot> full = cluster.Snapshot();
  ASSERT_TRUE(full.ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(*served == full.value());

  // Replica 0's listener dies mid-session. The sweep marks its
  // connection dead and the group's surviving member answers.
  listeners_[0]->Stop();
  s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << "one live replica left: " << s.ToString();
  EXPECT_TRUE(*served == full.value());

  // The last replica dies: now the shard is genuinely uncovered and
  // the session says so instead of serving a stale answer as fresh.
  listeners_[1]->Stop();
  EXPECT_FALSE(session.Snapshot(&served).ok());
  cluster.Shutdown();  // Both children are already gone; best effort.
}

TEST_F(ServingTierTcpTest, ChunkedParallelPullsStayBitwiseThroughFailover) {
  // A refresh pulls every shard at once, one chunk per shard per wave,
  // so with small chunks each connection serves many pulls in turn. The
  // served snapshot must stay bitwise the coordinator's fold on the
  // first build, after only shard 1 moved, and after a replica of each
  // shard dies.
  StartFleet(4);  // 2 shards x R=2, shard-major: [s0r0, s0r1, s1r0, s1r1].
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(131), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(131);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  constexpr uint64_t kSmallChunk = 5;  // 96 nodes: 19 chunks of 5, then 1.
  constexpr uint64_t kChunks = (kNumNodes + kSmallChunk - 1) / kSmallChunk;
  QuerySessionOptions qo = ReaderOptions();
  qo.nodes_per_chunk = kSmallChunk;
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Read before the compare, which pulls the snapshot's later rounds.
  // Two shards, two parts per chunk.
  EXPECT_EQ(session.range_pulls(), 2 * 2 * kChunks);
  EXPECT_TRUE(*served == FoldedSnapshot(&cluster));

  // Ingest into shard 1 only (both endpoints owned by it): the rebuild
  // still pulls both shards.
  std::vector<GraphUpdate> to_shard1;
  for (size_t i = half; i < updates.size() && to_shard1.size() < 8; ++i) {
    const Edge& e = updates[i].edge;
    if (NodeOwner(e.u, cluster.routing_table()) == 1 &&
        NodeOwner(e.v, cluster.routing_table()) == 1) {
      to_shard1.push_back(updates[i]);
    }
  }
  ASSERT_FALSE(to_shard1.empty());
  ASSERT_TRUE(cluster.Update(to_shard1.data(), to_shard1.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  uint64_t pulls = session.range_pulls();
  s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(session.range_pulls() - pulls, 2 * 2 * kChunks);
  EXPECT_TRUE(*served == FoldedSnapshot(&cluster));

  // Replica 0 of each shard dies, then both shards move. The refresh
  // pulls every chunk from the surviving replicas.
  listeners_[0]->Stop();
  listeners_[2]->Stop();
  // The fan-out to the dead replicas fences them; the live ones ingest.
  (void)cluster.Update(updates.data() + half, updates.size() - half);
  (void)cluster.Flush();
  pulls = session.range_pulls();
  s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << "one live replica per shard: " << s.ToString();
  EXPECT_EQ(session.range_pulls() - pulls, 2 * 2 * kChunks);
  EXPECT_TRUE(*served == FoldedSnapshot(&cluster));
  cluster.Shutdown();  // Two children are already gone; best effort.
}

TEST_F(ServingTierTcpTest, ReplicaLostMidStageFailsOverToItsPeer) {
  // A replica that answers the t0 position sweep, then dies on its
  // first pull: the next wave re-sends that chunk to the shard's other
  // replica. The alive-set changed, so the seqlock retries the round,
  // and the served snapshot is still the fold.
  StartFleet(2);  // One shard at R=2.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(141), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(141);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  // A relay in front of replica 0 that drops the reader's connection,
  // without a reply, on the first MIGRATE_EXTRACT.
  ReaderRelay relay(endpoints_[0], [](ShardFrame* frame, bool reply) {
    return reply || frame->type != ShardMessageType::kMigrateExtract;
  });
  QuerySessionOptions qo = ReaderOptions();
  qo.endpoints = {relay.endpoint(), endpoints_[1]};
  QuerySession session(qo);
  const Status connected = session.Connect();
  const GraphSnapshot* served = nullptr;
  const Status s = connected.ok() ? session.Snapshot(&served) : connected;
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(session.last_refresh_rounds(), 2);
  // Both rounds pulled every chunk of round 0 and of the summaries; the
  // first round's candidate was discarded. Read before the compare,
  // which pulls the snapshot's later rounds.
  EXPECT_EQ(session.range_pulls(), 2 * kColdPullsPerShard);
  EXPECT_TRUE(*served == FoldedSnapshot(&cluster));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, ReplyThatDoesNotFoldVoidsTheRound) {
  // A replica whose first MIGRATE_DATA reply arrives well framed (a
  // valid CRC) but with a GZSNAP05 header naming another graph: the fold
  // refuses it, the round's half-folded candidate is discarded, and the
  // second round serves exactly the coordinator's fold.
  StartFleet(2);  // One shard at R=2.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(151), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(151);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  // The relay fronts replica 0, which the session pulls from first.
  // It bumps the header's node count (bytes 8..15, after the magic) of
  // the first range reply and forwards it re-framed.
  std::atomic<bool> rewritten{false};
  ReaderRelay relay(endpoints_[0], [&rewritten](ShardFrame* frame,
                                                bool reply) {
    if (reply && frame->type == ShardMessageType::kMigrateData &&
        !rewritten.load() &&
        frame->payload.size() >= GraphSnapshot::kHeaderBytes) {
      uint64_t num_nodes = 0;
      std::memcpy(&num_nodes, frame->payload.data() + 8, sizeof(num_nodes));
      ++num_nodes;
      std::memcpy(frame->payload.data() + 8, &num_nodes, sizeof(num_nodes));
      rewritten.store(true);
    }
    return true;
  });
  QuerySessionOptions qo = ReaderOptions();
  qo.endpoints = {relay.endpoint(), endpoints_[1]};
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  const Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(rewritten.load());
  EXPECT_EQ(session.last_refresh_rounds(), 2);
  // The first round stopped after the wave that carried the bad reply
  // and the first summary chunk. Read before the compare, which pulls
  // the snapshot's later rounds.
  EXPECT_EQ(session.range_pulls(), 2 + kColdPullsPerShard);
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  EXPECT_TRUE(*served == full);
  EXPECT_EQ(served->num_updates(), full.num_updates());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// ---- Summary-first reader pulls --------------------------------------------

// A first round past 0 and 1, where a forest peel's later phases start:
// queries from it read rounds the first query never reached.
constexpr int kLaterRound = 2;

// Boruvka's answer, field by field.
void ExpectSameAnswer(const ConnectivityResult& got,
                      const ConnectivityResult& want) {
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.rounds_used, want.rounds_used);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.spanning_forest, want.spanning_forest);
  EXPECT_EQ(got.component_of, want.component_of);
}

// The rounds Boruvka from `first_round` reads whole from `full`'s bytes
// (true at their index): a round-lazy copy serving summaries and whole
// rounds apart records which whole rounds it loaded. A reader pulls
// exactly these rounds, past round 0, for the same query.
std::vector<bool> WholeRoundsRead(const GraphSnapshot& full,
                                  int first_round) {
  auto read = std::make_shared<std::vector<bool>>(full.rounds(), false);
  const uint64_t n = full.num_nodes();
  const GraphSnapshot lazy = GraphSnapshot::Lazy(
      NodeSketch(full.params()), full.num_updates(),
      [&full, read, n](int round, RoundPart part, uint64_t,
                       const GraphSnapshot::BlockRunner&,
                       std::vector<uint8_t>* out) {
        const bool whole = part == RoundPart::kWhole;
        if (whole) (*read)[round] = true;
        const size_t slot = whole ? full.layout().round_stride()
                                  : GraphSnapshot::kSummaryBytes;
        const size_t bytes = whole ? full.layout().round_bytes()
                                   : GraphSnapshot::kSummaryBytes;
        GraphSnapshot::RoundView view;
        GZ_CHECK_OK(whole ? full.Round(round, n, nullptr, &view)
                          : full.Summary(round, n, nullptr, &view));
        out->assign(n * slot, 0);
        for (NodeId i = 0; i < n; ++i) {
          std::memcpy(out->data() + i * slot, view.node(i), bytes);
        }
        return Status::Ok();
      });
  GZ_CHECK(!BoruvkaConnectivity(lazy, first_round, -1, 1).failed);
  return *read;
}

// Rounds past round 0 set in `read`: the later whole rounds a reader
// pulls for the query `read` came from.
uint64_t LaterRounds(const std::vector<bool>& read) {
  return static_cast<uint64_t>(std::count(read.begin() + 1, read.end(), true));
}

// `served` holds round 0's samples, and each node's reads back exactly
// as SampleColumns() reads `full`'s round 0 slice of that node.
void ExpectSameSamples(const GraphSnapshot& served, const GraphSnapshot& full) {
  GraphSnapshot::RoundView held, whole;
  ASSERT_TRUE(served.Samples(&held));
  ASSERT_TRUE(full.Round(0, full.num_nodes(), nullptr, &whole).ok());
  const int cols = full.layout().cols();
  std::vector<uint64_t> got(cols), want(cols);
  for (NodeId i = 0; i < full.num_nodes(); ++i) {
    const ColumnSamples g =
        GraphSnapshot::ReadSamples(held.node(i), got.data());
    const ColumnSamples w =
        full.layout().SampleColumns(0, whole.node(i), want.data(), cols);
    EXPECT_EQ(g.kind, w.kind) << "node " << i;
    ASSERT_EQ(g.count, w.count) << "node " << i;
    for (int k = 0; k < g.count; ++k) EXPECT_EQ(got[k], want[k]);
  }
}

TEST_F(ServingTierTcpTest, LazyReaderSnapshotEqualsTheFold) {
  // The cold Snapshot() pulls round 0's samples and the summaries of
  // every shard, and holds each node's samples exactly as SampleColumns()
  // reads the fold's round 0; a query pulls exactly the later rounds its
  // summaries leave undecided (one pull per shard per round, even with
  // two threads querying copies at once), its answers equal the eager
  // fold's at 1 and 4 threads, and the whole snapshot is the fold
  // bitwise.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(161), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(161);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  const ConnectivityResult want1 = Connectivity(full, 1);
  const ConnectivityResult want4 = Connectivity(full, 4);
  // Boruvka from a later round, as a forest peel's later phases run: it
  // reads rounds the first query never reached.
  const ConnectivityResult late1 =
      BoruvkaConnectivity(full, kLaterRound, -1, 1);
  const ConnectivityResult late4 =
      BoruvkaConnectivity(full, kLaterRound, -1, 4);
  ASSERT_FALSE(want1.failed);
  ASSERT_FALSE(late1.failed);
  const int rounds = full.rounds();
  ASSERT_LT(kLaterRound + late1.rounds_used, rounds);
  const std::vector<bool> first_read = WholeRoundsRead(full, 0);
  std::vector<bool> both_read = WholeRoundsRead(full, kLaterRound);
  ASSERT_TRUE(both_read[kLaterRound]);  // Its first round is all singletons.
  for (int r = 0; r < rounds; ++r) both_read[r] = both_read[r] || first_read[r];

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  const Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(session.range_pulls(), 2 * kColdPullsPerShard);
  EXPECT_EQ(session.rounds_pulled(), 0);
  ExpectSameSamples(*served, full);
  ExpectSameAnswer(Connectivity(*served, 1), want1);
  ExpectSameAnswer(Connectivity(*served, 4), want4);
  EXPECT_EQ(session.range_pulls(),
            2 * (kColdPullsPerShard + LaterRounds(first_read) * kChunksPerShard));

  // Two threads run the later query on copies at once; the loader
  // serializes them.
  std::vector<ConnectivityResult> racing(2);
  {
    const GraphSnapshot a = *served, b = *served;
    std::thread other(
        [&] { racing[1] = BoruvkaConnectivity(b, kLaterRound, -1, 4); });
    racing[0] = BoruvkaConnectivity(a, kLaterRound, -1, 4);
    other.join();
  }
  const uint64_t pulled =
      2 * (kColdPullsPerShard + LaterRounds(both_read) * kChunksPerShard);
  EXPECT_EQ(session.range_pulls(), pulled);
  ExpectSameAnswer(racing[0], late4);
  ExpectSameAnswer(racing[1], late4);
  ExpectSameAnswer(BoruvkaConnectivity(*served, kLaterRound, -1, 1), late1);
  EXPECT_EQ(session.range_pulls(), pulled);
  EXPECT_EQ(session.rounds_pulled(),
            static_cast<int>(LaterRounds(both_read)));
  EXPECT_TRUE(served->load_status().ok());

  // Every remaining round, round 0 included, once each.
  EXPECT_TRUE(*served == full);
  EXPECT_EQ(served->Serialize(), full.Serialize());
  EXPECT_EQ(session.range_pulls(),
            2 * (kColdPullsPerShard + rounds * kChunksPerShard));
  EXPECT_EQ(session.rounds_pulled(), rounds);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, QueryBytesAreSamplesSummariesAndRoundsItRead) {
  // A cold query's pull bytes, summed over shards: per shard, round 0's
  // samples (V x 64 at 7 columns), the summaries of the other R - 1
  // rounds (V x (R - 1) x 12) and one range header per chunk for each,
  // plus V x round_bytes and a header per chunk for each later round
  // pulled whole.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(163), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(163);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  const uint64_t later = LaterRounds(WholeRoundsRead(full, 0));

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  Result<ConnectivityResult> cc = session.Connectivity(1);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  ASSERT_FALSE(cc.value().failed);
  ExpectSameAnswer(cc.value(), Connectivity(full, 1));
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());  // The cached snapshot.
  const uint64_t round_bytes = served->layout().round_bytes();
  const uint64_t rounds = served->rounds();
  const uint64_t headers = kChunksPerShard * GraphSnapshot::kHeaderBytes;
  const uint64_t samples = kNumNodes * 64 + headers;
  const uint64_t whole_round = kNumNodes * round_bytes + headers;
  const uint64_t summaries =
      kNumNodes * (rounds - 1) * GraphSnapshot::kSummaryBytes + headers;
  EXPECT_EQ(session.bytes_pulled(),
            2 * (samples + summaries + later * whole_round));
  EXPECT_EQ(session.range_pulls(),
            2 * (kColdPullsPerShard + later * kChunksPerShard));
  EXPECT_EQ(session.rounds_pulled(), static_cast<int>(later));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, UndecidedRoundOneIsTheOneLaterRoundPulled) {
  // Two 40-cliques joined by two edges, each between nodes of degree
  // 40: round 0 merges each clique but samples neither joining edge, so
  // round 1's two components each have a two-edge cut, which their
  // summaries cannot decide. The query pulls round 1 whole, exactly one
  // later round, and decides round 2 from its summaries; the answer is
  // the coordinator fold's.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(193), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (const NodeId base : {0, 40}) {
    for (NodeId u = base; u < base + 40; ++u) {
      for (NodeId v = u + 1; v < base + 40; ++v) {
        updates.push_back({Edge(u, v), UpdateType::kInsert});
      }
    }
  }
  updates.push_back({Edge(3, 43), UpdateType::kInsert});
  updates.push_back({Edge(17, 71), UpdateType::kInsert});
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  const ConnectivityResult want = Connectivity(full, 1);
  ASSERT_FALSE(want.failed);
  ASSERT_EQ(want.rounds_used, 3);
  std::vector<bool> read(full.rounds(), false);
  read[0] = read[1] = true;
  ASSERT_EQ(WholeRoundsRead(full, 0), read);

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  Result<ConnectivityResult> cc = session.Connectivity(1);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  ExpectSameAnswer(cc.value(), want);
  EXPECT_EQ(cc.value().num_components, kNumNodes - 79);
  EXPECT_EQ(session.range_pulls(),
            2 * (kColdPullsPerShard + kChunksPerShard));
  EXPECT_EQ(session.rounds_pulled(), 1);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, NodeWhoseEdgesCancelledComesBackUntouched) {
  // Node 5's edges are inserted and deleted again, so its owner holds an
  // all-zero slice of it. The shard marks a node untouched by its bytes,
  // so the reader's record of node 5 is all zero, no two shards overlap,
  // and the answer is the fold's.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(197), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr NodeId kCancelled = 5;
  std::vector<GraphUpdate> updates;
  for (const GraphUpdate& u : BuildStream(197)) {
    if (u.edge.u != kCancelled && u.edge.v != kCancelled) updates.push_back(u);
  }
  for (const UpdateType type : {UpdateType::kInsert, UpdateType::kDelete}) {
    for (const NodeId other : {1, 40, 77, 90}) {
      updates.push_back({Edge(kCancelled, other), type});
    }
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  const GraphSnapshot full = FoldedSnapshot(&cluster);

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  EXPECT_EQ(session.last_refresh_rounds(), 1);
  EXPECT_EQ(session.range_pulls(), 2 * kColdPullsPerShard);
  EXPECT_EQ(session.rounds_pulled(), 0);
  GraphSnapshot::RoundView held;
  ASSERT_TRUE(served->Samples(&held));
  const uint8_t* record = held.node(kCancelled);
  EXPECT_TRUE(
      std::all_of(record, record + 64, [](uint8_t b) { return b == 0; }));
  ExpectSameSamples(*served, full);
  const ConnectivityResult want = Connectivity(full, 1);
  ExpectSameAnswer(Connectivity(*served, 1), want);
  EXPECT_EQ(want.component_of[kCancelled], kCancelled);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, SplitThatMovesContentPullsRoundZeroWhole) {
  // A split moves routing slots, not state: after it, the child ingests
  // updates of nodes whose earlier content shard 0 still holds, so those
  // nodes arrive touched from two shards. The reader sees the overlap
  // in its samples wave and, in the same seqlock round, pulls round 0
  // whole from every shard instead; its answers are the fold's.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(199), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<std::string> grown_endpoints;
  GZ_CHECK_OK(StartListenerShards(
      DefaultShardBinary(), 1, ::testing::TempDir(),
      ::testing::TempDir() + "/gz_serving_o", kSecret, &listeners_,
      &grown_endpoints));
  const std::vector<GraphUpdate> updates = BuildStream(199);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  ASSERT_TRUE(cluster.SplitShard(0, grown_endpoints[0]).ok());
  ASSERT_TRUE(
      cluster.Update(updates.data() + half, updates.size() - half).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  const GraphSnapshot full = FoldedSnapshot(&cluster);

  QuerySessionOptions qo = ReaderOptions();
  qo.endpoints.push_back(grown_endpoints[0]);
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  EXPECT_EQ(session.last_refresh_rounds(), 1);
  EXPECT_EQ(session.rounds_pulled(), 1);
  GraphSnapshot::RoundView held;
  EXPECT_FALSE(served->Samples(&held));
  // Per shard: the samples wave and the summaries, then round 0 whole.
  const uint64_t headers = kChunksPerShard * GraphSnapshot::kHeaderBytes;
  const uint64_t samples = kNumNodes * 64 + headers;
  const uint64_t summaries = kNumNodes * (full.rounds() - 1) *
                                 GraphSnapshot::kSummaryBytes +
                             headers;
  const uint64_t whole_round =
      kNumNodes * full.layout().round_bytes() + headers;
  EXPECT_EQ(session.range_pulls(), 3 * (kColdPullsPerShard + kChunksPerShard));
  EXPECT_EQ(session.bytes_pulled(), 3 * (samples + summaries + whole_round));
  ExpectSameAnswer(Connectivity(*served, 1), Connectivity(full, 1));
  ExpectSameAnswer(Connectivity(*served, 4), Connectivity(full, 4));
  EXPECT_TRUE(*served == full);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, BadSamplesRecordVoidsTheRound) {
  // A replica's first samples reply arrives well framed but with a
  // nonzero padding byte in its first record: the fold refuses it as
  // malformed, the round is discarded, and the second round serves
  // exactly the coordinator's fold.
  StartFleet(2);  // One shard at R=2.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(157), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(157);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  std::atomic<bool> rewritten{false};
  ReaderRelay relay(endpoints_[0], [&rewritten](ShardFrame* frame,
                                                bool reply) {
    uint32_t part = 0;
    if (reply && frame->type == ShardMessageType::kMigrateData &&
        !rewritten.load() &&
        frame->payload.size() > GraphSnapshot::kHeaderBytes) {
      std::memcpy(&part, frame->payload.data() + 64, sizeof(part));
    }
    if (part == static_cast<uint32_t>(RoundPart::kSamples)) {
      frame->payload[GraphSnapshot::kHeaderBytes + 2] = 1;
      rewritten.store(true);
    }
    return true;
  });
  QuerySessionOptions qo = ReaderOptions();
  qo.endpoints = {relay.endpoint(), endpoints_[1]};
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  const Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(rewritten.load());
  EXPECT_EQ(session.last_refresh_rounds(), 2);
  // The first round stopped after the wave that carried the bad reply
  // and the first summary chunk.
  EXPECT_EQ(session.range_pulls(), 2 + kColdPullsPerShard);
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  ExpectSameSamples(*served, full);
  ExpectSameAnswer(Connectivity(*served, 1), Connectivity(full, 1));
  EXPECT_TRUE(*served == full);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, LaterRoundFailsOverWhenItsReplicaDies) {
  // The replica that served the cold pull dies before a later round:
  // that round's position sweep marks it dead and the shard's other
  // replica serves every later round, bitwise the same.
  StartFleet(2);  // One shard at R=2.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(167), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(167);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  const ConnectivityResult want = BoruvkaConnectivity(full, kLaterRound);
  const std::vector<bool> read = WholeRoundsRead(full, kLaterRound);
  ASSERT_TRUE(read[kLaterRound]);  // Its first round is all singletons.

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  EXPECT_EQ(session.range_pulls(), kColdPullsPerShard);
  listeners_[0]->Stop();  // Replica 0 served the cold pull.

  ExpectSameAnswer(BoruvkaConnectivity(*served, kLaterRound), want);
  EXPECT_TRUE(served->load_status().ok())
      << served->load_status().ToString();
  EXPECT_EQ(session.range_pulls(),
            kColdPullsPerShard + LaterRounds(read) * kChunksPerShard);
  EXPECT_TRUE(*served == full);
  EXPECT_EQ(session.range_pulls(),
            kColdPullsPerShard + full.rounds() * kChunksPerShard);
  cluster.Shutdown();  // One child is already gone; best effort.
}

// A config whose sketches budget two forest-peeling phases.
GraphZeppelinConfig TwoForestConfig(uint64_t seed) {
  GraphZeppelinConfig c = BaseConfig(seed);
  c.rounds = RoundsForForests(kNumNodes, 2);
  return c;
}

TEST_F(ServingTierTcpTest, WriterMoveFailsTheHeldQueryNotTheNextOne) {
  // A writer Update + Flush between Snapshot() and a query from round
  // 2, which needs that round whole: the round's position sweep sees the
  // move, the load fails, Boruvka reports failed and a forest peel
  // returns the load's status; QuerySession::Connectivity then serves
  // the new position's answer.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(TwoForestConfig(173), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(173);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  ASSERT_TRUE(
      cluster.Update(updates.data() + half, updates.size() - half).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  const uint64_t pulls = session.range_pulls();
  const ConnectivityResult held = BoruvkaConnectivity(*served, kLaterRound);
  EXPECT_TRUE(held.failed);
  EXPECT_EQ(held.rounds_used, 1);  // Its first round did not load.
  EXPECT_EQ(served->load_status().code(), StatusCode::kFailedPrecondition)
      << served->load_status().ToString();
  const Result<KConnectivityResult> peeled = KEdgeConnectivity(*served, 2);
  EXPECT_EQ(peeled.status().code(), StatusCode::kFailedPrecondition)
      << peeled.status().ToString();
  // The round's first position sweep saw the move: nothing pulled.
  EXPECT_EQ(session.range_pulls(), pulls);

  Result<ConnectivityResult> fresh = session.Connectivity(1);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectSameAnswer(fresh.value(), Connectivity(FoldedSnapshot(&cluster), 1));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// A relay edit that runs `move` (the writer, under `mu`) on the first
// request for a later whole round, before forwarding it, and records
// that round in *round: the position moves between a snapshot's cold
// pull and its first later round.
ReaderRelay::Edit MoveBeforeFirstLaterRound(std::mutex* mu,
                                            std::atomic<int>* round,
                                            std::function<void()> move) {
  return [=](ShardFrame* frame, bool reply) {
    uint64_t lo = 0, hi = 0;
    int32_t r_lo = 0, r_hi = 0;
    RoundPart part = RoundPart::kWhole;
    if (!reply && frame->type == ShardMessageType::kMigrateExtract &&
        DecodeMigrateExtract(frame->payload.data(), frame->payload.size(),
                             &lo, &hi, &r_lo, &r_hi, &part)
            .ok() &&
        part == RoundPart::kWhole && r_lo >= 1 && round->load() < 0) {
      std::lock_guard<std::mutex> lock(*mu);
      move();
      round->store(r_lo);
    }
    return true;
  };
}

TEST_F(ServingTierTcpTest, KConnectivityRetriesWhenItsPeelFindsAMove) {
  // A k-connectivity query through RunQuery, as gz_query runs it: the
  // position moves between the snapshot's cold pull and the first later
  // round the query needs whole (a relay runs the writer when it sees
  // that request). The failed attempt is never an answer: the retry
  // takes a fresh snapshot whose first pull takes whole every round the
  // failed attempt reached, and answers at the new position.
  StartFleet(1);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  std::mutex cluster_mu;  // The relay thread runs the writer too.
  std::unique_lock<std::mutex> hold(cluster_mu);
  ShardCluster cluster(TwoForestConfig(179), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(179);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  hold.unlock();

  std::atomic<int> moved_at{-1};
  ReaderRelay relay(endpoints_[0],
                    MoveBeforeFirstLaterRound(&cluster_mu, &moved_at, [&] {
                      GZ_CHECK_OK(cluster.Update(updates.data() + half,
                                                 updates.size() - half));
                      GZ_CHECK_OK(cluster.Flush());
                    }));
  QuerySessionOptions qo = ReaderOptions();
  qo.endpoints = {relay.endpoint()};
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());
  Result<KConnectivityResult> got = KConnectivityResult();
  int attempts = 0;
  const Status s = session.RunQuery([&](const GraphSnapshot& snap) {
    ++attempts;
    got = KEdgeConnectivity(snap, 2);
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const int moved = moved_at.load();
  ASSERT_GE(moved, 1);
  EXPECT_EQ(attempts, 2);
  hold.lock();
  const GraphSnapshot full = FoldedSnapshot(&cluster);
  const KConnectivityResult want = KEdgeConnectivity(full, 2).value();
  ASSERT_FALSE(want.sketch_failed);
  EXPECT_EQ(got.value().certified_connectivity, want.certified_connectivity);
  EXPECT_EQ(got.value().certificate, want.certificate);
  // Attempt 1: the cold pull, whose samples and summaries decide the
  // forest, then the peel loads every round in order: round 0 whole, and
  // round `moved` = 1 (pulled, discarded). Attempt 2: rounds [0, moved]
  // whole and the later summaries at once, then the peel pulls each of
  // the R - moved - 1 remaining rounds.
  EXPECT_EQ(moved, 1);
  const int rounds = full.rounds();
  EXPECT_EQ(session.range_pulls(),
            2 * kColdPullsPerShard +
                static_cast<uint64_t>(2 + rounds - moved - 1) *
                    kChunksPerShard);
  EXPECT_EQ(session.rounds_pulled(), rounds);
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  EXPECT_TRUE(*served == full);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, HeldSnapshotFailsCleanlyOnceTheSessionMovesOn) {
  // A copy of a lazy reader snapshot outliving its session's position:
  // after the Snapshot() that replaces it, a Connect(), a StartWatch()
  // or the session's end, its loads fail with FailedPrecondition and
  // never reach a connection.
  StartFleet(2);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(181), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(181);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  ASSERT_TRUE(cluster.Flush().ok());

  const QuerySessionOptions qo = ReaderOptions();
  const auto expect_revoked = [](const GraphSnapshot& held) {
    const ConnectivityResult r = BoruvkaConnectivity(held, kLaterRound);
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(held.load_status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(held.load_status().message().find("outlived"),
              std::string::npos)
        << held.load_status().ToString();
    GraphSnapshot toggled = held;
    EXPECT_EQ(toggled.ToggleEdge(Edge(0, 1)).code(),
              StatusCode::kFailedPrecondition);
  };
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;

  // The next Snapshot(), after the writer moved.
  ASSERT_TRUE(session.Snapshot(&served).ok());
  const GraphSnapshot held = *served;
  ASSERT_TRUE(
      cluster.Update(updates.data() + half, updates.size() - half).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  ASSERT_TRUE(session.Snapshot(&served).ok());
  const uint64_t pulls = session.range_pulls();
  expect_revoked(held);
  EXPECT_EQ(session.range_pulls(), pulls);
  EXPECT_TRUE(*served == FoldedSnapshot(&cluster));

  // A re-dial. (The == above loaded every round of the cached
  // snapshot, so re-dial first: a Connect() drops the cache, and the
  // next Snapshot() is cold again.)
  ASSERT_TRUE(session.Connect().ok());
  ASSERT_TRUE(session.Snapshot(&served).ok());
  const GraphSnapshot before_connect = *served;
  ASSERT_TRUE(session.Connect().ok());
  expect_revoked(before_connect);

  // A watch taking the connections over.
  ASSERT_TRUE(session.Snapshot(&served).ok());
  const GraphSnapshot before_watch = *served;
  StandingWatchOptions wo;
  wo.subscribe = false;
  ASSERT_TRUE(session.StartWatch(wo, nullptr).ok());
  expect_revoked(before_watch);
  session.StopWatch();

  // The session's end.
  GraphSnapshot orphan;
  {
    QuerySession gone(qo);
    ASSERT_TRUE(gone.Connect().ok());
    ASSERT_TRUE(gone.Snapshot(&served).ok());
    orphan = *served;
  }
  expect_revoked(orphan);

  // The session itself serves on.
  Result<ConnectivityResult> cc = session.Connectivity(1);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  EXPECT_FALSE(cc.value().failed);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

}  // namespace
}  // namespace gz
