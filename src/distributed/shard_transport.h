// Transport abstraction under ShardCluster: a transport is a connection
// — one connected, authenticated stream socket per shard replica,
// created from a ShardEndpoint. It sends and reads nothing itself:
// requests and their replies go through Exchange() (shard_protocol.h)
// on fd(), and UPDATE_BATCH frames through SendFrame(). Every shard is
// a ShardListener (shard_listener.h) on TCP and is dialed with
// TcpShardTransport; the substrates differ only in who runs the
// listener — a gz_shard child this transport spawns (local:), a thread
// of this process (thread:), or whoever started it (tcp://). The
// protocol state machines above never branch on it.
//
//   Connect()    start the listener if this transport owns one (spawn
//                the child, start the thread), dial it and run the
//                client half of the authenticated handshake.
//                Re-callable after Terminate() — that is what
//                RestartReplica does.
//   Alive()      the substrate still exists (child not reaped /
//                listener thread still running and connection open /
//                connection open). Liveness of the *shard logic* shows
//                when a send or a reply fails, and the cluster fences
//                the replica then.
//   Terminate()  hard-stop: SIGKILL + reap for a local child; for a
//                thread or TCP shard, drop the connection (the listener
//                discards its instance and keeps accepting). Every kind
//                is the same state loss a SIGKILL inflicts, recovered
//                the same way: Connect() + checkpoint restore + replay.
#ifndef GZ_DISTRIBUTED_SHARD_TRANSPORT_H_
#define GZ_DISTRIBUTED_SHARD_TRANSPORT_H_

#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "distributed/shard_endpoint.h"
#include "distributed/shard_protocol.h"
#include "util/status.h"

namespace gz {

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual Status Connect() = 0;
  virtual bool Alive() = 0;
  virtual void Terminate() = 0;
  virtual int fd() const = 0;
};

// Everything a transport needs besides the endpoint itself. A tcp://
// shard is proven the cluster's secret through the handshake. A local:
// or thread: shard runs under the same secret (pinned into a child's
// environment, never argv — /proc exposes that world-readable), or,
// when the cluster's is empty, under one its transport mints at random,
// so its loopback port admits no one but this coordinator.
struct ShardTransportOptions {
  std::string binary;       // gz_shard binary (local endpoints).
  std::string log_path;     // Child stderr destination (local endpoints);
                            // its port file goes beside it.
  std::string auth_secret;  // Shared handshake secret ("" = open).
};

// Endpoint -> transport factory: local: spawns `gz_shard --listen
// 127.0.0.1:0` through ListenerShard on Connect(); thread: runs a
// ShardListener bound to 127.0.0.1:0 on a thread of this process
// (one address space, so coordinator and shard threads are visible to
// one race detector); tcp:// is a TcpShardTransport.
std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardEndpoint& endpoint, const ShardTransportOptions& options);

// Attaches to a running ShardListener. Connect() retries briefly while
// the connection is refused (a listener still coming up), sets
// TCP_NODELAY (the barrier RPCs are latency-bound), and authenticates.
class TcpShardTransport : public ShardTransport {
 public:
  // `role` is the session role the handshake declares: kWriter (the
  // default — what the coordinator is) or kReader (a serving-tier
  // session, restricted to read-only frames; see QuerySession).
  TcpShardTransport(ShardEndpoint endpoint, std::string auth_secret,
                    ShardSessionRole role = ShardSessionRole::kWriter);
  ~TcpShardTransport() override;
  TcpShardTransport(const TcpShardTransport&) = delete;
  TcpShardTransport& operator=(const TcpShardTransport&) = delete;

  Status Connect() override;
  bool Alive() override { return fd_ >= 0; }
  void Terminate() override;
  int fd() const override { return fd_; }

 private:
  ShardEndpoint endpoint_;
  std::string auth_secret_;
  ShardSessionRole role_ = ShardSessionRole::kWriter;
  int fd_ = -1;
};

// A listener-mode shard on this machine: fork/execs
// `gz_shard --listen 127.0.0.1:0`, waits for the kernel-assigned port
// (the child publishes it through --port-file), and exposes the
// tcp:// endpoint to dial. The local: transport is one of these per
// shard; loopback-TCP suites and benches use it to stand up tcp://
// shards. The child dies with the thread that started it, so a
// crashed coordinator leaves no listener behind.
class ListenerShard {
 public:
  ListenerShard() = default;
  ~ListenerShard();
  ListenerShard(const ListenerShard&) = delete;
  ListenerShard& operator=(const ListenerShard&) = delete;

  // `scratch_dir` hosts the transient port file; `log_path` receives
  // the listener's stderr (empty = inherit).
  Status Start(const std::string& binary, const std::string& scratch_dir,
               const std::string& log_path, const std::string& auth_secret);
  // SIGKILL + reap; idempotent. (An orderly exit happens on its own
  // when a coordinator sends kShutdown — Stop() then just reaps.)
  void Stop();
  bool Running();

  uint16_t port() const { return port_; }
  std::string endpoint() const {
    return "tcp://127.0.0.1:" + std::to_string(port_);
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  uint16_t port_ = 0;
};

// Fleet sugar over ListenerShard, shared by the TCP-parameterized
// suites and benches: stands up `count` listeners (logs at
// <log_prefix><i>.log when a prefix is given) and appends their
// tcp:// endpoints to *endpoints. Fails on the FIRST listener that
// cannot start, naming it — a port-0 placeholder leaking into a
// cluster config would fail far from the cause.
Status StartListenerShards(const std::string& binary, int count,
                           const std::string& scratch_dir,
                           const std::string& log_prefix,
                           const std::string& auth_secret,
                           std::vector<std::unique_ptr<ListenerShard>>* fleet,
                           std::vector<std::string>* endpoints);

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_TRANSPORT_H_
