// The local: transport — one implementation of ShardTransport, no
// longer the hard-coded substrate of ShardCluster. Connect() fork/execs
// gz_shard over a fresh socketpair and authenticates; Terminate() is
// SIGKILL + reap. Lifecycle (spawn order, checkpoint paths, replay)
// lives a layer up in ShardCluster.
#ifndef GZ_DISTRIBUTED_SHARD_PROCESS_H_
#define GZ_DISTRIBUTED_SHARD_PROCESS_H_

#include <string>

#include <sys/types.h>

#include "distributed/shard_transport.h"
#include "util/status.h"

namespace gz {

// Absolute path of the gz_shard binary: $GZ_SHARD_BIN if set, else
// next to the calling executable (all build targets share one bin dir).
std::string DefaultShardBinary();

class ShardProcess : public ShardTransport {
 public:
  // The child's stderr is redirected (append) to `log_path` so shard
  // logs survive a crash for post-mortem (CI uploads them on failure).
  // `auth_secret` is pinned into the child's environment — never argv,
  // which /proc exposes world-readable — and exists so a mixed cluster
  // (local + tcp shards) speaks one secret everywhere.
  ShardProcess(std::string binary, std::string log_path,
               std::string auth_secret);
  // Kills and reaps a still-running child; orderly shutdown is the
  // cluster's job.
  ~ShardProcess() override;
  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  // fork/execs `binary --fd N` with one end of a fresh socketpair as fd
  // N, then runs the client handshake.
  Status Connect() override;

  // True while the child has neither exited nor been reaped.
  bool Alive() override;

  // SIGKILL + reap; idempotent. The socket stays open so queued replies
  // can be drained, but any further call fails with IoError.
  void Terminate() override;

  int fd() const override { return fd_; }

  pid_t pid() const { return pid_; }
  const std::string& log_path() const { return log_path_; }

 private:
  void CloseSocket();

  std::string binary_;
  std::string log_path_;
  std::string auth_secret_;
  pid_t pid_ = -1;
  int fd_ = -1;
  bool reaped_ = false;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_PROCESS_H_
