// Where the gz_shard binary lives. The local: transport (see
// shard_transport.h) spawns it in listener mode, as do the loopback-TCP
// suites and benches through ListenerShard.
#ifndef GZ_DISTRIBUTED_SHARD_PROCESS_H_
#define GZ_DISTRIBUTED_SHARD_PROCESS_H_

#include <string>

namespace gz {

// Absolute path of the gz_shard binary: $GZ_SHARD_BIN if set, else
// next to the calling executable (all build targets share one bin dir).
std::string DefaultShardBinary();

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_PROCESS_H_
