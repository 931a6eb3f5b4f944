// Shard-side session loop: serves the shard protocol for one
// authenticated session against a shard instance (ShardInstanceState)
// until kShutdown or a fatal framing error. ShardListener
// (shard_listener.h) is its one runtime: it runs the handshake, then a
// ShardServer per session, whether the listener lives in a
// `gz_shard --listen` process (local: and tcp:// shards) or on a thread
// of the coordinator's process (thread: shards). The conformance tests
// make the same two calls over an in-process socketpair.
//
// Sessions come in two roles (see ShardSessionRole): a *writer* — the
// coordinator, full protocol — and *readers*, which may only observe
// (PING / STATS_EX / MIGRATE_EXTRACT / SUBSCRIBE; anything else draws
// a kError and the session continues). Both roles answer the first
// three through one handler. Sessions of one shard share one
// ShardInstanceState, and every access to the instance goes through
// its mutex.
//
// The shard keeps no checkpoint policy of its own: CHECKPOINT writes a
// plain GraphSnapshot file (GraphZeppelin::SaveCheckpoint) at the path
// the coordinator names and acks its position, and CONFIG restores the
// file the coordinator names and adopts the delta sequence number it
// carries. Which file a restart trusts is the coordinator's decision.
#ifndef GZ_DISTRIBUTED_SHARD_SERVER_H_
#define GZ_DISTRIBUTED_SHARD_SERVER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "distributed/shard_protocol.h"
#include "util/status.h"

namespace gz {

// The shard instance one or more sessions serve. Sessions lock `mutex`
// around every access; the writer session (or the listener, on writer
// disconnect) is the only party that configures or resets it.
struct ShardInstanceState {
  std::mutex mutex;
  std::unique_ptr<GraphZeppelin> gz;
  int32_t shard_id = -1;
  // The cluster's replication factor from CONFIG; only reported back
  // in STATS_EX, so readers can group replicas.
  uint32_t replication = 1;
  // Count of kMergeDelta frames applied since Init, or since the
  // restored checkpoint's count that CONFIG carried. Acked with every
  // checkpoint, so the coordinator knows which deltas that checkpoint
  // covers and replays only the rest on restart.
  uint64_t delta_seq = 0;
  // A problem in a fire-and-forget UPDATE_BATCH cannot be answered
  // inline — an unsolicited reply would desynchronize the 1:1
  // request/reply stream — so it is recorded here and surfaces as the
  // kError reply to every later barrier (including migration and
  // serving requests: a diverged shard must not donate state or serve
  // stale answers). Sticky: a dropped batch is permanent divergence,
  // curable only by restart + replay.
  Status async_error;
  // Signaled (under `mutex`) on every serving-position change — ingest,
  // delta fold, position sync, configure, reset — so
  // subscribed reader sessions (kSubscribe) push a kNotify instead of
  // the client polling. `position_changes` counts the signals, letting
  // a subscription wait on a predicate (no change can slip between its
  // payload build and its next wait). Also signaled with
  // `winding_down` set when the listener retires, so subscription
  // loops exit promptly.
  std::condition_variable position_cv;
  uint64_t position_changes = 0;
  bool winding_down = false;

  // Caller holds `mutex`.
  void NotifyPositionChanged() {
    ++position_changes;
    position_cv.notify_all();
  }

  // Back to the unconfigured state — what a writer disconnect on the
  // listener does (the exact state loss of a SIGKILLed shard process).
  // Caller holds `mutex`.
  void Reset() {
    gz.reset();
    shard_id = -1;
    replication = 1;
    delta_seq = 0;
    async_error = Status::Ok();
    NotifyPositionChanged();  // Subscribers must learn of the loss.
  }
};

class ShardServer {
 public:
  // Serves one session against a shared instance. The caller
  // (shard_listener.cc) has already run the handshake and knows the
  // role. A reader session runs under a 30 s per-read deadline (a
  // reader stalled mid-frame must not hold its slot forever). `fd` is
  // not owned.
  ShardServer(int fd, ShardInstanceState* state, ShardSessionRole role)
      : fd_(fd), state_(state), role_(role) {}

  // Serves frames until an orderly kShutdown (returns Ok) or the
  // connection dies / loses framing (returns the error). Recoverable
  // request problems — an out-of-range update, a ragged batch, a
  // checkpoint path that cannot be written, a request before kConfig, a
  // write-class frame on a reader session — are answered with a kError
  // frame (or deferred, for fire-and-forget frames) and the loop
  // continues: a bad request must never take the shard down.
  Status Serve();

 private:
  // Writer-session handlers for the frames that change the instance.
  // They reply on fd_, are called with state_->mutex held, and return a
  // non-OK status only when the connection is no longer usable. The
  // read-only frames have one handler for both roles (ServeRead in
  // shard_server.cc).
  Status HandleConfig(const ShardFrame& frame);
  Status HandleUpdateBatch(const ShardFrame& frame);
  Status HandleCheckpoint(const ShardFrame& frame);
  Status HandleMergeDelta(const ShardFrame& frame);
  Status HandleSyncPosition(const ShardFrame& frame);

  // One reader request: answered into a buffer under the lock, sent
  // after it (a slow reader must not hold the instance hostage).
  Status ServeReaderFrame(const ShardFrame& frame);

  // The notify stream a reader session becomes after kSubscribe: waits
  // on position_cv, pushes a kNotify whenever the serving position
  // differs from the last pushed one (`last_notified`, seeded with the
  // initial kNotify's payload), and exits when the subscriber hangs up
  // (any inbound byte or EOF), the instance winds down, or a send
  // fails. Never returns Ok — a subscription only ends with the
  // connection.
  Status ServeSubscription(std::vector<uint8_t> last_notified);

  Status ReplyAck(uint64_t value0, uint64_t value1 = 0);
  Status ReplyError(const Status& error);

  int fd_;
  ShardInstanceState* state_;
  ShardSessionRole role_;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_SERVER_H_
