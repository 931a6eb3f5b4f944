// QuerySession: a read-side client of the serving tier. Dials every
// shard listener of a cluster as a *reader* session (role-restricted:
// the handshake proves the shared secret and binds the reader role, so
// the session can observe but never mutate — see shard_protocol.h) and
// serves merged snapshots WITHOUT ever touching the coordinator:
// queries scale out by adding QuerySessions, not coordinator load.
//
// The session caches the merged snapshot of the last position it read,
// keyed by the per-shard watermarks. Given FIFO per-shard sockets a
// shard's sketch state is a pure function of its watermark, so an
// unmoved position is answered with zero pulls — a split that moves no
// content included, since routing never reaches a shard. A moved one is
// rebuilt cold, folding every shard's [0, V) into GraphSnapshot::Zero
// like ShardCluster::Snapshot(): ingest hashes edges over routing slots
// dealt across all shards, so any span of updates moves every shard.
//
// Consistency protocol (a seqlock over shard positions): one refresh
// reads every shard's STATS_EX position (t0), pulls and folds every
// shard into a fresh candidate, re-reads the positions (t1), and
// installs the candidate only if t1 == t0. Positions are monotone, so
// t0 == t1 proves every folded byte of a shard belongs to that shard's
// keyed position — no ABA. A moving position, a lost replica or a
// reply that does not fold discards the candidate and retries; a
// bounded number of failed rounds returns an error.
//
// Known gap, torn reads during a removal: a chunk is installed on its
// target and cancelled on its source in two round trips. A refresh
// that falls wholly between them sees both shards at stable positions,
// yet folds the chunk from both, so it cancels out and the snapshot
// differs from the coordinator's. The window is one round trip per
// chunk (see ROADMAP).
//
// Pulls run in waves so the shards extract in parallel: each wave
// sends one MIGRATE_EXTRACT per shard, for its next chunk, to one live
// replica, then folds the replies in send order. A connection never has
// more than one pull outstanding — with several, a shard blocked
// writing replies the reader has not read could stop reading requests
// while the reader blocks sending them. A replica that fails in
// transport is marked dead and the next wave re-sends its chunk to the
// shard's next live replica; an in-sync FailedPrecondition (a shard
// bounced mid-pull) retries the round.
//
// Replication: endpoints may include several listeners serving the
// SAME shard id (its replicas). The session groups connections by the
// shard id each reports, verifies the group sizes against the
// cluster's advertised replication factor, and reads positions / pulls
// content from any ONE live group member per shard — so a reader
// survives the death of a listener mid-sweep as long as every shard
// keeps one live replica. Replicas of one shard reporting different
// positions is transient skew (an update fan-out caught mid-flight)
// and is handled like any moving position: retry / stale.
//
// Every request runs under a receive deadline (an OS-level socket
// timeout, see QuerySessionOptions): a listener that accepts,
// authenticates, and then goes silent yields DeadlineExceeded instead
// of hanging the reader forever, and the dead connection is excluded
// from later sweeps.
//
// Honest limitation: a QuerySession computes the merged snapshot's
// update count as the sum over the shards it can see, so after a
// RemoveShard the retired shard's ingested count (which the
// coordinator carries forward separately) is missing from
// num_updates() — the sketch CONTENT is still exact. Sessions must
// also re-Connect() after the cluster adds or removes listeners; a
// vanished listener whose shard has no other live replica surfaces as
// an error from Snapshot().
#ifndef GZ_DISTRIBUTED_QUERY_SESSION_H_
#define GZ_DISTRIBUTED_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/standing_query.h"
#include "distributed/shard_protocol.h"
#include "distributed/shard_transport.h"
#include "util/status.h"

namespace gz {

// One shard's position (updates ingested, migration deltas folded);
// equal watermarks imply bitwise-equal sketch content.
struct ShardWatermark {
  uint64_t num_updates = 0;
  uint64_t delta_seq = 0;

  friend bool operator==(const ShardWatermark&,
                         const ShardWatermark&) = default;
};

// The cluster's full position, one entry per shard id.
using ShardWatermarks = std::map<int, ShardWatermark>;

struct QuerySessionOptions {
  // tcp:// endpoints of the cluster's shard listeners — one per shard,
  // or one per replica when the cluster replicates.
  std::vector<std::string> endpoints;
  // Shared handshake secret; must match the listeners'.
  std::string auth_secret;
  // Nodes per refresh pull, so reply buffers stay small regardless of
  // graph size. 0 = one chunk per shard.
  uint64_t nodes_per_chunk = 1 << 14;
  // Per-request receive deadline. A listener that stops answering
  // mid-request fails with DeadlineExceeded after this long instead of
  // blocking the reader forever. 0 = wait forever.
  int receive_deadline_seconds = 30;
};

// How a watch (StartWatch) paces itself.
struct StandingWatchOptions {
  // The fallback cadence: how long the watcher sleeps between position
  // probes when no push notification arrives. With live notify streams
  // this is only a safety net; with subscribe = false (or after every
  // notify stream has died) it is the whole pacing.
  int poll_interval_ms = 200;
  // Open a dedicated kSubscribe notify stream to every endpoint so the
  // shard PUSHES position changes and the watcher reacts immediately
  // instead of discovering them a poll interval late. A stream that is
  // refused (shard not yet configured) or dies later is simply dropped
  // — the cadence poll still covers its shard.
  bool subscribe = true;
  // Threads for the Boruvka fold each evaluation runs.
  int threads = 1;
};

class QuerySession {
 public:
  explicit QuerySession(QuerySessionOptions options);
  ~QuerySession();
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  // Dials and authenticates a reader session to every endpoint. All or
  // nothing: on any failure the session holds no connection, and
  // Snapshot() fails until a Connect() succeeds.
  Status Connect();

  // Returns the merged snapshot at the cluster's current position:
  // the cached one when nothing moved (zero pulls), else a cold rebuild.
  // *out stays valid until the next Snapshot() call. Fails when a shard
  // is unreachable/unconfigured, or when the position kept moving for
  // 16 refresh rounds.
  Status Snapshot(const GraphSnapshot** out);

  // Convenience: Snapshot() + the parallel Boruvka query.
  Result<ConnectivityResult> Connectivity(int threads = 1);

  // Staleness probe: one STATS_EX position sweep, no content pulls.
  // *fresh says whether the cached snapshot is still exactly the
  // cluster's position — readers that serve slightly-stale answers
  // poll this cheaply and pay Snapshot()'s refresh only when it reports
  // false. A position with replica position skew (an update fan-out
  // caught mid-flight) is reported as stale, not an error; a
  // MISCONFIGURATION — more endpoints serving one shard id than the
  // cluster replicates — is FailedPrecondition, exactly as Snapshot()
  // reports it (a config error must never masquerade as staleness).
  Status PollPositions(bool* fresh);

  // Observability: chunk replies received (discarded rounds included)
  // and seqlock rounds the last Snapshot() needed (1 = stable at once).
  uint64_t range_pulls() const { return range_pulls_; }
  int last_refresh_rounds() const { return last_refresh_rounds_; }

  // ---- Standing queries -------------------------------------------
  //
  // Register queries, then StartWatch() to spawn the watcher thread:
  // it waits on the notify streams (or the fallback cadence), probes
  // the cluster position, and re-runs Snapshot() + one evaluation only
  // when the position moved (or a freshly added query needs its
  // initial answer), firing `notifier` once per changed answer — see
  // core/standing_query.h for the delivery contract. The notifier runs
  // on the watcher thread; keep it quick or hand off.
  //
  // While a watch runs, the watcher thread owns the request/reply
  // connections: the owner must not call Snapshot(), Connectivity(),
  // PollPositions(), or Connect() until StopWatch() returns. Add and
  // Remove are safe at any time.
  uint64_t AddStandingQuery(const StandingQuerySpec& spec);
  bool RemoveStandingQuery(uint64_t query_id);

  // Spawns the watcher. Fails if already watching or never connected.
  // Notify-stream subscription failures are NOT fatal (the cadence
  // poll covers them); watch_notify_streams() says how many are live.
  Status StartWatch(const StandingWatchOptions& options,
                    StandingQueryNotifier notifier);
  // Stops and joins the watcher, closes the notify streams. Idempotent.
  void StopWatch();
  bool watching() const { return watching_.load(); }

  // Watch observability (safe while watching).
  uint64_t watch_notifications() const;
  uint64_t watch_evaluations() const;
  size_t watch_notify_streams() const;
  // The most recent evaluation-cycle failure (a mid-reshard refresh
  // that kept moving, a dead shard). Cleared by the next clean cycle;
  // the watch itself keeps running through transient errors.
  Status watch_error() const;

 private:
  // One position sweep, grouped: every live connection's STATS_EX reply
  // validated into a single cluster view.
  struct PositionView {
    // Replicas of one shard reporting different positions — a moving
    // cluster, not an error.
    bool skew = false;
    ShardWatermarks marks;  // One entry per shard (not per conn).
    uint64_t total_updates = 0;
    // shard id -> live conn indices serving it (replicas). Built once
    // per sweep; both position checks and pull failover walk it — no
    // per-shard scan over the conn list.
    std::map<int, std::vector<size_t>> groups;
    NodeSketchParams params;
  };

  // One STATS_EX sweep across every live connection (pipelined: all
  // requests go out before the first reply is read). A connection that
  // fails to answer is marked dead and excluded — the sweep itself only
  // fails when no live connection remains.
  Status ReadPositions(std::vector<ShardStatsEx>* stats);
  // Validates one sweep into a PositionView: geometry and replication
  // agreement, group sizes against the replication factor, and
  // coverage — a dead connection whose shard id has no live replica
  // (or was never learned) surfaces the saved transport error.
  Status BuildView(const std::vector<ShardStatsEx>& stats,
                   PositionView* view);
  // True iff the cached snapshot is exactly the cluster at `view`.
  bool Cached(const PositionView& view) const;
  // Pulls every shard at `view` in waves, folding each reply into
  // *fresh. Returns an error no retry can fix; *round_error says the
  // round must be retried instead (a shard lost its last live replica,
  // answered FailedPrecondition, or sent bytes that do not fold).
  // Either way, every request sent has had its reply read.
  Status PullAndFold(const PositionView& view, GraphSnapshot* fresh,
                     Status* round_error);

  // Dials every endpoint as an extra reader session and converts each
  // into a kSubscribe notify stream. Failures drop the stream, never
  // the watch.
  void OpenNotifyStreams();
  // The watcher thread body.
  void WatchLoop();
  // One watch cycle: position probe, refresh if moved, evaluate.
  void WatchEvaluate();

  QuerySessionOptions options_;
  std::vector<std::unique_ptr<TcpShardTransport>> conns_;
  // Connections that have failed are marked dead rather than torn down:
  // index stability keeps the seqlock's t0/t1 comparison simple, and a
  // dead conn's sticky shard id (below) still drives coverage checks.
  std::vector<bool> conn_alive_;
  // Last shard id each connection reported (-1 before the first reply).
  // Sticky across its death, so the session knows whether a dead conn's
  // shard is still covered by a live replica.
  std::vector<int> conn_shard_ids_;
  // Most recent transport error from a connection marked dead.
  Status conn_error_;
  // The cache: the cluster's content at marks_, if valid().
  ShardWatermarks marks_;
  GraphSnapshot merged_;
  ShardFrame reply_buf_;
  uint64_t range_pulls_ = 0;
  int last_refresh_rounds_ = 0;

  // ---- Watch state ------------------------------------------------
  // watch_mu_ guards the registry, watch_error_, and the notify-stream
  // list; the watcher thread holds it across a whole evaluation cycle,
  // so Add/Remove may briefly block behind a refresh.
  mutable std::mutex watch_mu_;
  StandingQueryRegistry registry_;
  Status watch_error_;
  StandingWatchOptions watch_options_;
  StandingQueryNotifier watch_notifier_;
  std::vector<std::unique_ptr<TcpShardTransport>> notify_conns_;
  std::thread watch_thread_;
  int watch_stop_pipe_[2] = {-1, -1};  // Wakes the watcher for StopWatch.
  std::atomic<bool> watching_{false};
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_QUERY_SESSION_H_
