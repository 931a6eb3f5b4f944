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
// rebuilt cold: every shard's slice of a node is pulled again, since
// ingest sends each endpoint's half of an update to the shard owning
// that node, so a span of updates usually moves every shard.
//
// Pulls: the snapshot is round-lazy (GraphSnapshot::Lazy). Boruvka
// reads one sketch round per step and usually stops after two. Round 0
// needs only each singleton's samples; every later round starts from
// its summary (every node's 12-byte deterministic bucket), and the last
// one only proves every cut empty, from its summary alone. So a cold
// rebuild pulls, from every shard's nodes [0, V), round 0's samples
// (each node's SampleColumns() result on the shard's own slice, or
// "untouched") and the summaries of rounds [1, R): two range requests
// per chunk, through the pull engine ShardCluster::Snapshot() uses too
// (range_pull.h). Summaries XOR-fold into one buffer per round; samples
// fold by copy, since a node touched on one shard only has that shard's
// samples as its answer. A node touched on two shards (a split moved
// its slot, or a removal's heir does not own it) makes the refresh pull
// round 0 whole from every shard instead, in the same seqlock round.
// A query pulls a later round whole, from every shard, only when some
// component's summary does not decide it; anything that needs whole
// sketches (==, Serialize, Merge, a forest peel) pulls every round not
// yet whole, one at a time.
//
// Consistency protocol (a seqlock over shard positions): one refresh
// reads every shard's STATS_EX position (t0), pulls and folds the first
// pull of every shard into a fresh candidate, re-reads the positions
// (t1), and installs the candidate only if t1 == t0. Positions are
// monotone, so t0 == t1 proves every folded byte of a shard belongs to
// that shard's keyed position — no ABA. A moving position, a lost
// replica, a shard bounced mid-pull or a reply that does not fold
// discards the candidate and retries; a bounded number of failed rounds returns an error. Every
// later round's pull runs the same seqlock round, and its sweeps must
// equal the snapshot's marks: if the position moved, the load fails
// (GraphSnapshot::load_status()) and is never folded, so every round
// behind one answer comes from one position. Boruvka then reports the
// query failed; RunQuery() (behind Connectivity() and the
// standing-query watch) takes a fresh Snapshot() and retries, with a
// first pull taking whole every round the failed attempt reached.
//
// A lazy snapshot's later rounds are pulled through this session's
// connections, on the thread that queries it, so query a snapshot only
// where the session itself may be used. A copy still held after the
// Snapshot() that replaces it, Connect(), StartWatch() or the session's
// destruction fails its remaining loads with FailedPrecondition; it
// never touches a closed connection.
//
// Known gap, torn reads during a removal: a chunk is installed on its
// target and cancelled on its source in two round trips. A refresh
// that falls wholly between them sees both shards at stable positions,
// yet folds the chunk from both, so it cancels out and the snapshot
// differs from the coordinator's. The window is one round trip per
// chunk (see ROADMAP).
//
// Replication: endpoints may include several listeners serving the
// SAME shard id (its replicas). The session groups connections by the
// shard id each reports, verifies the group sizes against the
// cluster's advertised replication factor, and reads positions / pulls
// content from any ONE live group member per shard, re-sending a dead
// one's chunks to the next — so a reader survives the death of a
// listener mid-sweep as long as every shard keeps one live replica. Replicas of one shard reporting different
// positions is transient skew (an update fan-out caught mid-flight)
// and is handled like any moving position: retry / stale.
//
// Every request runs under a receive deadline (an OS-level socket
// timeout, see QuerySessionOptions): a listener that accepts,
// authenticates, and then goes silent yields DeadlineExceeded instead
// of hanging the reader forever, and the dead connection is excluded
// from later sweeps. Only a connection that lost sync (transport,
// framing, an undecodable payload) dies. One that answers in sync with
// an error — "shard not configured" while the coordinator restarts its
// listener's replica — stays, sits out that sweep, and serves again
// once its shard is back.
//
// Honest limitation: a QuerySession computes the merged snapshot's
// update count as half the node updates summed over the shards it can
// see, so after a removal the retired shard's ingested count (which the
// coordinator carries forward separately) is missing from
// num_updates() — the sketch CONTENT is still exact. Each stream
// update reaches two shards as two node updates, one per endpoint's
// owner, so a cut taken mid-ingest may hold only one half of an edge
// whose endpoints live on different shards (and num_updates() rounds
// down); a cut of a quiescent cluster holds both halves of every
// update, so quiescent reads are exact. Sessions must
// also re-Connect() after the cluster adds or removes listeners; a
// vanished listener whose shard has no other live replica surfaces as
// an error from Snapshot().
#ifndef GZ_DISTRIBUTED_QUERY_SESSION_H_
#define GZ_DISTRIBUTED_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
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
  // the cached one when nothing moved (zero pulls), else a cold rebuild
  // of round 0's samples (round 0 whole where shards overlap) and every
  // later round's summary. *out stays valid until
  // the next Snapshot() call. Fails when a shard is
  // unreachable/unconfigured, or when the position kept moving for 16
  // refresh rounds.
  Status Snapshot(const GraphSnapshot** out);

  // Runs `query` over Snapshot(). While a load of the snapshot's later
  // rounds fails (the position moved under the query), reruns it over
  // a fresh Snapshot() whose first pull takes whole every round the
  // failed attempt reached, at most 16 times (then ResourceExhausted); a
  // query that needs whole sketches (a forest peel) is retried the same
  // way.
  // Whatever `query` computed from a failed attempt must be discarded
  // by its next run. Errors from Snapshot() are returned as they are.
  Status RunQuery(const std::function<void(const GraphSnapshot&)>& query);

  // RunQuery() of the parallel Boruvka query.
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

  // Observability: chunk replies received and their payload bytes,
  // headers included (discarded rounds, samples, summaries and later
  // rounds included), the whole sketch rounds of the current snapshot
  // pulled so far (none after a cold pull that took round 0 as
  // samples), and the seqlock rounds the last Snapshot() needed (1 =
  // stable at once).
  uint64_t range_pulls() const { return range_pulls_; }
  uint64_t bytes_pulled() const { return bytes_pulled_; }
  int rounds_pulled() const;
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
  // PollPositions(), or Connect() until StopWatch() returns.
  // AddStandingQuery is safe at any time.
  uint64_t AddStandingQuery(const StandingQuerySpec& spec);

  // Spawns the watcher. Fails if already watching or never connected.
  // Notify-stream subscription failures are NOT fatal (the cadence
  // poll covers them); watch_notify_streams() says how many are live.
  Status StartWatch(const StandingWatchOptions& options,
                    StandingQueryNotifier notifier);
  // Stops and joins the watcher, closes the notify streams. Idempotent.
  void StopWatch();

  // Watch observability (safe while watching).
  uint64_t watch_notifications() const;
  uint64_t watch_evaluations() const;
  size_t watch_notify_streams() const;
  // The most recent evaluation-cycle failure (a mid-reshard refresh
  // that kept moving, a dead shard). Cleared by the next clean cycle;
  // the watch itself keeps running through transient errors.
  Status watch_error() const;

 private:
  // One position sweep, grouped: every answering connection's STATS_EX
  // reply validated into a single cluster view.
  struct PositionView {
    // Replicas of one shard reporting different positions — a moving
    // cluster, not an error.
    bool skew = false;
    ShardWatermarks marks;  // One entry per shard (not per conn).
    // Node updates summed over the shards: two per stream update.
    uint64_t total_updates = 0;
    // shard id -> answering conn indices serving it (replicas). Built
    // once per sweep; both position checks and pull failover walk it —
    // no per-shard scan over the conn list.
    std::map<int, std::vector<size_t>> groups;
    NodeSketchParams params;
  };

  // One STATS_EX sweep across every live connection, one Exchange().
  // (*answers)[i] is Ok when connection i answered, else why not: a
  // connection that lost sync or sent a payload that does not decode is
  // marked dead and carries the saved error; one that replied with an
  // in-sync error carries that error and stays live.
  // The sweep itself only fails when no connection answered.
  Status ReadPositions(std::vector<ShardStatsEx>* stats,
                       std::vector<Status>* answers);
  // Validates one sweep into a PositionView over the connections that
  // answered: geometry and replication agreement, group sizes against
  // the replication factor, and coverage — a connection that did not
  // answer and whose shard id has no answering replica (or was never
  // learned) surfaces its answer's error.
  Status BuildView(const std::vector<ShardStatsEx>& stats,
                   const std::vector<Status>& answers, PositionView* view);
  // True iff the cached snapshot is exactly the cluster at `view`.
  bool Cached(const PositionView& view) const;
  // The seqlock round behind Snapshot() and every later round: a t0
  // position sweep, PullAndFold() (range_pull.h) of the whole rounds
  // [r_lo, min(r_hi, R)) into *rounds (with `samples`, of their samples
  // into *samples instead) and, with `summaries`, of the summaries of
  // the rounds after them into *summaries, in the same waves, and a t1
  // sweep that must equal t0; *view is the position the rounds belong
  // to. If the samples overlap (a node touched on two shards), the
  // window is pulled whole into *rounds, and *samples emptied, before
  // the t1 sweep. Replica skew, a moved position, a
  // replica lost mid-pull or a reply that does not fold retries it, at
  // most 16 times (then ResourceExhausted). With `required` (a later
  // round), a sweep that finds other marks returns FailedPrecondition at
  // once. Without (a refresh), a t0 position the cache already holds
  // returns Ok with the cache kept, and otherwise the cache is dropped
  // before the pull.
  Status PullStable(int r_lo, int r_hi, const ShardWatermarks* required,
                    PositionView* view,
                    std::vector<std::vector<uint8_t>>* rounds,
                    std::vector<std::vector<uint8_t>>* summaries,
                    std::vector<std::vector<uint8_t>>* samples);
  // Snapshot() with a first pull of `first_rounds` whole rounds; with
  // none, round 0 comes as samples.
  Status Refresh(int first_rounds, const GraphSnapshot** out);

  // What the current lazy snapshot's loader shares with this session:
  // the marks every round must be pulled at and the pulled rounds and
  // summaries not yet handed to the snapshot. Revoked (session = null)
  // when the snapshot is replaced or the connections change hands.
  struct Lease;
  // A later whole round, pulled by PullStable() at the lease's marks;
  // run by the loader under the lease's lock.
  Status PullRound(Lease* lease, int round);
  // Drops the cached snapshot and revokes its lease, waiting out a load
  // in flight on another thread.
  void Revoke();
  // The whole rounds the current snapshot's loads reached, failed ones
  // included: a retry's first pull.
  int RoundsReached() const;

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
  // Connections that lost sync are marked dead rather than torn down:
  // index stability keeps the seqlock's t0/t1 comparison simple, and a
  // dead conn's sticky shard id (below) still drives coverage checks.
  std::vector<bool> conn_alive_;
  // Last shard id each connection reported (-1 before the first reply).
  // Sticky across its death or a sweep it sits out, so the session
  // knows whether its shard is still covered by an answering replica.
  std::vector<int> conn_shard_ids_;
  // Most recent transport error from a connection marked dead.
  Status conn_error_;
  // The cache: the cluster's content at marks_, if valid().
  ShardWatermarks marks_;
  GraphSnapshot merged_;
  std::shared_ptr<Lease> lease_;  // merged_'s; null when not valid().
  ShardFrame reply_buf_;
  std::atomic<uint64_t> range_pulls_{0};
  std::atomic<uint64_t> bytes_pulled_{0};
  int last_refresh_rounds_ = 0;

  // ---- Watch state ------------------------------------------------
  // watch_mu_ guards the registry, watch_error_, and the notify-stream
  // list; the watcher thread holds it across a whole evaluation cycle,
  // so AddStandingQuery may briefly block behind a refresh.
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
