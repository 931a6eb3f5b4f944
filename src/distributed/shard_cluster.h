// ShardCluster: the sharded coordinator — the distributed extension the
// paper sketches in its conclusion ("sketches can be updated
// independently ... they can be partitioned throughout a distributed
// cluster without sacrificing stream ingestion rate"). Owns N shards
// (one GraphZeppelin each, same seed/geometry), each owning the nodes
// whose routing slots the table gives it: an update on (u, v) is sent
// as the node update {u, v} to u's owner and {v, u} to v's, so a shard
// creates and keeps only its own ~V/N node sketches and gutters. It
// folds query-time snapshots by XOR-ing every shard's node-range
// replies round by round (the pull engine reader sessions share,
// range_pull.h), and manages replica lifecycle: spawn, checkpoints,
// orderly shutdown, restart-from-checkpoint of a crashed replica — and
// elastic resharding: shards can be split or removed WITHOUT pausing
// the stream.
//
// Where a shard lives is its endpoint's business (shard_endpoint.h):
// every shard is a ShardListener dialed over TCP, run by a gz_shard
// child this coordinator spawns (local:), by a thread of this process
// (thread:), or by a gz_shard on another machine (tcp://). The
// coordinator speaks the same frames to all three, so
// every model below holds on every substrate; the unsharded
// GraphZeppelin is the zero-transport ground truth they are pinned to.
//
// Durability model: the coordinator keeps one set of books per shard
// id, because every replica of a shard is sent the same stream. The
// shard's update log holds every node update routed to it from position
// `log_start` on; a shard's position, its checkpoint acks and its
// STATS_EX count node updates, and the stream position is half their
// sum over all shards. Its pending-delta log holds every migration
// delta sent to it, under a per-shard sequence number. A replica keeps
// only its cursor into those logs: the position and delta sequence
// number its last checkpoint's ack reported. Both logs are
// trimmed to the lowest cursor over the shard's replicas, so a replica
// without a checkpoint (or fenced with a stale one) pins them. A
// checkpoint is a plain GraphSnapshot file, and each replica has two
// slots for one: a checkpoint writes the slot the ack does not point
// at, and only its ack flips the pointer, so a checkpoint whose ack was
// lost is never restored and the next one overwrites it. A replica
// that dies mid-stream is restarted from its acked checkpoint — CONFIG
// carries the file and its delta sequence number — and both log
// suffixes past its cursor are replayed; sketch linearity makes replay
// order irrelevant and the rebuilt state bitwise-identical to a run
// that never crashed. Updates routed to a down replica wait in the
// same log, so ingestion never stalls on a failure; only
// Flush/Snapshot/Checkpoint require every shard healthy.
//
// Replication model: with replication_factor R > 1 every shard id is
// backed by R replica processes. Each routed slab is logged once for
// the shard and fans out to every replica (each migration chunk is
// logged once per side and sent the same way), so all live replicas
// of a shard are bitwise-identical at all times; a fold (Snapshot)
// reads any ONE live replica per shard and fails over past dead ones,
// chunk by chunk.
// The repair path is anti-entropy, not replay: Reconcile() pulls
// node-range chunks from a position-verified reference replica and
// from the suspect, XOR-diffs them, and folds exactly the difference
// into whichever copy is behind. Because the diff is linear it
// commutes with concurrent ingestion and with an in-flight migration —
// a killed replica rejoins by reconnect + reconcile with zero stream
// pause, no checkpoint restore, no replay.
// R = 1 is bitwise-identical to the pre-replication cluster.
//
// Elasticity model: routing is a pure function of (node, table); see
// RoutingTable. A reshard changes the table in the coordinator only —
// no shard holds the table, and no frame carries it: a shard's
// content is whatever it was sent, and the fold is the XOR of all of
// them. Growing the cluster (SplitShard) moves routing slots and
// nothing else: the fold is the XOR of all shards whichever shard holds
// which contribution, so a new shard starts as a zero sketch (and the
// split source keeps its earlier halves of the nodes it hands over).
// Only a removal migrates sketch state, draining the leaving shard's
// [0, V) in node-range chunks: each chunk is extracted from the source
// (read-only RPC), XOR-folded into the target, and XOR-folded BACK into
// the source to cancel it there. Because every step is a linear XOR, a chunk
// "move" commutes with concurrent ingestion and with crash-replay;
// there is no flush barrier, no destructive clear, and the global
// folded snapshot is exact at every chunk boundary. Migration advances
// one chunk per PumpMigration() call, so the caller interleaves
// Update() freely — zero stream pause.
#ifndef GZ_DISTRIBUTED_SHARD_CLUSTER_H_
#define GZ_DISTRIBUTED_SHARD_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "distributed/shard_endpoint.h"
#include "distributed/shard_process.h"
#include "distributed/shard_protocol.h"
#include "distributed/shard_transport.h"
#include "util/status.h"

namespace gz {

struct ShardClusterOptions {
  // Where each replica lives: "local:" (a spawned gz_shard listener,
  // the default), "thread:" (a listener thread in this process) or
  // "tcp://host:port" (a running `gz_shard --listen`). Shard-major with
  // replication_factor consecutive entries per shard id —
  // [s0r0, s0r1, s1r0, s1r1, ...]; shorter than num_shards *
  // replication_factor = the rest are local. See shard_endpoint.h for
  // the grammar; a malformed entry fails Start().
  std::vector<std::string> shard_endpoints;
  // Shared handshake secret, proven by every connection in both
  // directions (HMAC challenge–response; see shard_protocol.h). Local
  // children receive it through their environment; tcp listeners must
  // have been started with the same secret. "" = open (trusted
  // transport).
  std::string auth_secret;
  // Where shard checkpoints live; empty = the base config's disk_dir.
  std::string checkpoint_dir;
  // Where shard stderr logs go; empty = $GZ_SHARD_LOG_DIR, falling back
  // to the base config's disk_dir. CI points this at an artifact dir.
  std::string log_dir;
  // Replicas per shard id, 1..RoutingTable::kMaxReplication. Every
  // routed slab fans out to all replicas; queries fold from any live
  // one. 1 (the default) = no replication, bitwise-identical to the
  // pre-replication cluster.
  int replication_factor = 1;
  // Auto-checkpoint cadence: after this many routed updates the next
  // Update() call checkpoints every shard (best-effort), truncating the
  // update logs so coordinator memory stays bounded by the interval
  // instead of growing with the stream. 0 = manual Checkpoint() only.
  uint64_t checkpoint_interval_updates = 1 << 22;
  // Node-range granularity of one PumpMigration() step, of one
  // Reconcile() diff chunk and of one Snapshot() pull request. Smaller
  // chunks mean more interleaving opportunities for Update() (and finer
  // kill points in fault tests), and smaller reply frames, at more RPCs.
  uint64_t migrate_nodes_per_chunk = 1 << 16;
};

struct ShardStats {
  // Node updates the shard ingested: two per stream update summed over
  // all shards, one to each endpoint's owner.
  uint64_t num_updates = 0;
  uint64_t ram_bytes = 0;
  // The shard's migration-delta count. Together with num_updates it
  // fixes the shard's sketch content: equal counts imply bitwise-equal
  // sketches.
  uint64_t delta_seq = 0;
};

class ShardCluster {
 public:
  // `base` configures every shard (same num_nodes and sketch seed).
  ShardCluster(const GraphZeppelinConfig& base, int num_shards,
               ShardClusterOptions options = {});
  // Best-effort orderly shutdown, then removes shard checkpoints.
  ~ShardCluster();
  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  // Spawns and configures every shard process (all replicas).
  Status Start();

  // The current table. An update on (u, v) routes its halves to
  // NodeOwner(u, routing_table()) and NodeOwner(v, routing_table()):
  // pure functions of (node, table), identical for any external
  // partitioner holding the same table.
  const RoutingTable& routing_table() const { return table_; }

  // Routes the span as node updates, two per update: each shard's slice
  // is appended once to the shard's update log, then framed (one
  // sendmsg, no copy) onto each live replica's socket. A replica that
  // fails mid-send is fenced and the log keeps its updates; the call
  // still returns Ok because no update was lost. Reconcile() (or
  // RestartReplica()) drains the backlog.
  Status Update(const GraphUpdate* updates, size_t count);
  Status Update(const GraphUpdate& update) { return Update(&update, 1); }

  // Barriers (every replica of every shard must be healthy).
  Status Flush();
  // Aggregated query surface: pulls every round of every shard's nodes
  // [0, V) from one live replica per shard, in chunks of
  // migrate_nodes_per_chunk nodes, XOR-folded into one buffer per round
  // by the engine reader sessions use (range_pull.h). The result is
  // round-lazy, but its loads only hand those buffers over: it never
  // touches the cluster again, and any thread may query it. The update
  // count is the coordinator's books, removed shards included. Exact
  // even mid-migration: chunk moves are install+cancel pairs. A replica
  // that fails in transport is fenced and its chunks re-pulled from the
  // next live one; a shard with no unfenced live replica fails the call
  // (FailedPrecondition) before any request is sent.
  Result<GraphSnapshot> Snapshot();
  // Checkpoints every replica of every shard into its unacked slot.
  // Each replica's cursor moves as its ack arrives and the shard's logs
  // are trimmed to the lowest cursor — commits are per-replica, so a
  // failure on one leaves the others' coordinator state consistent with
  // their acked checkpoints (a checkpoint that landed but whose ack was
  // lost stays unacked and is never restored).
  Status Checkpoint();

  // --- Replication ---------------------------------------------------------
  // Anti-entropy pass. Per shard: picks a reference replica whose
  // reported position matches the coordinator's books exactly, then for
  // every other replica pulls node-range chunks from both sides and
  // XOR-diffs them; a chunk that differs is folded — as exactly the
  // difference — into the suspect. A fenced replica is respawned EMPTY
  // first and repaired from zero: rejoin is reconnect + reconcile, not
  // checkpoint-restore + replay. Repair deltas are deliberately NOT
  // logged: a completed repair is anchored by a position sync plus the
  // replica's own checkpoint, and a crash mid-repair leaves the replica
  // fenced with its classic restore+replay lineage untouched — either
  // path converges. Linear diffs commute with concurrent ingestion and
  // with an in-flight migration, so the stream never pauses.
  // `repaired_chunks` (optional) counts chunks whose content differed.
  //
  // Trust rule: the reference is the lowest-index live replica whose
  // reported position (update count, delta sequence) matches the
  // books, and its content is taken as the truth. Nothing checks that
  // content: a checkpoint body carries no checksum, so a checkpoint
  // that rotted on disk and was restored into replica 0 would pass the
  // position check, become the reference, and have its divergence
  // copied into the healthy replicas. At R = 1 nothing detects it.
  Status Reconcile(uint64_t* repaired_chunks = nullptr);
  // Replica count per shard (ShardClusterOptions::replication_factor).
  int replication() const { return replication_; }
  // Hard-stop for fault injection / fencing — SIGKILL for a local
  // replica, connection abort for a thread or tcp one (the listener
  // drops its instance) — the same state loss on every substrate;
  // updates keep buffering in the shard's log. With observed=false the
  // coordinator does NOT fence it — a spontaneous crash it has not
  // detected yet, so tests can drive the paths that must self-fence on
  // a failed send.
  void KillReplica(int shard, int replica, bool observed = true);
  bool replica_down(int shard, int replica) const {
    const std::vector<Replica>& replicas = shards_[shard].replicas;
    return replicas.empty() || replicas[replica].down;
  }

  // --- Elastic resharding --------------------------------------------------
  // Adds a fresh shard (new highest id) at `endpoint` ("" = all
  // replicas local; with replication a comma-separated list places each
  // replica — this is how a cluster grows onto other machines) and
  // hands it every second routing slot of `shard`, which must own at
  // least two (so the shard count never exceeds kNumSlots). No state
  // migrates: the new shard starts empty, `shard` keeps what it
  // ingested, and linearity makes both halves of its slots fold
  // exactly. Returns the new id.
  Result<int> SplitShard(int shard,
                         const std::string& endpoint = std::string());
  // Starts removing `shard`: its slots are dealt to the remaining
  // shards, then PumpMigration() drains its state chunk-by-chunk into
  // the lowest-id surviving shard and finally shuts it down.
  Status BeginRemoveShard(int shard);
  // Advances the active migration by one step (one node-range chunk,
  // or the final shutdown/bookkeeping step). Interleave with Update()
  // at will. On a replica failure the step's effects are already in the
  // durability logs: RestartReplica() the fenced replica, then keep
  // pumping — the migration converges to the same bytes.
  Status PumpMigration();
  bool migration_active() const { return migration_.has_value(); }

  // Lifecycle.
  // Respawn one replica, restore its acked checkpoint (if any), replay
  // the shard's logged updates and migration deltas past its cursor. A
  // restored position other than the cursor is Internal and fences the
  // replica. Afterwards the replica is exactly where it would be had it
  // never died. This is the classic restore+replay repair; Reconcile()
  // is the anti-entropy alternative.
  Status RestartReplica(int shard, int replica);
  // Orderly shutdown of every live shard (kShutdown + reap).
  Status Shutdown();

  Result<ShardStats> Stats(int shard);

  // Size of the shard-id space (ids are never reused; removed ids stay
  // allocated). Equals the active count until the first removal.
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Ids of shards that currently exist, ascending.
  std::vector<int> ActiveShards() const;
  int num_active_shards() const;
  bool shard_removed(int shard) const {
    return shards_[shard].replicas.empty();
  }
  // A shard counts as down when ANY of its replicas is fenced (the
  // all-replica barriers refuse it). A removed id reads as down.
  bool shard_down(int shard) const {
    for (int r = 0; r < replication_; ++r) {
      if (replica_down(shard, r)) return true;
    }
    return false;
  }
  // Updates and migration deltas the shard's logs retain: what its
  // least-advanced replica's acked checkpoint does not cover.
  uint64_t unacked_updates(int shard) const {
    return shards_[shard].log.size();
  }
  uint64_t pending_delta_count(int shard) const {
    return shards_[shard].deltas.size();
  }

 private:
  struct PendingDelta {
    uint64_t seq = 0;  // 1-based per-shard kMergeDelta sequence number.
    std::vector<uint8_t> bytes;
  };
  // One replica: its connection, whether the coordinator has fenced it,
  // and its cursor into the shard's logs — the position of its last
  // acked checkpoint, which sits in checkpoint slot `acked_slot`.
  struct Replica {
    std::unique_ptr<ShardTransport> proc;
    bool down = true;  // Up only once configured.
    bool has_checkpoint = false;
    int acked_slot = 0;  // 0 or 1; meaningful once has_checkpoint.
    uint64_t checkpoint_updates = 0;    // Stream position; 0 = none yet.
    uint64_t checkpoint_delta_seq = 0;  // Delta sequence number.
  };
  // One shard id's books, shared by all its replicas.
  struct Shard {
    std::vector<Replica> replicas;  // Empty marks a removed id.
    // Routing buffer (capacity persists across spans); the fan-out to
    // replicas happens at send time.
    std::vector<NodeUpdate> route_buf;
    // Every node update routed to the shard from position log_start on;
    // log_start is the lowest replica cursor.
    uint64_t log_start = 0;
    std::vector<NodeUpdate> log;
    // Migration deltas past the lowest replica delta cursor.
    std::vector<PendingDelta> deltas;
    uint64_t delta_seq_sent = 0;  // Total ever sent.
    // Every node update ever routed to the shard.
    uint64_t position() const { return log_start + log.size(); }
  };
  // A removal in flight: `source` drains [0, V) into `target`.
  struct Migration {
    int source = -1;
    int target = -1;
    uint64_t next_node = 0;  // First node of the next chunk.
  };
  // Connects + configures one replica, restoring its acked checkpoint
  // if `restore` and it has one; `restored` receives the stream
  // position the replica then reports.
  Status SpawnAndConfigure(int shard, int replica, bool restore,
                           uint64_t* restored);
  // Checkpoint slot `slot` (0 or 1) of one replica.
  std::string CheckpointPath(int shard, int replica, int slot) const;
  // The slot the replica's next checkpoint writes: not the acked one.
  std::string NextCheckpointPath(int shard, int replica) const;
  // Unlinks both slots of one replica and their .tmp files.
  void RemoveCheckpointFiles(int shard, int replica) const;
  std::string LogPath(int shard, int replica) const;
  // "" = all local; otherwise a comma-separated endpoint list, at most
  // one entry per replica (missing entries are local).
  Result<std::vector<ShardEndpoint>> ParseReplicaEndpoints(
      const std::string& endpoint) const;
  // Appends the books of a freshly allocated id, with one (not yet
  // connected) transport per replica endpoint (see
  // MakeShardTransport).
  int AllocateShardSlot(const std::vector<ShardEndpoint>& endpoints);
  // Rolls a just-allocated (still-last) id back out after a failed
  // spawn, terminating its replicas, so a failed grow burns no id:
  // identical op sequences hand out identical ids — and tables —
  // whatever the substrate.
  void ReleaseLastShardSlot(int id);
  // Lowest-index replica of `shard` the coordinator has not fenced
  // (-1 if none). What the send paths target.
  int FirstUnfencedReplica(int shard) const;
  // Sends `updates` to one replica as update frames.
  Status SendUpdateFrames(const Replica& replica, const NodeUpdate* updates,
                          size_t count);
  // The cluster-wide barriers (flush, checkpoint): one Exchange() of
  // `type` (payload from `payload_for`, if given) with every replica of
  // every shard. A replica is fenced (down) only when its connection
  // lost sync, not on an in-sync kError. `on_reply` (optional) runs per
  // well-formed reply; its error fails the barrier without fencing.
  // Returns the first error.
  Status PipelinedBarrier(
      ShardMessageType type,
      const std::function<std::string(int shard, int replica)>& payload_for,
      const std::function<Status(int shard, int replica,
                                 const ShardFrame& reply)>& on_reply);
  Status RequireAllHealthy();
  // A reply to Call(), decoded by its type.
  struct Reply {
    ShardAck ack;                // kAck.
    ShardStatsEx stats;          // kStatsReply, to kStatsEx.
    std::vector<uint8_t> range;  // kMigrateData, to kMigrateExtract.
  };
  // The one single-request exchange: sends `type` (+ payload) to one
  // replica and decodes its reply into *reply (when given). Fences the
  // replica when its connection lost sync, its reply does not decode or
  // a MERGE_DELTA fails (a diverged shard: repair re-delivers the
  // delta); any other in-sync kError only fails the call.
  Status Call(Replica& replica, ShardMessageType type,
              const void* payload = nullptr, size_t payload_bytes = 0,
              Reply* reply = nullptr);
  // Whether a replica's reported position is exactly the shard's books.
  bool AtBooksPosition(const Shard& shard, const ShardStatsEx& ex) const;
  // Moves one replica's cursor to its acked checkpoint (ack = its
  // position and delta sequence number) and flips its acked
  // slot to the one just written, then trims the shard's logs to what
  // every replica's checkpoint covers.
  void CommitCheckpoint(int shard, int replica, const ShardAck& ack);
  // The cluster's stream position: half the node updates in every
  // active shard's books plus what removed shards ingested — the count
  // Snapshot() reports.
  uint64_t TotalUpdates() const;
  // The sketch params every shard runs with: base_'s geometry, with
  // rounds = 0 resolved exactly as a shard resolves it.
  NodeSketchParams SketchParams() const;
  // Reconcile's inner loop: repair `replica` against `reference`, each
  // chunk pulled from both in one Exchange().
  Status RepairReplica(int shard, int replica, int reference,
                       uint64_t* repaired_chunks);

  GraphZeppelinConfig base_;
  ShardClusterOptions options_;
  std::string binary_;
  std::string log_dir_;
  int replication_ = 1;
  // A malformed options_.shard_endpoints entry (or replication factor),
  // reported by Start() (the constructor cannot return a Status).
  Status endpoint_error_;
  bool started_ = false;

  RoutingTable table_;
  // Indexed by shard id; ids are never reused, so the vector never
  // shrinks except to roll back a failed grow.
  std::vector<Shard> shards_;
  // Positions (node updates) of removed shards: they fold into every
  // Snapshot() so the aggregate update count survives removal.
  uint64_t migrated_updates_ = 0;
  std::optional<Migration> migration_;
  uint64_t updates_since_checkpoint_ = 0;  // Drives auto-checkpointing.
  ShardFrame reply_buf_;  // The frame every Exchange() reads into.
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_CLUSTER_H_
