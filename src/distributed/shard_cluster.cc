#include "distributed/shard_cluster.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>
#include <unistd.h>

#include "distributed/range_pull.h"
#include "sketch/cube_sketch.h"
#include "util/check.h"

namespace gz {
namespace {

// Replay and routing frames are chunked so a shard's receive buffer
// stays bounded no matter how long an update log grows.
constexpr size_t kMaxUpdatesPerFrame = 1 << 18;

}  // namespace

ShardCluster::ShardCluster(const GraphZeppelinConfig& base, int num_shards,
                           ShardClusterOptions options)
    : base_(base), options_(std::move(options)) {
  GZ_CHECK(num_shards >= 1);
  GZ_CHECK(options_.migrate_nodes_per_chunk >= 1);
  replication_ = options_.replication_factor;
  if (replication_ < 1 ||
      replication_ > static_cast<int>(RoutingTable::kMaxReplication)) {
    // A deployment-config error, reported from Start() like a malformed
    // endpoint URI — not a programmer-error abort.
    endpoint_error_ = Status::InvalidArgument(
        "replication_factor " + std::to_string(replication_) +
        " is outside [1, " + std::to_string(RoutingTable::kMaxReplication) +
        "]");
    replication_ = 1;
  }
  const size_t max_endpoints =
      static_cast<size_t>(num_shards) * static_cast<size_t>(replication_);
  if (options_.shard_endpoints.size() > max_endpoints) {
    endpoint_error_ = Status::InvalidArgument(
        std::to_string(options_.shard_endpoints.size()) +
        " shard endpoints for " + std::to_string(num_shards) +
        " shards with replication factor " + std::to_string(replication_));
    options_.shard_endpoints.resize(max_endpoints);
  }
  binary_ = DefaultShardBinary();
  if (options_.checkpoint_dir.empty()) options_.checkpoint_dir = base_.disk_dir;
  const char* env_log_dir = std::getenv("GZ_SHARD_LOG_DIR");
  log_dir_ = !options_.log_dir.empty() ? options_.log_dir
             : (env_log_dir != nullptr && *env_log_dir != '\0')
                 ? env_log_dir
                 : base_.disk_dir;
  ::mkdir(log_dir_.c_str(), 0755);  // Best-effort; EEXIST is the norm.

  table_ = MakeRoutingTable(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    // A malformed endpoint URI surfaces from Start(); construction
    // itself cannot return a Status (the slot still allocates, as a
    // local placeholder, so the id space stays dense). The endpoint
    // list is shard-major: replica r of shard s is entry
    // s * replication + r.
    std::vector<ShardEndpoint> endpoints(replication_);
    for (int r = 0; r < replication_; ++r) {
      const size_t flat = static_cast<size_t>(s) * replication_ + r;
      if (flat >= options_.shard_endpoints.size()) continue;
      Result<ShardEndpoint> parsed =
          ParseShardEndpoint(options_.shard_endpoints[flat]);
      if (parsed.ok()) {
        endpoints[r] = std::move(parsed).value();
      } else if (endpoint_error_.ok()) {
        endpoint_error_ = parsed.status();
      }
    }
    const int id = AllocateShardSlot(endpoints);
    GZ_CHECK(id == s);
  }
}

ShardCluster::~ShardCluster() {
  if (started_) Shutdown();
  // Unconditional: a checkpoint file can exist without an ack (shard
  // crashed between publishing and replying), and a removed shard's may
  // linger if its final unlink raced a crash.
  for (int s = 0; s < num_shards(); ++s) {
    for (int r = 0; r < replication_; ++r) RemoveCheckpointFiles(s, r);
  }
}

int ShardCluster::AllocateShardSlot(
    const std::vector<ShardEndpoint>& endpoints) {
  GZ_CHECK(endpoints.size() == static_cast<size_t>(replication_));
  const int id = num_shards();
  Shard& shard = shards_.emplace_back();
  shard.replicas.resize(replication_);
  ShardTransportOptions topts;
  topts.binary = binary_;
  topts.auth_secret = options_.auth_secret;
  for (int r = 0; r < replication_; ++r) {
    topts.log_path = LogPath(id, r);
    shard.replicas[r].proc = MakeShardTransport(endpoints[r], topts);
  }
  return id;
}

void ShardCluster::ReleaseLastShardSlot(int id) {
  // Full rollback of a just-allocated id whose spawn failed: a burned
  // id would make identical op sequences hand out different ids — and
  // different tables — depending on whether a spawn happened to fail.
  // Destroying a transport terminates its replica.
  GZ_CHECK(id == num_shards() - 1);
  shards_.pop_back();
}

std::vector<int> ShardCluster::ActiveShards() const {
  std::vector<int> ids;
  for (int s = 0; s < num_shards(); ++s) {
    if (!shard_removed(s)) ids.push_back(s);
  }
  return ids;
}

int ShardCluster::num_active_shards() const {
  return static_cast<int>(ActiveShards().size());
}

int ShardCluster::FirstUnfencedReplica(int shard) const {
  for (int r = 0; r < replication_; ++r) {
    if (!replica_down(shard, r)) return r;
  }
  return -1;
}

std::string ShardCluster::CheckpointPath(int shard, int replica,
                                         int slot) const {
  // Coordinator pid + seed + shard index: concurrent clusters sharing
  // one checkpoint_dir cannot clobber each other.
  return options_.checkpoint_dir + "/gz_shard_ckpt_p" +
         std::to_string(::getpid()) + "_s" + std::to_string(base_.seed) +
         "_" + std::to_string(shard) + "_r" + std::to_string(replica) +
         "_c" + std::to_string(slot) + ".bin";
}

std::string ShardCluster::NextCheckpointPath(int shard, int replica) const {
  return CheckpointPath(shard, replica,
                        1 - shards_[shard].replicas[replica].acked_slot);
}

void ShardCluster::RemoveCheckpointFiles(int shard, int replica) const {
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path = CheckpointPath(shard, replica, slot);
    ::unlink(path.c_str());
    ::unlink((path + ".tmp").c_str());
  }
}

std::string ShardCluster::LogPath(int shard, int replica) const {
  return log_dir_ + "/gz_shard_p" + std::to_string(::getpid()) + "_s" +
         std::to_string(base_.seed) + "_shard" + std::to_string(shard) +
         (replica > 0 ? "_r" + std::to_string(replica) : std::string()) +
         ".log";
}

Status ShardCluster::SpawnAndConfigure(int shard, int replica, bool restore,
                                       uint64_t* restored) {
  Replica& rep = shards_[shard].replicas[replica];
  ShardTransport& proc = *rep.proc;
  Status s = proc.Connect();
  if (!s.ok()) return s;
  ShardConfig sc;
  sc.config = base_;
  sc.shard_id = shard;
  sc.replication = static_cast<uint32_t>(replication_);
  if (restore && rep.has_checkpoint) {
    sc.restore_checkpoint = CheckpointPath(shard, replica, rep.acked_slot);
    sc.delta_seq = rep.checkpoint_delta_seq;
  }
  const std::vector<uint8_t> payload = EncodeShardConfig(sc);
  Reply reply;
  s = Call(rep, ShardMessageType::kConfig, payload.data(), payload.size(),
           &reply);
  if (!s.ok()) {
    proc.Terminate();
    return s;
  }
  if (restored != nullptr) *restored = reply.ack.value0;
  rep.down = false;
  return Status::Ok();
}

Status ShardCluster::Start() {
  if (started_) return Status::FailedPrecondition("cluster already started");
  if (!endpoint_error_.ok()) return endpoint_error_;
  for (int s = 0; s < num_shards(); ++s) {
    for (int r = 0; r < replication_; ++r) {
      Status st = SpawnAndConfigure(s, r, /*restore=*/false, nullptr);
      if (!st.ok()) return st;
    }
  }
  started_ = true;
  return Status::Ok();
}

Status ShardCluster::SendUpdateFrames(const Replica& replica,
                                      const NodeUpdate* updates,
                                      size_t count) {
  for (size_t off = 0; off < count; off += kMaxUpdatesPerFrame) {
    const size_t n = std::min(kMaxUpdatesPerFrame, count - off);
    Status s = SendFrame(replica.proc->fd(), ShardMessageType::kUpdateBatch,
                         updates + off, n * sizeof(NodeUpdate));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ShardCluster::Update(const GraphUpdate* updates, size_t count) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  for (size_t i = 0; i < count; ++i) {
    // Fail fast at the API boundary, as GraphZeppelin does: a malformed
    // edge or a garbage type byte must abort HERE rather than make a
    // shard drop the whole frame it rides in.
    const Edge& e = updates[i].edge;
    GZ_CHECK_MSG(e.u < e.v && e.v < base_.num_nodes,
                 "u < v && v < num_nodes");
    GZ_CHECK_MSG(static_cast<uint8_t>(updates[i].type) <= 1,
                 "invalid GraphUpdate type byte");
    // Each endpoint's half goes to the shard owning that node.
    shards_[NodeOwner(e.u, table_)].route_buf.push_back({e.u, e.v});
    shards_[NodeOwner(e.v, table_)].route_buf.push_back({e.v, e.u});
  }
  for (Shard& shard : shards_) {
    std::vector<NodeUpdate>& buf = shard.route_buf;
    if (buf.empty()) continue;
    GZ_CHECK_MSG(!shard.replicas.empty(),
                 "table routed an update to a removed shard");
    // Durability before transport: the shard's log must already cover
    // these updates when a mid-frame send failure strikes, so repair
    // can reconstruct any replica without loss.
    shard.log.insert(shard.log.end(), buf.begin(), buf.end());
    for (Replica& rep : shard.replicas) {
      if (rep.down) continue;
      if (!SendUpdateFrames(rep, buf.data(), buf.size()).ok()) {
        // Replica unreachable: fence it. Nothing is lost — the log
        // holds everything past its cursor — and the other replicas
        // keep ingesting.
        rep.down = true;
      }
    }
    buf.clear();  // Keeps capacity for the next span.
  }
  // Periodic auto-checkpoint bounds the update logs: without it the
  // coordinator would retain the whole stream in RAM. Best-effort — a
  // failure (down shard, unwritable checkpoint dir) defers truncation
  // to the next interval; ingestion itself keeps going, so the error
  // is logged rather than returned.
  updates_since_checkpoint_ += count;
  if (options_.checkpoint_interval_updates > 0 &&
      updates_since_checkpoint_ >= options_.checkpoint_interval_updates) {
    Status ckpt = Checkpoint();  // Resets the counter on success.
    if (!ckpt.ok()) {
      std::fprintf(stderr,
                   "ShardCluster: auto-checkpoint failed (%s); durability "
                   "logs keep growing until one succeeds\n",
                   ckpt.ToString().c_str());
    }
  }
  return Status::Ok();
}

Status ShardCluster::RequireAllHealthy() {
  for (const int s : ActiveShards()) {  // Removed ids are not shards.
    for (int r = 0; r < replication_; ++r) {
      const Replica& rep = shards_[s].replicas[r];
      if (rep.down || !rep.proc->Alive()) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            (r > 0 ? " replica " + std::to_string(r) : std::string()) +
            " is down; RestartReplica() it before a cluster-wide barrier");
      }
    }
  }
  return Status::Ok();
}

Status ShardCluster::PipelinedBarrier(
    ShardMessageType type,
    const std::function<std::string(int shard, int replica)>& payload_for,
    const std::function<Status(int shard, int replica,
                               const ShardFrame& reply)>& on_reply) {
  Status s = RequireAllHealthy();
  if (!s.ok()) return s;
  // Request t goes to replica t % R of shard ids[t / R].
  const std::vector<int> ids = ActiveShards();
  std::vector<std::string> payloads;
  payloads.reserve(ids.size() * replication_);  // Requests point into it.
  std::vector<ShardRequest> requests;
  for (const int i : ids) {
    for (int r = 0; r < replication_; ++r) {
      const std::string& payload = payloads.emplace_back(
          payload_for ? payload_for(i, r) : std::string());
      requests.push_back({shards_[i].replicas[r].proc->fd(), type,
                          payload.data(), payload.size()});
    }
  }
  const std::vector<ShardReply> replies =
      Exchange(requests, &reply_buf_, [&](size_t t, ShardFrame& reply) {
        return on_reply ? on_reply(ids[t / replication_], t % replication_,
                                   reply)
                        : Status::Ok();
      });
  Status first_error = Status::Ok();
  for (size_t t = 0; t < replies.size(); ++t) {
    if (replies[t].lost) {
      shards_[ids[t / replication_]].replicas[t % replication_].down = true;
    }
    if (first_error.ok()) first_error = replies[t].status;
  }
  return first_error;
}

Status ShardCluster::Flush() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  return PipelinedBarrier(ShardMessageType::kFlush, nullptr, nullptr);
}

Result<GraphSnapshot> ShardCluster::Snapshot() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  // Every replica's socket, -1 for one fenced or gone: all live
  // replicas of a shard are bitwise-equal, so any one is the shard.
  const std::vector<int> ids = ActiveShards();
  std::vector<std::vector<int>> fds(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    for (const Replica& rep : shards_[ids[i]].replicas) {
      fds[i].push_back(rep.down || !rep.proc->Alive() ? -1 : rep.proc->fd());
    }
    if (*std::max_element(fds[i].begin(), fds[i].end()) < 0) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(ids[i]) +
          " is down; RestartReplica() it before a cluster-wide barrier");
    }
  }
  const NodeSketchParams params = SketchParams();
  auto rounds = std::make_shared<std::vector<std::vector<uint8_t>>>();
  PullTally tally;
  Status round_error;
  Status s = PullAndFold(
      params, fds, {{0, params.rounds, RoundPart::kWhole, rounds.get()}},
      options_.migrate_nodes_per_chunk, &reply_buf_,
      [&](size_t shard, size_t replica, const Status&) {
        shards_[ids[shard]].replicas[replica].down = true;
      },
      &tally, &round_error);
  if (s.ok()) s = round_error;
  if (!s.ok()) return s;
  // The loader only hands over rounds already pulled. Range folds carry
  // no counts: the stream position comes from the coordinator's books.
  return GraphSnapshot::Lazy(
      NodeSketch(params), TotalUpdates(),
      [rounds](int round, RoundPart, uint64_t,
               const GraphSnapshot::BlockRunner&, std::vector<uint8_t>* buf) {
        *buf = std::move((*rounds)[round]);
        return Status::Ok();
      });
}

Status ShardCluster::Checkpoint() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  // Per-replica commit as each ack arrives: a failure on one replica
  // must not discard the commits of replicas whose checkpoints already
  // landed — their disk state has moved, and the coordinator's view has
  // to move with it.
  Status s = PipelinedBarrier(
      ShardMessageType::kCheckpoint,
      [this](int i, int r) { return NextCheckpointPath(i, r); },
      [this](int i, int r, const ShardFrame& reply) {
        ShardAck ack;
        Status d = DecodeShardAck(reply.payload.data(), reply.payload.size(),
                                  &ack);
        if (d.ok()) CommitCheckpoint(i, r, ack);
        return d;
      });
  if (s.ok()) updates_since_checkpoint_ = 0;
  return s;
}

// ---- Elastic resharding ----------------------------------------------------

Result<std::vector<ShardEndpoint>> ShardCluster::ParseReplicaEndpoints(
    const std::string& endpoint) const {
  std::vector<std::string> parts;
  if (!endpoint.empty()) {
    size_t start = 0;
    while (true) {
      const size_t comma = endpoint.find(',', start);
      parts.push_back(endpoint.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  if (parts.size() > static_cast<size_t>(replication_)) {
    return Status::InvalidArgument(
        std::to_string(parts.size()) + " replica endpoints for a shard "
        "with replication factor " + std::to_string(replication_));
  }
  std::vector<ShardEndpoint> endpoints(replication_);  // Default: local.
  for (size_t r = 0; r < parts.size(); ++r) {
    Result<ShardEndpoint> parsed = ParseShardEndpoint(parts[r]);
    if (!parsed.ok()) return parsed.status();
    endpoints[r] = std::move(parsed).value();
  }
  return endpoints;
}

Result<int> ShardCluster::SplitShard(int shard, const std::string& endpoint) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  if (shard_removed(shard)) {
    return Status::FailedPrecondition("shard already removed");
  }
  // Keeps the every-live-shard-owns-a-slot invariant: the child takes
  // half the source's slots, so the source needs at least two.
  if (TableSlotCount(table_, shard) < 2) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " owns too few routing slots to split");
  }
  Result<std::vector<ShardEndpoint>> parsed = ParseReplicaEndpoints(endpoint);
  if (!parsed.ok()) return parsed.status();
  Status s = RequireAllHealthy();
  if (!s.ok()) return s;
  const RoutingTable old_table = table_;
  const int id = AllocateShardSlot(parsed.value());
  table_ = TableWithShardSplit(old_table, shard, id);
  // Only the coordinator's table changes. No state migrates: an empty
  // shard is a zero sketch, and zero is the XOR identity. The split
  // source keeps what it ingested, its earlier contribution to the
  // moved nodes included, and the fold stays exact: it is the XOR of
  // every shard, whichever holds which node's halves.
  for (int r = 0; r < replication_ && s.ok(); ++r) {
    s = SpawnAndConfigure(id, r, /*restore=*/false, nullptr);
  }
  if (!s.ok()) {
    ReleaseLastShardSlot(id);
    table_ = old_table;
    return s;
  }
  return id;
}

Status ShardCluster::BeginRemoveShard(int shard) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (shard_removed(shard)) {
    return Status::FailedPrecondition("shard already removed");
  }
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  if (num_active_shards() < 2) {
    return Status::FailedPrecondition("cannot remove the last shard");
  }
  Status s = RequireAllHealthy();
  if (!s.ok()) return s;
  table_ = TableWithShardRemoved(table_, shard);
  // From here on nothing routes to `shard`; its accumulated state
  // drains into the smallest surviving shard. Any single survivor is a
  // correct fold target — the global XOR is what queries see.
  Migration m;
  m.source = shard;
  for (const int id : ActiveShards()) {
    if (id != shard) {
      m.target = id;
      break;
    }
  }
  migration_ = m;
  return Status::Ok();
}

Status ShardCluster::PumpMigration() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (!migration_.has_value()) {
    return Status::FailedPrecondition("no active migration");
  }
  Migration& m = *migration_;
  // One unfenced replica per side is enough to pump: fenced replicas
  // get their folds from the logs (restart replay) or from a later
  // reconcile. With no replica left the migration waits for repair.
  const int src = FirstUnfencedReplica(m.source);
  if (src < 0 || FirstUnfencedReplica(m.target) < 0) {
    return Status::FailedPrecondition(
        "migration shard is down; RestartReplica() it, then keep pumping");
  }
  Shard& source = shards_[m.source];
  Shard& target = shards_[m.target];
  if (m.next_node < base_.num_nodes) {
    const uint64_t lo = m.next_node;
    const uint64_t hi =
        std::min(base_.num_nodes, lo + options_.migrate_nodes_per_chunk);
    // Extract is read-only on the source (its internal flush makes the
    // chunk cover everything framed to it so far), so a failure here
    // mutates nothing and the chunk is simply retried after repair.
    const std::vector<uint8_t> req =
        EncodeMigrateExtract(lo, hi, 0, SketchParams().rounds);
    Reply reply;
    Status s = Call(source.replicas[src], ShardMessageType::kMigrateExtract,
                    req.data(), req.size(), &reply);
    if (!s.ok()) return s;
    // Durability before transport, as with the update logs: both folds
    // — install on the target, XOR-cancel on the source — enter their
    // shard's pending-delta log and the cursor advances BEFORE any
    // frame is sent. Whatever dies after this point, restart replay
    // (with the checkpoint's delta sequence number skipping what a
    // published checkpoint already covers) re-delivers exactly the
    // missing folds, and the migration resumes at the next chunk.
    target.deltas.push_back({++target.delta_seq_sent, reply.range});
    source.deltas.push_back({++source.delta_seq_sent, std::move(reply.range)});
    m.next_node = hi;
    // BOTH sides' sends must be attempted even if the first fails: a
    // logged delta must either reach its replica now or leave that
    // replica fenced (Call() fences on any MERGE_DELTA error) so repair
    // — replay or reconcile — delivers it. Returning between the sends
    // would strand the source's cancel on a HEALTHY replica — nothing
    // would ever deliver it, later deltas would close the sequence gap,
    // and a checkpoint would truncate the one unsent fold, silently
    // cancelling the chunk out of the global XOR. Fenced replicas are
    // skipped the same way: the logged entry is their delivery.
    const auto deliver = [this](Shard& shard) {
      Status first_error = Status::Ok();
      for (Replica& rep : shard.replicas) {
        if (rep.down) continue;
        const std::vector<uint8_t>& bytes = shard.deltas.back().bytes;
        Status st = Call(rep, ShardMessageType::kMergeDelta, bytes.data(),
                         bytes.size());
        if (!st.ok() && first_error.ok()) first_error = st;
      }
      return first_error;
    };
    const Status install = deliver(target);
    const Status cancel = deliver(source);
    return install.ok() ? cancel : install;
  }
  // Final step: the source — now a zero sketch holding no routed
  // slots — retires.
  Replica& retiring_rep = source.replicas[src];
  // The source is quiescent (no slots since the table changed, flushed
  // by every extract), so its position is final; it must survive in
  // the aggregate update count after the process goes away. A sticky
  // divergence error surfaces here and blocks the removal.
  Reply retiring;
  Status s = Call(retiring_rep, ShardMessageType::kStatsEx, nullptr, 0,
                  &retiring);
  if (!s.ok()) return s;
  // Commit point: nothing below can fail, so the node-update count
  // lands exactly once.
  migrated_updates_ += retiring.stats.num_updates;
  for (int r = 0; r < replication_; ++r) {
    Replica& rep = source.replicas[r];
    if (!rep.down) {
      Call(rep, ShardMessageType::kShutdown);  // Best-effort orderly exit.
    }
    rep.proc->Terminate();  // Degenerates to a reap.
    RemoveCheckpointFiles(m.source, r);
  }
  source = Shard();  // A removed id: no replicas, no books.
  migration_.reset();
  return Status::Ok();
}

// ---- Lifecycle -------------------------------------------------------------

void ShardCluster::KillReplica(int shard, int replica, bool observed) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  GZ_CHECK(replica >= 0 && replica < replication_);
  GZ_CHECK_MSG(!shard_removed(shard), "shard already removed");
  Replica& rep = shards_[shard].replicas[replica];
  rep.proc->Terminate();
  if (observed) rep.down = true;
}

Status ShardCluster::RestartReplica(int shard, int replica) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  GZ_CHECK(replica >= 0 && replica < replication_);
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (shard_removed(shard)) {
    return Status::FailedPrecondition("shard was removed");
  }
  Shard& books = shards_[shard];
  Replica& rep = books.replicas[replica];
  rep.proc->Terminate();  // Reaps; no-op if already dead.
  uint64_t restored = 0;
  Status s = SpawnAndConfigure(shard, replica, /*restore=*/true, &restored);
  if (!s.ok()) return s;
  // The replica restored its acked checkpoint (or nothing, before its
  // first), so it stands exactly at its cursor; any other position
  // means the file is not the one that was acked.
  if (restored != rep.checkpoint_updates) {
    rep.proc->Terminate();
    rep.down = true;
    return Status::Internal(
        "restored shard position " + std::to_string(restored) +
        " is not the acked checkpoint's " +
        std::to_string(rep.checkpoint_updates));
  }
  // Replay everything past the cursor: the log from the cursor's stream
  // position on, and every delta past its sequence number. Linearity
  // makes the replayed replica bitwise-identical to one that never
  // crashed.
  if (restored < books.position()) {
    s = SendUpdateFrames(rep, books.log.data() + (restored - books.log_start),
                         books.position() - restored);
    if (!s.ok()) {
      rep.down = true;
      return s;
    }
  }
  // Replay order between updates and deltas does not matter — all XOR
  // folds commute — so deltas go second wholesale.
  for (const PendingDelta& delta : books.deltas) {
    if (delta.seq <= rep.checkpoint_delta_seq) continue;  // Covered.
    s = Call(rep, ShardMessageType::kMergeDelta, delta.bytes.data(),
             delta.bytes.size());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ShardCluster::Shutdown() {
  if (!started_) return Status::Ok();
  Status first_error = Status::Ok();
  for (Shard& shard : shards_) {
    for (Replica& rep : shard.replicas) {
      if (!rep.down && rep.proc->Alive()) {
        Status st = Call(rep, ShardMessageType::kShutdown);
        if (!st.ok() && first_error.ok()) first_error = st;
        rep.down = true;
      }
      // An orderly exit follows the ack, so this degenerates to a reap
      // (the SIGKILL lands on an exiting or exited process); either way
      // no zombie is left.
      rep.proc->Terminate();
    }
  }
  started_ = false;
  return first_error;
}

Status ShardCluster::Call(Replica& replica, ShardMessageType type,
                          const void* payload, size_t payload_bytes,
                          Reply* reply) {
  Reply ignored;
  Reply* out = reply != nullptr ? reply : &ignored;
  const ShardReply r = Exchange(
      {{replica.proc->fd(), type, payload, payload_bytes}}, &reply_buf_,
      [out](size_t, ShardFrame& frame) {
        switch (frame.type) {
          case ShardMessageType::kStatsReply:
            return DecodeShardStatsEx(frame.payload.data(),
                                      frame.payload.size(), &out->stats);
          case ShardMessageType::kMigrateData:
            out->range = std::move(frame.payload);
            return Status::Ok();
          default:
            return DecodeShardAck(frame.payload.data(), frame.payload.size(),
                                  &out->ack);
        }
      })[0];
  if (!r.status.ok() &&
      (r.lost || r.replied || type == ShardMessageType::kMergeDelta)) {
    replica.down = true;
  }
  return r.status;
}

Result<ShardStats> ShardCluster::Stats(int shard) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (shard_removed(shard)) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " was removed");
  }
  const int replica = FirstUnfencedReplica(shard);
  if (replica < 0) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is down");
  }
  Reply reply;
  Status s = Call(shards_[shard].replicas[replica], ShardMessageType::kStatsEx,
                  nullptr, 0, &reply);
  if (!s.ok()) return s;
  return ShardStats{reply.stats.num_updates, reply.stats.ram_bytes,
                    reply.stats.delta_seq};
}

// ---- Replication -----------------------------------------------------------

bool ShardCluster::AtBooksPosition(const Shard& shard,
                                   const ShardStatsEx& ex) const {
  return ex.num_updates == shard.position() &&
         ex.delta_seq == shard.delta_seq_sent;
}

void ShardCluster::CommitCheckpoint(int shard, int replica,
                                    const ShardAck& ack) {
  // The checkpoint covers everything sent before it (the socket is FIFO
  // and the shard single-threaded): every logged node update up to the
  // acked position and every delta up to the acked sequence number.
  Shard& books = shards_[shard];
  Replica& rep = books.replicas[replica];
  rep.has_checkpoint = true;
  rep.acked_slot = 1 - rep.acked_slot;  // The slot just written.
  rep.checkpoint_updates = ack.value0;
  rep.checkpoint_delta_seq = ack.value1;
  // Trim what EVERY replica's checkpoint covers; a replica still behind
  // (fenced, or without a checkpoint at all) pins the rest.
  uint64_t updates = books.position(), seq = books.delta_seq_sent;
  for (const Replica& r : books.replicas) {
    updates = std::min(updates, r.checkpoint_updates);
    seq = std::min(seq, r.checkpoint_delta_seq);
  }
  if (updates > books.log_start) {
    books.log.erase(books.log.begin(),
                    books.log.begin() + (updates - books.log_start));
    books.log_start = updates;
  }
  std::erase_if(books.deltas,
                [seq](const PendingDelta& d) { return d.seq <= seq; });
}

Status ShardCluster::RepairReplica(int shard, int replica, int reference,
                                   uint64_t* repaired_chunks) {
  Shard& books = shards_[shard];
  Replica& rep = books.replicas[replica];
  const bool rejoined = rep.down;
  if (rejoined) {
    // Rejoin is reconnect + reconcile: the replica comes back EMPTY (a
    // zero sketch — the XOR identity) and the diff sweep below
    // transfers exactly the reference's content. Its cursor stays put
    // until the repair completes, so a crash mid-repair leaves the
    // classic restore+replay lineage intact — RestartReplica still works,
    // and so does another Reconcile.
    rep.proc->Terminate();
    Status st = SpawnAndConfigure(shard, replica, /*restore=*/false, nullptr);
    rep.down = true;  // Fenced until fully repaired.
    if (!st.ok()) return st;
  }
  // A live replica whose reported position matches the books AND whose
  // content sweep finds nothing needs no finalization — the common
  // all-healthy case costs only the verification pulls.
  bool position_ok = false;
  if (!rejoined) {
    Reply reply;
    Status st = Call(rep, ShardMessageType::kStatsEx, nullptr, 0, &reply);
    if (!st.ok()) return st;
    position_ok = AtBooksPosition(books, reply.stats);
  }
  constexpr size_t kHeader = GraphSnapshot::kHeaderBytes;
  uint64_t diffs = 0;
  for (uint64_t lo = 0; lo < base_.num_nodes;
       lo += options_.migrate_nodes_per_chunk) {
    const uint64_t hi =
        std::min(base_.num_nodes, lo + options_.migrate_nodes_per_chunk);
    // The reference's chunk and the suspect's, pulled in one exchange.
    const std::vector<uint8_t> req =
        EncodeMigrateExtract(lo, hi, 0, SketchParams().rounds);
    Replica* const sides[2] = {&books.replicas[reference], &rep};
    std::vector<ShardRequest> requests;
    for (Replica* side : sides) {
      requests.push_back({side->proc->fd(), ShardMessageType::kMigrateExtract,
                          req.data(), req.size()});
    }
    std::vector<uint8_t> ranges[2];
    const std::vector<ShardReply> replies =
        Exchange(requests, &reply_buf_, [&ranges](size_t i, ShardFrame& reply) {
          ranges[i] = std::move(reply.payload);
          return Status::Ok();
        });
    Status st = Status::Ok();
    for (size_t i = 0; i < 2; ++i) {
      if (replies[i].lost) sides[i]->down = true;
      if (st.ok()) st = replies[i].status;
    }
    if (!st.ok()) return st;
    std::vector<uint8_t>& diff = ranges[0];
    const std::vector<uint8_t>& have = ranges[1];
    if (diff.size() != have.size() || diff.size() < kHeader) {
      return Status::InvalidArgument(
          "replica range replies for the same nodes differ in size");
    }
    // Bitwise-equal records: nothing to do. (The headers carry each
    // replica's own update count, which the finalize step below syncs.)
    if (std::equal(diff.begin() + kHeader, diff.end(),
                   have.begin() + kHeader)) {
      continue;
    }
    ++diffs;
    // XOR-diff in place: both replies hold the same node range after a
    // header whose update count range folds ignore, so XOR-ing the
    // suspect's records into the reference's leaves exactly their
    // difference. Folding it into the suspect makes it equal to the
    // reference — whichever copy was behind, the XOR moves it forward.
    XorBytes(diff.data() + kHeader, have.data() + kHeader,
             diff.size() - kHeader);
    // Deliberately UNLOGGED (see Reconcile's contract): repair deltas
    // are content transfer, not replay lineage.
    st = Call(rep, ShardMessageType::kMergeDelta, diff.data(), diff.size());
    if (!st.ok()) return st;
  }
  if (position_ok && diffs == 0) return Status::Ok();
  // Finalize: the repaired content now equals the reference's, but the
  // fold carried no counts and the repair folds bumped the shard-side
  // delta sequence — assert the logical position the content
  // represents, then anchor everything with the replica's own
  // checkpoint so its cursor moves to here. Only after both land does
  // the replica rejoin the live set.
  const std::vector<uint8_t> sync =
      EncodeSyncPosition(books.position(), books.delta_seq_sent);
  const std::string path = NextCheckpointPath(shard, replica);
  Reply reply;
  Status st =
      Call(rep, ShardMessageType::kSyncPosition, sync.data(), sync.size());
  if (st.ok()) {
    st = Call(rep, ShardMessageType::kCheckpoint, path.data(), path.size(),
              &reply);
  }
  if (!st.ok()) {
    rep.down = true;
    return st;
  }
  CommitCheckpoint(shard, replica, reply.ack);
  rep.down = false;
  if (repaired_chunks != nullptr) *repaired_chunks += diffs;
  return Status::Ok();
}

Status ShardCluster::Reconcile(uint64_t* repaired_chunks) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (repaired_chunks != nullptr) *repaired_chunks = 0;
  Status first_error = Status::Ok();
  for (const int s : ActiveShards()) {
    // Reference: the lowest-index live replica whose reported position
    // matches the books exactly. A replica left holding part of an
    // interrupted repair (each repair fold moved its delta sequence past
    // the books, and the sync that resets it never ran) fails this check
    // and becomes a repair target instead. The check reads positions,
    // not content: see the trust rule in shard_cluster.h.
    int ref = -1;
    for (int r = 0; r < replication_ && ref < 0; ++r) {
      Replica& rep = shards_[s].replicas[r];
      if (rep.down || !rep.proc->Alive()) continue;
      Reply reply;
      Status st = Call(rep, ShardMessageType::kStatsEx, nullptr, 0, &reply);
      if (st.ok() && AtBooksPosition(shards_[s], reply.stats)) ref = r;
      if (!st.ok() && first_error.ok()) first_error = st;
    }
    if (ref < 0) {
      if (first_error.ok()) {
        first_error = Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            " has no position-verified live replica to reconcile from; "
            "RestartReplica() it first");
      }
      continue;
    }
    for (int r = 0; r < replication_; ++r) {
      if (r == ref) continue;
      Status st = RepairReplica(s, r, ref, repaired_chunks);
      if (!st.ok() && first_error.ok()) first_error = st;
    }
  }
  return first_error;
}

uint64_t ShardCluster::TotalUpdates() const {
  // Pure bookkeeping, no RPC: a shard's eventual position is every node
  // update routed to it, including those waiting for a down replica.
  // Update() routes both halves of every stream update before it
  // returns, so the sum is exactly two per stream update.
  uint64_t node_updates = migrated_updates_;
  for (const int s : ActiveShards()) node_updates += shards_[s].position();
  return node_updates / 2;
}

NodeSketchParams ShardCluster::SketchParams() const {
  NodeSketchParams params;
  params.num_nodes = base_.num_nodes;
  params.seed = base_.seed;
  params.cols = base_.cols;
  params.rounds = base_.rounds > 0 ? base_.rounds
                                   : NodeSketch::DefaultRounds(base_.num_nodes);
  return params;
}

}  // namespace gz
