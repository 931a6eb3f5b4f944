#include "distributed/shard_server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <poll.h>

#include "core/graph_snapshot.h"

namespace gz {
namespace {

constexpr int kReaderTimeoutSeconds = 30;  // See Serve().

// The extended-stats payload; caller holds the instance mutex.
std::vector<uint8_t> BuildStatsEx(const ShardInstanceState& state) {
  ShardStatsEx stats;
  stats.shard_id = state.shard_id;
  stats.num_updates = state.gz->num_updates_ingested();
  stats.delta_seq = state.delta_seq;
  stats.ram_bytes = state.gz->RamByteSize();
  const NodeSketchParams params = state.gz->sketch_params();
  stats.num_nodes = params.num_nodes;
  stats.seed = params.seed;
  stats.cols = params.cols;
  stats.rounds = params.rounds;
  stats.replication = state.replication;
  return EncodeShardStatsEx(stats);
}

// The read-only requests: all a reader session may send besides
// SUBSCRIBE, answered by ServeRead on writer and reader sessions alike.
bool IsReadOnlyRequest(ShardMessageType type) {
  return type == ShardMessageType::kPing ||
         type == ShardMessageType::kStatsEx ||
         type == ShardMessageType::kMigrateExtract;
}

// Where a read-only reply goes: Begin announces the frame, Write
// streams its payload in pieces, End closes it.
class ReplySink {
 public:
  virtual Status Begin(ShardMessageType type, uint64_t payload_bytes) = 0;
  virtual Status Write(const void* data, size_t size) = 0;
  virtual Status End() = 0;

  // A whole reply already in hand.
  virtual Status Send(ShardMessageType type,
                      const std::vector<uint8_t>& payload) {
    Status s = Begin(type, payload.size());
    if (s.ok()) s = Write(payload.data(), payload.size());
    if (s.ok()) s = End();
    return s;
  }
  Status Error(const Status& error) {
    return Send(ShardMessageType::kError, EncodeShardError(error));
  }

 protected:
  ~ReplySink() = default;  // Sinks live on the stack, never deleted here.
};

// The writer session's sink: straight into the socket under the
// instance lock, checksummed as it goes, so an out-of-core shard never
// materializes a node range.
class SocketSink final : public ReplySink {
 public:
  explicit SocketSink(int fd) : fd_(fd) {}
  Status Begin(ShardMessageType type, uint64_t payload_bytes) override {
    crc_ = FrameCrc();
    return SendFrameHeader(fd_, type, payload_bytes, &crc_);
  }
  Status Write(const void* data, size_t size) override {
    crc_.Fold(data, size);
    return WriteFull(fd_, data, size);
  }
  Status End() override { return SendFrameTrailer(fd_, crc_); }
  Status Send(ShardMessageType type,
              const std::vector<uint8_t>& payload) override {
    return SendFrame(fd_, type, payload.data(), payload.size());
  }

 private:
  int fd_;
  FrameCrc crc_;
};

// The reader session's sink: filled under the instance lock, sent after
// release — a reader with a full socket buffer must stall on its OWN
// send deadline, never while holding the lock the writer's ingest path
// needs.
class BufferSink final : public ReplySink {
 public:
  Status Begin(ShardMessageType type, uint64_t payload_bytes) override {
    type_ = type;
    payload_.clear();
    payload_.reserve(payload_bytes);
    return Status::Ok();
  }
  Status Write(const void* data, size_t size) override {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    payload_.insert(payload_.end(), p, p + size);
    return Status::Ok();
  }
  Status End() override { return Status::Ok(); }
  Status SendTo(int fd) const {
    return SendFrame(fd, type_, payload_.data(), payload_.size());
  }

 private:
  ShardMessageType type_ = ShardMessageType::kError;
  std::vector<uint8_t> payload_;
};

// The one handler for IsReadOnlyRequest frames; the caller holds
// state.mutex. PING needs no instance. Everything else needs a
// configured one whose ingest has not diverged: a diverged shard must
// neither serve stale answers nor donate state. Returns non-OK only
// when the sink failed, i.e. the connection is unusable.
Status ServeRead(ShardInstanceState& state, const ShardFrame& frame,
                 ReplySink* sink) {
  if (frame.type == ShardMessageType::kPing) {
    return sink->Send(ShardMessageType::kAck, EncodeShardAck(ShardAck{}));
  }
  if (state.gz == nullptr) {
    return sink->Error(Status::FailedPrecondition("shard not configured"));
  }
  if (!state.async_error.ok()) return sink->Error(state.async_error);
  if (frame.type == ShardMessageType::kStatsEx) {
    return sink->Send(ShardMessageType::kStatsReply, BuildStatsEx(state));
  }
  // kMigrateExtract. Read-only: extraction mutates nothing, so a client
  // can retry it freely after any failure. The flush inside
  // WriteNodeRangeTo guarantees every update framed before this request
  // is inside the extracted bytes. Both bounds are checked before the
  // reply's size is computed or any of it is written.
  uint64_t lo = 0, hi = 0;
  int32_t r_lo = 0, r_hi = 0;
  RoundPart part = RoundPart::kWhole;
  Status s = DecodeMigrateExtract(frame.payload.data(), frame.payload.size(),
                                  &lo, &hi, &r_lo, &r_hi, &part);
  if (s.ok() && !(lo < hi && hi <= state.gz->config().num_nodes)) {
    s = Status::InvalidArgument("migrate-extract range out of bounds");
  }
  if (s.ok() && r_hi > state.gz->sketch_params().rounds) {
    s = Status::InvalidArgument(
        "migrate-extract round window past the round budget");
  }
  if (!s.ok()) return sink->Error(s);
  s = sink->Begin(ShardMessageType::kMigrateData,
                  GraphSnapshot::SerializedSizeFor(
                      state.gz->sketch_params(), lo, hi, r_lo, r_hi, part));
  if (s.ok()) {
    s = state.gz->WriteNodeRangeTo(
        lo, hi, r_lo, r_hi, part, [sink](const void* data, size_t size) {
          return sink->Write(data, size);
        });
  }
  if (s.ok()) s = sink->End();
  return s;
}

}  // namespace

Status ShardServer::ReplyAck(uint64_t value0, uint64_t value1) {
  ShardAck ack;
  ack.value0 = value0;
  ack.value1 = value1;
  const std::vector<uint8_t> payload = EncodeShardAck(ack);
  return SendFrame(fd_, ShardMessageType::kAck, payload.data(),
                   payload.size());
}

Status ShardServer::ReplyError(const Status& error) {
  const std::vector<uint8_t> payload = EncodeShardError(error);
  return SendFrame(fd_, ShardMessageType::kError, payload.data(),
                   payload.size());
}

Status ShardServer::HandleConfig(const ShardFrame& frame) {
  if (state_->gz != nullptr) {
    return ReplyError(Status::FailedPrecondition("shard already configured"));
  }
  ShardConfig sc;
  Status s = DecodeShardConfig(frame.payload.data(), frame.payload.size(),
                               &sc);
  if (!s.ok()) return ReplyError(s);
  auto gz = std::make_unique<GraphZeppelin>(sc.config);
  s = gz->Init();
  if (!s.ok()) return ReplyError(s);
  // A restart restores the checkpoint the coordinator acked, and the
  // coordinator says which migration deltas it covers.
  if (!sc.restore_checkpoint.empty()) {
    s = gz->LoadCheckpoint(sc.restore_checkpoint);
    if (!s.ok()) return ReplyError(s);
  }
  state_->gz = std::move(gz);
  state_->shard_id = sc.shard_id;
  state_->replication = sc.replication;
  state_->delta_seq = sc.delta_seq;
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleUpdateBatch(const ShardFrame& frame) {
  // UPDATE_BATCH is fire-and-forget, so a bad batch must NOT send an
  // unsolicited error reply — the coordinator would read it as the
  // reply to its next request and every reply after would be off by
  // one. Instead the batch is dropped, logged, and the error deferred
  // to the next barrier reply (see Serve()).
  auto defer = [this](Status error) {
    std::fprintf(stderr, "gz_shard: dropped update batch: %s\n",
                 error.ToString().c_str());
    if (state_->async_error.ok()) state_->async_error = std::move(error);
    return Status::Ok();
  };
  if (frame.payload.size() % sizeof(NodeUpdate) != 0) {
    return defer(Status::InvalidArgument(
        "update batch payload is not a whole number of node updates"));
  }
  const size_t count = frame.payload.size() / sizeof(NodeUpdate);
  const NodeUpdate* updates =
      reinterpret_cast<const NodeUpdate*>(frame.payload.data());
  // Validate before ingesting: GraphZeppelin treats a malformed update
  // as a programmer error (GZ_CHECK), but here the bytes came off a
  // socket and must bounce, not abort. Ownership is not checked: the
  // shard never sees the routing table, and any node update it is sent
  // is a correct contribution to the XOR fold.
  const uint64_t n = state_->gz->config().num_nodes;
  for (size_t i = 0; i < count; ++i) {
    const NodeUpdate& u = updates[i];
    if (u.node == u.other || u.node >= n || u.other >= n) {
      return defer(Status::InvalidArgument(
          "update batch contains an out-of-range node update"));
    }
  }
  state_->gz->UpdateNodes(updates, count);
  state_->NotifyPositionChanged();
  return Status::Ok();
}

Status ShardServer::HandleCheckpoint(const ShardFrame& frame) {
  const std::string path(
      reinterpret_cast<const char*>(frame.payload.data()),
      frame.payload.size());
  if (path.empty()) {
    return ReplyError(Status::InvalidArgument("empty checkpoint path"));
  }
  const Status s = state_->gz->SaveCheckpoint(path);
  if (!s.ok()) return ReplyError(s);
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleMergeDelta(const ShardFrame& frame) {
  Status s = state_->gz->MergeSerialized(frame.payload.data(),
                                         frame.payload.size());
  if (!s.ok()) return ReplyError(s);
  ++state_->delta_seq;
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleSyncPosition(const ShardFrame& frame) {
  uint64_t num_updates = 0, delta_seq = 0;
  Status s = DecodeSyncPosition(frame.payload.data(), frame.payload.size(),
                                &num_updates, &delta_seq);
  if (!s.ok()) return ReplyError(s);
  // The coordinator asserts the logical position this shard's
  // (repaired) content represents. Content itself moved via range folds
  // — which never touch counts — so only the bookkeeping changes here.
  state_->gz->SetUpdatesIngested(num_updates);
  state_->delta_seq = delta_seq;
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::ServeReaderFrame(const ShardFrame& frame) {
  BufferSink reply;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!IsReadOnlyRequest(frame.type)) {
      // The read-only contract: a reader cannot configure, ingest,
      // migrate state in, checkpoint, or retire the shard. The session
      // survives — a confused client gets errors, not a dead socket.
      reply.Error(Status::FailedPrecondition(
          "read-only session: frame type " +
          std::to_string(static_cast<uint16_t>(frame.type)) +
          " requires the writer session"));
    } else {
      const Status s = ServeRead(*state_, frame, &reply);
      if (!s.ok()) reply.Error(s);
    }
  }
  return reply.SendTo(fd_);
}

Status ShardServer::ServeSubscription(std::vector<uint8_t> last_notified) {
  // Pure server-push from here on. The loop alternates between waiting
  // for a position change (predicate on the change counter — a change
  // that lands between payload build and the next wait is never lost)
  // and pushing the new position. The periodic timeout exists only to
  // run the fd health probe below; an unchanged position never pushes
  // a frame (payload-compare dedupe), so a quiet shard keeps a quiet
  // wire.
  uint64_t seen = 0;
  while (true) {
    std::vector<uint8_t> payload;
    bool winding_down = false;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->position_cv.wait_for(
          lock, std::chrono::milliseconds(500), [&] {
            return state_->winding_down || state_->position_changes != seen;
          });
      seen = state_->position_changes;
      winding_down = state_->winding_down;
      // A reset or diverged instance has no position to report; stay
      // subscribed and silent until it is configured again (the next
      // config bumps the counter and the fresh position pushes then).
      if (state_->gz != nullptr && state_->async_error.ok()) {
        payload = BuildStatsEx(*state_);
      }
    }
    if (winding_down) {
      return Status::IoError("listener wind-down ended the subscription");
    }
    // Health probe: a subscriber never legitimately sends after
    // kSubscribe, so ANY inbound event — a stray byte, EOF, a socket
    // error — ends the subscription. This is also how hang-up is
    // detected at all: a push-only loop would otherwise only notice a
    // dead peer on its next (possibly never) send.
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 0);
    if (rc < 0 && errno != EINTR) {
      return Status::IoError(std::string("subscription poll: ") +
                             std::strerror(errno));
    }
    if (rc > 0 && pfd.revents != 0) {
      return Status::IoError("subscriber hung up or broke the push-only "
                             "contract");
    }
    if (!payload.empty() && payload != last_notified) {
      const Status s = SendFrame(fd_, ShardMessageType::kNotify,
                                 payload.data(), payload.size());
      if (!s.ok()) return s;
      last_notified = std::move(payload);
    }
  }
}

Status ShardServer::Serve() {
  ShardFrame frame;
  if (role_ == ShardSessionRole::kReader) {
    // Reader sessions live under a per-read deadline: idle waiting
    // happens in poll() — an idle reader keeping its session open is
    // legitimate — but once bytes start flowing, SO_RCVTIMEO bounds
    // every read, so a peer stalled mid-frame errors out within the
    // deadline instead of occupying a session slot forever. Reader
    // *requests* are tiny and fixed-shape, so the handshake-sized
    // receive cap applies for the whole session: a reader can never
    // command a large allocation.
    SetShardSocketTimeout(fd_, kReaderTimeoutSeconds);
    while (true) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, -1) < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("reader session poll: ") +
                               std::strerror(errno));
      }
      Status s = RecvFrameCapped(fd_, &frame, kReaderMaxRequestBytes);
      if (!s.ok()) {
        if (s.code() == StatusCode::kInvalidArgument) ReplyError(s);
        return s;
      }
      if (frame.type == ShardMessageType::kSubscribe) {
        // Converts the session into a server-push notify stream. The
        // immediate first kNotify is the 1:1 reply to this request;
        // after it the client sends nothing more. An unconfigured or
        // diverged shard refuses (kError) and the session continues as
        // a plain reader — the subscriber can retry later.
        std::vector<uint8_t> payload;
        Status refuse = Status::Ok();
        {
          std::lock_guard<std::mutex> lock(state_->mutex);
          if (state_->gz == nullptr) {
            refuse = Status::FailedPrecondition("shard not configured");
          } else if (!state_->async_error.ok()) {
            refuse = state_->async_error;
          } else {
            payload = BuildStatsEx(*state_);
          }
        }
        if (!refuse.ok()) {
          s = ReplyError(refuse);
          if (!s.ok()) return s;
          continue;
        }
        s = SendFrame(fd_, ShardMessageType::kNotify, payload.data(),
                      payload.size());
        if (!s.ok()) return s;
        return ServeSubscription(std::move(payload));
      }
      s = ServeReaderFrame(frame);
      if (!s.ok()) return s;
    }
  }
  while (true) {
    Status s = RecvFrame(fd_, &frame);
    if (!s.ok()) {
      // Framing is gone (bad header / checksum) or the coordinator
      // hung up. Best-effort error reply, then stop; the reply can
      // only reach a peer that still shares framing, but costs nothing
      // to try.
      if (s.code() == StatusCode::kInvalidArgument) ReplyError(s);
      return s;
    }
    // Everything below touches the shared instance; reader sessions on
    // a listener observe it between these critical sections.
    std::lock_guard<std::mutex> lock(state_->mutex);
    // Handshake frames are single-use; one arriving mid-session is a
    // request/reply violation from a confused peer.
    if (frame.type == ShardMessageType::kHello ||
        frame.type == ShardMessageType::kChallenge ||
        frame.type == ShardMessageType::kAuth) {
      s = ReplyError(Status::InvalidArgument(
          "handshake frame after session establishment"));
      if (!s.ok()) return s;
      continue;
    }
    if (IsReadOnlyRequest(frame.type)) {
      SocketSink sink(fd_);
      s = ServeRead(*state_, frame, &sink);
      if (!s.ok()) return s;
      continue;
    }
    // Every request except the config itself needs a configured shard.
    if (state_->gz == nullptr && frame.type != ShardMessageType::kConfig &&
        frame.type != ShardMessageType::kShutdown) {
      // Fire-and-forget requests must not draw an unsolicited reply
      // even here — defer, like every other UPDATE_BATCH problem.
      if (frame.type == ShardMessageType::kUpdateBatch) {
        std::fprintf(stderr,
                     "gz_shard: dropped update batch: shard not "
                     "configured\n");
        if (state_->async_error.ok()) {
          state_->async_error =
              Status::FailedPrecondition("shard not configured");
        }
        continue;
      }
      s = ReplyError(Status::FailedPrecondition("shard not configured"));
      if (!s.ok()) return s;
      continue;
    }
    // A deferred UPDATE_BATCH failure surfaces as the reply to every
    // barrier from here on: a dropped batch means this shard's state
    // has PERMANENTLY diverged from the stream, and the only repair is
    // a restart + replay. The error is sticky on purpose — if one
    // barrier consumed it, a retried CHECKPOINT would succeed, the
    // coordinator would truncate its unacked log (the only copy of the
    // dropped updates), and the divergence would become silently
    // unrecoverable. (ServeRead gates the read-only frames the same
    // way.)
    if (!state_->async_error.ok() &&
        (frame.type == ShardMessageType::kFlush ||
         frame.type == ShardMessageType::kCheckpoint ||
         frame.type == ShardMessageType::kMergeDelta ||
         frame.type == ShardMessageType::kSyncPosition)) {
      s = ReplyError(state_->async_error);
      if (!s.ok()) return s;
      continue;
    }
    switch (frame.type) {
      case ShardMessageType::kConfig:
        s = HandleConfig(frame);
        break;
      case ShardMessageType::kUpdateBatch:
        s = HandleUpdateBatch(frame);
        break;
      case ShardMessageType::kFlush:
        state_->gz->Flush();
        s = ReplyAck(state_->gz->num_updates_ingested());
        break;
      case ShardMessageType::kCheckpoint:
        s = HandleCheckpoint(frame);
        break;
      case ShardMessageType::kMergeDelta:
        s = HandleMergeDelta(frame);
        break;
      case ShardMessageType::kSyncPosition:
        s = HandleSyncPosition(frame);
        break;
      case ShardMessageType::kSubscribe:
        // Subscriptions are a reader-session feature: converting the
        // writer's request/reply stream into a push stream would strand
        // the coordinator.
        s = ReplyError(Status::FailedPrecondition(
            "subscriptions require a reader session"));
        break;
      case ShardMessageType::kShutdown:
        // Ack first so the coordinator can reap without racing the exit.
        ReplyAck(state_->gz != nullptr ? state_->gz->num_updates_ingested()
                                       : 0);
        return Status::Ok();
      default:
        // Reply frames are never valid requests.
        s = ReplyError(Status::InvalidArgument(
            "unexpected reply-type frame on the request stream"));
        break;
    }
    if (!s.ok()) return s;  // Reply write failed: connection dead.
  }
}

}  // namespace gz
