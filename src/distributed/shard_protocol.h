// Wire protocol between the ShardCluster coordinator and gz_shard
// shards: length-prefixed binary frames over a stream socket — a TCP
// connection to a shard listener, on loopback for local: and thread:
// shards (see shard_endpoint.h / shard_transport.h), or a socketpair
// in the conformance tests. The coordinator and server state machines never
// learn where the bytes come from; everything transport-specific —
// framing integrity, peer authentication — lives here.
//
// Frame (v12) = 16-byte header (magic, version, message type, payload
// bytes) + payload + a 4-byte CRC32C trailer over header AND payload.
// The receiver verifies the checksum before any payload decode; a
// mismatch is a Status error and, because the stream can no longer be
// trusted byte-for-byte, the connection is fenced. Updates travel as
// bare NodeUpdate slabs — the exact in-memory layout the coordinator
// routes, so a routing buffer is framed with one sendmsg and never
// copied — and sketch state travels in one form, a serialized
// GraphSnapshot node range x round window of whole rounds or of their
// deterministic buckets (MIGRATE_EXTRACT / MIGRATE_DATA / MERGE_DELTA; a
// whole snapshot is whole rounds of [0, V) x [0, R)), the same
// self-describing bytes checkpoint files hold. The routing table never
// crosses the wire (see RoutingTable).
//
// Sessions open with a challenge–response HELLO handshake keyed by a
// shared secret (HMAC-SHA256 over fresh nonces, mutual): an untrusted
// network cannot inject UPDATE_BATCHes, and a coordinator cannot be
// fed state by an impostor shard. The handshake runs on every
// connection, even under an empty secret (trusted networks), and until
// it completes a server accepts no other frame.
//
// Everything here returns Status: a malformed, truncated, corrupted or
// version-mismatched frame is an error on whichever side read it, never
// a crash. Once a header fails validation the byte stream has lost
// framing, so the connection is considered dead.
#ifndef GZ_DISTRIBUTED_SHARD_PROTOCOL_H_
#define GZ_DISTRIBUTED_SHARD_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

// NodeUpdate slabs cross the process boundary as raw bytes; pin the
// layout the two sides must agree on.
static_assert(sizeof(NodeUpdate) == 8, "wire layout of NodeUpdate");

enum class ShardMessageType : uint16_t {
  // Coordinator -> shard.
  kConfig = 1,       // Config payload; shard Init()s (+ checkpoint restore).
  kUpdateBatch = 2,  // Flat NodeUpdate slab. Fire-and-forget.
  kFlush = 3,        // Drain gutters + workers.
  kCheckpoint = 5,   // Payload: file path. Shard saves a GraphSnapshot
                     // file there. Reply: kAck{num_updates, delta_seq}.
  kPing = 7,         // Health probe.
  kShutdown = 8,     // Orderly exit; shard acks, then terminates.
  // Shard -> coordinator.
  kAck = 9,    // Two u64 values; meaning depends on the request.
  kError = 11,  // u32 StatusCode + message string.
  // 4, 6 and 10 were the whole-snapshot request/reply pair and the
  // two-u64 stats request before v4; retired, never reused, and refused
  // as unknown types.
  // 12 was the routing-table broadcast before v7; retired, never
  // reused, and refused as an unknown type.
  // Elastic resharding (coordinator -> shard, except kMigrateData).
  kMigrateExtract = 13,  // u64s [lo, hi), i32s [r_lo, r_hi), u32 part:
                         // serialize that part (RoundPart: 0 = whole
                         // rounds, 1 = deterministic buckets only) of
                         // those rounds of that node range of the
                         // shard's state (whole rounds of [0, V) x
                         // [0, R) = the whole snapshot). Reply:
                         // kMigrateData.
  kMergeDelta = 14,      // Serialized node range; shard XOR-folds it
                         // in. Reply: kAck{num_updates, delta_seq}.
  kMigrateData = 15,     // Shard -> client: the serialized range
                         // (GraphSnapshot byte format, GZSNAP05).
  // Handshake (first frames on every connection; see Client/Server
  // Handshake below).
  kHello = 16,      // Client -> shard: 16-byte client nonce, optionally
                    // followed by one role byte (absent = writer; see
                    // ShardSessionRole below).
  kChallenge = 17,  // Shard -> client: 16-byte server nonce +
                    // 32-byte server proof.
  kAuth = 18,       // Client -> shard: 32-byte client proof.
                    // Reply: kAck on success, kError on mismatch.
  // Serving tier (any session -> shard).
  kStatsEx = 19,    // Empty payload. Reply: kStatsReply — the shard's
                    // position and geometry, which the snapshot cache
                    // keys on.
  kStatsReply = 20,  // Shard -> client: ShardStatsEx payload.
  // Replication (coordinator -> shard, writer session only).
  kSyncPosition = 21,  // Two u64s {num_updates, delta_seq}: the
                       // coordinator asserts the shard's logical
                       // position after an anti-entropy repair, so a
                       // rejoined replica's watermark matches its
                       // (repaired) content. Reply: kAck.
  // Standing queries (reader session only).
  kSubscribe = 22,  // Empty payload. Converts the reader session into a
                    // server-push notify stream: the shard replies with
                    // one immediate kNotify (the current position) and
                    // from then on pushes a kNotify whenever the
                    // shard's serving position changes (coalesced — a
                    // burst of changes may yield one frame carrying the
                    // latest position). The client sends nothing more
                    // on the connection; any byte it does send (or its
                    // EOF) ends the subscription. On a writer session,
                    // or on an unconfigured/diverged shard, the reply
                    // is kError and the session continues unconverted.
  kNotify = 23,     // Shard -> subscriber: ShardStatsEx payload, the
                    // position that changed. Never a valid request.
  // 24 and 25 were the heavy-hitter request/reply pair before v5;
  // retired, never reused, and refused as unknown types.
};

// Session role, declared in the HELLO frame and bound into the
// handshake proofs (distinct HMAC domains per role, so a flipped role
// byte fails authentication rather than silently escalating). A writer
// session is the coordinator: full protocol, its disconnect discards
// the shard instance. A reader session may only observe — kPing /
// kStatsEx / kMigrateExtract / kSubscribe — and its disconnect never
// touches the instance.
enum class ShardSessionRole : uint8_t {
  kWriter = 0,
  kReader = 1,
};

struct ShardFrameHeader {
  static constexpr uint32_t kMagic = 0x50535A47;  // "GZSP" little-endian.
  // v3: CRC32C trailer + auth. v4: one sketch byte format (node ranges);
  // the whole-snapshot and two-u64 stats frames retired. v5: the
  // heavy-hitter frames and ShardConfig fields retired. v6: CONFIG no
  // longer carries query_threads (shards never run a query). v7: the
  // routing table stays in the coordinator — CONFIG carries the
  // replication factor instead, no frame carries routing state, and
  // frame type 12 is retired. v8: a shard
  // checkpoint is a plain GraphSnapshot file with no header of its own,
  // so CONFIG carries the restored checkpoint's delta sequence number;
  // CONFIG's instance tag is retired. v9: MIGRATE_EXTRACT names a round
  // window too, and sketch state travels as GZSNAP03 ranges (node range
  // x round window), so a reader pulls only the rounds a query reads.
  // v10: MIGRATE_EXTRACT names a part too, and sketch state travels as
  // GZSNAP04 ranges that carry it, so a reader pulls every round's
  // deterministic buckets first and a whole round only when a query
  // needs it. v11: sketch state travels as GZSNAP05 ranges, whose
  // column buckets are stored at their exact depth. v12: UPDATE_BATCH
  // carries 8-byte node updates, each routed to the shard owning its
  // node, so a shard's positions count node updates.
  static constexpr uint16_t kVersion = 12;
  static constexpr size_t kBytes = 16;
  // CRC32C over header + payload, appended after the payload.
  static constexpr size_t kCrcBytes = 4;
  // Caps a garbage length field. Sized for legitimate big snapshots,
  // so it does not alone bound allocations — RecvFrame additionally
  // converts an allocation failure into a Status instead of letting
  // bad_alloc terminate the process.
  static constexpr uint64_t kMaxPayloadBytes = 1ULL << 33;

  ShardMessageType type = ShardMessageType::kPing;
  uint64_t payload_bytes = 0;
};

// A received frame; `payload` is reused across RecvFrame calls.
struct ShardFrame {
  ShardMessageType type = ShardMessageType::kPing;
  std::vector<uint8_t> payload;
};

// ---- Frame I/O ------------------------------------------------------------
// All calls handle partial reads/writes and EINTR; writes suppress
// SIGPIPE (a dead peer surfaces as an IoError, not a signal). Every
// send computes and appends the CRC32C trailer; RecvFrame verifies it
// before the payload reaches any decoder.

// Sends one frame: header + optional payload + trailer in one sendmsg,
// so a routing buffer is framed without being copied.
Status SendFrame(int fd, ShardMessageType type, const void* payload,
                 size_t payload_bytes);

// Running checksum of a streamed frame. SendFrameHeader seeds it with
// the header bytes; the caller folds every payload piece it writes,
// then closes the frame with SendFrameTrailer.
class FrameCrc {
 public:
  void Fold(const void* data, size_t size);
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

// Sends just the header, seeding `crc`; the caller streams
// `payload_bytes` of payload afterwards with WriteFull — folding each
// piece into `crc` — and finishes with SendFrameTrailer (how a shard
// streams a node-range reply without materializing it).
Status SendFrameHeader(int fd, ShardMessageType type, uint64_t payload_bytes,
                       FrameCrc* crc);
Status SendFrameTrailer(int fd, const FrameCrc& crc);

// Receives one frame into `frame` (payload buffer reused). Fails with
// InvalidArgument on bad magic / version / type / oversized length /
// checksum mismatch — all before any payload decode — and IoError on
// EOF or a truncated payload.
Status RecvFrame(int fd, ShardFrame* frame);

// RecvFrame with an explicit allocation cap, for contexts where the
// peer is not entitled to command a protocol-cap-sized allocation: the
// pre-auth handshake, and reader sessions (whose requests are tiny and
// fixed-shape for their whole lifetime).
Status RecvFrameCapped(int fd, ShardFrame* frame, uint64_t max_payload);

// The reader-session receive cap: every read-only request (PING,
// STATS_EX, MIGRATE_EXTRACT, SUBSCRIBE) fits with room to spare.
constexpr uint64_t kReaderMaxRequestBytes = 4096;

// ---- Request/reply exchange ----------------------------------------------
// Every request but the fire-and-forget UPDATE_BATCH draws exactly one
// reply, in order, on its connection; Exchange() reads and classifies
// them all.

// One request: `type` + payload to send on `fd`. The reply it expects
// follows from the type: kStatsReply to kStatsEx, kMigrateData to
// kMigrateExtract, kNotify to kSubscribe, kAck to the rest.
struct ShardRequest {
  int fd = -1;
  ShardMessageType type = ShardMessageType::kPing;
  const void* payload = nullptr;
  size_t payload_bytes = 0;
};

// What became of one request.
struct ShardReply {
  Status status;  // Ok, or the handler's error, a kError or the loss.
  // The connection lost sync — a failed send, a transport or framing
  // error, an undecodable kError or an unexpected frame type — so a
  // later reply could answer the wrong request: never use it again. A
  // well-formed kError fails only its request.
  bool lost = false;
  // The expected reply arrived; `status` is the handler's verdict.
  bool replied = false;
};

// Sends every request, then reads the replies in send order into
// `frame` (reused: the handler consumes what it needs), handing each
// expected reply to `on_reply` (null = accept) with its request's
// index. Sending first lets shards work in parallel, and keeps two
// peers that each answer only once both have their request from
// deadlocking the caller. A lost connection (a negative fd is one) gets
// no later request or read, and all its requests report lost; every
// reply an in-sync connection owes is read, so none is left queued to
// answer a later request. Callers keep requests per connection bounded
// (at most one per pull today), so a shard never blocks writing a reply
// while the caller blocks sending.
std::vector<ShardReply> Exchange(
    const std::vector<ShardRequest>& requests, ShardFrame* frame,
    const std::function<Status(size_t request, ShardFrame& reply)>&
        on_reply);

// Raw full-buffer I/O on the socket (EINTR-safe, SIGPIPE-suppressed).
Status WriteFull(int fd, const void* data, size_t size);
Status ReadFull(int fd, void* data, size_t size);

// Session-socket tuning, applied identically by BOTH ends of a tcp://
// shard link (coordinator transport and listener): TCP_NODELAY (the
// barrier RPCs are latency-bound) and keepalive probes tuned for ~2
// minute detection, so a peer host that vanishes without a FIN cannot
// wedge a blocking read forever. No-op on non-TCP fds.
void TuneShardSocket(int fd);

// Arms SO_RCVTIMEO + SO_SNDTIMEO (seconds) on a session socket; 0
// clears both. Used for the pre-auth handshake deadline and for reader
// sessions' per-read deadline. Fails silently on non-socket fds.
void SetShardSocketTimeout(int fd, int seconds);

// ---- Authenticated handshake ----------------------------------------------
// Challenge–response, mutual, keyed by a shared secret:
//
//   coordinator                          shard
//     HELLO { c = nonce16 }      ──▶
//                                ◀──    CHALLENGE { s = nonce16,
//                                         HMAC(secret, "srv" | c | s) }
//     verify server proof
//     AUTH { HMAC(secret,
//       "cli" | c | s) }         ──▶    verify client proof
//                                ◀──    ACK  (or ERROR + connection end)
//
// Nonces are fresh per connection, so neither proof replays, and the
// proofs bind both nonces, so they cannot be spliced across sessions.
// Both sides run this before any other frame; a server refuses every
// non-handshake frame until its peer has proven the secret.
constexpr size_t kHandshakeNonceBytes = 16;

// Client side: returns Ok once the shard has proven the secret and
// acked ours. FailedPrecondition("authentication failed") on a proof
// mismatch; transport/framing errors pass through. A reader session
// appends its role byte to HELLO and proves under the reader HMAC
// domains; the default (writer) sends the bare 16-byte HELLO that
// predates session roles.
Status ClientHandshake(int fd, const std::string& secret,
                       ShardSessionRole role = ShardSessionRole::kWriter);

// Shard side: serves one handshake. Replies kError and returns a
// non-OK status on any deviation — wrong first frame, bad proof —
// after which the caller must drop the connection. On success `*role`
// (when non-null) reports the authenticated session role.
Status ServerHandshake(int fd, const std::string& secret,
                       ShardSessionRole* role = nullptr);

// ---- Routing --------------------------------------------------------------

// The routing table: a node's hash picks one of kNumSlots virtual
// slots (a power of two, so the reduction is a mask — no modulo bias
// for ANY shard count), and the table assigns each slot to a shard id,
// the node's owner. A stream update on (u, v) is two node updates:
// {u, v} goes to u's owner and {v, u} to v's, so a shard touches only
// the sketches of the ~V/k nodes it owns. Elastic operations reassign
// slots.
// The table is the coordinator's private bookkeeping: no shard needs
// it, because a shard's sketch content is the XOR of whatever node
// updates it was sent, and the fold over all shards is the same
// whichever shard ingested which half.
struct RoutingTable {
  static constexpr uint32_t kNumSlots = 256;
  // Shard ids are small non-negative integers; this caps what a wire
  // decode accepts (and what any deployment remotely needs).
  static constexpr int32_t kMaxShardId = 4096;
  // Caps the replicas-per-shard count (ShardClusterOptions and the
  // CONFIG / STATS_EX replication fields).
  static constexpr uint32_t kMaxReplication = 8;

  std::vector<int32_t> owners;  // kNumSlots entries: slot -> shard id.

  friend bool operator==(const RoutingTable&, const RoutingTable&) = default;
};

// The table for shards {0 .. num_shards-1}: slots dealt round-robin,
// so every shard owns floor or ceil of kNumSlots/num_shards slots.
RoutingTable MakeRoutingTable(int num_shards);

// The shard that owns `node`: a pure function of (node, table), so the
// coordinator and any external stream partitioner holding the same
// table agree on every placement.
int NodeOwner(NodeId node, const RoutingTable& table);

// Pure rebalance steps, each returning a new table. Together they
// maintain the invariant that EVERY live shard owns at least one slot
// (so the active set always equals TableOwners()): Split requires the
// source to own at least two slots (checked — SplitShard guards it with
// a Status error first, which also caps the shard count at kNumSlots),
// and Removed therefore always finds an heir while any other shard
// remains.
// BeginRemoveShard: the removed shard's slots are dealt to the
// remaining owners, smallest-ownership first.
RoutingTable TableWithShardRemoved(const RoutingTable& table, int removed);
// SplitShard: every second slot of `source` moves to `new_shard`.
RoutingTable TableWithShardSplit(const RoutingTable& table, int source,
                                 int new_shard);
// Slots `shard` owns in `table`; the entry-point guards above use it.
int TableSlotCount(const RoutingTable& table, int shard);
// Distinct shard ids owning at least one slot, ascending.
std::vector<int> TableOwners(const RoutingTable& table);

// ---- Payload codecs -------------------------------------------------------

// kConfig payload: the shard's GraphZeppelinConfig, its shard id, the
// cluster's replication factor (which the shard only reports back in
// STATS_EX, so readers can group replicas), plus an optional
// checkpoint path to restore from before serving and the migration-delta
// sequence number that checkpoint covers. The coordinator knows that
// number from the checkpoint's ack; the file itself is a plain
// GraphSnapshot.
struct ShardConfig {
  GraphZeppelinConfig config;
  int32_t shard_id = 0;
  uint32_t replication = 1;  // 1..RoutingTable::kMaxReplication.
  std::string restore_checkpoint;  // Empty = fresh start.
  uint64_t delta_seq = 0;  // Must be 0 on a fresh start.
};

std::vector<uint8_t> EncodeShardConfig(const ShardConfig& config);
// Tolerates no trailing garbage; InvalidArgument on any truncation.
Status DecodeShardConfig(const uint8_t* data, size_t size, ShardConfig* out);

// kAck payload: two u64s (request-specific meaning).
struct ShardAck {
  uint64_t value0 = 0;
  uint64_t value1 = 0;
};
std::vector<uint8_t> EncodeShardAck(const ShardAck& ack);
Status DecodeShardAck(const uint8_t* data, size_t size, ShardAck* out);

// kError payload: StatusCode + message, so a shard-side Status crosses
// the socket losslessly.
std::vector<uint8_t> EncodeShardError(const Status& status);
// Returns the *decoded* status (the shard's error); `decode_ok` reports
// whether the payload itself was well-formed.
Status DecodeShardError(const uint8_t* data, size_t size, bool* decode_ok);

// kMigrateExtract payload: the part of the node range [lo, hi) x round
// window [r_lo, r_hi) to serialize. The decoder refuses an empty or
// reversed window and an unknown part; the shard refuses a window past
// its round budget.
std::vector<uint8_t> EncodeMigrateExtract(uint64_t lo, uint64_t hi,
                                          int32_t r_lo, int32_t r_hi,
                                          RoundPart part = RoundPart::kWhole);
Status DecodeMigrateExtract(const uint8_t* data, size_t size, uint64_t* lo,
                            uint64_t* hi, int32_t* r_lo, int32_t* r_hi,
                            RoundPart* part);

// kSyncPosition payload: the coordinator-asserted logical position
// {num_updates, delta_seq} a repaired replica must report from now on.
std::vector<uint8_t> EncodeSyncPosition(uint64_t num_updates,
                                        uint64_t delta_seq);
Status DecodeSyncPosition(const uint8_t* data, size_t size,
                          uint64_t* num_updates, uint64_t* delta_seq);

// kStatsReply payload: everything a serving-tier client needs to key a
// snapshot cache and build same-params zero snapshots without ever
// having seen the shard's config. (num_updates, delta_seq) is the
// shard's watermark: num_updates counts ingested node updates,
// delta_seq counts folded migration deltas — which change sketch
// content without changing the update count, so both are needed.
struct ShardStatsEx {
  int32_t shard_id = 0;
  uint64_t num_updates = 0;
  uint64_t delta_seq = 0;
  uint64_t ram_bytes = 0;
  // Sketch geometry (identical across a cluster by construction).
  uint64_t num_nodes = 0;
  uint64_t seed = 0;
  int32_t cols = 0;
  int32_t rounds = 0;
  // The cluster's replica count (from CONFIG), so a reader session can
  // group its endpoints into replica sets and fail over within one.
  uint32_t replication = 1;
};
std::vector<uint8_t> EncodeShardStatsEx(const ShardStatsEx& stats);
Status DecodeShardStatsEx(const uint8_t* data, size_t size,
                          ShardStatsEx* out);

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_PROTOCOL_H_
