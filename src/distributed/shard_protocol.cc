#include "distributed/shard_protocol.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <random>
#include <utility>

#include "util/check.h"
#include "util/crc32c.h"
#include "util/sha256.h"
#include "util/xxhash.h"

namespace gz {
namespace {

void EncodeHeader(ShardMessageType type, uint64_t payload_bytes,
                  uint8_t out[ShardFrameHeader::kBytes]) {
  const uint32_t magic = ShardFrameHeader::kMagic;
  const uint16_t version = ShardFrameHeader::kVersion;
  const uint16_t type16 = static_cast<uint16_t>(type);
  std::memcpy(out, &magic, 4);
  std::memcpy(out + 4, &version, 2);
  std::memcpy(out + 6, &type16, 2);
  std::memcpy(out + 8, &payload_bytes, 8);
}

Status DecodeHeader(const uint8_t in[ShardFrameHeader::kBytes],
                    ShardFrameHeader* header) {
  uint32_t magic = 0;
  uint16_t version = 0, type16 = 0;
  uint64_t payload_bytes = 0;
  std::memcpy(&magic, in, 4);
  std::memcpy(&version, in + 4, 2);
  std::memcpy(&type16, in + 6, 2);
  std::memcpy(&payload_bytes, in + 8, 8);
  if (magic != ShardFrameHeader::kMagic) {
    return Status::InvalidArgument("shard frame: bad magic");
  }
  if (version != ShardFrameHeader::kVersion) {
    return Status::InvalidArgument(
        "shard frame: protocol version mismatch (got " +
        std::to_string(version) + ", speak " +
        std::to_string(ShardFrameHeader::kVersion) + ")");
  }
  // 4, 6, 10 and 12 are retired type numbers, and so are 24 and 25
  // past kNotify (see ShardMessageType).
  if (type16 < static_cast<uint16_t>(ShardMessageType::kConfig) ||
      type16 > static_cast<uint16_t>(ShardMessageType::kNotify) ||
      type16 == 4 || type16 == 6 || type16 == 10 || type16 == 12) {
    return Status::InvalidArgument("shard frame: unknown message type " +
                                   std::to_string(type16));
  }
  if (payload_bytes > ShardFrameHeader::kMaxPayloadBytes) {
    return Status::InvalidArgument("shard frame: payload length " +
                                   std::to_string(payload_bytes) +
                                   " exceeds protocol cap");
  }
  header->type = static_cast<ShardMessageType>(type16);
  header->payload_bytes = payload_bytes;
  return Status::Ok();
}

// Byte-cursor codecs for the variable-length payloads. Readers never
// run past `size`: every Get checks the remaining length, so truncated
// payloads decode to an error, not a crash.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I32(int32_t v) { Raw(&v, 4); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Raw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) { return Raw(v, 4); }
  bool U64(uint64_t* v) { return Raw(v, 8); }
  bool I32(int32_t* v) { return Raw(v, 4); }
  bool F64(double* v) { return Raw(v, 8); }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len) || size_ - pos_ < len) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool Done() const { return pos_ == size_; }

 private:
  bool Raw(void* out, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// The reply type `request` expects (see ShardRequest).
ShardMessageType ReplyType(ShardMessageType request) {
  using T = ShardMessageType;
  return request == T::kStatsEx          ? T::kStatsReply
         : request == T::kMigrateExtract ? T::kMigrateData
         : request == T::kSubscribe      ? T::kNotify
                                         : T::kAck;
}

// The slot a node hashes to; pure in the node id.
uint32_t RouteSlot(NodeId node) {
  // kNumSlots is a power of two, so the mask takes the hash's low bits
  // uniformly — no modulo bias for any downstream shard count (the old
  // hash % num_shards was biased whenever num_shards was not a power
  // of two; slot ownership is balanced by construction instead).
  static_assert((RoutingTable::kNumSlots &
                 (RoutingTable::kNumSlots - 1)) == 0,
                "slot reduction must be a mask");
  return static_cast<uint32_t>(XxHash64Word(node, 0x7368617264ULL) &
                               (RoutingTable::kNumSlots - 1));
}

}  // namespace

Status WriteFull(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    // send() instead of write() for MSG_NOSIGNAL: a SIGKILLed shard
    // must surface as an IoError the coordinator can recover from, not
    // a SIGPIPE that kills the coordinator.
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("shard socket write: ") +
                             std::strerror(errno));
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

void TuneShardSocket(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
  const int idle = 60, interval = 10, count = 6;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval, sizeof(interval));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &count, sizeof(count));
}

Status ReadFull(int fd, void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      // SO_RCVTIMEO expiry (reader-session deadlines, pre-auth
      // handshake): its own code, so callers can distinguish "peer is
      // stalled" from "stream is broken".
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "shard socket read: receive deadline expired");
      }
      return Status::IoError(std::string("shard socket read: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("shard socket closed mid-frame");
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

void FrameCrc::Fold(const void* data, size_t size) {
  crc_ = Crc32cExtend(crc_, data, size);
}

Status SendFrameHeader(int fd, ShardMessageType type, uint64_t payload_bytes,
                       FrameCrc* crc) {
  if (payload_bytes > ShardFrameHeader::kMaxPayloadBytes) {
    return Status::InvalidArgument("shard frame: payload exceeds cap");
  }
  uint8_t header[ShardFrameHeader::kBytes];
  EncodeHeader(type, payload_bytes, header);
  crc->Fold(header, sizeof(header));
  return WriteFull(fd, header, sizeof(header));
}

Status SendFrameTrailer(int fd, const FrameCrc& crc) {
  const uint32_t value = crc.value();
  return WriteFull(fd, &value, ShardFrameHeader::kCrcBytes);
}

Status SendFrame(int fd, ShardMessageType type, const void* payload,
                 size_t payload_bytes) {
  if (payload_bytes > ShardFrameHeader::kMaxPayloadBytes) {
    return Status::InvalidArgument("shard frame: payload exceeds cap");
  }
  uint8_t header[ShardFrameHeader::kBytes];
  EncodeHeader(type, payload_bytes, header);
  FrameCrc crc;
  crc.Fold(header, sizeof(header));
  crc.Fold(payload, payload_bytes);
  const uint32_t trailer = crc.value();
  // One sendmsg for header + payload + trailer: a routing buffer
  // crosses into the kernel straight from where the router filled it.
  struct iovec iov[3];
  int iovcnt = 0;
  iov[iovcnt].iov_base = header;
  iov[iovcnt].iov_len = sizeof(header);
  ++iovcnt;
  if (payload_bytes > 0) {
    iov[iovcnt].iov_base = const_cast<void*>(payload);
    iov[iovcnt].iov_len = payload_bytes;
    ++iovcnt;
  }
  iov[iovcnt].iov_base = const_cast<uint32_t*>(&trailer);
  iov[iovcnt].iov_len = ShardFrameHeader::kCrcBytes;
  ++iovcnt;
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = iovcnt;
  size_t sent = 0;
  const size_t total =
      sizeof(header) + payload_bytes + ShardFrameHeader::kCrcBytes;
  while (sent < total) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("shard socket write: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
    if (sent == total) break;
    // Short write: advance the iovec cursor past the sent bytes.
    size_t advance = static_cast<size_t>(n);
    while (advance >= msg.msg_iov[0].iov_len) {
      advance -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    msg.msg_iov[0].iov_base =
        static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + advance;
    msg.msg_iov[0].iov_len -= advance;
  }
  return Status::Ok();
}

// The real receive path, with an explicit allocation cap: the public
// RecvFrame accepts up to the protocol cap, while the pre-auth
// handshake path and reader sessions cap at a few KB — a peer not
// entitled to big requests must not be able to command a multi-GB
// allocation with a length field.
Status RecvFrameCapped(int fd, ShardFrame* frame, uint64_t max_payload) {
  uint8_t header_buf[ShardFrameHeader::kBytes];
  Status s = ReadFull(fd, header_buf, sizeof(header_buf));
  if (!s.ok()) return s;
  ShardFrameHeader header;
  s = DecodeHeader(header_buf, &header);
  if (!s.ok()) return s;
  if (header.payload_bytes > max_payload) {
    return Status::InvalidArgument(
        "shard frame: payload length " +
        std::to_string(header.payload_bytes) +
        " exceeds this context's cap of " + std::to_string(max_payload));
  }
  frame->type = header.type;
  // The protocol cap is sized for legitimate big snapshots, so a
  // corrupt-but-in-range length can still exceed this host's memory;
  // the allocation failure must come back as a Status like every other
  // malformed-frame outcome, not escape as bad_alloc and terminate.
  try {
    frame->payload.resize(header.payload_bytes);  // Capacity is reused.
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kResourceExhausted,
                  "shard frame: cannot allocate " +
                      std::to_string(header.payload_bytes) +
                      "-byte payload");
  }
  if (header.payload_bytes > 0) {
    s = ReadFull(fd, frame->payload.data(), header.payload_bytes);
    if (!s.ok()) return s;
  }
  // Verify the trailer BEFORE anything decodes the payload: a flipped
  // bit anywhere in header or payload must surface here as a Status,
  // never as a mis-ingested update or a decoder fed garbage. (A
  // corrupted length field lands here too — the bytes read under the
  // wrong length cannot carry a matching checksum.)
  uint32_t trailer = 0;
  s = ReadFull(fd, &trailer, ShardFrameHeader::kCrcBytes);
  if (!s.ok()) return s;
  uint32_t crc = Crc32c(header_buf, sizeof(header_buf));
  crc = Crc32cExtend(crc, frame->payload.data(), frame->payload.size());
  if (crc != trailer) {
    return Status::InvalidArgument("shard frame: checksum mismatch");
  }
  return Status::Ok();
}

Status RecvFrame(int fd, ShardFrame* frame) {
  return RecvFrameCapped(fd, frame, ShardFrameHeader::kMaxPayloadBytes);
}

std::vector<ShardReply> Exchange(
    const std::vector<ShardRequest>& requests, ShardFrame* frame,
    const std::function<Status(size_t request, ShardFrame& reply)>&
        on_reply) {
  std::vector<ShardReply> replies(requests.size());
  // A connection is lost once any of its requests is (lists are short:
  // one request per shard, replica or pull).
  const auto lost = [&](int fd) -> const ShardReply* {
    for (size_t j = 0; j < requests.size(); ++j) {
      if (replies[j].lost && requests[j].fd == fd) return &replies[j];
    }
    return nullptr;
  };
  for (size_t i = 0; i < requests.size(); ++i) {
    const ShardRequest& req = requests[i];
    if (lost(req.fd) != nullptr) continue;  // The read loop reports it.
    Status s = req.fd < 0 ? Status::IoError("shard socket not open")
                          : SendFrame(req.fd, req.type, req.payload,
                                      req.payload_bytes);
    if (!s.ok()) replies[i] = {std::move(s), true};
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    // A lost connection's replies are never read, even those to requests
    // sent before it was lost.
    if (const ShardReply* gone = lost(requests[i].fd)) {
      replies[i] = *gone;
      continue;
    }
    ShardReply& r = replies[i];
    r.status = RecvFrame(requests[i].fd, frame);
    if (!r.status.ok()) {
      r.lost = true;
    } else if (frame->type == ShardMessageType::kError) {
      bool decode_ok = false;
      r.status = DecodeShardError(frame->payload.data(), frame->payload.size(),
                                  &decode_ok);
      r.lost = !decode_ok;
    } else if (frame->type != ReplyType(requests[i].type)) {
      r = {Status::Internal("shard replied with unexpected frame type"), true};
    } else {
      r.replied = true;
      if (on_reply) r.status = on_reply(i, *frame);
    }
  }
  return replies;
}

// ---- Authenticated handshake ----------------------------------------------

namespace {

constexpr size_t kProofBytes = kSha256Bytes;

// Handshake frames are tiny and fixed-size (16/48/32 bytes, plus a
// small kError with a message); nothing pre-auth may command a bigger
// allocation than this.
constexpr uint64_t kHandshakeMaxFrameBytes = 4096;

}  // namespace

// Public so the shard server can arm per-read deadlines on reader
// sessions. The handshake's own use is the best-effort pre-auth
// deadline: an unauthenticated peer that connects and goes silent must
// not hold a session slot past it. 0 clears the deadline — an
// established writer session returns to blocking I/O, where long
// silences are legitimate (a coordinator simply has nothing to send).
void SetShardSocketTimeout(int fd, int seconds) {
  struct timeval tv;
  tv.tv_sec = seconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

namespace {

constexpr int kHandshakeTimeoutSeconds = 10;
// The client side waits out the server-side deadline plus a dead
// session's drain with margin: a coordinator queued in a wedged
// listener's backlog must eventually get an error, never hang
// Start()/RestartReplica forever.
constexpr int kClientHandshakeTimeoutSeconds = 30;

// Exchange()'s reply classification, with the pre-auth allocation cap.
Status RecvHandshakeReply(int fd, ShardMessageType expected,
                          ShardFrame* frame) {
  Status s = RecvFrameCapped(fd, frame, kHandshakeMaxFrameBytes);
  if (!s.ok()) return s;
  if (frame->type == ShardMessageType::kError) {
    bool decode_ok = false;
    return DecodeShardError(frame->payload.data(), frame->payload.size(),
                            &decode_ok);
  }
  if (frame->type != expected) {
    return Status::Internal("peer sent an unexpected frame mid-handshake");
  }
  return Status::Ok();
}

// Fresh per-connection nonce. std::random_device is the entropy
// backbone; pid and a clock reading are mixed in so even a degenerate
// random_device cannot hand two processes the same nonce.
void FillNonce(uint8_t out[kHandshakeNonceBytes]) {
  std::random_device rd;
  uint64_t words[2];
  words[0] = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  words[1] = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  const uint64_t mix = XxHash64Word(
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()),
      static_cast<uint64_t>(::getpid()));
  words[0] ^= mix;
  words[1] ^= XxHash64Word(mix, 0x68656c6c6fULL);
  std::memcpy(out, words, kHandshakeNonceBytes);
}

// proof = HMAC(secret, domain || client_nonce || server_nonce). The
// domain string separates the two directions, so a server proof can
// never be replayed back as a client proof.
void ComputeProof(const std::string& secret, const char* domain,
                  const uint8_t client_nonce[kHandshakeNonceBytes],
                  const uint8_t server_nonce[kHandshakeNonceBytes],
                  uint8_t out[kProofBytes]) {
  uint8_t message[16 + 2 * kHandshakeNonceBytes] = {0};
  std::memcpy(message, domain, std::min<size_t>(std::strlen(domain), 16));
  std::memcpy(message + 16, client_nonce, kHandshakeNonceBytes);
  std::memcpy(message + 16 + kHandshakeNonceBytes, server_nonce,
              kHandshakeNonceBytes);
  HmacSha256(secret.data(), secret.size(), message, sizeof(message), out);
}

Status AuthFailed() {
  return Status::FailedPrecondition(
      "authentication failed: peer does not hold the shared secret");
}

// Role-specific HMAC domains: the role byte travels in cleartext, but
// the proofs on both sides commit to it, so a tampered role fails
// authentication instead of granting a different privilege level. The
// writer domains are the exact v3 strings — a bare 16-byte HELLO from
// an existing coordinator authenticates unchanged.
const char* ServerDomain(ShardSessionRole role) {
  return role == ShardSessionRole::kReader ? "gzsp3-server-r" : "gzsp3-server";
}
const char* ClientDomain(ShardSessionRole role) {
  return role == ShardSessionRole::kReader ? "gzsp3-client-r" : "gzsp3-client";
}

}  // namespace

Status ClientHandshake(int fd, const std::string& secret,
                       ShardSessionRole role) {
  SetShardSocketTimeout(fd, kClientHandshakeTimeoutSeconds);
  uint8_t client_nonce[kHandshakeNonceBytes];
  FillNonce(client_nonce);
  // Writer HELLO is the bare nonce (byte-identical to pre-role v3);
  // reader HELLO appends the role byte.
  uint8_t hello[kHandshakeNonceBytes + 1];
  std::memcpy(hello, client_nonce, kHandshakeNonceBytes);
  hello[kHandshakeNonceBytes] = static_cast<uint8_t>(role);
  const size_t hello_bytes = role == ShardSessionRole::kWriter
                                 ? kHandshakeNonceBytes
                                 : kHandshakeNonceBytes + 1;
  Status s = SendFrame(fd, ShardMessageType::kHello, hello, hello_bytes);
  if (!s.ok()) return s;
  ShardFrame frame;
  s = RecvHandshakeReply(fd, ShardMessageType::kChallenge, &frame);
  if (!s.ok()) return s;
  if (frame.payload.size() != kHandshakeNonceBytes + kProofBytes) {
    return Status::InvalidArgument("malformed handshake challenge");
  }
  const uint8_t* server_nonce = frame.payload.data();
  // Mutual: an impostor shard must not be handed graph state (or a
  // checkpoint path to scribble on), so the server proves first.
  uint8_t expect[kProofBytes];
  ComputeProof(secret, ServerDomain(role), client_nonce, server_nonce,
               expect);
  if (!ConstantTimeEqual(frame.payload.data() + kHandshakeNonceBytes,
                         expect, kProofBytes)) {
    return AuthFailed();
  }
  uint8_t proof[kProofBytes];
  ComputeProof(secret, ClientDomain(role), client_nonce, server_nonce,
               proof);
  s = SendFrame(fd, ShardMessageType::kAuth, proof, sizeof(proof));
  if (!s.ok()) return s;
  s = RecvHandshakeReply(fd, ShardMessageType::kAck, &frame);
  if (!s.ok()) return s;
  SetShardSocketTimeout(fd, 0);  // Established: back to blocking I/O.
  return Status::Ok();
}

Status ServerHandshake(int fd, const std::string& secret,
                       ShardSessionRole* role_out) {
  // A best-effort error reply, then the non-OK return tells the caller
  // to drop the connection. Nothing a peer sends before proving the
  // secret reaches any other handler, commands more than a tiny
  // allocation, or holds the connection open past the deadline.
  SetShardSocketTimeout(fd, kHandshakeTimeoutSeconds);
  const auto refuse = [fd](Status error) {
    const std::vector<uint8_t> payload = EncodeShardError(error);
    SendFrame(fd, ShardMessageType::kError, payload.data(), payload.size());
    return error;
  };
  ShardFrame frame;
  Status s = RecvFrameCapped(fd, &frame, kHandshakeMaxFrameBytes);
  if (!s.ok()) {
    if (s.code() == StatusCode::kInvalidArgument) refuse(s);
    return s;
  }
  // Bare 16-byte HELLO = writer (the pre-role v3 wire form); a 17th
  // byte declares the role. Any other shape — including an unknown
  // role value — is refused before the challenge is computed.
  ShardSessionRole role = ShardSessionRole::kWriter;
  if (frame.type != ShardMessageType::kHello ||
      frame.payload.size() < kHandshakeNonceBytes ||
      frame.payload.size() > kHandshakeNonceBytes + 1) {
    return refuse(Status::FailedPrecondition(
        "expected a HELLO handshake frame before any request"));
  }
  if (frame.payload.size() == kHandshakeNonceBytes + 1) {
    const uint8_t role_byte = frame.payload[kHandshakeNonceBytes];
    if (role_byte > static_cast<uint8_t>(ShardSessionRole::kReader)) {
      return refuse(Status::FailedPrecondition(
          "HELLO declares an unknown session role"));
    }
    role = static_cast<ShardSessionRole>(role_byte);
  }
  uint8_t client_nonce[kHandshakeNonceBytes];
  std::memcpy(client_nonce, frame.payload.data(), kHandshakeNonceBytes);
  uint8_t server_nonce[kHandshakeNonceBytes];
  FillNonce(server_nonce);
  uint8_t challenge[kHandshakeNonceBytes + kProofBytes];
  std::memcpy(challenge, server_nonce, kHandshakeNonceBytes);
  ComputeProof(secret, ServerDomain(role), client_nonce, server_nonce,
               challenge + kHandshakeNonceBytes);
  s = SendFrame(fd, ShardMessageType::kChallenge, challenge,
                sizeof(challenge));
  if (!s.ok()) return s;
  s = RecvFrameCapped(fd, &frame, kHandshakeMaxFrameBytes);
  if (!s.ok()) {
    if (s.code() == StatusCode::kInvalidArgument) refuse(s);
    return s;
  }
  uint8_t expect[kProofBytes];
  ComputeProof(secret, ClientDomain(role), client_nonce, server_nonce,
               expect);
  if (frame.type != ShardMessageType::kAuth ||
      frame.payload.size() != kProofBytes ||
      !ConstantTimeEqual(frame.payload.data(), expect, kProofBytes)) {
    return refuse(AuthFailed());
  }
  const ShardAck ack;
  const std::vector<uint8_t> payload = EncodeShardAck(ack);
  s = SendFrame(fd, ShardMessageType::kAck, payload.data(), payload.size());
  if (!s.ok()) return s;
  SetShardSocketTimeout(fd, 0);  // Established: back to blocking.
  if (role_out != nullptr) *role_out = role;
  return s;
}

std::vector<uint8_t> EncodeShardConfig(const ShardConfig& sc) {
  const GraphZeppelinConfig& c = sc.config;
  ByteWriter w;
  w.U64(c.num_nodes);
  w.U64(c.seed);
  w.I32(c.cols);
  w.I32(c.rounds);
  w.I32(c.num_workers);
  w.U8(static_cast<uint8_t>(c.buffering));
  w.U8(static_cast<uint8_t>(c.storage));
  w.F64(c.gutter_fraction);
  w.U64(c.nodes_per_gutter_group);
  w.U64(c.gutter_tree_buffer_bytes);
  w.U64(c.gutter_tree_fanout);
  w.Str(c.disk_dir);
  w.I32(sc.shard_id);
  w.U32(sc.replication);
  w.Str(sc.restore_checkpoint);
  w.U64(sc.delta_seq);
  return w.Take();
}

Status DecodeShardConfig(const uint8_t* data, size_t size,
                         ShardConfig* out) {
  ByteReader r(data, size);
  GraphZeppelinConfig& c = out->config;
  uint8_t buffering = 0, storage = 0;
  const bool ok =
      r.U64(&c.num_nodes) && r.U64(&c.seed) && r.I32(&c.cols) &&
      r.I32(&c.rounds) && r.I32(&c.num_workers) && r.U8(&buffering) &&
      r.U8(&storage) && r.F64(&c.gutter_fraction) &&
      r.U64(&c.nodes_per_gutter_group) &&
      r.U64(&c.gutter_tree_buffer_bytes) && r.U64(&c.gutter_tree_fanout) &&
      r.Str(&c.disk_dir) && r.I32(&out->shard_id) &&
      r.U32(&out->replication) && r.Str(&out->restore_checkpoint) &&
      r.U64(&out->delta_seq) && r.Done();
  if (!ok) return Status::InvalidArgument("malformed shard config payload");
  // A delta sequence number describes a restored checkpoint; a fresh
  // shard has folded no deltas.
  if (out->shard_id < 0 || out->shard_id >= RoutingTable::kMaxShardId ||
      out->replication < 1 ||
      out->replication > RoutingTable::kMaxReplication ||
      (out->restore_checkpoint.empty() && out->delta_seq != 0)) {
    return Status::InvalidArgument("shard config payload out of range");
  }
  // Full range validation: every field a GraphZeppelin GZ_CHECK (or a
  // sketch constructor, or an absurd allocation) would abort on must
  // bounce here instead — the payload came off a socket, and a bad
  // config must never take the worker process down. Geometry caps
  // mirror the snapshot header's; the fanout/buffer caps are checked
  // before the derived product so nothing overflows.
  if (buffering > 1 || storage > 1 || c.num_nodes < 2 ||
      c.num_nodes > (1ULL << 32) || c.num_workers < 1 ||
      c.num_workers > 4096 || c.cols < 1 || c.cols > 1024 ||
      c.rounds < 0 || c.rounds > 4096 ||
      !std::isfinite(c.gutter_fraction) || !(c.gutter_fraction > 0.0) ||
      c.gutter_fraction > 1024.0 || c.nodes_per_gutter_group < 1 ||
      c.gutter_tree_fanout < 2 || c.gutter_tree_fanout > (1ULL << 20) ||
      c.gutter_tree_buffer_bytes > (1ULL << 31) ||
      c.gutter_tree_buffer_bytes < 12 * c.gutter_tree_fanout) {
    return Status::InvalidArgument("shard config payload out of range");
  }
  c.buffering = static_cast<GraphZeppelinConfig::Buffering>(buffering);
  c.storage = static_cast<GraphZeppelinConfig::Storage>(storage);
  return Status::Ok();
}

std::vector<uint8_t> EncodeShardAck(const ShardAck& ack) {
  ByteWriter w;
  w.U64(ack.value0);
  w.U64(ack.value1);
  return w.Take();
}

Status DecodeShardAck(const uint8_t* data, size_t size, ShardAck* out) {
  ByteReader r(data, size);
  if (!r.U64(&out->value0) || !r.U64(&out->value1) || !r.Done()) {
    return Status::InvalidArgument("malformed shard ack payload");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeShardError(const Status& status) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeShardError(const uint8_t* data, size_t size, bool* decode_ok) {
  ByteReader r(data, size);
  uint32_t code = 0;
  std::string message;
  if (!r.U32(&code) || !r.Str(&message) || !r.Done() ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded) ||
      code == static_cast<uint32_t>(StatusCode::kOk)) {
    *decode_ok = false;
    return Status::InvalidArgument("malformed shard error payload");
  }
  *decode_ok = true;
  return Status(static_cast<StatusCode>(code), "shard: " + message);
}

std::vector<uint8_t> EncodeMigrateExtract(uint64_t lo, uint64_t hi,
                                          int32_t r_lo, int32_t r_hi,
                                          RoundPart part) {
  ByteWriter w;
  w.U64(lo);
  w.U64(hi);
  w.I32(r_lo);
  w.I32(r_hi);
  w.U32(static_cast<uint32_t>(part));
  return w.Take();
}

Status DecodeMigrateExtract(const uint8_t* data, size_t size, uint64_t* lo,
                            uint64_t* hi, int32_t* r_lo, int32_t* r_hi,
                            RoundPart* part) {
  ByteReader r(data, size);
  uint32_t part_value = 0;
  if (!r.U64(lo) || !r.U64(hi) || !r.I32(r_lo) || !r.I32(r_hi) ||
      !r.U32(&part_value) || !r.Done()) {
    return Status::InvalidArgument("malformed migrate-extract payload");
  }
  if (*r_lo < 0 || *r_lo >= *r_hi) {
    return Status::InvalidArgument(
        "migrate-extract round window is empty or reversed");
  }
  if (part_value > static_cast<uint32_t>(RoundPart::kSamples)) {
    return Status::InvalidArgument("migrate-extract names unknown part " +
                                   std::to_string(part_value));
  }
  *part = static_cast<RoundPart>(part_value);
  return Status::Ok();
}

std::vector<uint8_t> EncodeSyncPosition(uint64_t num_updates,
                                        uint64_t delta_seq) {
  ByteWriter w;
  w.U64(num_updates);
  w.U64(delta_seq);
  return w.Take();
}

Status DecodeSyncPosition(const uint8_t* data, size_t size,
                          uint64_t* num_updates, uint64_t* delta_seq) {
  ByteReader r(data, size);
  if (!r.U64(num_updates) || !r.U64(delta_seq) || !r.Done()) {
    return Status::InvalidArgument("malformed sync-position payload");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeShardStatsEx(const ShardStatsEx& stats) {
  ByteWriter w;
  w.I32(stats.shard_id);
  w.U64(stats.num_updates);
  w.U64(stats.delta_seq);
  w.U64(stats.ram_bytes);
  w.U64(stats.num_nodes);
  w.U64(stats.seed);
  w.I32(stats.cols);
  w.I32(stats.rounds);
  w.U32(stats.replication);
  return w.Take();
}

Status DecodeShardStatsEx(const uint8_t* data, size_t size,
                          ShardStatsEx* out) {
  ByteReader r(data, size);
  const bool ok = r.I32(&out->shard_id) && r.U64(&out->num_updates) &&
                  r.U64(&out->delta_seq) &&
                  r.U64(&out->ram_bytes) && r.U64(&out->num_nodes) &&
                  r.U64(&out->seed) && r.I32(&out->cols) &&
                  r.I32(&out->rounds) && r.U32(&out->replication) &&
                  r.Done();
  if (!ok) return Status::InvalidArgument("malformed stats-reply payload");
  // The geometry came off a socket and feeds zero-snapshot
  // construction; the caps mirror the config decoder's.
  if (out->shard_id < 0 || out->shard_id >= RoutingTable::kMaxShardId ||
      out->num_nodes < 2 ||
      out->num_nodes > (1ULL << 32) || out->cols < 1 || out->cols > 1024 ||
      out->rounds < 1 || out->rounds > 4096 || out->replication < 1 ||
      out->replication > RoutingTable::kMaxReplication) {
    return Status::InvalidArgument("stats-reply payload out of range");
  }
  return Status::Ok();
}

int NodeOwner(NodeId node, const RoutingTable& table) {
  GZ_CHECK_MSG(table.owners.size() == RoutingTable::kNumSlots,
               "routing with an unset table");
  return table.owners[RouteSlot(node)];
}

RoutingTable MakeRoutingTable(int num_shards) {
  GZ_CHECK(num_shards >= 1 && num_shards < RoutingTable::kMaxShardId);
  RoutingTable table;
  table.owners.resize(RoutingTable::kNumSlots);
  for (uint32_t s = 0; s < RoutingTable::kNumSlots; ++s) {
    table.owners[s] = static_cast<int32_t>(s % num_shards);
  }
  return table;
}

std::vector<int> TableOwners(const RoutingTable& table) {
  std::vector<int> owners(table.owners.begin(), table.owners.end());
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

int TableSlotCount(const RoutingTable& table, int shard) {
  int n = 0;
  for (const int32_t owner : table.owners) n += (owner == shard);
  return n;
}

RoutingTable TableWithShardRemoved(const RoutingTable& table, int removed) {
  RoutingTable out = table;
  for (uint32_t s = 0; s < RoutingTable::kNumSlots; ++s) {
    if (out.owners[s] != removed) continue;
    // Deal to the remaining owner with the fewest slots (ties:
    // smallest id).
    int heir = -1, heir_count = -1;
    for (const int id : TableOwners(out)) {
      const int n = TableSlotCount(out, id);
      if (id != removed && (heir < 0 || n < heir_count)) {
        heir = id;
        heir_count = n;
      }
    }
    GZ_CHECK_MSG(heir >= 0, "cannot remove the last shard");
    out.owners[s] = heir;
  }
  return out;
}

RoutingTable TableWithShardSplit(const RoutingTable& table, int source,
                                 int new_shard) {
  GZ_CHECK(new_shard >= 0 && new_shard < RoutingTable::kMaxShardId);
  // A 1-slot source would leave the child with nothing: a live shard
  // no table row points at, invisible to every owner-derived walk
  // (including the heir search a later removal runs). Callers guard
  // this with a Status; here it is a programmer error.
  GZ_CHECK_MSG(TableSlotCount(table, source) >= 2,
               "split source owns fewer than two slots");
  RoutingTable out = table;
  bool take = false;
  for (uint32_t s = 0; s < RoutingTable::kNumSlots; ++s) {
    if (out.owners[s] != source) continue;
    if (take) out.owners[s] = new_shard;
    take = !take;
  }
  return out;
}

}  // namespace gz
