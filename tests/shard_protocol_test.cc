// Shard protocol conformance: every frame type must round-trip, and
// malformed / truncated / corrupted / version-mismatched input must
// surface as Status errors — never a crash, never an accepted frame —
// on both the coordinator side (RecvFrame and the payload codecs) and
// the shard side (ShardServer over an in-process socketpair). v3 added
// the CRC32C trailer (exhaustive byte-flip sweep below), the
// authenticated HELLO handshake, and the ShardEndpoint grammar; v4
// retired the whole-snapshot and two-u64 stats frames, v5 the
// heavy-hitter frames, v6 the CONFIG payload's query_threads, and v7
// the routing table on the wire (the EPOCH frame, the batch epoch
// stamp, the STATS_EX epoch and the checkpoint's epoch).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "distributed/query_session.h"
#include "distributed/shard_endpoint.h"
#include "distributed/shard_protocol.h"
#include "distributed/shard_server.h"
#include "sketch_content.h"
#include "util/crc32c.h"
#include "util/sha256.h"

namespace gz {
namespace {

class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    CloseA();
    CloseB();
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }
  // Fresh pair (a test restarting a server needs a new connection).
  void Reset() {
    CloseA();
    CloseB();
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void CloseA() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseB() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

// Type numbers v4, v5 and v7 retired; never reused, refused as unknown.
bool Retired(uint16_t type) {
  return type == 4 || type == 6 || type == 10 || type == 12 ||
         type == 24 || type == 25;
}

// Hand-crafts a frame header; `magic`/`version` default to valid so a
// test can corrupt exactly one field.
void WriteRawHeader(int fd, uint16_t type, uint64_t payload_bytes,
                    uint32_t magic = ShardFrameHeader::kMagic,
                    uint16_t version = ShardFrameHeader::kVersion) {
  uint8_t buf[ShardFrameHeader::kBytes];
  std::memcpy(buf, &magic, 4);
  std::memcpy(buf + 4, &version, 2);
  std::memcpy(buf + 6, &type, 2);
  std::memcpy(buf + 8, &payload_bytes, 8);
  ASSERT_TRUE(WriteFull(fd, buf, sizeof(buf)).ok());
}

// ---- Frame round trips ----------------------------------------------------

TEST(ShardProtocolTest, EveryMessageTypeRoundTrips) {
  SocketPair sp;
  const uint8_t payload[5] = {1, 2, 3, 4, 5};
  ShardFrame frame;
  for (uint16_t t = static_cast<uint16_t>(ShardMessageType::kConfig);
       t <= static_cast<uint16_t>(ShardMessageType::kStatsReply); ++t) {
    if (Retired(t)) continue;
    const ShardMessageType type = static_cast<ShardMessageType>(t);
    ASSERT_TRUE(SendFrame(sp.a(), type, payload, sizeof(payload)).ok());
    ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
    EXPECT_EQ(frame.type, type);
    ASSERT_EQ(frame.payload.size(), sizeof(payload));
    EXPECT_EQ(std::memcmp(frame.payload.data(), payload, sizeof(payload)),
              0);
  }
}

TEST(ShardProtocolTest, EmptyPayloadRoundTrips) {
  SocketPair sp;
  ASSERT_TRUE(
      SendFrame(sp.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ShardProtocolTest, HeaderThenStreamedPayloadRoundTrips) {
  // The shard's node-range reply path: header first, payload streamed
  // in pieces afterwards, checksum accumulated alongside and sent last.
  SocketPair sp;
  FrameCrc crc;
  ASSERT_TRUE(
      SendFrameHeader(sp.a(), ShardMessageType::kMigrateData, 6, &crc)
          .ok());
  crc.Fold("abc", 3);
  ASSERT_TRUE(WriteFull(sp.a(), "abc", 3).ok());
  crc.Fold("def", 3);
  ASSERT_TRUE(WriteFull(sp.a(), "def", 3).ok());
  ASSERT_TRUE(SendFrameTrailer(sp.a(), crc).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kMigrateData);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()),
            "abcdef");
}

TEST(ShardProtocolTest, StreamedFrameWithWrongCrcIsRejected) {
  // A streamed frame whose producer folded different bytes than it
  // wrote must bounce exactly like a corrupted buffered frame.
  SocketPair sp;
  FrameCrc crc;
  ASSERT_TRUE(
      SendFrameHeader(sp.a(), ShardMessageType::kMigrateData, 3, &crc)
          .ok());
  crc.Fold("abc", 3);
  ASSERT_TRUE(WriteFull(sp.a(), "abX", 3).ok());  // Wrote differently.
  ASSERT_TRUE(SendFrameTrailer(sp.a(), crc).ok());
  ShardFrame frame;
  const Status s = RecvFrame(sp.b(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

// ---- Malformed input on the receiving side --------------------------------

TEST(ShardProtocolTest, BadMagicIsInvalidArgument) {
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 /*magic=*/0xDEADBEEF);
  ShardFrame frame;
  const Status s = RecvFrame(sp.b(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, VersionMismatchIsInvalidArgument) {
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 ShardFrameHeader::kMagic,
                 /*version=*/ShardFrameHeader::kVersion + 1);
  ShardFrame frame;
  const Status s = RecvFrame(sp.b(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(ShardProtocolTest, UnknownTypeIsInvalidArgument) {
  SocketPair sp;
  WriteRawHeader(sp.a(), /*type=*/999, 0);
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, V12DefinesExactly19TypesAndRefusesRetiredOnes) {
  EXPECT_EQ(ShardFrameHeader::kVersion, 12);
  int known = 0;
  for (uint16_t t = 0; t < 64; ++t) {
    SocketPair sp;
    ASSERT_TRUE(
        SendFrame(sp.a(), static_cast<ShardMessageType>(t), nullptr, 0)
            .ok());
    ShardFrame frame;
    const Status s = RecvFrame(sp.b(), &frame);
    if (s.ok()) {
      ++known;
      EXPECT_FALSE(Retired(t)) << "retired type " << t << " was accepted";
    } else {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "type " << t;
      EXPECT_NE(s.message().find("unknown message type"), std::string::npos)
          << s.ToString();
    }
  }
  EXPECT_EQ(known, 19);
}

TEST(ShardProtocolTest, V3HeaderIsAVersionMismatch) {
  // So is a v4, v5, v6, v7, v8, v9, v10 or v11 peer's: both sides must
  // be rebuilt together.
  for (const uint16_t version : {3, 4, 5, 6, 7, 8, 9, 10, 11}) {
    SocketPair sp;
    WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                   ShardFrameHeader::kMagic, version);
    ShardFrame frame;
    const Status s = RecvFrame(sp.b(), &frame);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "v" << version;
    EXPECT_NE(s.message().find("version mismatch"), std::string::npos)
        << s.ToString();
  }
}

TEST(ShardProtocolTest, RetiredTypesAreRefusedOnWriterAndReaderSessions) {
  // A pre-v4 SNAPSHOT, STATS or SNAPSHOT_BYTES frame, a pre-v5
  // HEAVY_HITTERS or HEAVY_HITTER_BYTES frame, or a pre-v7 EPOCH frame,
  // is an unknown type to either session role: the shard replies kError
  // and ends the session (framing can no longer be trusted), never
  // crashing.
  for (const uint16_t type : {4, 6, 10, 12, 24, 25}) {
    for (const ShardSessionRole role :
         {ShardSessionRole::kWriter, ShardSessionRole::kReader}) {
      SocketPair sp;
      ShardInstanceState state;
      Status served;
      std::thread server([&] {
        served = ShardServer(sp.b(), &state, role).Serve();
      });
      EXPECT_TRUE(
          SendFrame(sp.a(), static_cast<ShardMessageType>(type), nullptr, 0)
              .ok());
      ShardFrame frame;
      const Status got = RecvFrame(sp.a(), &frame);
      server.join();
      ASSERT_TRUE(got.ok()) << got.ToString();
      ASSERT_EQ(frame.type, ShardMessageType::kError) << "type " << type;
      bool decode_ok = false;
      const Status error = DecodeShardError(frame.payload.data(),
                                            frame.payload.size(), &decode_ok);
      EXPECT_TRUE(decode_ok);
      EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(error.message().find("unknown message type"),
                std::string::npos)
          << error.ToString();
      EXPECT_EQ(served.code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ShardProtocolTest, OversizedPayloadLengthIsInvalidArgument) {
  // A garbage length field must be rejected before any allocation.
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing),
                 ShardFrameHeader::kMaxPayloadBytes + 1);
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, TruncatedPayloadIsIoError) {
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing),
                 /*payload_bytes=*/100);
  ASSERT_TRUE(WriteFull(sp.a(), "short", 5).ok());
  sp.CloseA();  // EOF mid-payload.
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kIoError);
}

TEST(ShardProtocolTest, TruncatedHeaderIsIoError) {
  SocketPair sp;
  ASSERT_TRUE(WriteFull(sp.a(), "GZ", 2).ok());
  sp.CloseA();
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kIoError);
}

TEST(ShardProtocolTest, WriteToClosedPeerIsIoErrorNotSignal) {
  // A SIGKILLed shard must surface as IoError; SIGPIPE would kill the
  // coordinator.
  SocketPair sp;
  sp.CloseB();
  std::vector<uint8_t> big(1 << 20, 0xAB);
  const Status s =
      SendFrame(sp.a(), ShardMessageType::kUpdateBatch, big.data(),
                big.size());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ---- Exchange -------------------------------------------------------------

// Replies to one request on a scripted peer's end.
void ReplyAck(int fd, uint64_t value0) {
  const std::vector<uint8_t> ack = EncodeShardAck({value0, 0});
  EXPECT_TRUE(
      SendFrame(fd, ShardMessageType::kAck, ack.data(), ack.size()).ok());
}

// An Exchange handler that records every acked value0.
std::function<Status(size_t, ShardFrame&)> RecordAcks(
    std::vector<uint64_t>* acked) {
  return [acked](size_t, ShardFrame& reply) {
    ShardAck ack;
    const Status s =
        DecodeShardAck(reply.payload.data(), reply.payload.size(), &ack);
    acked->push_back(ack.value0);
    return s;
  };
}

TEST(ExchangeTest, InSyncErrorAnswersOnlyItsOwnRequest) {
  // A shard's kError answers one request; the stream stays in sync, so
  // the next reply on the connection answers the next request.
  SocketPair sp;
  std::thread peer([&] {
    ShardFrame request;
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(RecvFrame(sp.b(), &request).ok());
      if (i == 0) {
        const std::vector<uint8_t> error = EncodeShardError(
            Status::FailedPrecondition("shard not configured"));
        ASSERT_TRUE(SendFrame(sp.b(), ShardMessageType::kError, error.data(),
                              error.size())
                        .ok());
      } else {
        ReplyAck(sp.b(), i);
      }
    }
  });
  ShardFrame reply;
  std::vector<uint64_t> acked;
  std::vector<ShardReply> replies =
      Exchange({{sp.a(), ShardMessageType::kFlush},
                {sp.a(), ShardMessageType::kFlush}},
               &reply, RecordAcks(&acked));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(replies[0].lost);
  EXPECT_FALSE(replies[0].replied);
  EXPECT_TRUE(replies[1].status.ok());
  EXPECT_TRUE(replies[1].replied);
  replies = Exchange({{sp.a(), ShardMessageType::kPing}}, &reply,
                     RecordAcks(&acked));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].status.ok());
  EXPECT_EQ(acked, (std::vector<uint64_t>{1, 2}));
  peer.join();
}

TEST(ExchangeTest, LostConnectionIsNeverReadAgainWhileOthersAre) {
  // A reply with a bad checksum, or of a type its request does not
  // expect, loses its connection: its later request reports lost and
  // its reply stays unread, while the other connection's replies are
  // still read.
  for (const bool bad_crc : {true, false}) {
    SCOPED_TRACE(bad_crc ? "bad checksum" : "unexpected frame type");
    SocketPair lost, kept;
    for (SocketPair* sp : {&lost, &kept}) {  // Fail, not hang, on a bug.
      SetShardSocketTimeout(sp->a(), 10);
      SetShardSocketTimeout(sp->b(), 10);
    }
    ShardFrame request;
    std::vector<uint64_t> acked;
    std::thread peers([&] {
      ASSERT_TRUE(RecvFrame(lost.b(), &request).ok());
      ASSERT_TRUE(RecvFrame(lost.b(), &request).ok());
      if (bad_crc) {
        FrameCrc crc;
        ASSERT_TRUE(
            SendFrameHeader(lost.b(), ShardMessageType::kAck, 16, &crc).ok());
        const std::vector<uint8_t> ack = EncodeShardAck({1, 0});
        ASSERT_TRUE(WriteFull(lost.b(), ack.data(), ack.size()).ok());
        ASSERT_TRUE(SendFrameTrailer(lost.b(), crc).ok());  // Not folded.
      } else {
        ASSERT_TRUE(
            SendFrame(lost.b(), ShardMessageType::kNotify, nullptr, 0).ok());
      }
      ReplyAck(lost.b(), 2);  // Answers the second request; never read.
      for (uint64_t i = 3; i < 5; ++i) {
        ASSERT_TRUE(RecvFrame(kept.b(), &request).ok());
        ReplyAck(kept.b(), i);
      }
    });
    ShardFrame reply;
    const std::vector<ShardReply> replies =
        Exchange({{lost.a(), ShardMessageType::kFlush},
                  {kept.a(), ShardMessageType::kFlush},
                  {lost.a(), ShardMessageType::kFlush},
                  {kept.a(), ShardMessageType::kFlush}},
                 &reply, RecordAcks(&acked));
    peers.join();
    ASSERT_EQ(replies.size(), 4u);
    EXPECT_TRUE(replies[0].lost);
    EXPECT_FALSE(replies[0].status.ok());
    EXPECT_TRUE(replies[2].lost);
    EXPECT_EQ(replies[2].status.code(), replies[0].status.code());
    EXPECT_TRUE(replies[1].status.ok());
    EXPECT_TRUE(replies[3].status.ok());
    EXPECT_EQ(acked, (std::vector<uint64_t>{3, 4}));
    // The lost connection's second reply is still queued, unread.
    ASSERT_TRUE(RecvFrame(lost.a(), &reply).ok());
    EXPECT_EQ(reply.type, ShardMessageType::kAck);
  }
}

TEST(ExchangeTest, ClosedPeerIsReportedLostWithoutBlocking) {
  SocketPair sp;
  sp.CloseB();
  ShardFrame reply;
  const std::vector<ShardReply> replies =
      Exchange({{sp.a(), ShardMessageType::kPing},
                {sp.a(), ShardMessageType::kPing},
                {-1, ShardMessageType::kPing}},
               &reply, nullptr);
  ASSERT_EQ(replies.size(), 3u);
  for (const ShardReply& r : replies) {
    EXPECT_TRUE(r.lost);
    EXPECT_EQ(r.status.code(), StatusCode::kIoError);
  }
}

TEST(ExchangeTest, SendsEveryRequestBeforeReadingAnyReply) {
  // Two peers that each answer only once BOTH have their request: a
  // loop that sent one request and read its reply before sending the
  // next would wait forever. Receive deadlines on every socket bound
  // the test if that ever regresses.
  SocketPair first, second;
  for (SocketPair* sp : {&first, &second}) {
    SetShardSocketTimeout(sp->a(), 10);
    SetShardSocketTimeout(sp->b(), 10);
  }
  std::mutex mu;
  std::condition_variable cv;
  int received = 0;
  const auto peer = [&](int fd, uint64_t value) {
    ShardFrame request;
    ASSERT_TRUE(RecvFrame(fd, &request).ok());
    std::unique_lock<std::mutex> lock(mu);
    ++received;
    cv.notify_all();
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return received == 2; }));
    lock.unlock();
    ReplyAck(fd, value);
  };
  std::thread p1(peer, first.b(), 1);
  std::thread p2(peer, second.b(), 2);
  ShardFrame reply;
  std::vector<uint64_t> acked;
  const std::vector<ShardReply> replies =
      Exchange({{first.a(), ShardMessageType::kFlush},
                {second.a(), ShardMessageType::kFlush}},
               &reply, RecordAcks(&acked));
  p1.join();
  p2.join();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].status.ok()) << replies[0].status.ToString();
  EXPECT_TRUE(replies[1].status.ok()) << replies[1].status.ToString();
  EXPECT_EQ(acked, (std::vector<uint64_t>{1, 2}));
}

// ---- Payload codecs -------------------------------------------------------

TEST(ShardProtocolTest, ConfigPayloadRoundTrips) {
  ShardConfig in;
  in.config.num_nodes = 1234;
  in.config.seed = 99;
  in.config.cols = 9;
  in.config.rounds = 17;
  in.config.num_workers = 3;
  in.config.buffering = GraphZeppelinConfig::Buffering::kGutterTree;
  in.config.storage = GraphZeppelinConfig::Storage::kDisk;
  in.config.gutter_fraction = 0.25;
  in.config.nodes_per_gutter_group = 4;
  in.config.disk_dir = "/tmp/somewhere";
  in.config.gutter_tree_buffer_bytes = 1 << 20;
  in.config.gutter_tree_fanout = 32;
  in.shard_id = 7;
  in.replication = 4;
  in.restore_checkpoint = "/tmp/ckpt.bin";
  in.delta_seq = 12;

  const std::vector<uint8_t> bytes = EncodeShardConfig(in);
  ShardConfig out;
  ASSERT_TRUE(DecodeShardConfig(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.shard_id, 7);
  EXPECT_EQ(out.replication, 4u);
  EXPECT_EQ(out.config.num_nodes, in.config.num_nodes);
  EXPECT_EQ(out.config.seed, in.config.seed);
  EXPECT_EQ(out.config.cols, in.config.cols);
  EXPECT_EQ(out.config.rounds, in.config.rounds);
  EXPECT_EQ(out.config.num_workers, in.config.num_workers);
  EXPECT_EQ(out.config.buffering, in.config.buffering);
  EXPECT_EQ(out.config.storage, in.config.storage);
  EXPECT_EQ(out.config.gutter_fraction, in.config.gutter_fraction);
  EXPECT_EQ(out.config.nodes_per_gutter_group,
            in.config.nodes_per_gutter_group);
  EXPECT_EQ(out.config.disk_dir, in.config.disk_dir);
  EXPECT_EQ(out.config.gutter_tree_buffer_bytes,
            in.config.gutter_tree_buffer_bytes);
  EXPECT_EQ(out.config.gutter_tree_fanout, in.config.gutter_tree_fanout);
  EXPECT_EQ(out.restore_checkpoint, in.restore_checkpoint);
  EXPECT_EQ(out.delta_seq, 12u);
  // A delta sequence number describes a restored checkpoint: a fresh
  // start with one is refused.
  {
    ShardConfig fresh = in;
    fresh.restore_checkpoint.clear();
    const std::vector<uint8_t> enc = EncodeShardConfig(fresh);
    EXPECT_EQ(DecodeShardConfig(enc.data(), enc.size(), &out).code(),
              StatusCode::kInvalidArgument);
    fresh.delta_seq = 0;
    const std::vector<uint8_t> zero = EncodeShardConfig(fresh);
    EXPECT_TRUE(DecodeShardConfig(zero.data(), zero.size(), &out).ok());
  }
  // The replication factor feeds reader-side replica grouping (it comes
  // back in STATS_EX), so the decoder bounds it to [1, kMaxReplication].
  for (const uint32_t bad : {0u, RoutingTable::kMaxReplication + 1}) {
    ShardConfig garbled = in;
    garbled.replication = bad;
    const std::vector<uint8_t> enc = EncodeShardConfig(garbled);
    EXPECT_EQ(DecodeShardConfig(enc.data(), enc.size(), &out).code(),
              StatusCode::kInvalidArgument)
        << "replication " << bad << " was accepted";
  }
}

TEST(ShardProtocolTest, TruncatedConfigPayloadIsInvalidArgument) {
  ShardConfig in;
  in.config.num_nodes = 64;
  const std::vector<uint8_t> bytes = EncodeShardConfig(in);
  ShardConfig out;
  for (size_t cut : {0ul, 1ul, 8ul, bytes.size() - 1}) {
    EXPECT_EQ(DecodeShardConfig(bytes.data(), cut, &out).code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too (framing gave the exact length).
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(DecodeShardConfig(padded.data(), padded.size(), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, AckAndErrorPayloadsRoundTrip) {
  ShardAck ack;
  ack.value0 = 42;
  ack.value1 = 7;
  const std::vector<uint8_t> ack_bytes = EncodeShardAck(ack);
  ShardAck ack_out;
  ASSERT_TRUE(DecodeShardAck(ack_bytes.data(), ack_bytes.size(), &ack_out)
                  .ok());
  EXPECT_EQ(ack_out.value0, 42u);
  EXPECT_EQ(ack_out.value1, 7u);
  EXPECT_EQ(DecodeShardAck(ack_bytes.data(), 3, &ack_out).code(),
            StatusCode::kInvalidArgument);

  const Status err = Status::NotFound("no such checkpoint");
  const std::vector<uint8_t> err_bytes = EncodeShardError(err);
  bool decode_ok = false;
  const Status decoded =
      DecodeShardError(err_bytes.data(), err_bytes.size(), &decode_ok);
  EXPECT_TRUE(decode_ok);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_NE(decoded.message().find("no such checkpoint"),
            std::string::npos);
  const Status bad = DecodeShardError(err_bytes.data(), 2, &decode_ok);
  EXPECT_FALSE(decode_ok);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---- Shard-side conformance (a listener session over a socketpair) --------

class ShardServerFixture : public ::testing::Test {
 protected:
  // Runs a listener session on the b side — ServerHandshake, then
  // ShardServer::Serve() in the role the client declared, the two calls
  // ShardListener's RunSession makes — and, by default, completes the
  // client handshake on the a side so tests exercise an established
  // session. Pass handshake=false to poke at the pre-auth state. Each
  // start serves a fresh instance, as a fresh listener would.
  void StartServer(bool handshake = true, const std::string& secret = "") {
    state_ = std::make_unique<ShardInstanceState>();
    server_thread_ = std::thread([this, secret, state = state_.get()] {
      ShardSessionRole role = ShardSessionRole::kWriter;
      serve_status_ = ServerHandshake(sp_.b(), secret, &role);
      if (serve_status_.ok()) {
        serve_status_ = ShardServer(sp_.b(), state, role).Serve();
      }
    });
    if (handshake) {
      ASSERT_TRUE(ClientHandshake(sp_.a(), secret).ok());
    }
  }
  void StopServer() {
    if (!stopped_) {
      SendFrame(sp_.a(), ShardMessageType::kShutdown, nullptr, 0);
      ShardFrame frame;
      RecvFrame(sp_.a(), &frame);  // Drain the shutdown ack.
    }
    if (server_thread_.joinable()) server_thread_.join();
    stopped_ = true;
  }
  void TearDown() override { StopServer(); }

  // The CONFIG payload of shard 0 of an unreplicated cluster.
  static ShardConfig ConfigFor(uint64_t num_nodes,
                               const std::string& restore_checkpoint) {
    ShardConfig sc;
    sc.config.num_nodes = num_nodes;
    sc.config.seed = 5;
    sc.config.num_workers = 1;
    sc.config.disk_dir = ::testing::TempDir();
    sc.shard_id = 0;
    sc.restore_checkpoint = restore_checkpoint;
    return sc;
  }

  // Sends a valid config; expects the ack.
  void Configure(uint64_t num_nodes = 16,
                 const std::string& restore_checkpoint = "") {
    const std::vector<uint8_t> payload =
        EncodeShardConfig(ConfigFor(num_nodes, restore_checkpoint));
    ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig,
                          payload.data(), payload.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kAck);
  }

  // Frames `bytes` as an UPDATE_BATCH (a bare NodeUpdate slab).
  void SendUpdateBatch(const void* bytes, size_t size) {
    ASSERT_TRUE(
        SendFrame(sp_.a(), ShardMessageType::kUpdateBatch, bytes, size).ok());
  }

  // Expects the next reply to be a kError decoding to `code`.
  void ExpectErrorReply(StatusCode code) {
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kError);
    bool decode_ok = false;
    const Status s =
        DecodeShardError(frame.payload.data(), frame.payload.size(),
                         &decode_ok);
    EXPECT_TRUE(decode_ok);
    EXPECT_EQ(s.code(), code);
  }

  SocketPair sp_;
  std::unique_ptr<ShardInstanceState> state_;
  std::thread server_thread_;
  Status serve_status_;
  bool stopped_ = false;
};

TEST_F(ShardServerFixture, RequestBeforeConfigIsErrorNotCrash) {
  StartServer();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  // The server survived; configure and use it normally.
  Configure();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kStatsReply);
}

TEST_F(ShardServerFixture, MalformedConfigPayloadIsErrorNotCrash) {
  StartServer();
  const uint8_t garbage[7] = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, garbage,
                        sizeof(garbage))
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  Configure();  // Still serving.
}

TEST_F(ShardServerFixture, RaggedUpdateBatchErrorIsStickyAcrossBarriers) {
  // UPDATE_BATCH is fire-and-forget: an unsolicited error reply would
  // shift every later reply by one, so the failure surfaces as the
  // reply to later barriers instead — and stays sticky, because a
  // dropped batch is permanent divergence. If one barrier consumed the
  // error, a retried CHECKPOINT would succeed and the coordinator
  // would truncate the unacked log that is the only repair material.
  StartServer();
  Configure();
  const uint8_t ragged[13] = {0};  // Not a multiple of sizeof(NodeUpdate).
  SendUpdateBatch(ragged, sizeof(ragged));
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kCheckpoint, "x", 1).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);  // Still poisoned.
  // Pings still ack (liveness is intact; only the data is suspect) and
  // the reply stream stays 1:1.
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
}

TEST_F(ShardServerFixture, V11UpdateBatchIsRaggedAndDeferred) {
  // A v11 UPDATE_BATCH carried 12-byte GraphUpdates; one of them is not
  // a whole number of 8-byte node updates, so it is dropped and the
  // error deferred to the next barrier.
  StartServer();
  Configure();
  const GraphUpdate v11{Edge(0, 1), UpdateType::kInsert};
  static_assert(sizeof(v11) % sizeof(NodeUpdate) != 0);
  SendUpdateBatch(&v11, sizeof(v11));
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, MalformedNodeUpdatesAreDeferredNotApplied) {
  // A self-loop, or a node or other id >= num_nodes, would GZ_CHECK-abort
  // if ingested. Each drops its whole batch (the valid item in front of
  // it included) and poisons the barriers; the shard keeps serving and
  // its instance ingested nothing.
  const NodeUpdate bad_items[] = {{5, 5}, {16, 3}, {3, 16}};
  for (const NodeUpdate& bad : bad_items) {
    sp_.Reset();  // A fresh instance per item.
    stopped_ = false;
    StartServer();
    Configure(/*num_nodes=*/16);
    const NodeUpdate batch[2] = {{0, 1}, bad};
    SendUpdateBatch(batch, sizeof(batch));
    ASSERT_TRUE(
        SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
    ExpectErrorReply(StatusCode::kInvalidArgument);
    ASSERT_TRUE(
        SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    EXPECT_EQ(frame.type, ShardMessageType::kAck);
    StopServer();  // The join orders the read below after the session.
    EXPECT_EQ(state_->gz->num_updates_ingested(), 0u);
  }
}

TEST_F(ShardServerFixture, OutOfRangeUpdateDropsBatchAndPoisonsBarriers) {
  StartServer();
  Configure(/*num_nodes=*/16);
  // other >= num_nodes; would GZ_CHECK-abort if ingested.
  const NodeUpdate bad{3, 99};
  SendUpdateBatch(&bad, sizeof(bad));
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);  // Sticky.
  // The read-only frames are gated too: a diverged shard donates no
  // state.
  const std::vector<uint8_t> req = EncodeMigrateExtract(0, 16, 0, 1);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        req.data(), req.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, UpdateBatchBeforeConfigDefersErrorToo) {
  // Even "shard not configured" must not draw an unsolicited reply to
  // a fire-and-forget frame — the reply stream would shift by one.
  StartServer();
  const NodeUpdate u{0, 1};
  SendUpdateBatch(&u, sizeof(u));
  Configure();  // Acks normally: the drop above queued no reply.
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);  // Deferred drop.
}

TEST_F(ShardServerFixture, OutOfRangeConfigIsErrorNotCrash) {
  // Structurally valid payload, semantically impossible geometry: the
  // decoder must bounce it before GraphZeppelin's GZ_CHECKs can abort
  // the worker.
  StartServer();
  ShardConfig sc;
  sc.config.num_nodes = 16;
  sc.config.cols = 0;  // Would abort sketch construction.
  sc.config.disk_dir = ::testing::TempDir();
  const std::vector<uint8_t> payload = EncodeShardConfig(sc);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, payload.data(),
                        payload.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  Configure();  // Still serving; a sane config succeeds.
}

TEST_F(ShardServerFixture, EmptyCheckpointPathIsErrorNotCrash) {
  StartServer();
  Configure();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kCheckpoint, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, UnwritableCheckpointPathIsErrorNotCrash) {
  StartServer();
  Configure();
  const char path[] = "/nonexistent-dir/ckpt.bin";
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kCheckpoint, path,
                        sizeof(path) - 1)
                  .ok());
  ExpectErrorReply(StatusCode::kIoError);
}

TEST_F(ShardServerFixture, ReplyTypeFrameOnRequestStreamIsError) {
  StartServer();
  Configure();
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kAck, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, BadMagicTerminatesServeWithErrorReply) {
  StartServer(/*handshake=*/false);
  WriteRawHeader(sp_.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 /*magic=*/0x12345678);
  // Framing is lost: the shard sends a best-effort error and exits its
  // loop with a non-OK status (a crash would be a test failure here).
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, VersionMismatchTerminatesServeWithErrorReply) {
  StartServer(/*handshake=*/false);
  WriteRawHeader(sp_.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 ShardFrameHeader::kMagic,
                 /*version=*/ShardFrameHeader::kVersion + 1);
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, CoordinatorHangupEndsServeCleanly) {
  StartServer();
  Configure();
  sp_.CloseA();
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_EQ(serve_status_.code(), StatusCode::kIoError);
  stopped_ = true;
}

// ---- Elastic-resharding conformance ---------------------------------------

TEST_F(ShardServerFixture, TruncatedMigrateExtractPayloadIsErrorNotCrash) {
  StartServer();
  Configure();
  const uint8_t short_payload[7] = {0};  // Needs two u64s, two i32s, a u32.
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        short_payload, sizeof(short_payload))
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, OutOfBoundsMigrateRangeIsErrorNotCrash) {
  StartServer();
  Configure(/*num_nodes=*/16);
  const std::vector<uint8_t> req = EncodeMigrateExtract(4, 99, 0, 1);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        req.data(), req.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  const std::vector<uint8_t> empty = EncodeMigrateExtract(4, 4, 0, 1);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        empty.data(), empty.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, MigrateExtractDecoderRefusesEmptyAndReversedWindows) {
  uint64_t lo = 0, hi = 0;
  int32_t r_lo = 0, r_hi = 0;
  RoundPart part = RoundPart::kSummary;
  const std::vector<uint8_t> good = EncodeMigrateExtract(2, 9, 1, 3);
  ASSERT_TRUE(DecodeMigrateExtract(good.data(), good.size(), &lo, &hi, &r_lo,
                                   &r_hi, &part)
                  .ok());
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 9u);
  EXPECT_EQ(r_lo, 1);
  EXPECT_EQ(r_hi, 3);
  for (const auto& [w_lo, w_hi] : {std::pair<int32_t, int32_t>{3, 3},
                                   std::pair<int32_t, int32_t>{3, 1},
                                   std::pair<int32_t, int32_t>{-1, 2}}) {
    const std::vector<uint8_t> bad = EncodeMigrateExtract(0, 4, w_lo, w_hi);
    EXPECT_EQ(DecodeMigrateExtract(bad.data(), bad.size(), &lo, &hi, &r_lo,
                                   &r_hi, &part)
                  .code(),
              StatusCode::kInvalidArgument)
        << "[" << w_lo << ", " << w_hi << ")";
  }
}

TEST(ShardProtocolTest, MigrateExtractCarriesItsPartAndRefusesUnknownOnes) {
  uint64_t lo = 0, hi = 0;
  int32_t r_lo = 0, r_hi = 0;
  RoundPart part = RoundPart::kWhole;
  const std::vector<uint8_t> summary =
      EncodeMigrateExtract(2, 9, 1, 3, RoundPart::kSummary);
  ASSERT_TRUE(DecodeMigrateExtract(summary.data(), summary.size(), &lo, &hi,
                                   &r_lo, &r_hi, &part)
                  .ok());
  EXPECT_EQ(part, RoundPart::kSummary);
  // The part is the payload's last u32, after the round window.
  for (const uint32_t unknown : {2u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> bad = summary;
    std::memcpy(bad.data() + bad.size() - 4, &unknown, 4);
    EXPECT_EQ(DecodeMigrateExtract(bad.data(), bad.size(), &lo, &hi, &r_lo,
                                   &r_hi, &part)
                  .code(),
              StatusCode::kInvalidArgument)
        << "part " << unknown;
  }
  // A v9 payload, without the part, is truncated.
  EXPECT_EQ(DecodeMigrateExtract(summary.data(), summary.size() - 4, &lo, &hi,
                                 &r_lo, &r_hi, &part)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, UnknownPartIsRefusedBeforeAnyReplyBytes) {
  // MIGRATE_EXTRACT naming a part this build does not know gets an
  // InvalidArgument error reply, never a MIGRATE_DATA frame, and the
  // session keeps serving: the next reply is the summary range asked
  // for.
  StartServer();
  Configure(/*num_nodes=*/16);
  const int rounds = NodeSketch::DefaultRounds(16);
  std::vector<uint8_t> bad =
      EncodeMigrateExtract(0, 16, 0, rounds, RoundPart::kSummary);
  const uint32_t unknown = 7;
  std::memcpy(bad.data() + bad.size() - 4, &unknown, 4);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        bad.data(), bad.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  const std::vector<uint8_t> good =
      EncodeMigrateExtract(0, 16, 1, rounds, RoundPart::kSummary);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        good.data(), good.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kMigrateData);
  NodeSketchParams params;
  params.num_nodes = 16;
  params.seed = 5;
  params.rounds = rounds;
  EXPECT_EQ(frame.payload.size(),
            GraphSnapshot::SerializedSizeFor(params, 0, 16, 1, rounds,
                                             RoundPart::kSummary));
  EXPECT_EQ(frame.payload.size(), GraphSnapshot::kHeaderBytes +
                                      16 * (rounds - 1) *
                                          GraphSnapshot::kSummaryBytes);
}

TEST_F(ShardServerFixture, SummaryExtractIsTheWholeExtractsBuckets) {
  // The shard's summary reply holds, per node and round, the
  // deterministic bucket of the same round in its whole reply.
  StartServer();
  Configure(/*num_nodes=*/16);
  const NodeUpdate updates[6] = {{0, 1},  {1, 0},  {1, 9},
                                 {9, 1}, {12, 15}, {15, 12}};
  SendUpdateBatch(updates, sizeof(updates));
  const int rounds = NodeSketch::DefaultRounds(16);
  const auto extract = [this, rounds](RoundPart part) {
    const std::vector<uint8_t> req =
        EncodeMigrateExtract(0, 16, 0, rounds, part);
    GZ_CHECK_OK(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                          req.data(), req.size()));
    ShardFrame frame;
    GZ_CHECK_OK(RecvFrame(sp_.a(), &frame));
    GZ_CHECK(frame.type == ShardMessageType::kMigrateData);
    return frame.payload;
  };
  const std::vector<uint8_t> whole = extract(RoundPart::kWhole);
  const std::vector<uint8_t> summary = extract(RoundPart::kSummary);
  const GraphSnapshot snap =
      GraphSnapshot::Deserialize(whole.data(), whole.size()).value();
  const size_t round_bytes = snap.layout().round_bytes();
  const size_t det = snap.layout().det_offset();
  const uint8_t* records = whole.data() + GraphSnapshot::kHeaderBytes;
  int nonzero = 0;
  ASSERT_TRUE(
      GraphSnapshot::FoldSerialized(
          summary.data(), summary.size(), snap.params(), 0, rounds,
          [&](NodeId i, const uint8_t* record) {
            for (int r = 0; r < rounds; ++r) {
              const uint8_t* want =
                  records + i * snap.layout().record_bytes() +
                  r * round_bytes + det;
              const uint8_t* got = record + r * GraphSnapshot::kSummaryBytes;
              EXPECT_EQ(std::memcmp(got, want, GraphSnapshot::kSummaryBytes),
                        0)
                  << "node " << i << " round " << r;
              nonzero += got[0] != 0;
            }
          },
          RoundPart::kSummary)
          .ok());
  EXPECT_GT(nonzero, 0);
}

TEST_F(ShardServerFixture, BadRoundWindowIsRefusedBeforeAnyReplyBytes) {
  // An empty, reversed or past-the-budget round window is an
  // InvalidArgument error reply: the shard never sizes (or allocates) a
  // reply for it, and the session keeps serving.
  StartServer();
  Configure(/*num_nodes=*/16);
  const int rounds = NodeSketch::DefaultRounds(16);
  for (const auto& [w_lo, w_hi] :
       {std::pair<int32_t, int32_t>{2, 2}, std::pair<int32_t, int32_t>{3, 1},
        std::pair<int32_t, int32_t>{0, rounds + 1},
        std::pair<int32_t, int32_t>{rounds, rounds + 1},
        std::pair<int32_t, int32_t>{0, INT32_MAX}}) {
    const std::vector<uint8_t> req = EncodeMigrateExtract(0, 16, w_lo, w_hi);
    ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                          req.data(), req.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kError)
        << "[" << w_lo << ", " << w_hi << ")";
    bool decode_ok = false;
    const Status refused = DecodeShardError(
        frame.payload.data(), frame.payload.size(), &decode_ok);
    ASSERT_TRUE(decode_ok);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
  }
  // The last round alone is a valid window, sized as one round per node.
  const std::vector<uint8_t> last =
      EncodeMigrateExtract(0, 16, rounds - 1, rounds);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        last.data(), last.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kMigrateData);
  NodeSketchParams params;
  params.num_nodes = 16;
  params.seed = 5;
  params.rounds = rounds;
  EXPECT_EQ(frame.payload.size(), GraphSnapshot::SerializedSizeFor(
                                      params, 0, 16, rounds - 1, rounds));
}

TEST_F(ShardServerFixture, TruncatedMergeDeltaPayloadIsErrorNotCrash) {
  StartServer();
  Configure();
  const uint8_t garbage[21] = {0};
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMergeDelta, garbage,
                        sizeof(garbage))
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, MigrateExtractRoundTripsThroughMergeDelta) {
  // The migration algebra over the wire: extracting [0, k) and [k, n)
  // and folding both ranges into an empty same-params instance must
  // reproduce the source's snapshot — itself the extract of [0, n) —
  // exactly.
  StartServer();
  Configure(/*num_nodes=*/16);
  const NodeUpdate updates[6] = {{0, 1},  {1, 0},  {1, 9},
                                 {9, 1}, {12, 15}, {15, 12}};
  SendUpdateBatch(updates, sizeof(updates));

  auto request_snapshot = [this](GraphSnapshot* out) {
    const std::vector<uint8_t> req = EncodeMigrateExtract(
        0, 16, 0, NodeSketch::DefaultRounds(16));
    ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                          req.data(), req.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kMigrateData);
    Result<GraphSnapshot> r =
        GraphSnapshot::Deserialize(frame.payload.data(),
                                   frame.payload.size());
    ASSERT_TRUE(r.ok());
    *out = std::move(r).value();
  };
  GraphSnapshot source;
  request_snapshot(&source);
  EXPECT_EQ(source.num_updates(), 6u);  // Node updates.

  GraphZeppelinConfig twin_config;
  twin_config.num_nodes = 16;
  twin_config.seed = 5;
  twin_config.num_workers = 1;
  twin_config.disk_dir = ::testing::TempDir();
  GraphZeppelin twin(twin_config);
  ASSERT_TRUE(twin.Init().ok());
  for (const uint64_t range : {0u, 1u}) {
    const int rounds = NodeSketch::DefaultRounds(16);
    const std::vector<uint8_t> req = range == 0
                                         ? EncodeMigrateExtract(0, 7, 0, rounds)
                                         : EncodeMigrateExtract(7, 16, 0, rounds);
    ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                          req.data(), req.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kMigrateData);
    ASSERT_TRUE(
        twin.MergeSerialized(frame.payload.data(), frame.payload.size())
            .ok());
  }
  const GraphSnapshot rebuilt = twin.Snapshot();
  // Range folds never touch update counts; compare sketch content.
  EXPECT_EQ(rebuilt.num_updates(), 0u);
  EXPECT_TRUE(SameSketchContent(rebuilt, source));
}

// Reads a whole file into memory.
std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return bytes;
  for (int c; (c = std::fgetc(in)) != EOF;) {
    bytes.push_back(static_cast<uint8_t>(c));
  }
  std::fclose(in);
  return bytes;
}

TEST_F(ShardServerFixture, PrefixedCheckpointLeavesShardUnconfigured) {
  // A shard checkpoint is a plain GraphSnapshot file. Older builds put
  // a header in front of the snapshot: v7 a 16-byte GZSCKP02 one (magic,
  // delta sequence), v6 a 24-byte GZSCKP01 one (magic, routing epoch,
  // delta sequence). Restoring either must be refused with
  // InvalidArgument before any state is adopted; the plain file they
  // wrap restores.
  StartServer();
  Configure(/*num_nodes=*/16);
  const NodeUpdate u{0, 1};
  SendUpdateBatch(&u, sizeof(u));
  const std::string plain = ::testing::TempDir() + "/gz_v8_ckpt.bin";
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kCheckpoint, plain.data(),
                        plain.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kAck);
  StopServer();

  const std::vector<uint8_t> bytes = ReadFileBytes(plain);
  ASSERT_GT(bytes.size(), GraphSnapshot::kHeaderBytes);
  ASSERT_EQ(std::memcmp(bytes.data(), "GZSNAP05", 8), 0);
  std::vector<std::string> prefixed;
  for (const auto& [magic, prefix_bytes] :
       {std::pair<const char*, size_t>{"GZSCKP02", 16},
        std::pair<const char*, size_t>{"GZSCKP01", 24}}) {
    std::vector<uint8_t> old(prefix_bytes, 0);
    std::memcpy(old.data(), magic, 8);
    old.insert(old.end(), bytes.begin(), bytes.end());
    const std::string path =
        ::testing::TempDir() + "/gz_" + magic + "_ckpt.bin";
    FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(old.data(), 1, old.size(), out), old.size());
    ASSERT_EQ(std::fclose(out), 0);
    prefixed.push_back(path);
  }

  sp_.Reset();
  stopped_ = false;
  StartServer();
  for (const std::string& path : prefixed) {
    const std::vector<uint8_t> payload =
        EncodeShardConfig(ConfigFor(/*num_nodes=*/16, path));
    ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, payload.data(),
                          payload.size())
                    .ok());
    ExpectErrorReply(StatusCode::kInvalidArgument);
    // Still unconfigured: no request past CONFIG is served.
    ASSERT_TRUE(
        SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
    ExpectErrorReply(StatusCode::kFailedPrecondition);
    ::unlink(path.c_str());
  }
  // The plain file restores on the same server, at the saved position.
  Configure(/*num_nodes=*/16, plain);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(), frame.payload.size(),
                                 &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 1u);
  ::unlink(plain.c_str());
}

TEST_F(ShardServerFixture, RestoreAdoptsTheDeltaSequenceConfigCarries) {
  // The checkpoint file holds the stream position (its GZSNAP05 update
  // count); the delta sequence number it covers comes from CONFIG,
  // which the coordinator fills from the checkpoint's ack.
  // Positions count node updates: these are two.
  StartServer();
  Configure(/*num_nodes=*/16);
  const NodeUpdate updates[2] = {{0, 1}, {5, 2}};
  SendUpdateBatch(updates, sizeof(updates));
  const std::string path = ::testing::TempDir() + "/gz_delta_seq_ckpt.bin";
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kCheckpoint, path.data(),
                        path.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kAck);
  StopServer();
  // The file is a plain snapshot: any GraphSnapshot reader loads it.
  Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_updates(), 2u);

  sp_.Reset();
  stopped_ = false;
  StartServer();
  ShardConfig sc = ConfigFor(/*num_nodes=*/16, path);
  sc.delta_seq = 5;
  const std::vector<uint8_t> payload = EncodeShardConfig(sc);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, payload.data(),
                        payload.size())
                  .ok());
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kAck);
  ShardAck ack;
  ASSERT_TRUE(
      DecodeShardAck(frame.payload.data(), frame.payload.size(), &ack).ok());
  EXPECT_EQ(ack.value0, 2u);
  EXPECT_EQ(ack.value1, 5u);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(), frame.payload.size(),
                                 &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 2u);
  EXPECT_EQ(stats.delta_seq, 5u);
  ::unlink(path.c_str());
}

// ---- Frame-corruption conformance sweep -----------------------------------

// Serializes one whole frame (header + payload + trailer) through the
// real send path.
std::vector<uint8_t> FrameBytes(ShardMessageType type,
                                const std::vector<uint8_t>& payload) {
  SocketPair sp;
  EXPECT_TRUE(
      SendFrame(sp.a(), type, payload.data(), payload.size()).ok());
  std::vector<uint8_t> bytes(ShardFrameHeader::kBytes + payload.size() +
                             ShardFrameHeader::kCrcBytes);
  EXPECT_TRUE(ReadFull(sp.b(), bytes.data(), bytes.size()).ok());
  return bytes;
}

// A representative payload per v3 frame type: real codec output where
// one exists, so the sweep corrupts exactly the bytes production
// frames carry.
std::vector<uint8_t> RepresentativePayload(ShardMessageType type) {
  switch (type) {
    case ShardMessageType::kConfig: {
      ShardConfig sc;
      sc.config.num_nodes = 64;
      sc.config.disk_dir = "/tmp/x";
      return EncodeShardConfig(sc);
    }
    case ShardMessageType::kUpdateBatch: {
      std::vector<uint8_t> payload(sizeof(NodeUpdate));
      const NodeUpdate u{0, 1};
      std::memcpy(payload.data(), &u, sizeof(u));
      return payload;
    }
    case ShardMessageType::kCheckpoint: {
      const std::string path = "/tmp/ckpt.bin";
      return std::vector<uint8_t>(path.begin(), path.end());
    }
    case ShardMessageType::kAck:
      return EncodeShardAck(ShardAck{42, 7});
    case ShardMessageType::kMigrateData: {
      // A windowed range, as a reader pull carries: nodes [0, 2) x
      // rounds [1, 3) of a 4-round graph.
      NodeSketchParams params;
      params.num_nodes = 8;
      params.seed = 5;
      params.cols = 2;
      params.rounds = 4;
      std::vector<uint8_t> bytes;
      GZ_CHECK_OK(GraphSnapshot::SaveToSink(
          [&bytes](const void* data, size_t size) {
            const uint8_t* p = static_cast<const uint8_t*>(data);
            bytes.insert(bytes.end(), p, p + size);
            return Status::Ok();
          },
          params, 0, 2, 1, 3, 9, [&params](NodeId, uint8_t* record) {
            std::memset(record, 0xA5,
                        NodeSketch::SerializedSizeFor(params) / 2);
          }));
      return bytes;
    }
    case ShardMessageType::kMergeDelta:
      return std::vector<uint8_t>(48, 0xA5);  // Opaque snapshot bytes.
    case ShardMessageType::kError:
      return EncodeShardError(Status::NotFound("x"));
    case ShardMessageType::kMigrateExtract:
      return EncodeMigrateExtract(0, 32, 1, 3);  // A reader's window.
    case ShardMessageType::kHello:
      return std::vector<uint8_t>(kHandshakeNonceBytes, 0x11);
    case ShardMessageType::kChallenge:
      return std::vector<uint8_t>(kHandshakeNonceBytes + kSha256Bytes, 0x22);
    case ShardMessageType::kAuth:
      return std::vector<uint8_t>(kSha256Bytes, 0x33);
    case ShardMessageType::kStatsReply: {
      ShardStatsEx stats;
      stats.shard_id = 2;
      stats.num_updates = 1234;
      stats.delta_seq = 3;
      stats.ram_bytes = 1 << 20;
      stats.num_nodes = 64;
      stats.seed = 5;
      stats.cols = 4;
      stats.rounds = 12;
      return EncodeShardStatsEx(stats);
    }
    default:
      // kFlush/kStatsEx/kPing/kShutdown: empty.
      return {};
  }
}

TEST(ShardProtocolTest, EveryByteFlipOfEveryFrameTypeIsACleanStatus) {
  // The integrity claim, pinned exhaustively: flip each byte of
  // every frame type — header, payload, trailer — and the receiver
  // must return a Status (checksum or decode error). Never a crash,
  // and NEVER an accepted frame: any accepted flip would mean a
  // corruption the protocol cannot see.
  for (uint16_t t = static_cast<uint16_t>(ShardMessageType::kConfig);
       t <= static_cast<uint16_t>(ShardMessageType::kStatsReply); ++t) {
    if (Retired(t)) continue;
    const ShardMessageType type = static_cast<ShardMessageType>(t);
    const std::vector<uint8_t> good = FrameBytes(type,
                                                 RepresentativePayload(type));
    // Sanity: the uncorrupted frame is accepted.
    {
      SocketPair sp;
      ASSERT_TRUE(WriteFull(sp.a(), good.data(), good.size()).ok());
      sp.CloseA();
      ShardFrame frame;
      ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok()) << "type " << t;
      EXPECT_EQ(frame.type, type);
    }
    for (size_t i = 0; i < good.size(); ++i) {
      std::vector<uint8_t> corrupt = good;
      corrupt[i] ^= 0x5A;
      SocketPair sp;
      ASSERT_TRUE(WriteFull(sp.a(), corrupt.data(), corrupt.size()).ok());
      // EOF after the frame: a flip in the length field must surface
      // as a short read, not hang waiting for bytes that never come.
      sp.CloseA();
      ShardFrame frame;
      const Status s = RecvFrame(sp.b(), &frame);
      EXPECT_FALSE(s.ok()) << "type " << t << ", flipped byte " << i
                           << " was ACCEPTED";
    }
  }
}

TEST_F(ShardServerFixture, CorruptedFrameFencesTheServerConnection) {
  // Server side of the same property: one corrupted byte in an
  // established session is a lost-framing event — error reply
  // (best-effort), Serve() exits with a Status, no crash, and the
  // poisoned frame was never acted on.
  StartServer();
  Configure(/*num_nodes=*/16);
  const NodeUpdate u{0, 1};
  std::vector<uint8_t> payload(sizeof(u));
  std::memcpy(payload.data(), &u, sizeof(u));
  std::vector<uint8_t> bytes =
      FrameBytes(ShardMessageType::kUpdateBatch, payload);
  bytes[ShardFrameHeader::kBytes] ^= 0xFF;  // Edge bits.
  ASSERT_TRUE(WriteFull(sp_.a(), bytes.data(), bytes.size()).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

// ---- Authenticated handshake ----------------------------------------------

TEST_F(ShardServerFixture, MatchingSecretsEstablishAndServe) {
  StartServer(/*handshake=*/true, "super-secret");
  Configure();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
}

TEST_F(ShardServerFixture, WrongSecretIsRefusedByTheClient) {
  // The server proves first (mutual auth), so a coordinator dialing a
  // shard with the wrong secret discovers the mismatch itself — before
  // handing over any state.
  StartServer(/*handshake=*/false, "server-secret");
  const Status s = ClientHandshake(sp_.a(), "client-secret");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("authentication"), std::string::npos);
  sp_.CloseA();
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, ForgedClientProofIsRefusedByTheServer) {
  // An attacker who watched the challenge but lacks the secret cannot
  // complete: a garbage proof draws a kError and ends the session.
  StartServer(/*handshake=*/false, "server-secret");
  const std::vector<uint8_t> nonce(kHandshakeNonceBytes, 0x42);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kHello, nonce.data(),
                        nonce.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kChallenge);
  const std::vector<uint8_t> forged(kSha256Bytes, 0x00);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kAuth, forged.data(),
                        forged.size())
                  .ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, UpdateBatchCannotBeInjectedBeforeAuth) {
  // THE threat-model property: an unauthenticated peer sending an
  // UPDATE_BATCH as its first frame gets an error and a dead
  // connection — the frame never reaches the ingest path.
  StartServer(/*handshake=*/false, "server-secret");
  const NodeUpdate u{0, 1};
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kUpdateBatch, &u, sizeof(u)).ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, PreAuthFrameLengthIsCappedTiny) {
  // The pre-auth allocation-DoS gate: handshake frames are tiny and
  // fixed-size, so a length field even modestly above the handshake
  // cap (let alone the multi-GB protocol cap) is refused BEFORE any
  // allocation or payload read.
  StartServer(/*handshake=*/false, "server-secret");
  WriteRawHeader(sp_.a(), static_cast<uint16_t>(ShardMessageType::kHello),
                 /*payload_bytes=*/1 << 20);
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, HandshakeFrameMidSessionIsErrorNotCrash) {
  StartServer();
  Configure();
  const std::vector<uint8_t> nonce(kHandshakeNonceBytes, 0x01);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kHello, nonce.data(),
                        nonce.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);  // Session survived.
}

// ---- ShardEndpoint grammar ------------------------------------------------

TEST(ShardEndpointTest, ParsesTheGrammar) {
  Result<ShardEndpoint> local = ParseShardEndpoint("local:");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value().kind, ShardEndpoint::Kind::kLocal);
  EXPECT_EQ(local.value().ToString(), "local:");
  Result<ShardEndpoint> unset = ParseShardEndpoint("");
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset.value().kind, ShardEndpoint::Kind::kLocal);

  Result<ShardEndpoint> thread = ParseShardEndpoint("thread:");
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ(thread.value().kind, ShardEndpoint::Kind::kThread);
  EXPECT_EQ(thread.value().ToString(), "thread:");
  Result<ShardEndpoint> round_trip =
      ParseShardEndpoint(thread.value().ToString());
  ASSERT_TRUE(round_trip.ok());
  EXPECT_TRUE(round_trip.value() == thread.value());

  Result<ShardEndpoint> tcp = ParseShardEndpoint("tcp://10.0.0.7:9001");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().kind, ShardEndpoint::Kind::kTcp);
  EXPECT_EQ(tcp.value().host, "10.0.0.7");
  EXPECT_EQ(tcp.value().port, 9001);
  EXPECT_EQ(tcp.value().ToString(), "tcp://10.0.0.7:9001");

  for (const char* bad :
       {"tcp://", "tcp://host", "tcp://host:", "tcp://:80",
        "tcp://host:0", "tcp://host:65536", "tcp://host:12x",
        "udp://host:80", "host:80", "thread:x", "thread://", "thread"}) {
    EXPECT_EQ(ParseShardEndpoint(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ShardEndpointTest, QuerySessionsRefuseNonTcpEndpoints) {
  // Reader sessions dial listeners: a local: or thread: endpoint names
  // no listener, so Connect() refuses it up front rather than failing
  // later with a misleading resolve error.
  for (const char* endpoint : {"local:", "thread:"}) {
    QuerySessionOptions options;
    options.endpoints = {endpoint};
    QuerySession session(options);
    const Status s = session.Connect();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << endpoint;
    EXPECT_NE(s.message().find(endpoint), std::string::npos) << s.ToString();
  }
}

// ---- Routing --------------------------------------------------------------

TEST(ShardProtocolTest, RoutingIsDeterministicAndBounded) {
  const RoutingTable table = MakeRoutingTable(5);
  for (NodeId u = 0; u < 64; ++u) {
    const int shard = NodeOwner(u, table);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 5);
    EXPECT_EQ(shard, NodeOwner(u, table));
  }
}

TEST(ShardProtocolTest, SyncPositionPayloadRoundTrips) {
  // The anti-entropy finalizer: kSyncPosition asserts the logical
  // {num_updates, delta_seq} position a repaired replica must report.
  const std::vector<uint8_t> bytes =
      EncodeSyncPosition(1ULL << 40, 17);
  uint64_t num_updates = 0, delta_seq = 0;
  ASSERT_TRUE(
      DecodeSyncPosition(bytes.data(), bytes.size(), &num_updates,
                         &delta_seq)
          .ok());
  EXPECT_EQ(num_updates, 1ULL << 40);
  EXPECT_EQ(delta_seq, 17u);
  // Every truncation and any trailing garbage is a structural error.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(DecodeSyncPosition(bytes.data(), cut, &num_updates,
                                 &delta_seq)
                  .code(),
              StatusCode::kInvalidArgument)
        << "truncated to " << cut << " bytes was accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  const Status s = DecodeSyncPosition(padded.data(), padded.size(),
                                      &num_updates, &delta_seq);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("sync-position"), std::string::npos);
}

TEST(ShardProtocolTest, SlotOwnershipIsBalancedForAnyShardCount) {
  // The old modulo router was biased for non-power-of-two shard
  // counts. Slot routing is uniform over slots by construction (mask
  // reduction); this pins the other half: every shard owns floor or
  // ceil of kNumSlots/num_shards slots, for power-of-two and
  // non-power-of-two counts alike.
  for (const int shards : {1, 2, 3, 5, 6, 7, 8, 12}) {
    const RoutingTable table = MakeRoutingTable(shards);
    std::vector<int> counts(shards, 0);
    for (const int32_t owner : table.owners) {
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, shards);
      ++counts[owner];
    }
    const int floor_share =
        static_cast<int>(RoutingTable::kNumSlots) / shards;
    for (const int c : counts) {
      EXPECT_GE(c, floor_share) << shards << " shards";
      EXPECT_LE(c, floor_share + 1) << shards << " shards";
    }
  }
}

TEST(ShardProtocolTest, RebalanceHelpersKeepOwnershipBalanced) {
  const RoutingTable table = MakeRoutingTable(4);
  const RoutingTable removed = TableWithShardRemoved(table, 1);
  EXPECT_EQ(TableOwners(removed), (std::vector<int>{0, 2, 3}));

  const RoutingTable split = TableWithShardSplit(removed, 0, 4);
  int source_count = 0, split_count = 0, before = 0;
  for (const int32_t o : removed.owners) before += (o == 0);
  for (const int32_t o : split.owners) {
    source_count += (o == 0);
    split_count += (o == 4);
  }
  EXPECT_EQ(source_count + split_count, before);
  EXPECT_LE(std::abs(source_count - split_count), 1);
  // Slots not owned by the split source are untouched.
  for (uint32_t s = 0; s < RoutingTable::kNumSlots; ++s) {
    if (removed.owners[s] != 0) {
      EXPECT_EQ(split.owners[s], removed.owners[s]);
    }
  }
}

TEST(ShardProtocolTest, EveryLiveShardAlwaysOwnsAtLeastOneSlot) {
  // The invariant the elastic entry points guard (split needs >= 2
  // source slots): no legal sequence of rebalance steps ever produces a
  // zero-slot owner, so the active set always equals TableOwners() and
  // a removal always finds an heir.
  // Drive splits all the way down to 1-slot owners to pin the floor.
  RoutingTable table = MakeRoutingTable(1);
  int next_id = 1;
  bool split_any = true;
  while (split_any) {
    split_any = false;
    const std::vector<int> owners = TableOwners(table);
    for (const int id : owners) {
      if (TableSlotCount(table, id) < 2) continue;  // The entry guard.
      table = TableWithShardSplit(table, id, next_id++);
      split_any = true;
    }
    for (const int id : TableOwners(table)) {
      ASSERT_GE(TableSlotCount(table, id), 1);
    }
  }
  // Fully fragmented: every one of the kNumSlots owners holds exactly
  // one slot, and removals still walk down to a single owner without
  // ever losing a slot.
  EXPECT_EQ(TableOwners(table).size(), RoutingTable::kNumSlots);
  while (TableOwners(table).size() > 1) {
    table = TableWithShardRemoved(table, TableOwners(table).front());
    int total = 0;
    for (const int id : TableOwners(table)) {
      const int n = TableSlotCount(table, id);
      ASSERT_GE(n, 1);
      total += n;
    }
    ASSERT_EQ(total, static_cast<int>(RoutingTable::kNumSlots));
  }
}

// ---- ShardStatsEx codec ---------------------------------------------------

TEST(ShardStatsExTest, RoundTrips) {
  ShardStatsEx stats;
  stats.shard_id = 3;
  stats.num_updates = 1ULL << 40;
  stats.delta_seq = 17;
  stats.ram_bytes = 123456789;
  stats.num_nodes = 1 << 20;
  stats.seed = 0xDEADBEEFCAFEULL;
  stats.cols = 6;
  stats.rounds = 61;
  const std::vector<uint8_t> bytes = EncodeShardStatsEx(stats);
  ShardStatsEx decoded;
  ASSERT_TRUE(DecodeShardStatsEx(bytes.data(), bytes.size(), &decoded).ok());
  EXPECT_EQ(decoded.shard_id, stats.shard_id);
  EXPECT_EQ(decoded.num_updates, stats.num_updates);
  EXPECT_EQ(decoded.delta_seq, stats.delta_seq);
  EXPECT_EQ(decoded.ram_bytes, stats.ram_bytes);
  EXPECT_EQ(decoded.num_nodes, stats.num_nodes);
  EXPECT_EQ(decoded.seed, stats.seed);
  EXPECT_EQ(decoded.cols, stats.cols);
  EXPECT_EQ(decoded.rounds, stats.rounds);
}

TEST(ShardStatsExTest, RejectsTruncationTrailingBytesAndBadRanges) {
  ShardStatsEx stats;
  stats.shard_id = 1;
  stats.num_nodes = 64;
  stats.seed = 5;
  stats.cols = 4;
  stats.rounds = 12;
  const std::vector<uint8_t> bytes = EncodeShardStatsEx(stats);
  ShardStatsEx decoded;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeShardStatsEx(bytes.data(), cut, &decoded).ok())
        << "truncated to " << cut << " bytes was accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(
      DecodeShardStatsEx(padded.data(), padded.size(), &decoded).ok());
  // Every range cap: this payload feeds zero-snapshot construction on
  // the client, so out-of-range geometry must die in the decoder.
  const auto rejects = [&](ShardStatsEx bad) {
    const std::vector<uint8_t> enc = EncodeShardStatsEx(bad);
    ShardStatsEx out;
    const Status s = DecodeShardStatsEx(enc.data(), enc.size(), &out);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  };
  ShardStatsEx bad = stats;
  bad.shard_id = -1;
  rejects(bad);
  bad = stats;
  bad.num_nodes = 1;
  rejects(bad);
  bad = stats;
  bad.cols = 0;
  rejects(bad);
  bad = stats;
  bad.rounds = 5000;
  rejects(bad);
  // The replication factor feeds reader-side replica grouping; zero or
  // beyond the protocol cap is as fatal as broken geometry.
  bad = stats;
  bad.replication = 0;
  rejects(bad);
  bad = stats;
  bad.replication = RoutingTable::kMaxReplication + 1;
  rejects(bad);
}

TEST(ShardStatsExTest, ReplicationFactorRoundTrips) {
  ShardStatsEx stats;
  stats.shard_id = 0;
  stats.num_nodes = 64;
  stats.seed = 5;
  stats.cols = 4;
  stats.rounds = 12;
  EXPECT_EQ(stats.replication, 1u);  // Pre-replication default.
  stats.replication = 3;
  const std::vector<uint8_t> bytes = EncodeShardStatsEx(stats);
  ShardStatsEx decoded;
  ASSERT_TRUE(
      DecodeShardStatsEx(bytes.data(), bytes.size(), &decoded).ok());
  EXPECT_EQ(decoded.replication, 3u);
}

// ---- Reader-role handshake ------------------------------------------------

TEST(ReaderRoleTest, ReaderHandshakeBindsTheRole) {
  SocketPair sp;
  ShardSessionRole role = ShardSessionRole::kWriter;
  std::thread server([&] {
    EXPECT_TRUE(ServerHandshake(sp.b(), "s3cr3t", &role).ok());
  });
  EXPECT_TRUE(
      ClientHandshake(sp.a(), "s3cr3t", ShardSessionRole::kReader).ok());
  server.join();
  EXPECT_EQ(role, ShardSessionRole::kReader);
}

TEST(ReaderRoleTest, WriterHandshakeDefaultsAndStaysCompatible) {
  // The pre-role client call (no role argument) must still produce a
  // writer session — a v3 coordinator and a role-aware listener
  // interoperate without a flag day.
  SocketPair sp;
  ShardSessionRole role = ShardSessionRole::kReader;
  std::thread server([&] {
    EXPECT_TRUE(ServerHandshake(sp.b(), "s3cr3t", &role).ok());
  });
  EXPECT_TRUE(ClientHandshake(sp.a(), "s3cr3t").ok());
  server.join();
  EXPECT_EQ(role, ShardSessionRole::kWriter);
}

TEST(ReaderRoleTest, UnknownRoleByteIsRefused) {
  SocketPair sp;
  Status server_status;
  std::thread server(
      [&] { server_status = ServerHandshake(sp.b(), "s3cr3t", nullptr); });
  uint8_t hello[kHandshakeNonceBytes + 1] = {0};
  hello[kHandshakeNonceBytes] = 7;  // Not a role this protocol knows.
  ASSERT_TRUE(SendFrame(sp.a(), ShardMessageType::kHello, hello,
                        sizeof(hello))
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  server.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(ReaderRoleTest, ReaderRoleWithWriterProofIsRefused) {
  // The role byte travels in cleartext but both proofs commit to it
  // through distinct HMAC domains: a peer that declares the reader
  // role yet proves with the WRITER domain (a downgrade/confusion
  // splice) must fail authentication even though it knows the secret.
  SocketPair sp;
  const std::string secret = "s3cr3t";
  Status server_status;
  std::thread server(
      [&] { server_status = ServerHandshake(sp.b(), secret, nullptr); });
  uint8_t hello[kHandshakeNonceBytes + 1] = {0x42};
  hello[kHandshakeNonceBytes] =
      static_cast<uint8_t>(ShardSessionRole::kReader);
  ASSERT_TRUE(SendFrame(sp.a(), ShardMessageType::kHello, hello,
                        sizeof(hello))
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kChallenge);
  ASSERT_EQ(frame.payload.size(), kHandshakeNonceBytes + kSha256Bytes);
  // proof = HMAC(secret, domain16 || client_nonce || server_nonce),
  // with the writer's client domain instead of the reader's.
  uint8_t message[16 + 2 * kHandshakeNonceBytes] = {0};
  std::memcpy(message, "gzsp3-client", sizeof("gzsp3-client") - 1);
  std::memcpy(message + 16, hello, kHandshakeNonceBytes);
  std::memcpy(message + 16 + kHandshakeNonceBytes, frame.payload.data(),
              kHandshakeNonceBytes);
  uint8_t proof[kSha256Bytes];
  HmacSha256(secret.data(), secret.size(), message, sizeof(message), proof);
  ASSERT_TRUE(SendFrame(sp.a(), ShardMessageType::kAuth, proof,
                        sizeof(proof))
                  .ok());
  ASSERT_TRUE(RecvFrame(sp.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  server.join();
  EXPECT_FALSE(server_status.ok());
}

// ---- Reader sessions ------------------------------------------------------

// A writer and a reader session sharing one ShardInstanceState over
// socketpairs — ShardListener's wiring without the TCP, so the
// read-only contract is pinned at the ShardServer layer itself.
class ReaderSessionFixture : public ::testing::Test {
 protected:
  void Start() {
    writer_thread_ = std::thread([this] {
      writer_status_ =
          ShardServer(wp_.b(), &state_, ShardSessionRole::kWriter).Serve();
    });
    reader_thread_ = std::thread([this] {
      reader_status_ =
          ShardServer(rp_.b(), &state_, ShardSessionRole::kReader).Serve();
    });
  }
  void TearDown() override {
    if (writer_thread_.joinable()) {
      SendFrame(wp_.a(), ShardMessageType::kShutdown, nullptr, 0);
      ShardFrame frame;
      RecvFrame(wp_.a(), &frame);
      writer_thread_.join();
      EXPECT_TRUE(writer_status_.ok());
    }
    if (reader_thread_.joinable()) {
      rp_.CloseA();  // Reader hangup; must not disturb the instance.
      reader_thread_.join();
    }
  }

  void Configure(uint64_t num_nodes = 16) {
    ShardConfig sc;
    sc.config.num_nodes = num_nodes;
    sc.config.seed = 5;
    sc.config.num_workers = 1;
    sc.config.disk_dir = ::testing::TempDir();
    sc.shard_id = 0;
    const std::vector<uint8_t> payload = EncodeShardConfig(sc);
    ASSERT_TRUE(SendFrame(wp_.a(), ShardMessageType::kConfig,
                          payload.data(), payload.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kAck);
  }

  // One node update through the writer, then a flush (its ack is the
  // barrier that makes the update visible to reader stats).
  void IngestOneEdge() {
    const NodeUpdate u{0, 1};
    ASSERT_TRUE(SendFrame(wp_.a(), ShardMessageType::kUpdateBatch, &u,
                          sizeof(u))
                    .ok());
    ASSERT_TRUE(
        SendFrame(wp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kAck);
  }

  SocketPair wp_, rp_;
  ShardInstanceState state_;
  std::thread writer_thread_, reader_thread_;
  Status writer_status_, reader_status_;
};

TEST_F(ReaderSessionFixture, ReaderServesReadOnlyFramesConcurrently) {
  Start();
  Configure();
  IngestOneEdge();
  ShardFrame frame;
  // PING works even though this session could never have configured.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
  // STATS_EX reports the writer's ingest through the shared instance.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.shard_id, 0);
  EXPECT_EQ(stats.num_updates, 1u);
  EXPECT_EQ(stats.num_nodes, 16u);
  // MIGRATE_EXTRACT of [0, V) x [0, R) is the whole serialized snapshot.
  const std::vector<uint8_t> req =
      EncodeMigrateExtract(0, 16, 0, NodeSketch::DefaultRounds(16));
  ASSERT_TRUE(SendFrame(rp_.a(), ShardMessageType::kMigrateExtract,
                        req.data(), req.size())
                  .ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kMigrateData);
  Result<GraphSnapshot> snapshot =
      GraphSnapshot::Deserialize(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().num_updates(), 1u);
}

TEST_F(ReaderSessionFixture, ReaderCannotMutateAndSessionSurvives) {
  Start();
  Configure();
  const auto expect_refused = [&](ShardMessageType type, const void* payload,
                                  size_t payload_bytes) {
    ASSERT_TRUE(SendFrame(rp_.a(), type, payload, payload_bytes).ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kError)
        << "frame type " << static_cast<uint16_t>(type);
    bool decode_ok = false;
    const Status s = DecodeShardError(frame.payload.data(),
                                      frame.payload.size(), &decode_ok);
    ASSERT_TRUE(decode_ok);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  };
  // The whole write surface: ingest, reconfigure, checkpoint,
  // migration fold-in, retire.
  const NodeUpdate u{2, 3};
  expect_refused(ShardMessageType::kUpdateBatch, &u, sizeof(u));
  expect_refused(ShardMessageType::kFlush, nullptr, 0);
  expect_refused(ShardMessageType::kCheckpoint, nullptr, 0);
  expect_refused(ShardMessageType::kMergeDelta, nullptr, 0);
  expect_refused(ShardMessageType::kShutdown, nullptr, 0);
  // And the refused update never reached the instance...
  ShardFrame frame;
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 0u);
  // ...and the writer still works after all those refusals.
  IngestOneEdge();
}

TEST_F(ReaderSessionFixture, UnconfiguredShardRefusesReadsButAnswersPing) {
  Start();
  ShardFrame frame;
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kError);
  bool decode_ok = false;
  const Status s = DecodeShardError(frame.payload.data(),
                                    frame.payload.size(), &decode_ok);
  ASSERT_TRUE(decode_ok);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  Configure();
}

TEST_F(ReaderSessionFixture, SubscribeStreamsNotifiesOnPositionChanges) {
  Start();
  Configure();
  // kSubscribe converts the reader session into a notify stream; the
  // immediate first kNotify is the 1:1 reply and carries the current
  // position.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kNotify);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 0u);
  // Writer ingest pushes a second kNotify without the subscriber
  // sending anything.
  IngestOneEdge();
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kNotify);
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 1u);
  // Subscriber hangup ends the subscription without disturbing the
  // instance (TearDown's writer shutdown proves the writer survived).
  rp_.CloseA();
  reader_thread_.join();
  EXPECT_FALSE(reader_status_.ok());
}

TEST_F(ReaderSessionFixture, SubscribeRefusedOnUnconfiguredShard) {
  Start();
  // Before kConfig there is no position to subscribe to: kError, and
  // the session continues as a plain reader.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kError);
  bool decode_ok = false;
  const Status s = DecodeShardError(frame.payload.data(),
                                    frame.payload.size(), &decode_ok);
  ASSERT_TRUE(decode_ok);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Unconverted: the same session still answers PING, and a subscribe
  // AFTER configuration converts it.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
  Configure();
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kNotify);
}

TEST_F(ReaderSessionFixture, WriterSessionCannotSubscribe) {
  Start();
  Configure();
  // Converting the writer's request/reply stream into a push stream
  // would strand the coordinator: kError, session survives.
  ASSERT_TRUE(
      SendFrame(wp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kError);
  bool decode_ok = false;
  const Status s = DecodeShardError(frame.payload.data(),
                                    frame.payload.size(), &decode_ok);
  ASSERT_TRUE(decode_ok);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  IngestOneEdge();  // The writer still writes.
}

TEST_F(ReaderSessionFixture, NotifyIsNeverAValidRequest) {
  Start();
  Configure();
  // kNotify is a reply-type frame; on the writer stream it draws the
  // generic reply-type refusal and the session survives.
  ASSERT_TRUE(
      SendFrame(wp_.a(), ShardMessageType::kNotify, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  // On a reader session it is read-only-contract refused the same way.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kNotify, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  IngestOneEdge();
}

TEST_F(ReaderSessionFixture, OversizedSubscribeFencesTheSession) {
  // The reader receive cap covers kSubscribe like every other reader
  // request: a huge length prefix is a session fence, not a server
  // allocation.
  Start();
  Configure();
  const std::vector<uint8_t> big(kReaderMaxRequestBytes + 1, 0xEE);
  ASSERT_TRUE(SendFrame(rp_.a(), ShardMessageType::kSubscribe, big.data(),
                        big.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  rp_.CloseA();
  reader_thread_.join();
  EXPECT_FALSE(reader_status_.ok());
}

TEST_F(ReaderSessionFixture, OversizedReaderRequestFencesTheSession) {
  // Reader requests are tiny by construction; the per-session receive
  // cap turns a huge length prefix into a clean session fence instead
  // of a server-side allocation.
  Start();
  Configure();
  const std::vector<uint8_t> big(kReaderMaxRequestBytes + 1, 0xEE);
  ASSERT_TRUE(SendFrame(rp_.a(), ShardMessageType::kStatsEx, big.data(),
                        big.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  rp_.CloseA();
  reader_thread_.join();
  EXPECT_FALSE(reader_status_.ok());
}

}  // namespace
}  // namespace gz
