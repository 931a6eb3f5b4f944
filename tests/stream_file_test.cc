// Tests for the binary stream file reader/writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "stream/erdos_renyi_generator.h"
#include "stream/stream_file.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// The whole file as lower-case hex.
std::string FileHex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string hex;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    static const char kDigits[] = "0123456789abcdef";
    const auto byte = static_cast<unsigned char>(*it);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

TEST(StreamFileTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.gzst");
  std::vector<GraphUpdate> updates = {
      {Edge(0, 1), UpdateType::kInsert},
      {Edge(1, 2), UpdateType::kInsert},
      {Edge(0, 1), UpdateType::kDelete},
  };
  ASSERT_TRUE(WriteStreamFile(path, 10, updates).ok());

  uint64_t num_nodes = 0;
  Result<std::vector<GraphUpdate>> readback = ReadStreamFile(path, &num_nodes);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(num_nodes, 10u);
  EXPECT_EQ(readback.value(), updates);
  std::remove(path.c_str());
}

TEST(StreamFileTest, HeaderCountsUpdates) {
  const std::string path = TempPath("header.gzst");
  StreamWriter writer;
  ASSERT_TRUE(writer.Open(path, 5).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        writer.Append({Edge(0, static_cast<NodeId>(i + 1)),
                       UpdateType::kInsert})
            .ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  StreamReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.num_updates(), 4u);
  EXPECT_EQ(reader.num_nodes(), 5u);
  GraphUpdate u;
  int count = 0;
  while (reader.Next(&u)) ++count;
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(StreamFileTest, MissingFileIsNotFound) {
  StreamReader reader;
  const Status s = reader.Open(TempPath("does_not_exist.gzst"));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(StreamFileTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.gzst");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[32] = "this is not a stream file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  StreamReader reader;
  const Status s = reader.Open(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(StreamFileTest, TruncatedFileReportsIoError) {
  const std::string path = TempPath("truncated.gzst");
  std::vector<GraphUpdate> updates(10, {Edge(0, 1), UpdateType::kInsert});
  // Interleave legally: insert/delete alternating.
  for (size_t i = 0; i < updates.size(); ++i) {
    updates[i].type = (i % 2 == 0) ? UpdateType::kInsert : UpdateType::kDelete;
  }
  ASSERT_TRUE(WriteStreamFile(path, 4, updates).ok());
  // Chop off the last record.
  ASSERT_EQ(::truncate(path.c_str(), 24 + 9 * 9), 0);

  StreamReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  GraphUpdate u;
  int count = 0;
  while (reader.Next(&u)) ++count;
  EXPECT_EQ(count, 9);
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);

  // A header count far past the file's end is the same short read, not
  // an allocation sized by the header.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const uint64_t huge = uint64_t{1} << 62;
  ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&huge, 1, 8, f), 8u);
  std::fclose(f);
  EXPECT_EQ(ReadStreamFile(path, nullptr).status().code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(StreamFileTest, LargeGeneratedStreamRoundTrips) {
  const std::string path = TempPath("large.gzst");
  EdgeList edges = RandomConnectedGraph(500, 3000, 11);
  StreamTransformParams p;
  p.num_nodes = 500;
  p.seed = 11;
  const StreamTransformResult r = BuildStream(edges, p);
  ASSERT_TRUE(WriteStreamFile(path, 500, r.updates).ok());

  uint64_t num_nodes = 0;
  Result<std::vector<GraphUpdate>> readback = ReadStreamFile(path, &num_nodes);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value().size(), r.updates.size());
  EXPECT_EQ(readback.value(), r.updates);
  std::remove(path.c_str());
}

TEST(StreamFileTest, DoubleOpenFails) {
  const std::string path = TempPath("double_open.gzst");
  StreamWriter writer;
  ASSERT_TRUE(writer.Open(path, 2).ok());
  EXPECT_EQ(writer.Open(path, 2).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.Close().ok());
  std::remove(path.c_str());
}

TEST(StreamFileTest, MalformedRecordsAreInvalidArgument) {
  // The writer packs whatever it is given, so each bad record can be
  // written after one good one; the reader must refuse it by index.
  Edge self_loop;
  self_loop.u = self_loop.v = 3;
  const GraphUpdate bad[] = {
      {self_loop, UpdateType::kInsert},
      {Edge(2, 900), UpdateType::kInsert},  // The header says 8 nodes.
      {Edge(1, 2), static_cast<UpdateType>(7)},
  };
  const std::string path = TempPath("malformed.gzst");
  for (const GraphUpdate& update : bad) {
    ASSERT_TRUE(WriteStreamFile(path, 8,
                                std::vector<GraphUpdate>{
                                    {Edge(0, 1), UpdateType::kInsert},
                                    update})
                    .ok());
    StreamReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    GraphUpdate u;
    EXPECT_TRUE(reader.Next(&u));
    EXPECT_FALSE(reader.Next(&u));
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find("record 1"), std::string::npos)
        << reader.status().ToString();
    EXPECT_FALSE(reader.Next(&u));  // The error sticks.
    EXPECT_EQ(ReadStreamFile(path, nullptr).status().code(),
              StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(StreamFileTest, FormatBytesArePinned) {
  // Both record kinds, byte for byte: the header (magic, version 1,
  // node count, the update count Close() rewrote), then packed
  // little-endian records. The readers must accept exactly these bytes.
  const std::string plain = TempPath("pinned.gzst");
  const GraphUpdate updates[] = {{Edge(0, 1), UpdateType::kInsert},
                                 {Edge(4, 2), UpdateType::kDelete}};
  StreamWriter writer;
  ASSERT_TRUE(writer.Open(plain, 5).ok());
  for (const GraphUpdate& u : updates) ASSERT_TRUE(writer.Append(u).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(FileHex(plain),
            "475a5354" "01000000" "0500000000000000" "0200000000000000"
            "00000000" "01000000" "00"
            "02000000" "04000000" "01");
  StreamReader reader;
  ASSERT_TRUE(reader.Open(plain).ok());
  GraphUpdate u;
  for (const GraphUpdate& want : updates) {
    ASSERT_TRUE(reader.Next(&u));
    EXPECT_EQ(u, want);
  }
  EXPECT_FALSE(reader.Next(&u));
  EXPECT_TRUE(reader.status().ok());
  std::remove(plain.c_str());

  const std::string weighted = TempPath("pinned.gzws");
  const WeightedUpdate weighted_updates[] = {
      {{Edge(0, 5), UpdateType::kInsert}, 7},
      {{Edge(1, 2), UpdateType::kDelete}, 300}};
  WeightedStreamWriter weighted_writer;
  ASSERT_TRUE(weighted_writer.Open(weighted, 6).ok());
  for (const WeightedUpdate& wu : weighted_updates) {
    ASSERT_TRUE(weighted_writer.Append(wu).ok());
  }
  ASSERT_TRUE(weighted_writer.Close().ok());
  EXPECT_EQ(FileHex(weighted),
            "475a5753" "01000000" "0600000000000000" "0200000000000000"
            "00000000" "05000000" "00" "07000000"
            "01000000" "02000000" "01" "2c010000");
  WeightedStreamReader weighted_reader;
  ASSERT_TRUE(weighted_reader.Open(weighted).ok());
  WeightedUpdate wu;
  for (const WeightedUpdate& want : weighted_updates) {
    ASSERT_TRUE(weighted_reader.Next(&wu));
    EXPECT_EQ(wu, want);
  }
  EXPECT_FALSE(weighted_reader.Next(&wu));
  EXPECT_TRUE(weighted_reader.status().ok());
  // Neither reader accepts the other kind's file.
  StreamReader plain_reader;
  EXPECT_EQ(plain_reader.Open(weighted).code(), StatusCode::kInvalidArgument);
  std::remove(weighted.c_str());
}

}  // namespace
}  // namespace gz
