// Tests for the weighted stream file format and its interplay with the
// MSF-weight sketch.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "algos/msf_weight.h"
#include "stream/stream_file.h"

namespace gz {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(WeightedStreamFileTest, RoundTrip) {
  const std::string path = TempPath("weighted_roundtrip.gzws");
  std::vector<WeightedUpdate> updates = {
      {{Edge(0, 1), UpdateType::kInsert}, 3},
      {{Edge(1, 2), UpdateType::kInsert}, 7},
      {{Edge(0, 1), UpdateType::kDelete}, 3},
  };
  ASSERT_TRUE(WriteStreamFile(path, 10, updates).ok());

  uint64_t num_nodes = 0;
  auto readback = ReadStreamFile<WeightedUpdate>(path, &num_nodes);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(num_nodes, 10u);
  EXPECT_EQ(readback.value(), updates);
  std::remove(path.c_str());
}

TEST(WeightedStreamFileTest, RejectsUnweightedMagic) {
  const std::string path = TempPath("weighted_magic.gzws");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[32] = "GZST````````````````````";  // Unweighted magic.
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  WeightedStreamReader reader;
  EXPECT_EQ(reader.Open(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(WeightedStreamFileTest, MissingFileNotFound) {
  WeightedStreamReader reader;
  EXPECT_EQ(reader.Open(TempPath("no_such.gzws")).code(),
            StatusCode::kNotFound);
}

TEST(WeightedStreamFileTest, MalformedRecordsAreInvalidArgument) {
  // A zero weight, and an endpoint beyond the header's 4 nodes, each
  // after one good record.
  const WeightedUpdate bad[] = {{{Edge(1, 2), UpdateType::kInsert}, 0},
                                {{Edge(1, 4), UpdateType::kInsert}, 2}};
  const std::string path = TempPath("weighted_malformed.gzws");
  for (const WeightedUpdate& wu : bad) {
    ASSERT_TRUE(WriteStreamFile(path, 4,
                                std::vector<WeightedUpdate>{
                                    {{Edge(0, 1), UpdateType::kInsert}, 3},
                                    wu})
                    .ok());
    WeightedStreamReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    WeightedUpdate got;
    EXPECT_TRUE(reader.Next(&got));
    EXPECT_FALSE(reader.Next(&got));
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find("record 1"), std::string::npos)
        << reader.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(WeightedStreamFileTest, FeedsMsfSketchEndToEnd) {
  // Triangle weights 1,1,5 plus an insert/delete pair: MSF = 2.
  const std::string path = TempPath("weighted_msf.gzws");
  std::vector<WeightedUpdate> updates = {
      {{Edge(0, 1), UpdateType::kInsert}, 1},
      {{Edge(1, 2), UpdateType::kInsert}, 1},
      {{Edge(0, 2), UpdateType::kInsert}, 5},
      {{Edge(3, 4), UpdateType::kInsert}, 2},
      {{Edge(3, 4), UpdateType::kDelete}, 2},
  };
  ASSERT_TRUE(WriteStreamFile(path, 8, updates).ok());

  WeightedStreamReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  GraphZeppelinConfig config;
  config.num_nodes = reader.num_nodes();
  config.seed = 3;
  config.disk_dir = ::testing::TempDir();
  MsfWeightSketch msf(config, /*max_weight=*/5);
  ASSERT_TRUE(msf.Init().ok());
  WeightedUpdate wu;
  while (reader.Next(&wu)) {
    msf.Update(wu.update.edge, wu.weight, wu.update.type);
  }
  ASSERT_TRUE(reader.status().ok());

  const MsfWeightResult r = msf.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.weight, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gz
