// Tests for the stream-file ingestion driver.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/matrix_checker.h"
#include "core/stream_ingestor.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_file.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

GraphZeppelinConfig MakeConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 2;
  c.disk_dir = ::testing::TempDir();
  return c;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(StreamIngestorTest, IngestsWholeFileAndMatchesChecker) {
  const uint64_t n = 40;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 3;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 3;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);
  const std::string path = TempPath("ingest_whole.gzst");
  ASSERT_TRUE(WriteStreamFile(path, n, stream.updates).ok());

  GraphZeppelin gz(MakeConfig(n, 7));
  ASSERT_TRUE(gz.Init().ok());
  const Result<uint64_t> ingested = IngestStreamFile(&gz, path);
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(ingested.value(), stream.updates.size());

  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) checker.Update(u);
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
  std::remove(path.c_str());
}

TEST(StreamIngestorTest, MissingFileReported) {
  GraphZeppelin gz(MakeConfig(8, 9));
  ASSERT_TRUE(gz.Init().ok());
  const Result<uint64_t> r = IngestStreamFile(&gz, TempPath("no.gzst"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StreamIngestorTest, NodeCountMismatchRejected) {
  const std::string path = TempPath("ingest_mismatch.gzst");
  ASSERT_TRUE(WriteStreamFile(path, 100,
                              {{Edge(0, 1), UpdateType::kInsert}})
                  .ok());
  GraphZeppelin gz(MakeConfig(8, 10));  // Too small for the stream.
  ASSERT_TRUE(gz.Init().ok());
  const Result<uint64_t> r = IngestStreamFile(&gz, path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(StreamIngestorTest, MalformedRecordIsInvalidArgument) {
  // An endpoint beyond the header's node count would otherwise reach a
  // Graph Worker's edge indexing; the reader stops it with a Status.
  const std::string path = TempPath("ingest_malformed.gzst");
  ASSERT_TRUE(WriteStreamFile(path, 8,
                              std::vector<GraphUpdate>{
                                  {Edge(0, 1), UpdateType::kInsert},
                                  {Edge(2, 900), UpdateType::kInsert}})
                  .ok());
  GraphZeppelin gz(MakeConfig(8, 11));
  ASSERT_TRUE(gz.Init().ok());
  const Result<uint64_t> r = IngestStreamFile(&gz, path);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gz
