// Tests for GraphZeppelin checkpoint save/restore.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <string>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "baseline/matrix_checker.h"
#include "core/graph_zeppelin.h"
#include "stream/erdos_renyi_generator.h"
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

TEST(CheckpointTest, SaveRestoreRoundTrip) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  const uint64_t n = 32;

  GraphZeppelin original(MakeConfig(n, 5));
  ASSERT_TRUE(original.Init().ok());
  for (NodeId i = 0; i + 1 < 10; ++i) {
    original.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(original.SaveCheckpoint(path).ok());
  const ConnectivityResult expect = original.ListSpanningForest();

  GraphZeppelin restored(MakeConfig(n, 5));
  ASSERT_TRUE(restored.Init().ok());
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  EXPECT_EQ(restored.num_updates_ingested(), 9u);
  const ConnectivityResult got = restored.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FailedSaveLeavesThePreviousCheckpointIntact) {
  // A save that runs out of room must return IoError and leave the
  // previous good checkpoint loadable, bit for bit. A forked child
  // saves under RLIMIT_FSIZE with SIGXFSZ ignored, so its writes fail
  // with EFBIG instead of killing it.
  const std::string path = TempPath("ckpt_failed_save.bin");
  const uint64_t n = 64;
  GraphSnapshot expect;
  {
    GraphZeppelin good(MakeConfig(n, 9));
    ASSERT_TRUE(good.Init().ok());
    good.Update({Edge(0, 1), UpdateType::kInsert});
    ASSERT_TRUE(good.SaveCheckpoint(path).ok());
    expect = good.Snapshot();
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    GraphZeppelin other(MakeConfig(n, 9));
    if (!other.Init().ok()) ::_exit(2);
    other.Update({Edge(2, 3), UpdateType::kInsert});
    std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit;
    limit.rlim_cur = limit.rlim_max = 4096;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    const Status s = other.SaveCheckpoint(path);
    ::_exit(s.code() == StatusCode::kIoError ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  GraphZeppelin restored(MakeConfig(n, 9));
  ASSERT_TRUE(restored.Init().ok());
  const Status s = restored.LoadCheckpoint(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(restored.Snapshot() == expect);
  std::remove(path.c_str());
}

TEST(CheckpointTest, IngestionContinuesAfterRestore) {
  const std::string path = TempPath("ckpt_continue.bin");
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 11;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 11;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);
  const size_t half = stream.updates.size() / 2;

  // First half on instance A, checkpoint, second half on instance B.
  GraphZeppelin a(MakeConfig(n, 21));
  ASSERT_TRUE(a.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (size_t i = 0; i < half; ++i) {
    a.Update(stream.updates[i]);
    checker.Update(stream.updates[i]);
  }
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());

  GraphZeppelin b(MakeConfig(n, 21));
  ASSERT_TRUE(b.Init().ok());
  ASSERT_TRUE(b.LoadCheckpoint(path).ok());
  for (size_t i = half; i < stream.updates.size(); ++i) {
    b.Update(stream.updates[i]);
    checker.Update(stream.updates[i]);
  }
  const ConnectivityResult got = b.ListSpanningForest();
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, WorksWithDiskStore) {
  const std::string path = TempPath("ckpt_disk.bin");
  GraphZeppelinConfig config = MakeConfig(16, 31);
  config.storage = GraphZeppelinConfig::Storage::kDisk;
  GraphZeppelin a(config);
  ASSERT_TRUE(a.Init().ok());
  a.Update({Edge(3, 7), UpdateType::kInsert});
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());

  GraphZeppelinConfig config_b = MakeConfig(16, 31);
  config_b.storage = GraphZeppelinConfig::Storage::kDisk;
  GraphZeppelin b(config_b);
  ASSERT_TRUE(b.Init().ok());
  ASSERT_TRUE(b.LoadCheckpoint(path).ok());
  const ConnectivityResult r = b.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.component_of[3], r.component_of[7]);
  std::remove(path.c_str());
}

TEST(CheckpointTest, SameSeedDiskInstancesSharingDirDoNotCollide) {
  // Two disk-backed instances with identical seed and config and
  // the same disk_dir (the two-processes-sharing-/tmp hazard, modeled
  // in-process where it is strictly harder: PIDs match too). Backing
  // file names must still differ, so neither corrupts the other.
  GraphZeppelinConfig config = MakeConfig(32, 77);
  config.storage = GraphZeppelinConfig::Storage::kDisk;
  config.buffering = GraphZeppelinConfig::Buffering::kGutterTree;

  GraphZeppelin a(config);
  GraphZeppelin b(config);
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());

  // Disjoint edge sets; interleaved ingestion maximizes the chance that
  // shared backing files would produce cross-talk.
  AdjacencyMatrixChecker check_a(32), check_b(32);
  for (NodeId i = 0; i + 1 < 10; ++i) {
    const GraphUpdate ua{Edge(i, i + 1), UpdateType::kInsert};
    const GraphUpdate ub{Edge(i + 20, i + 21), UpdateType::kInsert};
    a.Update(ua);
    check_a.Update(ua);
    b.Update(ub);
    check_b.Update(ub);
  }
  const ConnectivityResult ra = a.ListSpanningForest();
  const ConnectivityResult rb = b.ListSpanningForest();
  ASSERT_FALSE(ra.failed);
  ASSERT_FALSE(rb.failed);
  EXPECT_EQ(ra.num_components,
            check_a.ConnectedComponents().num_components);
  EXPECT_EQ(rb.num_components,
            check_b.ConnectedComponents().num_components);
  // a's chain and b's chain are disjoint: a must not see b's edges.
  EXPECT_TRUE(ra.component_of[0] == ra.component_of[9]);
  EXPECT_FALSE(ra.component_of[0] == ra.component_of[20]);
  EXPECT_TRUE(rb.component_of[20] == rb.component_of[29]);
  EXPECT_FALSE(rb.component_of[20] == rb.component_of[0]);
}

TEST(CheckpointTest, SeedMismatchRejected) {
  const std::string path = TempPath("ckpt_mismatch.bin");
  GraphZeppelin a(MakeConfig(16, 1));
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());

  GraphZeppelin b(MakeConfig(16, 2));  // Different seed.
  ASSERT_TRUE(b.Init().ok());
  EXPECT_EQ(b.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, NodeCountMismatchRejected) {
  const std::string path = TempPath("ckpt_nodes.bin");
  GraphZeppelin a(MakeConfig(16, 1));
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());

  GraphZeppelin b(MakeConfig(32, 1));
  ASSERT_TRUE(b.Init().ok());
  EXPECT_EQ(b.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  GraphZeppelin gz(MakeConfig(16, 1));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.LoadCheckpoint(TempPath("no_such.ckpt")).code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, TruncatedFileIsIoError) {
  const std::string path = TempPath("ckpt_trunc.bin");
  GraphZeppelin a(MakeConfig(16, 1));
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());
  ASSERT_EQ(::truncate(path.c_str(), 100), 0);

  GraphZeppelin b(MakeConfig(16, 1));
  ASSERT_TRUE(b.Init().ok());
  EXPECT_EQ(b.LoadCheckpoint(path).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, GarbageFileRejected) {
  const std::string path = TempPath("ckpt_garbage.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "not a checkpoint at all, sorry";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  GraphZeppelin gz(MakeConfig(16, 1));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gz
