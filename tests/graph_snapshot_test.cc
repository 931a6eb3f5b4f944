// Tests for the GraphSnapshot query surface: the merge algebra
// (commutative, associative, exact vs a single-instance ground truth),
// parameter-compatibility rejection, serialization round trips,
// copy-on-write sharing with copies and with a live store, and the
// determinism of the parallel Boruvka engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "baseline/matrix_checker.h"
#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "cumulative_buckets.h"
#include "sketch_content.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_types.h"
#include "util/random.h"
#include "util/sha256.h"

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

void Ingest(GraphZeppelin* gz, const EdgeList& edges) {
  for (const Edge& e : edges) gz->Update({e, UpdateType::kInsert});
}

// An instance that ingested exactly `edges`, snapshotted.
GraphSnapshot SnapshotOf(uint64_t n, uint64_t seed, const EdgeList& edges) {
  GraphZeppelin gz(MakeConfig(n, seed));
  GZ_CHECK_OK(gz.Init());
  Ingest(&gz, edges);
  return gz.Snapshot();
}

void ExpectSamePartition(const ConnectivityResult& got,
                         const ConnectivityResult& expect, uint64_t n) {
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j])
          << i << " vs " << j;
    }
  }
}

TEST(GraphSnapshotTest, CarriesMetadataAndSurvivesRepeatedQueries) {
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);

  GraphZeppelin gz(MakeConfig(n, 7));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, edges);
  const GraphSnapshot snapshot = gz.Snapshot();

  ASSERT_TRUE(snapshot.valid());
  EXPECT_EQ(snapshot.num_nodes(), n);
  EXPECT_EQ(snapshot.seed(), 7u);
  EXPECT_EQ(snapshot.num_updates(), edges.size());
  EXPECT_EQ(snapshot.params(), gz.sketch_params());

  // Queries never mutate the snapshot: ask twice, compare against a
  // fresh capture of the same (unchanged) instance.
  const ConnectivityResult r1 = Connectivity(snapshot);
  const ConnectivityResult r2 = Connectivity(snapshot);
  ASSERT_FALSE(r1.failed);
  EXPECT_EQ(r1.spanning_forest, r2.spanning_forest);
  EXPECT_EQ(r1.component_of, r2.component_of);
  EXPECT_TRUE(snapshot == gz.Snapshot());
}

TEST(GraphSnapshotTest, MergeMatchesSingleInstanceGroundTruth) {
  // Split one stream across two same-seed instances; the merged
  // snapshot must be *bitwise* equal to the snapshot of one instance
  // that saw everything (linearity is exact, not approximate).
  const uint64_t n = 48;
  const uint64_t seed = 11;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 3;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const size_t half = edges.size() / 2;
  const EdgeList first(edges.begin(), edges.begin() + half);
  const EdgeList second(edges.begin() + half, edges.end());

  GraphSnapshot merged = SnapshotOf(n, seed, first);
  ASSERT_TRUE(merged.Merge(SnapshotOf(n, seed, second)).ok());
  const GraphSnapshot whole = SnapshotOf(n, seed, edges);
  EXPECT_TRUE(merged == whole);
  EXPECT_EQ(merged.num_updates(), edges.size());

  AdjacencyMatrixChecker checker(n);
  for (const Edge& e : edges) checker.Update({e, UpdateType::kInsert});
  ExpectSamePartition(Connectivity(merged), checker.ConnectedComponents(),
                      n);
}

TEST(GraphSnapshotTest, MergeCommutesAndAssociates) {
  const uint64_t n = 40;
  const uint64_t seed = 21;
  EdgeList a_edges, b_edges, c_edges;
  for (NodeId i = 0; i + 1 < 12; ++i) a_edges.emplace_back(i, i + 1);
  for (NodeId i = 12; i + 1 < 26; ++i) b_edges.emplace_back(i, i + 1);
  for (NodeId i = 0; i < 10; ++i) {
    c_edges.emplace_back(i, static_cast<NodeId>(i + 20));
  }

  // a + b == b + a.
  GraphSnapshot ab = SnapshotOf(n, seed, a_edges);
  ASSERT_TRUE(ab.Merge(SnapshotOf(n, seed, b_edges)).ok());
  GraphSnapshot ba = SnapshotOf(n, seed, b_edges);
  ASSERT_TRUE(ba.Merge(SnapshotOf(n, seed, a_edges)).ok());
  EXPECT_TRUE(ab == ba);

  // (a + b) + c == a + (b + c).
  GraphSnapshot ab_c = ab;
  ASSERT_TRUE(ab_c.Merge(SnapshotOf(n, seed, c_edges)).ok());
  GraphSnapshot bc = SnapshotOf(n, seed, b_edges);
  ASSERT_TRUE(bc.Merge(SnapshotOf(n, seed, c_edges)).ok());
  GraphSnapshot a_bc = SnapshotOf(n, seed, a_edges);
  ASSERT_TRUE(a_bc.Merge(bc).ok());
  EXPECT_TRUE(ab_c == a_bc);
}

TEST(GraphSnapshotTest, MergeRejectsIncompatibleParams) {
  const EdgeList edges = {Edge(0, 1)};
  GraphSnapshot base = SnapshotOf(16, 1, edges);

  // Different seed: sketches hash differently, merging would be garbage.
  GraphSnapshot other_seed = SnapshotOf(16, 2, edges);
  EXPECT_EQ(base.Merge(other_seed).code(), StatusCode::kInvalidArgument);

  // Different node bound.
  GraphSnapshot other_nodes = SnapshotOf(32, 1, edges);
  EXPECT_EQ(base.Merge(other_nodes).code(), StatusCode::kInvalidArgument);

  // Different sketch geometry.
  GraphZeppelinConfig config = MakeConfig(16, 1);
  config.cols = 5;
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  GraphSnapshot other_cols = gz.Snapshot();
  EXPECT_EQ(base.Merge(other_cols).code(), StatusCode::kInvalidArgument);

  // Empty snapshots cannot participate.
  GraphSnapshot empty;
  EXPECT_EQ(base.Merge(empty).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.Merge(base).code(), StatusCode::kInvalidArgument);

  // Serialized folds get the same checks.
  const std::vector<uint8_t> other_bytes = other_seed.Serialize();
  EXPECT_EQ(GraphSnapshot::FoldSerialized(
                other_bytes.data(), other_bytes.size(), base.params(), 0,
                base.rounds(), [](NodeId, const uint8_t*) { FAIL(); })
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphSnapshotTest, ByteSerializationRoundTripsExactly) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 5;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const GraphSnapshot snapshot = SnapshotOf(n, 13, edges);

  const std::vector<uint8_t> bytes = snapshot.Serialize();
  EXPECT_EQ(bytes.size(), snapshot.SerializedSize());
  Result<GraphSnapshot> restored =
      GraphSnapshot::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value() == snapshot);

  // A deserialized snapshot answers queries identically to the live one.
  const ConnectivityResult live = Connectivity(snapshot);
  const ConnectivityResult thawed = Connectivity(restored.value());
  ASSERT_FALSE(live.failed);
  EXPECT_EQ(live.spanning_forest, thawed.spanning_forest);
  EXPECT_EQ(live.component_of, thawed.component_of);
}

// The byte format pinned to fixed values: the round-trip suites above
// would pass for any self-consistent layout, these only for GZSNAP05.
// V=45 gives cols*rows = 77 (odd: the det bucket sits at 4 mod 8 in a
// round), V=64 gives 84 (even: a 1,020 B round, 4 mod 8). The header
// and the record body are pinned apart. The body is pinned twice: as
// stored (column buckets at their exact depth) and suffix-transformed
// into the paper's cumulative buckets, whose digests are the ones the
// GZSNAP02, GZSNAP03 and GZSNAP04 bodies had, so the storage change
// moved no bucket of the sketch the paper defines.
struct BytePin {
  uint64_t num_nodes;
  const char* header_sha256;
  const char* body_sha256;
  const char* cumulative_body_sha256;
};

std::string Sha256Hex(const uint8_t* data, size_t size) {
  uint8_t digest[kSha256Bytes];
  Sha256(data, size, digest);
  char hex[2 * kSha256Bytes + 1];
  for (size_t i = 0; i < kSha256Bytes; ++i) {
    std::snprintf(hex + 2 * i, 3, "%02x", digest[i]);
  }
  return hex;
}

class GraphSnapshotBytePinTest : public ::testing::TestWithParam<BytePin> {};

TEST_P(GraphSnapshotBytePinTest, SerializeMatchesPinnedSha256) {
  const uint64_t n = GetParam().num_nodes;
  // A fixed seeded stream with deletions over nodes [0, n - 1), then one
  // edge to node n - 1, which so has exactly one incident edge.
  SplitMix64 rng(0x5eed);
  GraphZeppelin gz(MakeConfig(n, 2024));
  ASSERT_TRUE(gz.Init().ok());
  std::vector<uint8_t> present(NumPossibleEdges(n), 0);
  for (int i = 0; i < 600; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBelow(n - 1));
    NodeId v = static_cast<NodeId>(rng.NextBelow(n - 2));
    if (v >= u) ++v;
    const Edge e(u, v);
    uint8_t& bit = present[EdgeToIndex(e, n)];
    gz.Update({e, bit ? UpdateType::kDelete : UpdateType::kInsert});
    bit ^= 1;
  }
  const NodeId leaf = static_cast<NodeId>(n - 1);
  const Edge pendant(static_cast<NodeId>(rng.NextBelow(n - 1)), leaf);
  gz.Update({pendant, UpdateType::kInsert});
  const GraphSnapshot snapshot = gz.Snapshot();
  const std::vector<uint8_t> bytes = snapshot.Serialize();

  ASSERT_GT(bytes.size(), GraphSnapshot::kHeaderBytes);
  EXPECT_EQ(Sha256Hex(bytes.data(), GraphSnapshot::kHeaderBytes),
            GetParam().header_sha256);
  EXPECT_EQ(Sha256Hex(bytes.data() + GraphSnapshot::kHeaderBytes,
                      bytes.size() - GraphSnapshot::kHeaderBytes),
            GetParam().body_sha256);
  std::vector<uint8_t> cumulative(bytes.begin() + GraphSnapshot::kHeaderBytes,
                                  bytes.end());
  SuffixXorRounds(snapshot.layout(), cumulative.data(),
                  n * snapshot.layout().rounds());
  EXPECT_EQ(Sha256Hex(cumulative.data(), cumulative.size()),
            GetParam().cumulative_body_sha256);

  // Structure: the leaf's record holds the pendant edge's encoded index
  // (index + 1) in every round's deterministic bucket, which sits right
  // after the round's cols*rows column buckets.
  const NodeSketchParams& params = snapshot.params();
  const int rows = std::bit_width(NumPossibleEdges(n) - 1) + 1;
  const size_t column_buckets = static_cast<size_t>(params.cols) * rows;
  const size_t round_bytes = 12 * (column_buckets + 1);
  const size_t record = round_bytes * params.rounds;
  ASSERT_EQ(bytes.size(), GraphSnapshot::kHeaderBytes + n * record);
  const uint8_t* rec =
      bytes.data() + GraphSnapshot::kHeaderBytes + leaf * record;
  for (int r = 0; r < params.rounds; ++r) {
    uint64_t det_alpha = 0;
    std::memcpy(&det_alpha, rec + r * round_bytes + 12 * column_buckets, 8);
    EXPECT_EQ(det_alpha, EdgeToIndex(pendant, n) + 1) << "round " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GraphSnapshotBytePinTest,
    ::testing::Values(
        BytePin{45,
                "2ab78024f661a5370d08e14cdbbcc9e5"
                "62013ef0c812379c164b079ef9af2603",
                "a9bb79091b25866fd2e512684014a9a2"
                "ef482745dfe1e93d98135dddf390d793",
                "10333e86adb627f8494af69920dc16d4"
                "c4046f663e0c5a1fc25f1b395bbd3d16"},
        BytePin{64,
                "7f8652ab95debfa8af12891b21160f96"
                "ce8e87c7c56670697965d4f24326e8cd",
                "f3feb80f8fd30dfbd795bc0324607a26"
                "365d877908b1f5b375ff2519e2b675b3",
                "57f80ce414ab1d6f2f2c554c998a36d9"
                "757604d9dd59976b7a6a199b3c6b89c8"}));

TEST(GraphSnapshotTest, DeserializeRejectsGarbage) {
  const uint8_t junk[64] = {'n', 'o', 't', ' ', 'a', ' ', 's', 'n'};
  EXPECT_EQ(GraphSnapshot::Deserialize(junk, sizeof(junk)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GraphSnapshot::Deserialize(junk, 4).status().code(),
            StatusCode::kInvalidArgument);

  // Valid header, wrong body size.
  const GraphSnapshot snapshot = SnapshotOf(16, 1, {Edge(0, 1)});
  std::vector<uint8_t> bytes = snapshot.Serialize();
  EXPECT_EQ(GraphSnapshot::Deserialize(bytes.data(), bytes.size() - 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphSnapshotTest, FileRoundTripAndLoadIntoInstance) {
  const std::string path =
      std::string(::testing::TempDir()) + "/snapshot_roundtrip.snap";
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 20; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snapshot = SnapshotOf(n, 17, edges);
  ASSERT_TRUE(snapshot.SaveToFile(path).ok());

  Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == snapshot);

  // Load the saved file into a fresh same-params instance and keep
  // streaming: this is checkpoint restore through the public API.
  GraphZeppelin gz(MakeConfig(n, 17));
  ASSERT_TRUE(gz.Init().ok());
  ASSERT_TRUE(gz.LoadCheckpoint(path).ok());
  EXPECT_TRUE(gz.Snapshot() == snapshot);
  EXPECT_EQ(gz.num_updates_ingested(), edges.size());
  gz.Update({Edge(20, 21), UpdateType::kInsert});
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.Connected(0, 19));
  EXPECT_TRUE(r.Connected(20, 21));
  EXPECT_FALSE(r.Connected(0, 21));

  // Params mismatch on load is rejected.
  GraphZeppelin other(MakeConfig(n, 18));
  ASSERT_TRUE(other.Init().ok());
  EXPECT_EQ(other.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(GraphSnapshot::LoadFromFile(path + ".missing").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, FailedSaveToFileLeavesThePreviousFileIntact) {
  // SaveToFile publishes like a checkpoint: a save that runs out of
  // room must return IoError and leave the previous file loadable, bit
  // for bit. A forked child saves under RLIMIT_FSIZE with SIGXFSZ
  // ignored, so its writes fail with EFBIG instead of killing it.
  const std::string path =
      std::string(::testing::TempDir()) + "/snapshot_failed_save.snap";
  const uint64_t n = 64;
  const GraphSnapshot expect = SnapshotOf(n, 9, {Edge(0, 1)});
  ASSERT_GT(expect.SerializedSize(), 4096u);  // The limit must bite.
  ASSERT_TRUE(expect.SaveToFile(path).ok());
  const GraphSnapshot other = SnapshotOf(n, 9, {Edge(2, 3)});
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit;
    limit.rlim_cur = limit.rlim_max = 4096;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    const Status s = other.SaveToFile(path);
    ::_exit(s.code() == StatusCode::kIoError ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == expect);
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, RetiredMagicsAreRefused) {
  // Version-1 snapshots and the older pre-snapshot checkpoints shared a
  // layout without range bounds: magic, num_nodes, seed, cols, rounds,
  // num_updates, then the records. Both are refused, from bytes, from a
  // file and as a checkpoint, rather than misread as the current format.
  constexpr char kSnapshotV1[8] = {'G', 'Z', 'S', 'N', 'A', 'P', '0', '1'};
  constexpr char kCheckpointV1[8] = {'G', 'Z', 'C', 'K', 'P', 'T', '0', '1'};
  const uint64_t n = 16;
  const GraphSnapshot snapshot = SnapshotOf(n, 3, {Edge(1, 2)});
  const std::vector<uint8_t> current = snapshot.Serialize();
  for (const char* magic : {kSnapshotV1, kCheckpointV1}) {
    std::vector<uint8_t> old(current.begin(), current.begin() + 32);
    std::memcpy(old.data(), magic, 8);
    old.insert(old.end(), current.begin() + 48, current.end());
    EXPECT_EQ(GraphSnapshot::Deserialize(old.data(), old.size())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << std::string(magic, 8);

    const std::string path =
        std::string(::testing::TempDir()) + "/retired_magic.snap";
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(old.data(), 1, old.size(), f), old.size());
    std::fclose(f);
    EXPECT_EQ(GraphSnapshot::LoadFromFile(path).status().code(),
              StatusCode::kInvalidArgument)
        << std::string(magic, 8);
    GraphZeppelin gz(MakeConfig(n, 3));
    ASSERT_TRUE(gz.Init().ok());
    EXPECT_EQ(gz.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument)
        << std::string(magic, 8);
    std::remove(path.c_str());
  }
}

// Bytes in a previous format: `magic`, then the fields of `current`
// (a GZSNAP05 serialization) up to its first `header_bytes` header
// bytes, then its records.
std::vector<uint8_t> OlderFormat(const std::vector<uint8_t>& current,
                                 const char* magic, size_t header_bytes) {
  std::vector<uint8_t> old(current.begin(), current.begin() + header_bytes);
  std::memcpy(old.data(), magic, 8);
  old.insert(old.end(), current.begin() + GraphSnapshot::kHeaderBytes,
             current.end());
  return old;
}

// Refused from bytes, from a file and as a checkpoint, with a message
// naming both `old`'s version and the current one.
void ExpectVersionRefused(const std::vector<uint8_t>& old, uint64_t n,
                          const std::string& version) {
  const auto expect_refused = [&version](const Status& s) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find(version), std::string::npos) << s.ToString();
    EXPECT_NE(s.message().find("GZSNAP05"), std::string::npos)
        << s.ToString();
  };
  expect_refused(GraphSnapshot::Deserialize(old.data(), old.size()).status());
  const std::string path =
      std::string(::testing::TempDir()) + "/older_version.snap";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(old.data(), 1, old.size(), f), old.size());
  std::fclose(f);
  expect_refused(GraphSnapshot::LoadFromFile(path).status());
  GraphZeppelin gz(MakeConfig(n, 3));
  ASSERT_TRUE(gz.Init().ok());
  expect_refused(gz.LoadCheckpoint(path));
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, Gzsnap02IsRefusedNamingTheVersion) {
  // The format before GZSNAP03: the same fields up to num_updates, no
  // round window, a 56-byte header.
  const uint64_t n = 16;
  const GraphSnapshot snapshot = SnapshotOf(n, 3, {Edge(1, 2)});
  ExpectVersionRefused(OlderFormat(snapshot.Serialize(), "GZSNAP02", 56), n,
                       "GZSNAP02");
}

TEST(GraphSnapshotTest, Gzsnap03IsRefusedNamingTheVersion) {
  // The format before GZSNAP04: the same fields up to r_hi, no part, a
  // 64-byte header.
  const uint64_t n = 16;
  const GraphSnapshot snapshot = SnapshotOf(n, 3, {Edge(1, 2)});
  ExpectVersionRefused(OlderFormat(snapshot.Serialize(), "GZSNAP03", 64), n,
                       "GZSNAP03");
}

TEST(GraphSnapshotTest, Gzsnap04IsRefusedNamingTheVersion) {
  // The previous format: the same 68-byte header, but column buckets
  // stored cumulatively (row r held every update of depth >= r).
  const uint64_t n = 16;
  const GraphSnapshot snapshot = SnapshotOf(n, 3, {Edge(1, 2)});
  ExpectVersionRefused(OlderFormat(snapshot.Serialize(), "GZSNAP04",
                                   GraphSnapshot::kHeaderBytes),
                       n, "GZSNAP04");
}

// Streams rounds [r_lo, r_hi) of `snap`'s nodes [lo, hi) as SaveToSink
// writes them, each record cut from the node's whole record.
std::vector<uint8_t> WindowBytes(const GraphSnapshot& snap, uint64_t lo,
                                 uint64_t hi, int r_lo, int r_hi) {
  const std::vector<uint8_t> whole = snap.Serialize();
  const size_t round_bytes = snap.layout().round_bytes();
  const size_t record = snap.layout().record_bytes();
  std::vector<uint8_t> out;
  GZ_CHECK_OK(GraphSnapshot::SaveToSink(
      [&out](const void* data, size_t size) {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        out.insert(out.end(), p, p + size);
        return Status::Ok();
      },
      snap.params(), lo, hi, r_lo, r_hi, snap.num_updates(),
      [&](NodeId i, uint8_t* rec) {
        std::memcpy(rec,
                    whole.data() + GraphSnapshot::kHeaderBytes +
                        i * record + r_lo * round_bytes,
                    (r_hi - r_lo) * round_bytes);
      }));
  return out;
}

TEST(GraphSnapshotTest, RoundWindowsFoldOnlyWhereTheCallerExpectsThem) {
  const uint64_t n = 24;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 12; ++i) edges.emplace_back(i, i + 1);
  GraphSnapshot snap = SnapshotOf(n, 9, edges);
  const int rounds = snap.rounds();
  const size_t round_bytes = snap.layout().round_bytes();
  const std::vector<uint8_t> window = WindowBytes(snap, 3, 10, 1, 3);
  ASSERT_EQ(window.size(),
            GraphSnapshot::SerializedSizeFor(snap.params(), 3, 10, 1, 3));
  EXPECT_EQ(window.size(),
            GraphSnapshot::kHeaderBytes + 7 * 2 * round_bytes);
  // The window's records are exactly the rounds' subsketch bytes.
  NodeId seen = 3;
  ASSERT_TRUE(GraphSnapshot::FoldSerialized(
                  window.data(), window.size(), snap.params(), 1, 3,
                  [&](NodeId i, const uint8_t* record) {
                    EXPECT_EQ(i, seen++);
                    for (int r = 1; r < 3; ++r) {
                      GraphSnapshot::RoundView view;
                      ASSERT_TRUE(snap.Round(r, n, nullptr, &view).ok());
                      EXPECT_EQ(std::memcmp(record + (r - 1) * round_bytes,
                                            view.node(i), round_bytes),
                                0);
                    }
                  })
                  .ok());
  EXPECT_EQ(seen, 10u);
  // Any other expected window, and every whole-record consumer, refuses
  // it; the whole window [0, R) is the whole-record form.
  const auto no_fold = [](NodeId, const uint8_t*) { FAIL(); };
  EXPECT_EQ(GraphSnapshot::FoldSerialized(window.data(), window.size(),
                                          snap.params(), 0, rounds, no_fold)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GraphSnapshot::FoldSerialized(window.data(), window.size(),
                                          snap.params(), 1, 2, no_fold)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GraphSnapshot::Deserialize(window.data(), window.size())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WindowBytes(snap, 0, n, 0, rounds), snap.Serialize());
  // A header whose window is empty, reversed or past the budget is
  // malformed.
  for (const auto& [w_lo, w_hi] : {std::pair<int32_t, int32_t>{2, 2},
                                   std::pair<int32_t, int32_t>{3, 1},
                                   std::pair<int32_t, int32_t>{-1, 1},
                                   std::pair<int32_t, int32_t>{
                                       0, rounds + 1}}) {
    std::vector<uint8_t> bad = window;
    std::memcpy(bad.data() + 56, &w_lo, 4);
    std::memcpy(bad.data() + 60, &w_hi, 4);
    EXPECT_EQ(GraphSnapshot::FoldSerialized(bad.data(), bad.size(),
                                            snap.params(), w_lo, w_hi,
                                            no_fold)
                  .code(),
              StatusCode::kInvalidArgument)
        << "[" << w_lo << ", " << w_hi << ")";
  }
}

// `part` of rounds [r_lo, r_hi) of nodes [lo, hi), as `gz` streams it.
std::vector<uint8_t> RangeBytes(GraphZeppelin& gz, uint64_t lo, uint64_t hi,
                                int r_lo, int r_hi, RoundPart part) {
  std::vector<uint8_t> bytes;
  GZ_CHECK_OK(gz.WriteNodeRangeTo(lo, hi, r_lo, r_hi, part,
                                  [&bytes](const void* data, size_t n) {
                                    const uint8_t* p =
                                        static_cast<const uint8_t*>(data);
                                    bytes.insert(bytes.end(), p, p + n);
                                    return Status::Ok();
                                  }));
  return bytes;
}

TEST(GraphSnapshotTest, SummaryRangesCarryEachRoundsDeterministicBucket) {
  // A summary range holds, per node and round, the 12 bytes at the end
  // of the round's slice: from the RAM store's bucket read and from the
  // disk store's read out of the window alike, and the same bytes
  // Summary() views in place.
  const uint64_t n = 24;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 12; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(20, 23);
  for (const auto storage : {GraphZeppelinConfig::Storage::kRam,
                             GraphZeppelinConfig::Storage::kDisk}) {
    GraphZeppelinConfig config = MakeConfig(n, 9);
    config.storage = storage;
    GraphZeppelin gz(config);
    ASSERT_TRUE(gz.Init().ok());
    Ingest(&gz, edges);
    const GraphSnapshot snap = gz.Snapshot();
    const int rounds = snap.rounds();
    const std::vector<uint8_t> summary =
        RangeBytes(gz, 3, 21, 1, rounds, RoundPart::kSummary);
    ASSERT_EQ(summary.size(),
              GraphSnapshot::SerializedSizeFor(snap.params(), 3, 21, 1, rounds,
                                               RoundPart::kSummary));
    EXPECT_EQ(summary.size(), GraphSnapshot::kHeaderBytes +
                                  18 * (rounds - 1) *
                                      GraphSnapshot::kSummaryBytes);
    uint32_t part = 0;
    std::memcpy(&part, summary.data() + 64, 4);
    EXPECT_EQ(part, 1u);
    NodeId seen = 3;
    ASSERT_TRUE(GraphSnapshot::FoldSerialized(
                    summary.data(), summary.size(), snap.params(), 1, rounds,
                    [&](NodeId i, const uint8_t* record) {
                      EXPECT_EQ(i, seen++);
                      for (int r = 1; r < rounds; ++r) {
                        GraphSnapshot::RoundView whole, det;
                        ASSERT_TRUE(snap.Round(r, n, nullptr, &whole).ok());
                        ASSERT_TRUE(snap.Summary(r, n, nullptr, &det).ok());
                        const uint8_t* got =
                            record + (r - 1) * GraphSnapshot::kSummaryBytes;
                        EXPECT_EQ(std::memcmp(got,
                                              whole.node(i) +
                                                  snap.layout().det_offset(),
                                              GraphSnapshot::kSummaryBytes),
                                  0);
                        EXPECT_EQ(std::memcmp(got, det.node(i),
                                              GraphSnapshot::kSummaryBytes),
                                  0);
                      }
                    },
                    RoundPart::kSummary)
                    .ok());
    EXPECT_EQ(seen, 21u);
  }
}

TEST(GraphSnapshotTest, WholeRecordConsumersRefuseSummaryAndSamplesBytes) {
  // Summaries or samples of the whole range [0, V) x [0, R) have a
  // whole-snapshot header but for the part: Deserialize, LoadFromFile,
  // GraphZeppelin::MergeSerialized and a whole-window fold all refuse
  // them, and a summary or samples fold refuses whole rounds and the
  // other part.
  const uint64_t n = 16;
  GraphZeppelin gz(MakeConfig(n, 3));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, {Edge(1, 2), Edge(2, 9)});
  const int rounds = gz.sketch_params().rounds;
  const std::vector<uint8_t> whole =
      RangeBytes(gz, 0, n, 0, rounds, RoundPart::kWhole);
  const auto no_fold = [](NodeId, const uint8_t*) { FAIL(); };
  const GraphSnapshot snap =
      GraphSnapshot::Deserialize(whole.data(), whole.size()).value();
  for (const RoundPart part : {RoundPart::kSummary, RoundPart::kSamples}) {
    SCOPED_TRACE(static_cast<int>(part));
    const RoundPart other = part == RoundPart::kSummary
                                ? RoundPart::kSamples
                                : RoundPart::kSummary;
    const std::vector<uint8_t> bytes = RangeBytes(gz, 0, n, 0, rounds, part);
    EXPECT_EQ(
        GraphSnapshot::Deserialize(bytes.data(), bytes.size()).status().code(),
        StatusCode::kInvalidArgument);
    for (const RoundPart expect : {RoundPart::kWhole, other}) {
      EXPECT_EQ(GraphSnapshot::FoldSerialized(bytes.data(), bytes.size(),
                                              snap.params(), 0, rounds,
                                              no_fold, expect)
                    .code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(GraphSnapshot::FoldSerialized(whole.data(), whole.size(),
                                            snap.params(), 0, rounds, no_fold,
                                            part)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gz.MergeSerialized(bytes.data(), bytes.size()).code(),
              StatusCode::kInvalidArgument);
    const std::string path =
        std::string(::testing::TempDir()) + "/partial_part.snap";
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    EXPECT_EQ(GraphSnapshot::LoadFromFile(path).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gz.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
    std::remove(path.c_str());
  }
}

TEST(GraphSnapshotTest, UnknownPartAndTruncatedSummaryAreInvalidArgument) {
  // A part value this build does not know, in either kind of bytes, and
  // a summary body one byte or one record short, are InvalidArgument
  // from every decoder, never a crash.
  const uint64_t n = 16;
  GraphZeppelin gz(MakeConfig(n, 3));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, {Edge(1, 2), Edge(2, 9)});
  const NodeSketchParams params = gz.sketch_params();
  const int rounds = params.rounds;
  const auto no_fold = [](NodeId, const uint8_t*) { FAIL(); };
  const std::vector<uint8_t> summary =
      RangeBytes(gz, 2, 9, 1, rounds, RoundPart::kSummary);
  const std::vector<uint8_t> whole =
      RangeBytes(gz, 0, n, 0, rounds, RoundPart::kWhole);
  for (const uint32_t unknown : {3u, 4u, 0xFFFFFFFFu}) {
    for (const std::vector<uint8_t>* bytes : {&summary, &whole}) {
      std::vector<uint8_t> bad = *bytes;
      std::memcpy(bad.data() + 64, &unknown, 4);
      const int r_lo = bytes == &summary ? 1 : 0;
      for (const RoundPart part : {RoundPart::kWhole, RoundPart::kSummary,
                                   RoundPart::kSamples}) {
        EXPECT_EQ(GraphSnapshot::FoldSerialized(bad.data(), bad.size(),
                                                params, r_lo, rounds, no_fold,
                                                part)
                      .code(),
                  StatusCode::kInvalidArgument)
            << "part " << unknown;
      }
      EXPECT_EQ(
          GraphSnapshot::Deserialize(bad.data(), bad.size()).status().code(),
          StatusCode::kInvalidArgument)
          << "part " << unknown;
    }
  }
  const size_t record = (rounds - 1) * GraphSnapshot::kSummaryBytes;
  for (const size_t cut : {size_t{1}, record, summary.size() - 64}) {
    const std::vector<uint8_t> shortened(summary.begin(),
                                         summary.end() - cut);
    EXPECT_EQ(GraphSnapshot::FoldSerialized(shortened.data(),
                                            shortened.size(), params, 1,
                                            rounds, no_fold,
                                            RoundPart::kSummary)
                  .code(),
              StatusCode::kInvalidArgument)
        << "cut " << cut;
  }
}

TEST(GraphSnapshotTest, SamplesRangesCarryEachNodesSampleColumns) {
  // A samples range holds, per node and round, SampleColumns() on the
  // producer's slice, from the RAM and the disk store alike. A node
  // whose slice is all zero bytes, never touched or its updates
  // cancelled, is untouched: an all-zero record, which reads as kZero.
  const uint64_t n = 24;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 12; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(20, 23);
  for (const auto storage : {GraphZeppelinConfig::Storage::kRam,
                             GraphZeppelinConfig::Storage::kDisk}) {
    GraphZeppelinConfig config = MakeConfig(n, 9);
    config.storage = storage;
    GraphZeppelin gz(config);
    ASSERT_TRUE(gz.Init().ok());
    Ingest(&gz, edges);
    // Nodes 16 and 17 share one edge, inserted and deleted again.
    gz.Update({Edge(16, 17), UpdateType::kInsert});
    gz.Update({Edge(16, 17), UpdateType::kDelete});
    const GraphSnapshot snap = gz.Snapshot();
    const SketchLayout& layout = snap.layout();
    const int rounds = snap.rounds();
    const int cols = layout.cols();
    const size_t unit = GraphSnapshot::SamplesBytes(cols);
    EXPECT_EQ(unit, 64u);
    const std::vector<uint8_t> samples =
        RangeBytes(gz, 3, 21, 0, rounds, RoundPart::kSamples);
    ASSERT_EQ(samples.size(),
              GraphSnapshot::SerializedSizeFor(snap.params(), 3, 21, 0, rounds,
                                               RoundPart::kSamples));
    EXPECT_EQ(samples.size(), GraphSnapshot::kHeaderBytes + 18 * rounds * unit);
    uint32_t part = 0;
    std::memcpy(&part, samples.data() + 64, 4);
    EXPECT_EQ(part, 2u);
    int good = 0;
    int untouched = 0;
    std::vector<uint64_t> want(cols), got(cols);
    ASSERT_TRUE(
        GraphSnapshot::FoldSerialized(
            samples.data(), samples.size(), snap.params(), 0, rounds,
            [&](NodeId i, const uint8_t* record) {
              for (int r = 0; r < rounds; ++r) {
                GraphSnapshot::RoundView whole;
                ASSERT_TRUE(snap.Round(r, n, nullptr, &whole).ok());
                const uint8_t* rec = record + r * unit;
                const ColumnSamples w =
                    layout.SampleColumns(r, whole.node(i), want.data(), cols);
                const ColumnSamples g =
                    GraphSnapshot::ReadSamples(rec, got.data());
                EXPECT_EQ(g.kind, w.kind) << "node " << i << " round " << r;
                ASSERT_EQ(g.count, w.count) << "node " << i << " round " << r;
                for (int k = 0; k < g.count; ++k) EXPECT_EQ(got[k], want[k]);
                const uint8_t* slice = whole.node(i);
                const bool zero_slice =
                    std::all_of(slice, slice + layout.round_bytes(),
                                [](uint8_t b) { return b == 0; });
                EXPECT_EQ(std::all_of(rec, rec + unit,
                                      [](uint8_t b) { return b == 0; }),
                          zero_slice)
                    << "node " << i << " round " << r;
                if (i == 16 || i == 17) {
                  EXPECT_TRUE(zero_slice);
                }
                untouched += zero_slice;
                good += g.kind == SampleKind::kGood;
              }
            },
            RoundPart::kSamples)
            .ok());
    EXPECT_GT(good, 0);
    // Nodes 12 to 19 have no edge left.
    EXPECT_GE(untouched, 8 * rounds);
  }
}

TEST(GraphSnapshotTest, BadSamplesRecordsAreInvalidArgument) {
  // Every samples record a producer could not have written fails the
  // whole fold with InvalidArgument before any record is folded: an
  // unknown tag, a count past the columns or not matching its tag, a
  // coordinate past the vector length, nonzero padding or unused slots,
  // and an untouched record with any nonzero byte.
  const uint64_t n = 16;
  GraphZeppelin gz(MakeConfig(n, 3));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, {Edge(1, 2), Edge(2, 9)});
  const NodeSketchParams params = gz.sketch_params();
  const int cols = params.cols;
  const size_t unit = GraphSnapshot::SamplesBytes(cols);
  std::vector<uint8_t> good = RangeBytes(gz, 0, n, 0, 1, RoundPart::kSamples);
  const auto record = [unit](std::vector<uint8_t>* bytes, NodeId i) {
    return bytes->data() + GraphSnapshot::kHeaderBytes + i * unit;
  };
  // Node 9's one edge is a verified singleton: one good sample. Node 0
  // is untouched.
  const auto count_of = [](const uint8_t* at) {
    uint32_t count;
    std::memcpy(&count, at + 4, sizeof(count));
    return count;
  };
  ASSERT_EQ(record(&good, 9)[0], 1 + static_cast<int>(SampleKind::kGood));
  ASSERT_EQ(count_of(record(&good, 9)), 1u);
  ASSERT_TRUE(std::all_of(record(&good, 0), record(&good, 0) + unit,
                          [](uint8_t b) { return b == 0; }));
  int folded = 0;
  ASSERT_TRUE(GraphSnapshot::FoldSerialized(
                  good.data(), good.size(), params, 0, 1,
                  [&folded](NodeId, const uint8_t*) { ++folded; },
                  RoundPart::kSamples)
                  .ok());
  EXPECT_EQ(folded, static_cast<int>(n));
  const auto set_u64 = [](uint8_t* at, uint64_t value) {
    std::memcpy(at, &value, sizeof(value));
  };
  const auto set_count = [](uint8_t* at, uint32_t count) {
    std::memcpy(at + 4, &count, sizeof(count));
  };
  const uint64_t vector_len = NumPossibleEdges(n);
  using Edit = std::function<void(std::vector<uint8_t>*)>;
  std::vector<std::pair<std::string, Edit>> cases = {
      {"unknown tag 4", [&](auto* b) { record(b, 9)[0] = 4; }},
      {"unknown tag 255", [&](auto* b) { record(b, 9)[0] = 255; }},
      {"count past the columns",
       [&](auto* b) { set_count(record(b, 9), cols + 1); }},
      {"count at the u32 maximum",
       [&](auto* b) { set_count(record(b, 9), UINT32_MAX); }},
      {"good sample with count 0",
       [&](auto* b) {
         set_count(record(b, 9), 0);
         set_u64(record(b, 9) + 8, 0);
       }},
      {"zero sample with a count",
       [&](auto* b) {
         record(b, 9)[0] = 1 + static_cast<int>(SampleKind::kZero);
       }},
      {"fail sample with a count",
       [&](auto* b) {
         record(b, 9)[0] = 1 + static_cast<int>(SampleKind::kFail);
       }},
      {"coordinate at the vector length",
       [&](auto* b) { set_u64(record(b, 9) + 8, vector_len); }},
      {"coordinate at the u64 maximum",
       [&](auto* b) { set_u64(record(b, 9) + 8, UINT64_MAX); }},
      {"nonzero unused slot",
       [&](auto* b) { set_u64(record(b, 9) + 8 + 8 * (cols - 1), 1); }},
      {"untouched record with a count",
       [&](auto* b) { set_count(record(b, 0), 1); }},
      {"untouched record with a coordinate",
       [&](auto* b) { set_u64(record(b, 0) + 8, 1); }},
  };
  for (size_t pad = 1; pad < 4; ++pad) {
    cases.push_back({"nonzero padding byte " + std::to_string(pad),
                     [&, pad](auto* b) { record(b, 9)[pad] = 1; }});
    cases.push_back({"untouched record with padding byte " +
                         std::to_string(pad),
                     [&, pad](auto* b) { record(b, 0)[pad] = 1; }});
  }
  const auto no_fold = [](NodeId, const uint8_t*) { FAIL(); };
  for (const auto& [name, edit] : cases) {
    std::vector<uint8_t> bad = good;
    edit(&bad);
    EXPECT_EQ(GraphSnapshot::FoldSerialized(bad.data(), bad.size(), params, 0,
                                            1, no_fold, RoundPart::kSamples)
                  .code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(GraphSnapshotTest, SamplesRecordsServeCountsPastOneByte) {
  // A samples record's u32 count serves every column count a config
  // accepts: at 512 columns the hub of a star samples more edges than a
  // byte counts, and every record reads back as SampleColumns() on its
  // slice.
  const uint64_t n = 32;
  GraphZeppelinConfig config = MakeConfig(n, 4);
  config.cols = 512;
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  EdgeList star;
  for (NodeId i = 1; i < n; ++i) star.emplace_back(0, i);
  Ingest(&gz, star);
  const GraphSnapshot snap = gz.Snapshot();
  const SketchLayout& layout = snap.layout();
  const std::vector<uint8_t> samples =
      RangeBytes(gz, 0, n, 0, 1, RoundPart::kSamples);
  GraphSnapshot::RoundView round0;
  ASSERT_TRUE(snap.Round(0, n, nullptr, &round0).ok());
  std::vector<uint64_t> want(config.cols), got(config.cols);
  int hub_count = 0;
  ASSERT_TRUE(GraphSnapshot::FoldSerialized(
                  samples.data(), samples.size(), snap.params(), 0, 1,
                  [&](NodeId i, const uint8_t* record) {
                    const ColumnSamples w = layout.SampleColumns(
                        0, round0.node(i), want.data(), config.cols);
                    const ColumnSamples g =
                        GraphSnapshot::ReadSamples(record, got.data());
                    EXPECT_EQ(g.kind, w.kind) << "node " << i;
                    ASSERT_EQ(g.count, w.count) << "node " << i;
                    for (int k = 0; k < g.count; ++k) {
                      EXPECT_EQ(got[k], want[k]);
                    }
                    if (i == 0) hub_count = g.count;
                  },
                  RoundPart::kSamples)
                  .ok());
  EXPECT_GT(hub_count, 255);
}

// Boruvka's answer, field by field.
void ExpectSameAnswer(const ConnectivityResult& got,
                      const ConnectivityResult& want) {
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.rounds_used, want.rounds_used);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.spanning_forest, want.spanning_forest);
  EXPECT_EQ(got.component_of, want.component_of);
}

TEST(GraphSnapshotTest, HeldSamplesAnswerEverySingletonExactly) {
  // A lazy snapshot holding round 0's samples answers exactly as the
  // eager snapshot they were taken from, at 1 and 4 threads and from a
  // later first round, and Boruvka never loads round 0 (every node is a
  // singleton there). The graph crosses the engine's parallel
  // thresholds.
  const uint64_t n = 2048;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.003;
  ep.seed = 9;
  const GraphSnapshot eager =
      SnapshotOf(n, 23, ErdosRenyiGenerator(ep).Generate());
  const SketchLayout& layout = eager.layout();
  const size_t unit = GraphSnapshot::SamplesBytes(layout.cols());
  std::vector<uint8_t> samples(n * unit);
  GraphSnapshot::RoundView round0;
  ASSERT_TRUE(eager.Round(0, n, nullptr, &round0).ok());
  for (NodeId i = 0; i < n; ++i) {
    GraphSnapshot::WriteSamples(layout, 0, round0.node(i),
                                samples.data() + i * unit);
  }
  auto loads = std::make_shared<std::vector<int>>(eager.rounds(), 0);
  const auto lazy = [&](std::vector<uint8_t> held) {
    return GraphSnapshot::Lazy(
        NodeSketch(eager.params()), eager.num_updates(),
        [&eager, loads, n](int round, RoundPart part, uint64_t,
                           const GraphSnapshot::BlockRunner&,
                           std::vector<uint8_t>* out) {
          ++(*loads)[round];
          const bool whole = part == RoundPart::kWhole;
          const size_t slot = whole ? eager.layout().round_stride()
                                    : GraphSnapshot::kSummaryBytes;
          const size_t bytes = whole ? eager.layout().round_bytes()
                                     : GraphSnapshot::kSummaryBytes;
          GraphSnapshot::RoundView view;
          GZ_CHECK_OK(whole ? eager.Round(round, n, nullptr, &view)
                            : eager.Summary(round, n, nullptr, &view));
          out->assign(n * slot, 0);
          for (NodeId i = 0; i < n; ++i) {
            std::memcpy(out->data() + i * slot, view.node(i), bytes);
          }
          return Status::Ok();
        },
        std::move(held));
  };
  GraphSnapshot::RoundView view;
  EXPECT_FALSE(eager.Samples(&view));
  EXPECT_FALSE(lazy({}).Samples(&view));
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    std::fill(loads->begin(), loads->end(), 0);
    const ConnectivityResult want = Connectivity(eager, threads);
    ASSERT_FALSE(want.failed);
    const GraphSnapshot held = lazy(samples);
    ASSERT_TRUE(held.Samples(&view));
    ExpectSameAnswer(Connectivity(held, threads), want);
    EXPECT_EQ((*loads)[0], 0);
    ExpectSameAnswer(BoruvkaConnectivity(held, 2, -1, threads),
                     BoruvkaConnectivity(eager, 2, -1, threads));
    EXPECT_EQ((*loads)[0], 0);
    EXPECT_TRUE(held == eager);
  }
}

TEST(GraphSnapshotTest, FailedLazyLoadFailsTheQueryAndEveryWholeSketchUse) {
  // A lazy snapshot whose loader fails from round 1 on: Boruvka stops at
  // that round and reports failed, the snapshot keeps the load's status,
  // and every use that needs whole sketches returns it (or compares
  // unequal) instead of reading a round that never loaded.
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot eager = SnapshotOf(n, 5, edges);
  const NodeSketch zero(eager.params());
  int calls = 0;
  const GraphSnapshot lazy = GraphSnapshot::Lazy(
      zero, eager.num_updates(),
      [&](int round, RoundPart, uint64_t, const GraphSnapshot::BlockRunner&,
          std::vector<uint8_t>* out) {
        ++calls;
        if (round >= 1) return Status::FailedPrecondition("moved on");
        const size_t stride = zero.layout().round_stride();
        out->assign(n * stride, 0);
        GraphSnapshot::RoundView view;
        GZ_CHECK_OK(eager.Round(round, n, nullptr, &view));
        for (NodeId i = 0; i < n; ++i) {
          std::memcpy(out->data() + i * stride, view.node(i),
                      zero.layout().round_bytes());
        }
        return Status::Ok();
      });
  EXPECT_TRUE(lazy.load_status().ok());
  const ConnectivityResult r = Connectivity(lazy, 1);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.rounds_used, 2);
  EXPECT_EQ(lazy.load_status().code(), StatusCode::kFailedPrecondition);
  GraphSnapshot::Seal(lazy.lazy_rounds());  // Tries every round left.
  GraphSnapshot toggled = lazy;
  EXPECT_EQ(toggled.ToggleEdge(Edge(0, 1)).code(),
            StatusCode::kFailedPrecondition);
  GraphSnapshot::RoundView view;
  EXPECT_TRUE(lazy.Round(0, n, nullptr, &view).ok());
  EXPECT_EQ(lazy.Round(1, n, nullptr, &view).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(lazy == eager);
  GraphSnapshot merged = eager;
  EXPECT_EQ(merged.Merge(lazy).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(merged == eager);
  EXPECT_EQ(lazy.SaveToFile(::testing::TempDir() + "/never.snap").code(),
            StatusCode::kFailedPrecondition);
  // Each round's loader ran at most once, failures included.
  EXPECT_EQ(calls, lazy.rounds());
}

TEST(GraphSnapshotTest, NodeRangeDeltasMoveStateExactly) {
  // The elastic-migration algebra: extracting ranges of A and folding
  // them into an empty snapshot rebuilds A's sketches; folding the same
  // range back into A cancels it there (XOR "move"). Range folds never
  // touch update counts.
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 7;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  GraphZeppelin source(MakeConfig(n, 21));
  ASSERT_TRUE(source.Init().ok());
  Ingest(&source, edges);
  const GraphSnapshot a = source.Snapshot();
  const GraphSnapshot empty = SnapshotOf(n, 21, {});

  GraphZeppelin rebuilt(MakeConfig(n, 21));
  ASSERT_TRUE(rebuilt.Init().ok());
  GraphZeppelin drained(MakeConfig(n, 21));
  ASSERT_TRUE(drained.Init().ok());
  Ingest(&drained, edges);
  for (const auto& [lo, hi] :
       std::vector<std::pair<uint64_t, uint64_t>>{{0, 17}, {17, 48}}) {
    const std::vector<uint8_t> delta =
        RangeBytes(source, lo, hi, 0, a.rounds(), RoundPart::kWhole);
    EXPECT_EQ(delta.size(),
              GraphSnapshot::SerializedSizeFor(a.params(), lo, hi));
    ASSERT_TRUE(rebuilt.MergeSerialized(delta.data(), delta.size()).ok());
    ASSERT_TRUE(drained.MergeSerialized(delta.data(), delta.size()).ok());
  }
  // Counts are untouched by range folds; compare sketch content.
  const GraphSnapshot rebuilt_snap = rebuilt.Snapshot();
  EXPECT_EQ(rebuilt_snap.num_updates(), 0u);
  EXPECT_EQ(drained.num_updates_ingested(), a.num_updates());
  EXPECT_TRUE(SameSketchContent(rebuilt_snap, a));
  // Every sketch in the drained instance is zeroed — it holds the
  // empty instance's sketches.
  EXPECT_TRUE(SameSketchContent(drained.Snapshot(), empty));
}

TEST(GraphSnapshotTest, NodeRangeDeltaRejectsGarbage) {
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  GraphZeppelin gz(MakeConfig(n, 3));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, edges);
  const GraphSnapshot before = gz.Snapshot();
  const std::vector<uint8_t> delta =
      RangeBytes(gz, 4, 20, 0, before.rounds(), RoundPart::kWhole);

  // Truncation, trailing garbage, a bad magic and a params mismatch
  // all bounce without touching the instance.
  EXPECT_EQ(gz.MergeSerialized(delta.data(), delta.size() - 1).code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> padded = delta;
  padded.push_back(0);
  EXPECT_EQ(gz.MergeSerialized(padded.data(), padded.size()).code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> bad_magic = delta;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(gz.MergeSerialized(bad_magic.data(), bad_magic.size()).code(),
            StatusCode::kInvalidArgument);
  GraphZeppelin other_seed(MakeConfig(n, 4));
  ASSERT_TRUE(other_seed.Init().ok());
  Ingest(&other_seed, edges);
  const GraphSnapshot other_before = other_seed.Snapshot();
  EXPECT_EQ(other_seed.MergeSerialized(delta.data(), delta.size()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(gz.Snapshot() == before);
  EXPECT_TRUE(other_seed.Snapshot() == other_before);

  // A range is not a whole snapshot, but a whole snapshot is just the
  // range [0, V): it folds like any other, and folding a snapshot into
  // itself zeroes every sketch without touching the count.
  EXPECT_EQ(GraphSnapshot::Deserialize(delta.data(), delta.size())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint8_t> full = before.Serialize();
  ASSERT_TRUE(gz.MergeSerialized(full.data(), full.size()).ok());
  const GraphSnapshot after = gz.Snapshot();
  EXPECT_EQ(after.num_updates(), before.num_updates());
  EXPECT_TRUE(SameSketchContent(after, SnapshotOf(n, 3, {})));
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

TEST(GraphSnapshotTest, EveryTruncationAndHeaderFlipIsACleanStatus) {
  // The one decoder, swept: every truncation length and every
  // single-byte flip of the header of a whole snapshot, a mid-graph
  // range and a GraphZeppelin checkpoint file, each fed to Deserialize,
  // FoldSerialized, GraphZeppelin::MergeSerialized and LoadCheckpoint.
  // Every call returns a Status or a valid object, never aborts, and
  // leaves its target unchanged (folds nothing) when it fails. A small
  // geometry keeps the sweep quick.
  const uint64_t n = 16;
  GraphZeppelinConfig config = MakeConfig(n, 31);
  config.cols = 1;
  config.rounds = 2;
  const auto make = [&config](const EdgeList& edges) {
    auto gz = std::make_unique<GraphZeppelin>(config);
    GZ_CHECK_OK(gz->Init());
    Ingest(gz.get(), edges);
    return gz;
  };
  EdgeList path_edges;
  for (NodeId i = 0; i + 1 < 12; ++i) path_edges.emplace_back(i, i + 1);
  const std::unique_ptr<GraphZeppelin> source = make(path_edges);
  const GraphSnapshot snap = source->Snapshot();
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/decoder_sweep.ckpt";
  ASSERT_TRUE(source->SaveCheckpoint(ckpt).ok());
  const std::vector<std::vector<uint8_t>> inputs = {
      snap.Serialize(),
      RangeBytes(*source, 5, 11, 0, snap.rounds(), RoundPart::kWhole),
      ReadFile(ckpt)};
  EXPECT_EQ(inputs[2], inputs[0]) << "a checkpoint is a whole snapshot";

  const std::unique_ptr<GraphZeppelin> gz = make({Edge(3, 4)});
  const GraphSnapshot gz_before = gz->Snapshot();
  // An accepted corrupt checkpoint overwrote gz; this good file, saved
  // once, rolls it back.
  const std::string good_path =
      std::string(::testing::TempDir()) + "/decoder_sweep.good";
  ASSERT_TRUE(gz->SaveCheckpoint(good_path).ok());
  const std::string corrupt_path =
      std::string(::testing::TempDir()) + "/decoder_sweep.corrupt";
  size_t accepted = 0, refused = 0;
  const auto feed = [&](const std::vector<uint8_t>& bytes) {
    Result<GraphSnapshot> thawed =
        GraphSnapshot::Deserialize(bytes.data(), bytes.size());
    if (thawed.ok()) {
      EXPECT_TRUE(thawed.value().valid());
    }

    size_t folded = 0;
    Status s = GraphSnapshot::FoldSerialized(
        bytes.data(), bytes.size(), snap.params(), 0, snap.rounds(),
        [&folded](NodeId, const uint8_t*) { ++folded; });
    if (!s.ok()) {
      EXPECT_EQ(folded, 0u) << s.ToString();
    }

    s = gz->MergeSerialized(bytes.data(), bytes.size());
    if (s.ok()) {
      // XOR is its own inverse: folding the same bytes again undoes it.
      ASSERT_TRUE(gz->MergeSerialized(bytes.data(), bytes.size()).ok());
    }
    EXPECT_TRUE(gz->Snapshot() == gz_before) << s.ToString();

    WriteFile(corrupt_path, bytes);
    s = gz->LoadCheckpoint(corrupt_path);
    if (s.ok()) {
      ASSERT_TRUE(gz->LoadCheckpoint(good_path).ok());
      ++accepted;
    } else {
      ++refused;
    }
    EXPECT_TRUE(gz->Snapshot() == gz_before) << s.ToString();
  };
  for (const std::vector<uint8_t>& input : inputs) {
    for (size_t cut = 0; cut < input.size(); ++cut) {
      feed(std::vector<uint8_t>(input.begin(), input.begin() + cut));
    }
    for (size_t i = 0; i < GraphSnapshot::kHeaderBytes; ++i) {
      for (const uint8_t mask : {0x01, 0xFF}) {
        std::vector<uint8_t> flipped = input;
        flipped[i] ^= mask;
        feed(flipped);
      }
    }
  }
  // Truncations never load; some header flips (the update count, for
  // one) legitimately still describe a loadable snapshot.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  std::remove(ckpt.c_str());
  std::remove(good_path.c_str());
  std::remove(corrupt_path.c_str());
}

TEST(GraphSnapshotTest, ParallelBoruvkaMatchesSequentialBitwise) {
  // Large enough to cross the engine's parallel thresholds (sampling
  // needs >= 1024 live components in a round).
  const uint64_t n = 2048;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.003;
  ep.seed = 9;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const GraphSnapshot snapshot = SnapshotOf(n, 23, edges);

  const ConnectivityResult seq = Connectivity(snapshot, /*num_threads=*/1);
  const ConnectivityResult par = Connectivity(snapshot, /*num_threads=*/4);
  ASSERT_FALSE(seq.failed);
  ASSERT_FALSE(par.failed);
  EXPECT_EQ(seq.spanning_forest, par.spanning_forest);
  EXPECT_EQ(seq.component_of, par.component_of);
  EXPECT_EQ(seq.num_components, par.num_components);
  EXPECT_EQ(seq.rounds_used, par.rounds_used);

  AdjacencyMatrixChecker checker(n);
  for (const Edge& e : edges) checker.Update({e, UpdateType::kInsert});
  EXPECT_EQ(seq.num_components,
            checker.ConnectedComponents().num_components);
}

// ---- Copy-on-write sharing ---------------------------------------------

// `edges`, each inserted, as one stream.
std::vector<GraphUpdate> Inserts(const EdgeList& edges) {
  std::vector<GraphUpdate> out;
  for (const Edge& e : edges) out.push_back({e, UpdateType::kInsert});
  return out;
}

EdgeList RandomEdges(uint64_t n, double p, uint64_t seed) {
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = p;
  ep.seed = seed;
  return ErdosRenyiGenerator(ep).Generate();
}

TEST(GraphSnapshotTest, HeldSnapshotKeepsItsBytesWhileIngestContinues) {
  // A RAM instance shares its node sketches with the snapshot; the
  // ingest that follows must clone what it touches, never write the
  // snapshot's copy, and must itself end where a fresh instance fed the
  // whole stream ends.
  const uint64_t n = 64;
  const std::vector<GraphUpdate> stream = Inserts(RandomEdges(n, 0.2, 41));
  const size_t cut = stream.size() / 3;
  GraphZeppelin gz(MakeConfig(n, 43));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update(stream.data(), cut);
  const GraphSnapshot held = gz.Snapshot();
  const std::vector<uint8_t> at_capture = held.Serialize();
  gz.Update(stream.data() + cut, stream.size() - cut);
  const GraphSnapshot later = gz.Snapshot();  // Flushes the rest.
  EXPECT_TRUE(held.Serialize() == at_capture);
  EXPECT_EQ(held.num_updates(), cut);

  GraphZeppelin fresh(MakeConfig(n, 43));
  ASSERT_TRUE(fresh.Init().ok());
  fresh.Update(stream.data(), stream.size());
  EXPECT_TRUE(later == fresh.Snapshot());
}

TEST(GraphSnapshotTest, WritesToACopyNeverReachTheOriginal) {
  // Merge clones a shared node before writing, in either direction of a
  // copy.
  const uint64_t n = 40;
  const uint64_t seed = 45;
  const GraphSnapshot a = SnapshotOf(n, seed, RandomEdges(n, 0.2, 1));
  const GraphSnapshot b = SnapshotOf(n, seed, RandomEdges(n, 0.2, 2));
  const std::vector<uint8_t> a_bytes = a.Serialize();
  const std::vector<uint8_t> b_bytes = b.Serialize();

  GraphSnapshot merged = a;  // Copy, then write the copy.
  ASSERT_TRUE(merged.Merge(b).ok());
  EXPECT_TRUE(a.Serialize() == a_bytes);
  EXPECT_TRUE(b.Serialize() == b_bytes);
  EXPECT_FALSE(merged == a);

  GraphSnapshot original = b;  // Copy, then write the original.
  const GraphSnapshot copy = original;
  ASSERT_TRUE(original.Merge(a).ok());
  EXPECT_TRUE(copy.Serialize() == b_bytes);
  EXPECT_FALSE(original == copy);

  // The writes themselves are the plain algebra: a + b either way.
  GraphSnapshot ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  EXPECT_TRUE(merged == ba);
}

TEST(GraphSnapshotTest, FoldIntoASnapshotLeavesTheLiveStoreAlone) {
  // A snapshot of a RAM instance shares the store's node sketches;
  // merging into it must clone them, not write the store.
  const uint64_t n = 32;
  GraphZeppelin gz(MakeConfig(n, 47));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, RandomEdges(n, 0.3, 3));
  const std::vector<uint8_t> store_bytes = gz.Snapshot().Serialize();
  GraphSnapshot shared = gz.Snapshot();
  ASSERT_TRUE(shared.Merge(SnapshotOf(n, 47, {Edge(1, 2)})).ok());
  EXPECT_TRUE(gz.Snapshot().Serialize() == store_bytes);
  EXPECT_FALSE(shared.Serialize() == store_bytes);
}

TEST(GraphSnapshotTest, SnapshotsDroppedOnAnotherThreadWhileWorkersIngest) {
  // Two Graph Workers merge batches into shared nodes while another
  // thread queries and drops the snapshots taken between spans. Every
  // snapshot must still hold its capture-time bytes when that thread
  // reads it, and the instance must end bitwise equal to a fresh one.
  const uint64_t n = 128;
  const std::vector<GraphUpdate> stream = Inserts(RandomEdges(n, 0.3, 7));
  GraphZeppelin gz(MakeConfig(n, 53));
  ASSERT_TRUE(gz.Init().ok());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<GraphSnapshot, std::vector<uint8_t>>> handoff;
  bool done = false;
  size_t checked = 0;
  std::thread dropper([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !handoff.empty(); });
      if (handoff.empty()) return;
      auto [snap, bytes] = std::move(handoff.front());
      handoff.pop_front();
      lock.unlock();
      EXPECT_FALSE(Connectivity(snap, 1).failed);
      EXPECT_TRUE(snap.Serialize() == bytes);
      ++checked;
    }  // The snapshot drops here, racing the workers' next merges.
  });
  const size_t span = 64;
  for (size_t off = 0; off < stream.size(); off += span) {
    gz.Update(stream.data() + off, std::min(span, stream.size() - off));
    GraphSnapshot snap = gz.Snapshot();
    std::vector<uint8_t> bytes = snap.Serialize();
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.emplace_back(std::move(snap), std::move(bytes));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  dropper.join();
  EXPECT_EQ(checked, (stream.size() + span - 1) / span);

  GraphZeppelin fresh(MakeConfig(n, 53));
  ASSERT_TRUE(fresh.Init().ok());
  fresh.Update(stream.data(), stream.size());
  EXPECT_TRUE(gz.Snapshot() == fresh.Snapshot());
}

TEST(GraphSnapshotTest, MidStreamSnapshotThenContinue) {
  // The snapshot freezes a stream position; the instance keeps
  // ingesting and a later snapshot reflects the extra updates.
  const uint64_t n = 24;
  GraphZeppelin gz(MakeConfig(n, 29));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update({Edge(0, 1), UpdateType::kInsert});
  const GraphSnapshot early = gz.Snapshot();
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  const GraphSnapshot late = gz.Snapshot();

  EXPECT_EQ(early.num_updates(), 1u);
  EXPECT_EQ(late.num_updates(), 2u);
  const ConnectivityResult r_early = Connectivity(early);
  const ConnectivityResult r_late = Connectivity(late);
  EXPECT_FALSE(r_early.Connected(0, 2));
  EXPECT_TRUE(r_late.Connected(0, 2));
}

}  // namespace
}  // namespace gz
