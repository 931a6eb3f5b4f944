// Pipeline allocation bench: verifies the flat pooled-batch refactor's
// core claim — steady-state ingestion performs zero heap allocations
// per update in the gutter -> queue -> worker path — and measures the
// ingest rate alongside, emitting one JSON object per configuration so
// BENCH_*.json trajectories can track both across builds.
//
// Method: global operator new/delete are overridden with a counting
// hook (the C++ analogue of malloc_count). Phase 1 ingests the whole
// stream once to warm the BatchPool, gutters, the RAM store's node
// sketches (each node's first write clones the shared zero) and the disk
// store's per-thread delta sketches and record buffers; phase 2
// re-ingests with the counter armed. Pool recycling means phase 2 must
// allocate nothing — on the leaf and gutter-tree paths (the tree's
// internal flush buffers are recycled per level the way leaf gutters
// recycle slabs), over both the RAM and the on-disk store. Enforced
// with GZ_CHECK, so a regression fails the run, not just a JSON field.
//
// Sketch-state gates ride along: copying a node sketch is exactly one
// allocation (its bucket block; the seeds live in a shared layout);
// GraphZeppelin::Snapshot() over the on-disk store is round-lazy and
// allocates a small constant, whatever V; and Connectivity() over that
// capture allocates a constant plus a few per round it loads, never per
// node.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_common.h"

// ---- malloc-count hook ----------------------------------------------------

namespace {
std::atomic<bool> g_track{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(size_t size) {
  if (g_track.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (g_track.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

int main() {
  using namespace gz;
  const int scale = bench::GetEnvInt("GZ_BENCH_KRON_MAX", 11) - 1;
  const bench::Workload w = bench::MakeKronWorkload(scale);
  const uint64_t n_updates = w.stream.updates.size();

  std::fprintf(stderr, "pipeline alloc bench: %s, %llu updates\n",
               w.name.c_str(), static_cast<unsigned long long>(n_updates));

  using Buffering = GraphZeppelinConfig::Buffering;
  using Storage = GraphZeppelinConfig::Storage;
  struct Case {
    Buffering buffering;
    Storage storage;
    const char* name;
  };
  const Case cases[] = {
      {Buffering::kLeafOnly, Storage::kRam, "leaf_ram"},
      {Buffering::kGutterTree, Storage::kRam, "tree_ram"},
      {Buffering::kLeafOnly, Storage::kDisk, "leaf_disk"},
      {Buffering::kGutterTree, Storage::kDisk, "tree_disk"},
  };

  std::printf("[\n");
  bool first = true;
  for (const Case& c : cases) {
    GraphZeppelinConfig config = bench::DefaultGzConfig();
    config.num_nodes = w.num_nodes;
    config.buffering = c.buffering;
    config.storage = c.storage;
    GraphZeppelin gz(config);
    GZ_CHECK_OK(gz.Init());

    // Phase 1: warm-up pass. Grows the BatchPool to the pipeline's peak
    // depth, gives every node the stream touches its own sketch in the
    // RAM store, and lets every thread that applies batches build the
    // disk store's per-thread delta sketch and record buffer.
    gz.Update(w.stream.updates.data(), n_updates);
    gz.Flush();

    // Phase 2: steady state, counter armed. Same updates again — the
    // sketches just toggle back; costs are identical.
    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_track.store(true);
    WallTimer timer;
    gz.Update(w.stream.updates.data(), n_updates);
    gz.Flush();
    const double seconds = timer.Seconds();
    g_track.store(false);

    const uint64_t allocs = g_alloc_count.load();
    const uint64_t bytes = g_alloc_bytes.load();
    const double allocs_per_update =
        static_cast<double>(allocs) / static_cast<double>(n_updates);
    std::printf(
        "%s  {\"bench\": \"pipeline_alloc\", \"config\": \"%s\",\n"
        "   \"workload\": \"%s\", \"updates\": %llu,\n"
        "   \"steady_allocs\": %llu, \"steady_alloc_bytes\": %llu,\n"
        "   \"allocs_per_update\": %.6f,\n"
        "   \"updates_per_sec\": %.0f,\n"
        "   \"zero_alloc_steady_state\": %s}",
        first ? "" : ",\n", c.name, w.name.c_str(),
        static_cast<unsigned long long>(n_updates),
        static_cast<unsigned long long>(allocs),
        static_cast<unsigned long long>(bytes), allocs_per_update,
        static_cast<double>(n_updates) / seconds,
        allocs == 0 ? "true" : "false");
    first = false;
    GZ_CHECK_MSG(allocs == 0, "steady-state ingestion allocated");
  }

  // Copy gate: a kron-geometry node sketch with content, copied once.
  NodeSketchParams np;
  np.num_nodes = w.num_nodes;
  np.seed = 42;
  NodeSketch sketch(np);
  for (size_t i = 0; i < 64 && i < n_updates; ++i) {
    sketch.Update(EdgeToIndex(w.stream.updates[i].edge, w.num_nodes));
  }
  g_alloc_count.store(0);
  g_track.store(true);
  const NodeSketch copy = sketch;
  g_track.store(false);
  const uint64_t copy_allocs = g_alloc_count.load();
  GZ_CHECK(copy == sketch);
  std::printf(
      ",\n  {\"bench\": \"pipeline_alloc\", \"config\": \"node_sketch_copy\",\n"
      "   \"workload\": \"%s\", \"sketch_bytes\": %zu, \"allocs\": %llu}",
      w.name.c_str(), copy.ByteSize(),
      static_cast<unsigned long long>(copy_allocs));
  GZ_CHECK_MSG(copy_allocs == 1, "copying a node sketch allocated != 1");

  // Disk snapshot gate: the capture holds a zero sketch (for the
  // layout), the shared round state and its flags, and the instance's
  // weak handle to it; no node is read.
  constexpr uint64_t kSnapshotAllocs = 8;
  // Connectivity gate: the query pool's threads and Boruvka's buffers
  // (sized once from V), plus per round the loaded round buffer, the
  // loader's and the phases' task closures and buffer growth.
  constexpr int kQueryThreads = 4;
  constexpr uint64_t kQueryConstAllocs = 48;
  constexpr uint64_t kQueryRoundAllocs = 8;
  GraphZeppelinConfig config = bench::DefaultGzConfig();
  config.num_nodes = w.num_nodes;
  config.storage = GraphZeppelinConfig::Storage::kDisk;
  GraphZeppelin gz(config);
  GZ_CHECK_OK(gz.Init());
  gz.Update(w.stream.updates.data(), n_updates);
  gz.Flush();
  g_alloc_count.store(0);
  g_track.store(true);
  const GraphSnapshot snapshot = gz.Snapshot();
  g_track.store(false);
  const uint64_t snapshot_allocs = g_alloc_count.load();
  GZ_CHECK(snapshot.num_nodes() == w.num_nodes);
  std::printf(
      ",\n  {\"bench\": \"pipeline_alloc\", \"config\": \"disk_snapshot\",\n"
      "   \"workload\": \"%s\", \"nodes\": %llu, \"allocs\": %llu,\n"
      "   \"allocs_per_node\": %.3f}",
      w.name.c_str(), static_cast<unsigned long long>(w.num_nodes),
      static_cast<unsigned long long>(snapshot_allocs),
      static_cast<double>(snapshot_allocs) /
          static_cast<double>(w.num_nodes));
  GZ_CHECK_MSG(snapshot_allocs <= kSnapshotAllocs,
               "disk snapshot allocated more than a constant");

  g_alloc_count.store(0);
  g_track.store(true);
  const ConnectivityResult r = Connectivity(snapshot, kQueryThreads);
  g_track.store(false);
  const uint64_t query_allocs = g_alloc_count.load();
  GZ_CHECK(!r.failed);
  std::printf(
      ",\n  {\"bench\": \"pipeline_alloc\", \"config\": \"disk_query\",\n"
      "   \"workload\": \"%s\", \"nodes\": %llu, \"threads\": %d,\n"
      "   \"rounds_used\": %d, \"allocs\": %llu}",
      w.name.c_str(), static_cast<unsigned long long>(w.num_nodes),
      kQueryThreads, r.rounds_used,
      static_cast<unsigned long long>(query_allocs));
  GZ_CHECK_MSG(query_allocs <= kQueryConstAllocs +
                                   kQueryRoundAllocs * r.rounds_used,
               "query over a disk snapshot allocated more than its rounds");
  std::printf("\n]\n");
  return 0;
}
