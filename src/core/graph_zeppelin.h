// GraphZeppelin: the paper's streaming connected-components system
// (Section 5). Wires together the buffering system (leaf-only gutters
// or on-disk gutter tree), the work queue, the Graph Worker pool, and
// the sketch store (RAM or SSD), and answers connectivity queries by
// running Boruvka's algorithm over snapshot sketches.
//
// User-facing API mirrors the paper: Update() (edge_update) ingests one
// stream element; Snapshot() flushes buffers and captures the sketch
// state as an immutable GraphSnapshot, the query surface every
// downstream consumer (Connectivity, forest decomposition, sharded
// aggregation, checkpointing) operates on. Queries may be issued
// mid-stream; ingestion can continue afterwards.
#ifndef GZ_CORE_GRAPH_ZEPPELIN_H_
#define GZ_CORE_GRAPH_ZEPPELIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/guttering_system.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_worker.h"
#include "core/sketch_store.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

struct GraphZeppelinConfig {
  uint64_t num_nodes = 0;  // Upper bound U on the vertex count.
  uint64_t seed = 42;

  // Sketch geometry. cols = 7 matches delta = 1/100; rounds = 0 picks
  // ceil(log_{3/2} V) automatically.
  int cols = 7;
  int rounds = 0;

  // Ingestion parallelism: the number of Graph Worker threads. The
  // thread calling Update()/Flush() also applies batches, but only while
  // it would otherwise block on a full work queue (caller-runs, see
  // core/graph_worker.h).
  int num_workers = 2;

  enum class Buffering { kLeafOnly, kGutterTree };
  Buffering buffering = Buffering::kLeafOnly;

  enum class Storage { kRam, kDisk };
  Storage storage = Storage::kRam;

  // Leaf gutter capacity as a fraction f of the node-sketch size
  // (Figure 15's knob). Applies to both buffering structures.
  double gutter_fraction = 0.5;

  // Nodes per leaf gutter (Section 4.1 node groups; 1 = paper's
  // measured best for in-RAM gutters, larger for block-granular disks).
  uint64_t nodes_per_gutter_group = 1;

  // Directory for the gutter tree and on-disk sketch store files.
  std::string disk_dir = "/tmp";

  // Gutter tree geometry (paper: 8 MB buffers, fan-out 512; defaults
  // here are scaled to this environment but configurable back up).
  size_t gutter_tree_buffer_bytes = 1 << 22;
  size_t gutter_tree_fanout = 64;

  // Query-time parallelism for Boruvka (0 = auto-size a small pool,
  // 1 = sequential). Results are identical for every value.
  int query_threads = 0;
};

class GraphZeppelin {
 public:
  explicit GraphZeppelin(const GraphZeppelinConfig& config);
  ~GraphZeppelin();
  GraphZeppelin(const GraphZeppelin&) = delete;
  GraphZeppelin& operator=(const GraphZeppelin&) = delete;

  // Allocates sketches, buffering and workers. Must be called once
  // before the first Update().
  Status Init();

  // Ingests one stream update ((u, v), ±1). Inserts and deletions are
  // both XOR toggles of the edge's coordinate. Updates are batched at
  // this API boundary: they accumulate in a small span buffer that is
  // handed to the buffering system in bulk, so the gutters see spans
  // rather than single edges.
  void Update(const GraphUpdate& update);

  // Bulk ingestion: the preferred path for stream drivers that already
  // hold a span of updates. Equivalent to calling Update() per element
  // but skips the API-boundary copy and per-update dispatch.
  void Update(const GraphUpdate* updates, size_t count);

  // Bulk ingestion of node updates: each item toggles its edge in its
  // one node's sketch only, and counts as one toward
  // num_updates_ingested(). A shard ingests this way: it is sent the
  // halves of the updates whose node it owns (shard_protocol.h). Every
  // item must name two distinct nodes below num_nodes.
  void UpdateNodes(const NodeUpdate* updates, size_t count);

  // Forces all buffered updates through the workers and blocks until
  // every sketch is up to date (paper cleanup()). Implied by
  // ListSpanningForest(); exposed so benchmarks can separate ingestion
  // time from query time.
  void Flush();

  // Flushes all buffered updates and computes the connected components
  // from a snapshot (equivalent to Connectivity(Snapshot())). Ingestion
  // may continue afterwards.
  ConnectivityResult ListSpanningForest();

  // Flushes and captures the sketch state as an immutable GraphSnapshot.
  // A RAM store shares its node sketches with the snapshot
  // copy-on-write (one reference per node, taken under that node's
  // lock), so a capture copies nothing, and ingestion that continues
  // while the snapshot lives clones only the nodes it touches. A disk
  // store's capture is round-lazy: a query reads from the file only the
  // rounds Boruvka reaches. This instance keeps a weak handle to each
  // such capture and seals it (loads its remaining rounds) before the
  // store's next write: before the first later update reaches the
  // gutters, in MergeSerialized and LoadCheckpoint, and on destruction.
  // So a capture never changes, whatever the instance does after it.
  // The snapshot is the system's query surface — every query algorithm,
  // the sharded coordinator's aggregation, and checkpointing consume it;
  // linearity makes snapshots from same-seed instances XOR-mergeable.
  GraphSnapshot Snapshot();

  // --- Serialized sketch state -------------------------------------------
  // The one producer of this instance's serialized sketch state: flushes,
  // then streams the records of nodes [lo, hi), each holding only `part`
  // of the rounds [r_lo, r_hi), through `write`, one record in flight,
  // under a header carrying num_updates_ingested() — so even an
  // out-of-core sketch store never materializes them, and a window reads
  // only its rounds, or only their deterministic buckets, from the store
  // (SketchStore::ReadRounds, ReadSummaries); samples are taken from the
  // rounds it reads, one at a time (GraphSnapshot::WriteSamples). A
  // shard answers MIGRATE_EXTRACT this way straight into its socket, and
  // a checkpoint is whole rounds of [0, V) x [0, R) written to a file.
  // The byte count is GraphSnapshot::SerializedSizeFor(sketch_params(),
  // lo, hi, r_lo, r_hi, part), known before the first call. The range
  // comes off the wire, so a bad one is an InvalidArgument, not a check
  // failure.
  Status WriteNodeRangeTo(
      uint64_t lo, uint64_t hi, int r_lo, int r_hi, RoundPart part,
      const std::function<Status(const void* data, size_t size)>& write);

  // XOR-folds serialized bytes of any node range into this instance's
  // sketch store (flushes first so the fold lands on a consistent
  // state). The same call installs migrated state on a successor and
  // cancels it on the source — XORing a shard's own extracted bytes back
  // into it zeroes that range, which is how linearity expresses "move"
  // without a destructive (and replay-order-sensitive) clear operation.
  // num_updates_ingested() is never affected: stream positions stay
  // with the shard that ingested the updates. InvalidArgument on
  // malformed bytes or a params mismatch, with the store untouched.
  Status MergeSerialized(const uint8_t* data, size_t size);

  // --- Checkpointing -----------------------------------------------------
  // SaveCheckpoint is WriteNodeRangeTo(0, V, 0, R) into a file — the bytes of
  // Snapshot().SaveToFile(path), buffered updates flushed first so a
  // restore resumes exactly here. It publishes through
  // GraphSnapshot::SaveStream (`path`.tmp, then a rename), so a failed
  // save (IoError) leaves the previous file intact. LoadCheckpoint
  // overwrites this instance's sketch state with such a file, streamed
  // record by record into the store, and adopts its update count; a
  // params mismatch is an InvalidArgument. These are the two ways
  // GZSNAP05 bytes come in: a whole file here, any node range of whole
  // records through MergeSerialized.
  Status SaveCheckpoint(const std::string& path);
  Status LoadCheckpoint(const std::string& path);

  // Overwrites the ingested-update count without touching sketch
  // state. Replication repair needs this split: an anti-entropy pass
  // fixes a replica's content with range folds (which never touch counts),
  // then asserts the logical position the repaired content represents.
  void SetUpdatesIngested(uint64_t count) { num_updates_ = count; }

  // ----- Introspection ---------------------------------------------------
  uint64_t num_updates_ingested() const { return num_updates_; }
  const NodeSketchParams& sketch_params() const;
  // Bytes of one node sketch (drives gutter sizing).
  size_t node_sketch_bytes() const { return node_sketch_bytes_; }
  size_t RamByteSize() const;
  size_t DiskByteSize() const;

  const GraphZeppelinConfig& config() const { return config_; }

 private:
  // Updates buffered at the API boundary before a bulk hand-off to the
  // gutters (GutteringSystem::InsertBatch).
  static constexpr size_t kIngestSpanUpdates = 1024;

  // Hands the API-boundary span buffer to the gutters.
  void DrainIngestSpan();
  // Seals every live lazy capture: called before any store write that
  // follows a capture.
  void SealCaptures();

  GraphZeppelinConfig config_;
  size_t node_sketch_bytes_ = 0;
  uint64_t num_updates_ = 0;
  std::string gutter_tree_path_;
  std::string sketch_store_path_;
  std::vector<GraphUpdate> ingest_span_;  // Reserved once in Init().
  // Lazy captures not sealed yet; empty whenever the store may be
  // written, so ingestion tests one pointer per span.
  std::vector<std::weak_ptr<GraphSnapshot::LazyRounds>> unsealed_;

  // Declaration order doubles as reverse destruction order: the worker
  // pool must die before the queue/store it references, and everything
  // holding slabs (gutters, workers) before the batch pool.
  std::unique_ptr<WorkQueue> queue_;
  std::unique_ptr<BatchPool> batch_pool_;
  std::unique_ptr<SketchStore> store_;
  std::unique_ptr<GutteringSystem> gutters_;
  std::unique_ptr<WorkerPool> pool_;
  bool initialized_ = false;
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_ZEPPELIN_H_
