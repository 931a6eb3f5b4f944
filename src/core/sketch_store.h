// Sketch stores: where the V node sketches live during ingestion.
//
// InMemorySketchStore keeps them in RAM. OnDiskSketchStore keeps each
// node's sketch in a fixed-size region of a preallocated file and
// merges batched deltas with read-XOR-write cycles — the hybrid
// streaming model of Section 4, where batching (gutters) amortizes the
// per-update I/O cost.
//
// Every sketch a store creates copies one zero sketch, so the graph's
// seeds are hashed once per store. The in-RAM store goes further: every
// node starts as a handle to one shared zero sketch and gets a sketch
// of its own on its first write, so a store holds only the nodes it was
// sent (a shard holds the nodes it owns).
//
// Thread safety: every method is safe to call concurrently from many
// Graph Workers; stores lock per node. The in-RAM store runs a batch
// straight into the node's sketch and shares its sketches with
// snapshots copy-on-write (cow_sketch.h): a write to a node that a live
// snapshot still holds clones that node first, under the node's lock.
// The on-disk store sketches a batch into a per-thread delta (a record's
// rounds are not 8-byte aligned, so the kernel cannot run on the record
// bytes) and XORs it into the record.
//
// Captures: the in-RAM store's Capture() shares every node; the on-disk
// store's is round-lazy (GraphSnapshot::Lazy) and reads a round of
// every node from the file only when a query reaches that round. Such a
// capture reads the live file, so its owner must seal it
// (GraphSnapshot::Seal) before the store's next write; the store counts
// its writes, and a lazy load after one is a check failure, never a
// stale answer.
#ifndef GZ_CORE_SKETCH_STORE_H_
#define GZ_CORE_SKETCH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cow_sketch.h"
#include "core/graph_snapshot.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

class SketchStore {
 public:
  virtual ~SketchStore() = default;

  // Applies `count` edge-index toggles to `node`'s sketch; by default
  // through a per-thread delta sketch and MergeDelta.
  virtual void ApplyBatch(NodeId node, const uint64_t* indices,
                          size_t count);

  // XOR-merges `delta` (a sketch of a batch of updates) into `node`'s
  // sketch. `delta` must have been built with the store's params.
  virtual void MergeDelta(NodeId node, const NodeSketch& delta) = 0;

  // Copies `node`'s current sketch into `out` (constructed with the
  // store's params).
  virtual void Load(NodeId node, NodeSketch* out) = 0;

  // Writes rounds [r_lo, r_hi) of `node`'s serialized record to `out`,
  // round_bytes each, back to back: what a windowed range reply carries
  // for the node, read without materializing its other rounds.
  virtual void ReadRounds(NodeId node, int r_lo, int r_hi, uint8_t* out) = 0;
  // Writes the deterministic bucket of each round in [r_lo, r_hi) of
  // `node`, GraphSnapshot::kSummaryBytes each, back to back: what a
  // summary range reply carries for the node. By default read out of
  // ReadRounds() of the window.
  virtual void ReadSummaries(NodeId node, int r_lo, int r_hi, uint8_t* out);

  // Every node's current sketch as a snapshot at stream position
  // `num_updates`, taken while no write is in flight.
  virtual GraphSnapshot Capture(uint64_t num_updates) = 0;

  // Overwrites `node`'s sketch with `sketch` (params must match).
  // Used by checkpoint restore.
  virtual void Store(NodeId node, const NodeSketch& sketch) = 0;

  virtual size_t RamByteSize() const = 0;
  virtual size_t DiskByteSize() const = 0;

  // Normalized: rounds filled in when the config left them automatic.
  const NodeSketchParams& params() const { return zero_.params(); }
  // The graph's shared sketch layout: geometry and seeds.
  const SketchLayout& layout() const { return zero_.layout(); }
  uint64_t num_nodes() const { return params().num_nodes; }

 protected:
  explicit SketchStore(const NodeSketchParams& params) : zero_(params) {}
  const NodeSketch zero_;  // The empty sketch every node starts from.
};

class InMemorySketchStore : public SketchStore {
 public:
  explicit InMemorySketchStore(const NodeSketchParams& params);

  void ApplyBatch(NodeId node, const uint64_t* indices, size_t count) override;
  void MergeDelta(NodeId node, const NodeSketch& delta) override;
  void Load(NodeId node, NodeSketch* out) override;
  void ReadRounds(NodeId node, int r_lo, int r_hi, uint8_t* out) override;
  // Copies only the buckets, never a whole round.
  void ReadSummaries(NodeId node, int r_lo, int r_hi, uint8_t* out) override;
  GraphSnapshot Capture(uint64_t num_updates) override;
  // An all-zero `sketch` puts the node back on the shared zero.
  void Store(NodeId node, const NodeSketch& sketch) override;
  // Handles, locks and one sketch per node written so far, plus the
  // shared zero: O(1), read from a counter.
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override { return 0; }

 private:
  // `node`'s sketch as a copy-on-write handle, shared with the store.
  CowSketch Share(NodeId node);
  // `node`'s own sketch, cloned from the shared zero on its first write.
  // Caller holds the node's lock.
  NodeSketch& Writable(NodeId node);

  std::vector<CowSketch> sketches_;
  // The sketch every untouched node shares. The store's own handle keeps
  // its count above 1, so Writable() always clones it and never writes
  // into it, even when no node shares it any more.
  const CowSketch shared_zero_;
  // Nodes not on the shared zero.
  std::atomic<uint64_t> materialized_{0};
  // One lock per node; 40 B each is negligible next to the sketches.
  std::unique_ptr<std::mutex[]> locks_;
};

class OnDiskSketchStore : public SketchStore {
 public:
  OnDiskSketchStore(const NodeSketchParams& params, std::string path);
  ~OnDiskSketchStore() override;

  // Creates and preallocates the backing file (all-zero regions are
  // valid empty sketches). Must be called before use.
  Status Init();

  void MergeDelta(NodeId node, const NodeSketch& delta) override;
  void Load(NodeId node, NodeSketch* out) override;
  // One pread of the window's contiguous bytes of the record.
  void ReadRounds(NodeId node, int r_lo, int r_hi, uint8_t* out) override;
  // Round-lazy: the loader preads round r's slice of each node's record.
  GraphSnapshot Capture(uint64_t num_updates) override;
  void Store(NodeId node, const NodeSketch& sketch) override;
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override;

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  uint8_t* ReadRecord(NodeId node);
  void WriteRecord(NodeId node, const uint8_t* record);
  // One pread per node of round `round`'s slice, for nodes [lo, hi),
  // node i's to out + (i - lo) * round_stride.
  void ReadRound(int round, uint64_t lo, uint64_t hi, uint8_t* out);

  std::string path_;
  int fd_ = -1;
  size_t record_bytes_;  // Serialized node-sketch size (uniform).
  std::unique_ptr<std::mutex[]> locks_;
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  // Record writes so far, counted before each pwrite: the generation a
  // lazy capture checks its loads against.
  std::atomic<uint64_t> writes_{0};
};

}  // namespace gz

#endif  // GZ_CORE_SKETCH_STORE_H_
