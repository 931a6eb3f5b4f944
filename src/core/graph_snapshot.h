// GraphSnapshot: the first-class, immutable query surface of the
// system — one node sketch per vertex captured at a flush barrier,
// together with the metadata (sketch params, seed, update count) that
// makes the capture self-describing.
//
// Sketch linearity (paper Section 3.1) is what makes this type more
// than a container: snapshots taken from *any* instances built with the
// same seed and geometry can be XOR-merged with Merge(), and the result
// is exactly the snapshot a single instance would have produced for the
// combined stream. The same algebra, applied to serialized node ranges
// round by round, is how the sharded coordinator and reader sessions
// fold a cluster (distributed/range_pull.h). Sketches are per node and
// per round, so every transfer of sketch state has one serialized form,
// the records of a node range [lo, hi) x round window [r_lo, r_hi), of
// whole rounds, of their deterministic buckets alone or of their
// samples: a shard's reply, a migration or repair delta, and a
// checkpoint file (the whole range [0, V) x [0, R)) are all the same
// bytes, and a reader pulls round 0's samples and the summaries of
// every later round first and a whole round only when a query needs it.
//
// All query algorithms (connectivity, spanning-forest decomposition,
// bipartiteness, MSF weight) consume `const GraphSnapshot&` and only
// read it: Boruvka reads one round of every node at a time, first its
// summary (Summary(): every node's deterministic bucket) and then, only
// if the summary does not decide it, the whole round (Round()), and
// builds each round's component sketches fresh, so no query copies the
// snapshot.
//
// A snapshot has one of two forms, with identical contents:
// - eager: one copy-on-write node-sketch handle per vertex
//   (cow_sketch.h): a capture of an in-RAM store, a deserialized or
//   loaded file, or a lazy snapshot made whole. Copying a snapshot, or
//   capturing one from an in-RAM store, shares every node sketch; the
//   mutators below (Merge, ToggleEdge) clone a node only while another
//   holder still shares it.
// - round-lazy (Lazy()): a capture of an out-of-core store, a reader
//   session's snapshot of a cluster, or the coordinator's fold of one
//   (ShardCluster::Snapshot(), whose loader only hands over rounds
//   already pulled), holds a round loader and one V x round_stride
//   buffer per round, filled the first time any copy asks for that
//   round (Round()) and never again; copies share
//   the buffers. A round's summary is loaded the same way (Summary()),
//   into a V x 12-byte buffer, unless its whole round is loaded
//   already. A query whose last round its summaries decide loads only
//   the rounds before it whole. A reader session's snapshot also holds
//   round 0's samples, handed over at construction (Samples()), from
//   which Boruvka answers every singleton of that round without loading
//   it.
//   A load may fail (a reader's cluster moved on): the snapshot then
//   keeps the first failure as load_status(), Round() returns it for
//   every round not loaded yet, and nothing is ever built from a round
//   that did not load. Everything that needs whole node sketches
//   (Merge, ToggleEdge, serialization, ==) loads every remaining round
//   first, so it sees exactly the bytes an eager capture holds, and a
//   failed load makes it return that load's status (or compare
//   unequal). Seal() loads every remaining round too: after it the
//   capture never calls its loader again, which is what the store's
//   owner must ensure before the store changes.
#ifndef GZ_CORE_GRAPH_SNAPSHOT_H_
#define GZ_CORE_GRAPH_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cow_sketch.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

// The part of each round that a serialized range or a lazy load
// carries: the whole round slice; its deterministic bucket alone
// (SketchLayout::kDetBucketBytes bytes), the round's summary; or the
// round's samples, the producer's SketchLayout::SampleColumns() result
// on its own slice (GraphSnapshot::WriteSamples). A summary decides
// every component whose bucket sum is zero or a verified singleton
// (SketchLayout::SampleDeterministic); samples are a node's exact
// answer wherever no other producer's slice of that node is nonzero.
// The values are the wire encoding.
enum class RoundPart : uint32_t { kWhole = 0, kSummary = 1, kSamples = 2 };

class GraphSnapshot {
 public:
  // Empty snapshot; valid() is false and every other accessor is
  // off-limits until one is move-assigned in.
  GraphSnapshot() = default;

  // Takes ownership of `sketches` (one per vertex, all built with
  // identical params). `num_updates` is the stream position the capture
  // represents.
  GraphSnapshot(std::vector<NodeSketch> sketches, uint64_t num_updates);
  // Same, sharing the sketches behind the handles.
  GraphSnapshot(std::vector<CowSketch> sketches, uint64_t num_updates);

  // Runs body(b) once for every b in [0, num_blocks), on any threads,
  // and returns when all have run.
  using BlockRunner = std::function<void(
      size_t num_blocks, const std::function<void(size_t)>& body)>;
  // Fills `out` with `part` of round `round` of every node. kWhole:
  // V * round_stride bytes, node i's layout().round_bytes() at
  // i * round_stride (the padding zero). kSummary: V * kSummaryBytes
  // bytes, node i's deterministic bucket at i * kSummaryBytes; or, from
  // a loader that cannot read a summary more cheaply, the whole round
  // as for kWhole (the size tells which). Never kSamples: a snapshot
  // holds only the samples handed to Lazy(). `run` spreads work in
  // blocks of `block_nodes` nodes over a query pool. Called at most
  // once per round and part, and never for a part of a round loaded
  // whole, from any thread; a non-Ok status fails the round (and the
  // snapshot's load_status()).
  using RoundLoader = std::function<Status(
      int round, RoundPart part, uint64_t block_nodes, const BlockRunner& run,
      std::vector<uint8_t>* out)>;
  static constexpr size_t kSummaryBytes = SketchLayout::kDetBucketBytes;
  // A round-lazy snapshot of the sketches `load` reads, all built with
  // `zero`'s params (`zero` is the empty sketch; it lends its layout).
  // `samples`, unless empty, is round 0's samples: V * SamplesBytes(cols)
  // bytes, node i's valid record (one FoldSerialized() passed) at
  // i * SamplesBytes(cols), each exact for its node's round-0 slice of
  // the sketches `load` reads.
  static GraphSnapshot Lazy(const NodeSketch& zero, uint64_t num_updates,
                            RoundLoader load,
                            std::vector<uint8_t> samples = {});

  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;
  GraphSnapshot(const GraphSnapshot&) = default;
  GraphSnapshot& operator=(const GraphSnapshot&) = default;

  bool valid() const { return !sketches_.empty() || lazy_ != nullptr; }
  const NodeSketchParams& params() const;
  // The graph's shared sketch layout: geometry and seeds.
  const SketchLayout& layout() const;
  uint64_t num_nodes() const { return valid() ? params().num_nodes : 0; }
  uint64_t seed() const { return params().seed; }
  int rounds() const { return params().rounds; }
  uint64_t num_updates() const { return num_updates_; }

  // One round of every node's sketch: node i's round_bytes slice, for
  // a summary its kSummaryBytes deterministic bucket, or for samples its
  // SamplesBytes(cols) record. Valid while the snapshot (or a copy
  // sharing its sketches) lives.
  class RoundView {
   public:
    const uint8_t* node(NodeId i) const {
      return flat_ != nullptr ? flat_ + i * stride_
                              : nodes_[i]->subsketch(round_) + offset_;
    }

   private:
    friend class GraphSnapshot;
    const uint8_t* flat_ = nullptr;    // Lazy: a loaded buffer.
    size_t stride_ = 0;
    const CowSketch* nodes_ = nullptr;  // Eager: the node handles.
    int round_ = 0;
    size_t offset_ = 0;  // Eager: where node(i) starts in the slice.
  };
  // Round `round` of every node, into *view. A lazy snapshot loads it
  // here the first time any copy asks, in blocks of `block_nodes` nodes
  // handed to `run` (a query pool; null runs the blocks in order on
  // this thread); a concurrent caller waits for that load. Returns the
  // load's failure, with *view untouched, when the round did not load.
  Status Round(int round, uint64_t block_nodes, const BlockRunner& run,
               RoundView* view) const;
  // The summary of round `round`, into *view: node(i) is node i's
  // deterministic bucket. An eager snapshot serves it from its slices
  // in place; a lazy one views the whole round when that is loaded and
  // otherwise loads the summary part, as Round() loads a round.
  Status Summary(int round, uint64_t block_nodes, const BlockRunner& run,
                 RoundView* view) const;
  // Round 0's samples, into *view, when the snapshot holds them (only a
  // lazy one does: those handed to Lazy()): node(i) is node i's record,
  // which ReadSamples() turns into exactly what SampleColumns() returns
  // on node i's whole round-0 slice. Returns false, with *view
  // untouched, otherwise; nothing is ever loaded.
  bool Samples(RoundView* view) const;
  // The first failed load's status: Ok while every load succeeded.
  Status load_status() const;

  // A weak handle to a lazy snapshot's shared rounds (empty for an eager
  // one), and Seal(), which loads every round not loaded yet in every
  // copy of that capture without keeping any alive (a no-op once the
  // handle expired).
  class LazyRounds;
  std::weak_ptr<LazyRounds> lazy_rounds() const { return lazy_; }
  static void Seal(const std::weak_ptr<LazyRounds>& handle);

  // XOR-merges `other` into this snapshot (node-wise sketch sum, update
  // counts add). Fails with InvalidArgument unless both snapshots were
  // built with identical params — same seed, node bound and geometry —
  // since only then is the merge a sketch of the combined stream; a
  // lazy side whose rounds fail to load returns that load's status.
  Status Merge(const GraphSnapshot& other);

  // Toggles edge `e` in both endpoints' sketches, leaving num_updates()
  // alone: how forest peeling deletes a found forest from the graph the
  // snapshot sketches. A lazy snapshot loads every round first and
  // returns a failed load's status, toggling nothing.
  Status ToggleEdge(const Edge& e);

  // --- Serialization -------------------------------------------------------
  // One byte format carries every transfer of sketch state — checkpoint
  // files, shard replies, reader pulls, migration and repair deltas: the
  // records of the nodes [lo, hi), each holding `part` of the rounds
  // [r_lo, r_hi).
  //
  //   header  magic "GZSNAP05" | u64 num_nodes | u64 seed | i32 cols |
  //           i32 rounds | u64 lo | u64 hi | u64 num_updates |
  //           i32 r_lo | i32 r_hi | u32 part
  //   body    hi - lo records of (r_hi - r_lo) * unit bytes: round
  //           r_lo's bytes, then r_lo + 1's, ... The unit is round_bytes
  //           for part 0 (RoundPart::kWhole; a whole record is
  //           [0, rounds), the node sketch's serialized form), the
  //           12-byte deterministic bucket for part 1
  //           (RoundPart::kSummary), and a SamplesBytes(cols) samples
  //           record (below) for part 2 (RoundPart::kSamples). Any other
  //           part is InvalidArgument.
  //
  // A samples record (u8 tag | 3 zero bytes | u32 count | cols x u64
  // coordinates, 64 bytes at cols = 7) is one node's samples of one
  // round as its producer holds them. Tag 0, untouched: the producer's
  // slice of that node and round is all zero bytes, and the record is
  // all zero. Tag 1 + SampleKind: SampleColumns() on that slice, with
  // `count` coordinates (1..cols for kGood, none for kZero and kFail),
  // each below the sketch's vector length, and every unused slot zero.
  // FoldSerialized refuses any other record.
  //
  // A whole snapshot is [0, V) x [0, R) of whole rounds. num_updates is
  // the producer's stream position when the bytes were written; only
  // whole-snapshot loads adopt it, and range folds never touch counts
  // (stream positions stay with the instance that ingested the
  // updates). Bytes with an older magic (GZSNAP04 to GZSNAP01) are
  // refused with InvalidArgument.
  static constexpr size_t kHeaderBytes = 68;
  static size_t SerializedSizeFor(const NodeSketchParams& params, uint64_t lo,
                                  uint64_t hi);
  static size_t SerializedSizeFor(const NodeSketchParams& params, uint64_t lo,
                                  uint64_t hi, int r_lo, int r_hi,
                                  RoundPart part = RoundPart::kWhole);

  // The samples record codec. SamplesBytes is one record's size;
  // WriteSamples writes the record of round `round`'s slice at `slice`
  // (round_bytes) into `record`, both 8-aligned; ReadSamples returns the
  // SampleColumns() result a valid record carries, its coordinates
  // copied to out (cols slots), and kZero for an untouched one.
  static constexpr size_t SamplesBytes(int cols) {
    return 8 + 8 * static_cast<size_t>(cols);
  }
  static void WriteSamples(const SketchLayout& layout, int round,
                           const uint8_t* slice, uint8_t* record);
  static ColumnSamples ReadSamples(const uint8_t* record, uint64_t* out);

  // The whole snapshot, [0, V) x [0, R).
  size_t SerializedSize() const;
  std::vector<uint8_t> Serialize() const;
  // Whole snapshots only: InvalidArgument for any other range or part,
  // for malformed bytes, or for a size that does not match the header.
  static Result<GraphSnapshot> Deserialize(const uint8_t* data, size_t size);

  // The fold behind every consumer of serialized bytes: validates `data`
  // in full against `params`, the round window [r_lo, r_hi) and the part
  // the caller expects, and every samples record (InvalidArgument on any
  // mismatch or bad record), then hands each node's record bytes
  // ((r_hi - r_lo) units of round_bytes, kSummaryBytes or SamplesBytes)
  // to `fold` in order. `fold` never sees bytes that failed validation.
  static Status FoldSerialized(
      const uint8_t* data, size_t size, const NodeSketchParams& params,
      int r_lo, int r_hi,
      const std::function<void(NodeId, const uint8_t* record)>& fold,
      RoundPart part = RoundPart::kWhole);

  // Where streamed bytes go: a file, a socket frame or a buffer.
  using ByteSink = std::function<Status(const void* data, size_t size)>;

  // Streaming producer of the byte stream for `part` of [lo, hi) x
  // [r_lo, r_hi): header first, then one record per node, which `load`
  // writes into the buffer it is handed ((r_hi - r_lo) units, as in
  // FoldSerialized), so only one record is ever materialized — how a
  // shard streams sketch state into a socket frame or a checkpoint
  // file.
  static Status SaveToSink(
      const ByteSink& sink, const NodeSketchParams& params, uint64_t lo,
      uint64_t hi, int r_lo, int r_hi, uint64_t num_updates,
      const std::function<void(NodeId, uint8_t* record)>& load,
      RoundPart part = RoundPart::kWhole);

  // File forms, always whole snapshots, streamed one record at a time.
  // SaveToFile publishes atomically (see SaveStream). LoadFromFile
  // distinguishes a missing file (NotFound), a malformed header, partial
  // range or a summary or samples part (InvalidArgument) and a short
  // body (IoError).
  Status SaveToFile(const std::string& path) const;
  static Result<GraphSnapshot> LoadFromFile(const std::string& path);

  // The one snapshot-file writer, behind SaveToFile and
  // GraphZeppelin::SaveCheckpoint: `produce` streams a whole snapshot
  // into the sink it is handed, which writes `path`.tmp; only a
  // complete file is renamed over `path`, so a failed save (IoError)
  // leaves the previous file intact.
  static Status SaveStream(
      const std::string& path,
      const std::function<Status(const ByteSink&)>& produce);

  // The streaming loader behind LoadFromFile, for consumers that cannot
  // afford a materialized snapshot: validates the header against
  // `expect_params` (InvalidArgument on mismatch), hands each record to
  // `store`, and returns the saved update count.
  static Status LoadStream(
      const std::string& path, const NodeSketchParams& expect_params,
      uint64_t* num_updates,
      const std::function<void(NodeId, const NodeSketch&)>& store);

  friend bool operator==(const GraphSnapshot& a, const GraphSnapshot& b);

 private:
  // Turns a lazy snapshot into the eager form with the same contents,
  // loading every remaining round; no-op when already eager. A failed
  // load leaves the snapshot lazy and returns its status.
  Status MakeEager();
  // The whole records of the nodes [lo, hi), materialized.
  std::vector<uint8_t> ExtractNodeRange(uint64_t lo, uint64_t hi) const;
  // Streams the records of [lo, hi) through `sink`.
  Status SaveRange(const ByteSink& sink, uint64_t lo, uint64_t hi) const;

  uint64_t num_updates_ = 0;
  std::vector<CowSketch> sketches_;    // Eager form: one per vertex.
  std::shared_ptr<LazyRounds> lazy_;   // Lazy form: shared by copies.
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_SNAPSHOT_H_
