#include "core/graph_snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <mutex>

#include "util/check.h"

namespace gz {
namespace {

// Shared by checkpoint files and network frames; bump the trailing
// version digits on layout changes. GZSNAP02 had no round window,
// GZSNAP03 no part, GZSNAP04 stored cumulative column buckets.
constexpr char kMagic[8] = {'G', 'Z', 'S', 'N', 'A', 'P', '0', '5'};
constexpr size_t kVersionDigits = 2;
static_assert(GraphSnapshot::kHeaderBytes ==
                  sizeof(kMagic) +
                      2 * sizeof(uint64_t) +  // num_nodes, seed
                      2 * sizeof(int32_t) +   // cols, rounds
                      3 * sizeof(uint64_t) +  // lo, hi, num_updates
                      2 * sizeof(int32_t) +   // r_lo, r_hi
                      sizeof(uint32_t),       // part
              "header layout");

struct Header {
  NodeSketchParams params;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t num_updates = 0;
  int32_t r_lo = 0;
  int32_t r_hi = 0;
  RoundPart part = RoundPart::kWhole;
};

// One record of `part` of the window [r_lo, r_hi).
size_t RecordBytes(const NodeSketchParams& params, int r_lo, int r_hi,
                   RoundPart part) {
  size_t unit = GraphSnapshot::kSummaryBytes;
  if (part == RoundPart::kWhole) {
    unit = SketchLayout::RoundBytes(NumPossibleEdges(params.num_nodes),
                                    params.cols);
  } else if (part == RoundPart::kSamples) {
    unit = GraphSnapshot::SamplesBytes(params.cols);
  }
  return unit * static_cast<size_t>(r_hi - r_lo);
}

const char* PartName(RoundPart part) {
  return part == RoundPart::kWhole     ? "whole rounds"
         : part == RoundPart::kSummary ? "round summaries"
                                       : "round samples";
}

// Samples records carry a tag byte, three zero bytes and a u32 count
// ahead of their coordinates.
constexpr size_t kSamplesCountOffset = 4;
constexpr size_t kSamplesHeadBytes = 8;

uint32_t SamplesCount(const uint8_t* record) {
  uint32_t count;
  std::memcpy(&count, record + kSamplesCountOffset, sizeof(count));
  return count;
}

// Whether the `bytes` at `p` are all zero: an OR over 8-byte words with
// no early exit, which the compiler vectorizes (a byte-wise scan cost
// more than sampling the slice).
bool AllZero(const uint8_t* p, size_t bytes) {
  uint64_t acc = 0;
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= bytes; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    acc |= word;
  }
  for (; i < bytes; ++i) acc |= p[i];
  return acc == 0;
}

// Why the samples record at `record` is not one WriteSamples() could
// have written for a sketch of `vector_len` coordinates in `cols`
// columns, or null when it is.
const char* BadSamples(const uint8_t* record, int cols, uint64_t vector_len) {
  const uint8_t tag = record[0];
  const uint32_t count = SamplesCount(record);
  if (tag > 1 + static_cast<int>(SampleKind::kFail)) {
    return "unknown samples tag";
  }
  if (count > static_cast<uint32_t>(cols)) {
    return "samples count exceeds the columns";
  }
  // Only a good sample has coordinates, and it has at least one.
  const bool good = tag == 1 + static_cast<int>(SampleKind::kGood);
  if (good != (count > 0)) return "samples count does not match the tag";
  for (size_t b = 1; b < kSamplesCountOffset; ++b) {
    if (record[b] != 0) return "nonzero samples padding";
  }
  for (uint32_t k = 0; k < static_cast<uint32_t>(cols); ++k) {
    uint64_t coordinate;
    std::memcpy(&coordinate, record + kSamplesHeadBytes + 8 * k,
                sizeof(coordinate));
    if (k < count && coordinate >= vector_len) {
      return "samples coordinate past the vector length";
    }
    if (k >= count && coordinate != 0) return "nonzero unused samples slot";
  }
  return nullptr;
}

void WriteHeader(const Header& h, uint8_t* out) {
  const uint64_t num_nodes = h.params.num_nodes;
  const uint64_t seed = h.params.seed;
  const int32_t cols = h.params.cols;
  const int32_t rounds = h.params.rounds;
  std::memcpy(out, kMagic, 8);
  std::memcpy(out + 8, &num_nodes, 8);
  std::memcpy(out + 16, &seed, 8);
  std::memcpy(out + 24, &cols, 4);
  std::memcpy(out + 28, &rounds, 4);
  std::memcpy(out + 32, &h.lo, 8);
  std::memcpy(out + 40, &h.hi, 8);
  std::memcpy(out + 48, &h.num_updates, 8);
  std::memcpy(out + 56, &h.r_lo, 4);
  std::memcpy(out + 60, &h.r_hi, 4);
  const uint32_t part = static_cast<uint32_t>(h.part);
  std::memcpy(out + 64, &part, 4);
}

// Parses and sanity-checks the fixed-size header. num_nodes is capped
// at the NodeId (uint32) range, the geometry caps keep one record's
// size sane, [lo, hi) must lie inside the node bound and [r_lo, r_hi)
// inside the round budget, and the part must be one this build knows;
// with the overflow guard below they make a garbage header an error,
// never a huge allocation.
Status ParseHeader(const uint8_t* in, Header* h) {
  const size_t family = sizeof(kMagic) - kVersionDigits;
  if (std::memcmp(in, kMagic, family) == 0 &&
      std::memcmp(in + family, kMagic + family, kVersionDigits) != 0) {
    return Status::InvalidArgument(
        "GraphSnapshot version " +
        std::string(reinterpret_cast<const char*>(in), sizeof(kMagic)) +
        " is not readable by this build, which reads " +
        std::string(kMagic, sizeof(kMagic)) + "; regenerate it");
  }
  if (std::memcmp(in, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a GraphSnapshot: bad magic");
  }
  uint64_t num_nodes = 0, seed = 0;
  int32_t cols = 0, rounds = 0;
  std::memcpy(&num_nodes, in + 8, 8);
  std::memcpy(&seed, in + 16, 8);
  std::memcpy(&cols, in + 24, 4);
  std::memcpy(&rounds, in + 28, 4);
  std::memcpy(&h->lo, in + 32, 8);
  std::memcpy(&h->hi, in + 40, 8);
  std::memcpy(&h->num_updates, in + 48, 8);
  std::memcpy(&h->r_lo, in + 56, 4);
  std::memcpy(&h->r_hi, in + 60, 4);
  uint32_t part = 0;
  std::memcpy(&part, in + 64, 4);
  if (num_nodes < 2 || num_nodes > (1ULL << 32) || cols < 1 ||
      cols > 1024 || rounds < 1 || rounds > 4096 ||
      !(h->lo < h->hi && h->hi <= num_nodes) ||
      !(0 <= h->r_lo && h->r_lo < h->r_hi && h->r_hi <= rounds)) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  if (part > static_cast<uint32_t>(RoundPart::kSamples)) {
    return Status::InvalidArgument("GraphSnapshot header names unknown part " +
                                   std::to_string(part));
  }
  h->params.num_nodes = num_nodes;
  h->params.seed = seed;
  h->params.cols = cols;
  h->params.rounds = rounds;
  h->part = static_cast<RoundPart>(part);
  const size_t record = RecordBytes(h->params, h->r_lo, h->r_hi, h->part);
  if (h->hi - h->lo > (SIZE_MAX - GraphSnapshot::kHeaderBytes) / record) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  return Status::Ok();
}

// Parses an in-memory buffer, whose length must match its header.
Status ParseBuffer(const uint8_t* data, size_t size, Header* h) {
  if (data == nullptr || size < GraphSnapshot::kHeaderBytes) {
    return Status::InvalidArgument("GraphSnapshot buffer too short");
  }
  Status s = ParseHeader(data, h);
  if (!s.ok()) return s;
  if (size != GraphSnapshot::SerializedSizeFor(h->params, h->lo, h->hi,
                                               h->r_lo, h->r_hi, h->part)) {
    return Status::InvalidArgument(
        "GraphSnapshot buffer size does not match its header");
  }
  return Status::Ok();
}

// Whole-snapshot consumers (Deserialize and the file loaders) adopt the
// header's update count, which only means something for whole rounds of
// all of [0, V) x [0, R).
Status RequireWhole(const Header& h) {
  if (h.lo != 0 || h.hi != h.params.num_nodes || h.r_lo != 0 ||
      h.r_hi != h.params.rounds || h.part != RoundPart::kWhole) {
    return Status::InvalidArgument(
        "serialized node range is not a whole GraphSnapshot");
  }
  return Status::Ok();
}

// Opens `path` and parses its whole-snapshot header. On success the
// stream is positioned at the first node record and the body length has
// been verified to cover every record (trailing bytes are tolerated).
Status OpenSnapshotFile(const std::string& path, FILE** out, Header* header) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot file: " + path);
  }
  uint8_t header_buf[GraphSnapshot::kHeaderBytes];
  if (std::fread(header_buf, 1, sizeof(header_buf), f) !=
      sizeof(header_buf)) {
    std::fclose(f);
    return Status::InvalidArgument("malformed snapshot header: " + path);
  }
  Status s = ParseHeader(header_buf, header);
  if (s.ok()) s = RequireWhole(*header);
  if (!s.ok()) {
    std::fclose(f);
    return s;
  }
  // Size check up front: a corrupt node count must not drive the
  // caller's allocations past what the file can actually back.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  const long file_bytes = std::ftell(f);
  if (file_bytes < 0 ||
      static_cast<size_t>(file_bytes) <
          GraphSnapshot::SerializedSizeFor(header->params, 0, header->hi)) {
    std::fclose(f);
    return Status::IoError("truncated snapshot file: " + path);
  }
  if (std::fseek(f, static_cast<long>(sizeof(header_buf)), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  *out = f;
  return Status::Ok();
}

// Hands every record of the file OpenSnapshotFile opened to `store`,
// then closes it.
Status ReadRecords(
    FILE* f, const std::string& path, const NodeSketchParams& params,
    const std::function<void(NodeId, const NodeSketch&)>& store) {
  NodeSketch scratch(params);
  std::vector<uint8_t> buf(scratch.SerializedSize());
  Status s = Status::Ok();
  for (uint64_t i = 0; i < params.num_nodes; ++i) {
    if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      s = Status::IoError("truncated snapshot file: " + path);
      break;
    }
    scratch.DeserializeFrom(buf.data());
    store(static_cast<NodeId>(i), scratch);
  }
  std::fclose(f);
  return s;
}

}  // namespace

// The shared state of a round-lazy snapshot: per round, its whole
// buffer and its summary buffer, each filled by at most one loader call
// under the round's lock, which makes a concurrent caller wait for the
// fill and publishes the buffer (or the round's failure) to every
// caller that takes the lock after it. A filled buffer never changes
// again, so views into it stay valid without the lock.
class GraphSnapshot::LazyRounds {
 public:
  LazyRounds(const NodeSketch& zero, RoundLoader load,
             std::vector<uint8_t> samples)
      : zero_(zero),
        load_(std::move(load)),
        samples_(std::move(samples)),
        rounds_(zero.rounds()) {
    GZ_CHECK_MSG(samples_.empty() ||
                     samples_.size() == zero_.params().num_nodes *
                                            SamplesBytes(zero_.params().cols),
                 "wrong-sized round samples");
  }

  const NodeSketch& zero() const { return zero_; }

  // Round 0's samples into *view, if they were handed over. They never
  // change, so no lock is needed.
  bool Samples(RoundView* view) const {
    if (samples_.empty()) return false;
    view->flat_ = samples_.data();
    view->stride_ = SamplesBytes(zero_.params().cols);
    view->round_ = 0;
    return true;
  }

  // `part` of round `round` into *view (node i's slice, or its
  // deterministic bucket), loading it first if no call has; a summary
  // is read from the whole round once that is loaded. Returns the
  // round's failure when a load of it failed.
  Status Get(int round, RoundPart part, uint64_t block_nodes,
             const BlockRunner& run, RoundView* view) {
    PerRound& r = rounds_[round];
    const SketchLayout& layout = zero_.layout();
    const size_t whole_bytes = zero_.params().num_nodes * layout.round_stride();
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.status.ok() && r.whole.empty() &&
        (part == RoundPart::kWhole || r.summary.empty())) {
      const BlockRunner in_order =
          [](size_t n, const std::function<void(size_t)>& body) {
            for (size_t b = 0; b < n; ++b) body(b);
          };
      std::vector<uint8_t> buf;
      r.status = load_(round, part, block_nodes, run ? run : in_order, &buf);
      if (!r.status.ok()) {
        std::lock_guard<std::mutex> failed_lock(mu_);
        if (failed_.ok()) failed_ = r.status;
      } else if (buf.size() == whole_bytes) {
        r.whole = std::move(buf);
      } else {
        GZ_CHECK_MSG(part == RoundPart::kSummary &&
                         buf.size() ==
                             zero_.params().num_nodes * kSummaryBytes,
                     "round loader filled a wrong-sized buffer");
        r.summary = std::move(buf);
      }
    }
    if (!r.status.ok()) return r.status;
    view->round_ = round;
    if (!r.whole.empty()) {
      view->flat_ = r.whole.data();
      view->stride_ = layout.round_stride();
      if (part == RoundPart::kSummary) view->flat_ += layout.det_offset();
    } else {
      view->flat_ = r.summary.data();
      view->stride_ = kSummaryBytes;
    }
    return Status::Ok();
  }

  Status LoadAll() {
    Status first = Status::Ok();
    for (int r = 0; r < zero_.rounds(); ++r) {
      RoundView view;
      const Status s = Get(r, RoundPart::kWhole, zero_.params().num_nodes,
                           nullptr, &view);
      if (first.ok()) first = s;
    }
    return first;
  }

  Status failed() {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  struct PerRound {
    std::mutex mu;
    std::vector<uint8_t> whole;    // V x round_stride once loaded.
    std::vector<uint8_t> summary;  // V x kSummaryBytes once loaded.
    Status status;                 // The round's failed load, if any.
  };

  const NodeSketch zero_;  // Params and the shared layout.
  const RoundLoader load_;
  // Round 0's samples as handed to Lazy(), or empty.
  const std::vector<uint8_t> samples_;
  std::vector<PerRound> rounds_;
  std::mutex mu_;
  Status failed_;  // The first failed load, for load_status().
};

GraphSnapshot::GraphSnapshot(std::vector<NodeSketch> sketches,
                             uint64_t num_updates)
    : GraphSnapshot(std::vector<CowSketch>(
                        std::make_move_iterator(sketches.begin()),
                        std::make_move_iterator(sketches.end())),
                    num_updates) {}

GraphSnapshot::GraphSnapshot(std::vector<CowSketch> sketches,
                             uint64_t num_updates)
    : num_updates_(num_updates), sketches_(std::move(sketches)) {
  GZ_CHECK_MSG(!sketches_.empty(), "snapshot needs at least one sketch");
  const NodeSketchParams& params = sketches_[0]->params();
  GZ_CHECK_MSG(sketches_.size() == params.num_nodes,
               "need one node sketch per vertex");
  for (const CowSketch& s : sketches_) {
    GZ_CHECK_MSG(s->params() == params,
                 "snapshot sketches must share params");
  }
}

GraphSnapshot GraphSnapshot::Lazy(const NodeSketch& zero,
                                  uint64_t num_updates, RoundLoader load,
                                  std::vector<uint8_t> samples) {
  GraphSnapshot snapshot;
  snapshot.num_updates_ = num_updates;
  snapshot.lazy_ = std::make_shared<LazyRounds>(zero, std::move(load),
                                                std::move(samples));
  return snapshot;
}

const NodeSketchParams& GraphSnapshot::params() const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return lazy_ != nullptr ? lazy_->zero().params() : sketches_[0]->params();
}

const SketchLayout& GraphSnapshot::layout() const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return lazy_ != nullptr ? lazy_->zero().layout() : sketches_[0]->layout();
}

Status GraphSnapshot::Round(int round, uint64_t block_nodes,
                            const BlockRunner& run, RoundView* view) const {
  GZ_CHECK_MSG(round >= 0 && round < rounds(), "round out of range");
  GZ_CHECK(block_nodes > 0);
  if (lazy_ != nullptr) {
    return lazy_->Get(round, RoundPart::kWhole, block_nodes, run, view);
  }
  view->flat_ = nullptr;
  view->nodes_ = sketches_.data();
  view->round_ = round;
  view->offset_ = 0;
  return Status::Ok();
}

Status GraphSnapshot::Summary(int round, uint64_t block_nodes,
                              const BlockRunner& run, RoundView* view) const {
  GZ_CHECK_MSG(round >= 0 && round < rounds(), "round out of range");
  GZ_CHECK(block_nodes > 0);
  if (lazy_ != nullptr) {
    return lazy_->Get(round, RoundPart::kSummary, block_nodes, run, view);
  }
  view->flat_ = nullptr;
  view->nodes_ = sketches_.data();
  view->round_ = round;
  view->offset_ = layout().det_offset();
  return Status::Ok();
}

bool GraphSnapshot::Samples(RoundView* view) const {
  return lazy_ != nullptr && lazy_->Samples(view);
}

Status GraphSnapshot::load_status() const {
  return lazy_ == nullptr ? Status::Ok() : lazy_->failed();
}

void GraphSnapshot::Seal(const std::weak_ptr<LazyRounds>& handle) {
  if (const std::shared_ptr<LazyRounds> lazy = handle.lock()) {
    (void)lazy->LoadAll();
  }
}

Status GraphSnapshot::MakeEager() {
  if (lazy_ == nullptr) return Status::Ok();
  const size_t round_bytes = layout().round_bytes();
  std::vector<RoundView> views(rounds());
  for (int r = 0; r < rounds(); ++r) {
    Status s = Round(r, num_nodes(), nullptr, &views[r]);
    if (!s.ok()) return s;
  }
  std::vector<uint8_t> record(layout().record_bytes());
  std::vector<CowSketch> sketches;
  sketches.reserve(num_nodes());
  for (NodeId i = 0; i < num_nodes(); ++i) {
    for (int r = 0; r < rounds(); ++r) {
      std::memcpy(&record[r * round_bytes], views[r].node(i), round_bytes);
    }
    NodeSketch sketch = lazy_->zero();
    sketch.DeserializeFrom(record.data());
    sketches.emplace_back(std::move(sketch));
  }
  sketches_ = std::move(sketches);
  lazy_.reset();
  return Status::Ok();
}

// Compares round by round, so either side may be lazy; only the
// round_bytes of each slice count (an eager block's padding is zero). A
// round that fails to load compares unequal.
bool operator==(const GraphSnapshot& a, const GraphSnapshot& b) {
  if (a.num_updates_ != b.num_updates_ || a.valid() != b.valid()) {
    return false;
  }
  if (!a.valid()) return true;
  if (!(a.params() == b.params())) return false;
  const size_t bytes = a.layout().round_bytes();
  for (int r = 0; r < a.rounds(); ++r) {
    GraphSnapshot::RoundView va, vb;
    if (!a.Round(r, a.num_nodes(), nullptr, &va).ok() ||
        !b.Round(r, b.num_nodes(), nullptr, &vb).ok()) {
      return false;
    }
    for (NodeId i = 0; i < a.num_nodes(); ++i) {
      if (std::memcmp(va.node(i), vb.node(i), bytes) != 0) return false;
    }
  }
  return true;
}

Status GraphSnapshot::Merge(const GraphSnapshot& other) {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("cannot merge an empty snapshot");
  }
  if (!(params() == other.params())) {
    return Status::InvalidArgument(
        "snapshot params mismatch: merge requires identical seed, node "
        "bound and sketch geometry");
  }
  if (other.lazy_ != nullptr) {
    GraphSnapshot eager = other;
    Status s = eager.MakeEager();
    return s.ok() ? Merge(eager) : s;
  }
  Status s = MakeEager();
  if (!s.ok()) return s;
  for (uint64_t i = 0; i < sketches_.size(); ++i) {
    sketches_[i].Mutable().Merge(*other.sketches_[i]);
  }
  num_updates_ += other.num_updates_;
  return Status::Ok();
}

Status GraphSnapshot::ToggleEdge(const Edge& e) {
  Status s = MakeEager();
  if (!s.ok()) return s;
  const uint64_t idx = EdgeToIndex(e, num_nodes());
  sketches_[e.u].Mutable().Update(idx);
  sketches_[e.v].Mutable().Update(idx);
  return Status::Ok();
}

size_t GraphSnapshot::SerializedSizeFor(const NodeSketchParams& params,
                                        uint64_t lo, uint64_t hi) {
  return SerializedSizeFor(params, lo, hi, 0, params.rounds);
}

size_t GraphSnapshot::SerializedSizeFor(const NodeSketchParams& params,
                                        uint64_t lo, uint64_t hi, int r_lo,
                                        int r_hi, RoundPart part) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  GZ_CHECK_MSG(0 <= r_lo && r_lo < r_hi && r_hi <= params.rounds,
               "bad round window");
  return kHeaderBytes + (hi - lo) * RecordBytes(params, r_lo, r_hi, part);
}

void GraphSnapshot::WriteSamples(const SketchLayout& layout, int round,
                                 const uint8_t* slice, uint8_t* record) {
  std::memset(record, 0, SamplesBytes(layout.cols()));
  if (AllZero(slice, layout.round_bytes())) return;  // Untouched.
  const ColumnSamples s = layout.SampleColumns(
      round, slice, reinterpret_cast<uint64_t*>(record + kSamplesHeadBytes),
      layout.cols());
  record[0] = static_cast<uint8_t>(1 + static_cast<int>(s.kind));
  const uint32_t count = static_cast<uint32_t>(s.count);
  std::memcpy(record + kSamplesCountOffset, &count, sizeof(count));
}

ColumnSamples GraphSnapshot::ReadSamples(const uint8_t* record,
                                         uint64_t* out) {
  // An untouched slice is all zero, which samples kZero.
  if (record[0] == 0) return {SampleKind::kZero, 0};
  const int count = static_cast<int>(SamplesCount(record));
  std::memcpy(out, record + kSamplesHeadBytes, count * sizeof(uint64_t));
  return {static_cast<SampleKind>(record[0] - 1), count};
}

size_t GraphSnapshot::SerializedSize() const {
  return SerializedSizeFor(params(), 0, num_nodes());
}

std::vector<uint8_t> GraphSnapshot::Serialize() const {
  return ExtractNodeRange(0, num_nodes());
}

std::vector<uint8_t> GraphSnapshot::ExtractNodeRange(uint64_t lo,
                                                     uint64_t hi) const {
  std::vector<uint8_t> out;
  out.reserve(SerializedSizeFor(params(), lo, hi));
  GZ_CHECK_OK(SaveRange(
      [&out](const void* data, size_t size) {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        out.insert(out.end(), p, p + size);
        return Status::Ok();
      },
      lo, hi));
  return out;
}

Status GraphSnapshot::SaveRange(const ByteSink& sink, uint64_t lo,
                                uint64_t hi) const {
  if (lazy_ != nullptr) {
    GraphSnapshot eager = *this;
    Status s = eager.MakeEager();
    return s.ok() ? eager.SaveRange(sink, lo, hi) : s;
  }
  return SaveToSink(sink, params(), lo, hi, 0, rounds(), num_updates_,
                    [this](NodeId i, uint8_t* record) {
                      sketches_[i]->SerializeTo(record);
                    });
}

Result<GraphSnapshot> GraphSnapshot::Deserialize(const uint8_t* data,
                                                 size_t size) {
  Header header;
  Status s = ParseBuffer(data, size, &header);
  if (s.ok()) s = RequireWhole(header);
  if (!s.ok()) return s;
  const NodeSketch zero(header.params);
  std::vector<CowSketch> sketches;
  sketches.reserve(header.params.num_nodes);
  GZ_CHECK_OK(FoldSerialized(data, size, header.params, 0,
                             header.params.rounds,
                             [&](NodeId, const uint8_t* record) {
                               NodeSketch sketch = zero;
                               sketch.DeserializeFrom(record);
                               sketches.emplace_back(std::move(sketch));
                             }));
  return GraphSnapshot(std::move(sketches), header.num_updates);
}

Status GraphSnapshot::FoldSerialized(
    const uint8_t* data, size_t size, const NodeSketchParams& params,
    int r_lo, int r_hi,
    const std::function<void(NodeId, const uint8_t* record)>& fold,
    RoundPart part) {
  Header header;
  Status s = ParseBuffer(data, size, &header);
  if (!s.ok()) return s;
  if (!(header.params == params)) {
    return Status::InvalidArgument(
        "snapshot params mismatch: merge requires identical seed, node "
        "bound and sketch geometry");
  }
  if (header.r_lo != r_lo || header.r_hi != r_hi) {
    return Status::InvalidArgument(
        "serialized round window [" + std::to_string(header.r_lo) + ", " +
        std::to_string(header.r_hi) + ") is not the expected [" +
        std::to_string(r_lo) + ", " + std::to_string(r_hi) + ")");
  }
  if (header.part != part) {
    return Status::InvalidArgument(std::string("serialized range holds ") +
                                   PartName(header.part) + ", not " +
                                   PartName(part));
  }
  const size_t record = RecordBytes(params, r_lo, r_hi, part);
  if (part == RoundPart::kSamples) {
    const size_t unit = SamplesBytes(params.cols);
    const uint64_t vector_len = NumPossibleEdges(params.num_nodes);
    const uint8_t* end = data + size;
    for (const uint8_t* p = data + kHeaderBytes; p < end; p += unit) {
      if (const char* why = BadSamples(p, params.cols, vector_len)) {
        return Status::InvalidArgument(
            std::string("malformed samples record: ") + why);
      }
    }
  }
  // Past this point nothing can fail, so a fold never stops half-way.
  const uint8_t* cursor = data + kHeaderBytes;
  for (uint64_t i = header.lo; i < header.hi; ++i) {
    fold(static_cast<NodeId>(i), cursor);
    cursor += record;
  }
  return Status::Ok();
}

Status GraphSnapshot::SaveToSink(
    const ByteSink& sink, const NodeSketchParams& params, uint64_t lo,
    uint64_t hi, int r_lo, int r_hi, uint64_t num_updates,
    const std::function<void(NodeId, uint8_t* record)>& load,
    RoundPart part) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  GZ_CHECK_MSG(0 <= r_lo && r_lo < r_hi && r_hi <= params.rounds,
               "bad round window");
  Header header;
  header.params = params;
  header.lo = lo;
  header.hi = hi;
  header.num_updates = num_updates;
  header.r_lo = r_lo;
  header.r_hi = r_hi;
  header.part = part;
  uint8_t header_buf[kHeaderBytes];
  WriteHeader(header, header_buf);
  Status s = sink(header_buf, sizeof(header_buf));
  // One record in flight: a sink (file or socket) never needs the
  // doubled footprint of a full Serialize() buffer.
  std::vector<uint8_t> buf(RecordBytes(params, r_lo, r_hi, part));
  for (uint64_t i = lo; s.ok() && i < hi; ++i) {
    load(static_cast<NodeId>(i), buf.data());
    s = sink(buf.data(), buf.size());
  }
  return s;
}

Status GraphSnapshot::SaveToFile(const std::string& path) const {
  return SaveStream(path, [this](const ByteSink& sink) {
    return SaveRange(sink, 0, num_nodes());
  });
}

Status GraphSnapshot::SaveStream(
    const std::string& path,
    const std::function<Status(const ByteSink&)>& produce) {
  // Write-then-rename: a crash or a full disk mid-save must never
  // destroy the previous file, which truncating `path` in place would.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create snapshot file: " + tmp);
  }
  Status s = produce([f, &tmp](const void* data, size_t size) {
    if (std::fwrite(data, 1, size, f) != size) {
      return Status::IoError("short write to snapshot file: " + tmp);
    }
    return Status::Ok();
  });
  if (std::fclose(f) != 0 && s.ok()) {
    s = Status::IoError("cannot finish snapshot file: " + tmp);
  }
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = Status::IoError("cannot publish snapshot file: " + path);
  }
  if (!s.ok()) std::remove(tmp.c_str());
  return s;
}

Result<GraphSnapshot> GraphSnapshot::LoadFromFile(const std::string& path) {
  FILE* f = nullptr;
  Header header;
  Status s = OpenSnapshotFile(path, &f, &header);
  if (!s.ok()) return s;
  std::vector<CowSketch> sketches;
  sketches.reserve(header.params.num_nodes);
  s = ReadRecords(f, path, header.params,
                  [&sketches](NodeId, const NodeSketch& sketch) {
                    sketches.emplace_back(sketch);
                  });
  if (!s.ok()) return s;
  return GraphSnapshot(std::move(sketches), header.num_updates);
}

Status GraphSnapshot::LoadStream(
    const std::string& path, const NodeSketchParams& expect_params,
    uint64_t* num_updates,
    const std::function<void(NodeId, const NodeSketch&)>& store) {
  FILE* f = nullptr;
  Header header;
  Status s = OpenSnapshotFile(path, &f, &header);
  if (!s.ok()) return s;
  if (!(header.params == expect_params)) {
    std::fclose(f);
    return Status::InvalidArgument(
        "snapshot sketch parameters do not match this instance");
  }
  s = ReadRecords(f, path, header.params, store);
  if (s.ok() && num_updates != nullptr) *num_updates = header.num_updates;
  return s;
}

}  // namespace gz
