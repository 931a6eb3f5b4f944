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
// version digits on layout changes.
constexpr char kMagic[8] = {'G', 'Z', 'S', 'N', 'A', 'P', '0', '2'};
static_assert(GraphSnapshot::kHeaderBytes ==
                  sizeof(kMagic) +
                      2 * sizeof(uint64_t) +  // num_nodes, seed
                      2 * sizeof(int32_t) +   // cols, rounds
                      3 * sizeof(uint64_t),   // lo, hi, num_updates
              "header layout");

struct Header {
  NodeSketchParams params;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t num_updates = 0;
};

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
}

// Parses and sanity-checks the fixed-size header. num_nodes is capped
// at the NodeId (uint32) range, the geometry caps keep one record's
// size sane, and [lo, hi) must lie inside the node bound; with the
// overflow guard below they make a garbage header an error, never a
// huge allocation.
Status ParseHeader(const uint8_t* in, Header* h) {
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
  if (num_nodes < 2 || num_nodes > (1ULL << 32) || cols < 1 ||
      cols > 1024 || rounds < 1 || rounds > 4096 ||
      !(h->lo < h->hi && h->hi <= num_nodes)) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  h->params.num_nodes = num_nodes;
  h->params.seed = seed;
  h->params.cols = cols;
  h->params.rounds = rounds;
  const size_t record = NodeSketch::SerializedSizeFor(h->params);
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
  if (size != GraphSnapshot::SerializedSizeFor(h->params, h->lo, h->hi)) {
    return Status::InvalidArgument(
        "GraphSnapshot buffer size does not match its header");
  }
  return Status::Ok();
}

// Whole-snapshot consumers (Deserialize and the file loaders) adopt the
// header's update count, which only means something for all of [0, V).
Status RequireWhole(const Header& h) {
  if (h.lo != 0 || h.hi != h.params.num_nodes) {
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

// The shared state of a round-lazy snapshot: one buffer per round, each
// filled by one call of the loader's blocks behind the round's once
// flag. std::call_once makes a concurrent caller wait for the fill and
// publishes the buffer to every caller that returns from it.
class GraphSnapshot::LazyRounds {
 public:
  LazyRounds(const NodeSketch& zero, RoundLoader load)
      : zero_(zero),
        load_(std::move(load)),
        loaded_(std::make_unique<std::once_flag[]>(zero.rounds())),
        rounds_(zero.rounds()) {}

  const NodeSketch& zero() const { return zero_; }

  // Round `round`'s buffer, node i's slice at i * round_stride.
  const uint8_t* Round(int round, uint64_t block_nodes,
                       const BlockRunner& run) {
    std::call_once(loaded_[round], [&] {
      const uint64_t n = zero_.params().num_nodes;
      const size_t stride = zero_.layout().round_stride();
      std::vector<uint8_t>& buf = rounds_[round];
      buf.resize(n * stride);  // operator new aligns it to 16.
      const std::function<void(size_t)> block = [&](size_t b) {
        const uint64_t lo = b * block_nodes;
        load_(round, lo, std::min(lo + block_nodes, n),
              buf.data() + lo * stride);
      };
      const size_t num_blocks = (n + block_nodes - 1) / block_nodes;
      if (run) {
        run(num_blocks, block);
      } else {
        for (size_t b = 0; b < num_blocks; ++b) block(b);
      }
    });
    return rounds_[round].data();
  }

  void LoadAll() {
    for (int r = 0; r < zero_.rounds(); ++r) {
      Round(r, zero_.params().num_nodes, nullptr);
    }
  }

 private:
  const NodeSketch zero_;  // Params and the shared layout.
  const RoundLoader load_;
  std::unique_ptr<std::once_flag[]> loaded_;
  std::vector<std::vector<uint8_t>> rounds_;
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

GraphSnapshot GraphSnapshot::Zero(const NodeSketchParams& params) {
  return GraphSnapshot(
      std::vector<CowSketch>(params.num_nodes, CowSketch(NodeSketch(params))),
      0);
}

GraphSnapshot GraphSnapshot::Lazy(const NodeSketch& zero,
                                  uint64_t num_updates, RoundLoader load) {
  GraphSnapshot snapshot;
  snapshot.num_updates_ = num_updates;
  snapshot.lazy_ = std::make_shared<LazyRounds>(zero, std::move(load));
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

GraphSnapshot::RoundView GraphSnapshot::Round(int round, uint64_t block_nodes,
                                              const BlockRunner& run) const {
  GZ_CHECK_MSG(round >= 0 && round < rounds(), "round out of range");
  GZ_CHECK(block_nodes > 0);
  RoundView view;
  view.round_ = round;
  if (lazy_ != nullptr) {
    view.flat_ = lazy_->Round(round, block_nodes, run);
    view.stride_ = layout().round_stride();
  } else {
    view.nodes_ = sketches_.data();
  }
  return view;
}

void GraphSnapshot::Seal(const std::weak_ptr<LazyRounds>& handle) {
  if (const std::shared_ptr<LazyRounds> lazy = handle.lock()) lazy->LoadAll();
}

void GraphSnapshot::MakeEager() {
  if (lazy_ == nullptr) return;
  const size_t round_bytes = layout().round_bytes();
  std::vector<RoundView> views;
  for (int r = 0; r < rounds(); ++r) {
    views.push_back(Round(r, num_nodes(), nullptr));
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
}

// Compares round by round, so either side may be lazy; only the
// round_bytes of each slice count (an eager block's padding is zero).
bool operator==(const GraphSnapshot& a, const GraphSnapshot& b) {
  if (a.num_updates_ != b.num_updates_ || a.valid() != b.valid()) {
    return false;
  }
  if (!a.valid()) return true;
  if (!(a.params() == b.params())) return false;
  const size_t bytes = a.layout().round_bytes();
  for (int r = 0; r < a.rounds(); ++r) {
    const GraphSnapshot::RoundView va = a.Round(r, a.num_nodes(), nullptr);
    const GraphSnapshot::RoundView vb = b.Round(r, b.num_nodes(), nullptr);
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
    eager.MakeEager();
    return Merge(eager);
  }
  MakeEager();
  for (uint64_t i = 0; i < sketches_.size(); ++i) {
    sketches_[i].Mutable().Merge(*other.sketches_[i]);
  }
  num_updates_ += other.num_updates_;
  return Status::Ok();
}

void GraphSnapshot::ToggleEdge(const Edge& e) {
  MakeEager();
  const uint64_t idx = EdgeToIndex(e, num_nodes());
  sketches_[e.u].Mutable().Update(idx);
  sketches_[e.v].Mutable().Update(idx);
}

size_t GraphSnapshot::SerializedSizeFor(const NodeSketchParams& params,
                                        uint64_t lo, uint64_t hi) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  return kHeaderBytes + (hi - lo) * NodeSketch::SerializedSizeFor(params);
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
    eager.MakeEager();
    return eager.SaveRange(sink, lo, hi);
  }
  return SaveToSink(
      sink, params(), lo, hi, num_updates_,
      [this](NodeId i) -> const NodeSketch& { return *sketches_[i]; });
}

Result<GraphSnapshot> GraphSnapshot::Deserialize(const uint8_t* data,
                                                 size_t size) {
  Header header;
  Status s = ParseBuffer(data, size, &header);
  if (s.ok()) s = RequireWhole(header);
  if (!s.ok()) return s;
  // A fold into the zero snapshot: each node clones the one shared zero
  // sketch as its record lands.
  GraphSnapshot snapshot = Zero(header.params);
  snapshot.num_updates_ = header.num_updates;
  GZ_CHECK_OK(snapshot.MergeSerialized(data, size));
  return snapshot;
}

Status GraphSnapshot::FoldSerialized(
    const uint8_t* data, size_t size, const NodeSketchParams& params,
    const std::function<void(NodeId, const uint8_t* record)>& fold) {
  Header header;
  Status s = ParseBuffer(data, size, &header);
  if (!s.ok()) return s;
  if (!(header.params == params)) {
    return Status::InvalidArgument(
        "snapshot params mismatch: merge requires identical seed, node "
        "bound and sketch geometry");
  }
  // Past this point nothing can fail, so a fold never stops half-way.
  const size_t record = NodeSketch::SerializedSizeFor(params);
  const uint8_t* cursor = data + kHeaderBytes;
  for (uint64_t i = header.lo; i < header.hi; ++i) {
    fold(static_cast<NodeId>(i), cursor);
    cursor += record;
  }
  return Status::Ok();
}

Status GraphSnapshot::MergeSerialized(const uint8_t* data, size_t size) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  MakeEager();
  return FoldSerialized(data, size, params(),
                        [this](NodeId i, const uint8_t* record) {
                          sketches_[i].Mutable().MergeSerialized(record);
                        });
}

Status GraphSnapshot::SaveToSink(
    const ByteSink& sink, const NodeSketchParams& params, uint64_t lo,
    uint64_t hi, uint64_t num_updates,
    const std::function<const NodeSketch&(NodeId)>& load) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  Header header;
  header.params = params;
  header.lo = lo;
  header.hi = hi;
  header.num_updates = num_updates;
  uint8_t header_buf[kHeaderBytes];
  WriteHeader(header, header_buf);
  Status s = sink(header_buf, sizeof(header_buf));
  // One record in flight: a sink (file or socket) never needs the
  // doubled footprint of a full Serialize() buffer.
  std::vector<uint8_t> buf(NodeSketch::SerializedSizeFor(params));
  for (uint64_t i = lo; s.ok() && i < hi; ++i) {
    const NodeSketch& sketch = load(static_cast<NodeId>(i));
    GZ_CHECK_MSG(sketch.params() == params, "loader returned wrong params");
    sketch.SerializeTo(buf.data());
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
  // Each record is stored over the shared zero.
  GraphSnapshot snapshot = Zero(header.params);
  snapshot.num_updates_ = header.num_updates;
  s = ReadRecords(f, path, header.params,
                  [&snapshot](NodeId i, const NodeSketch& sketch) {
                    snapshot.sketches_[i] = CowSketch(sketch);
                  });
  if (!s.ok()) return s;
  return snapshot;
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
