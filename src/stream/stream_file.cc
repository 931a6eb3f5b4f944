#include "stream/stream_file.h"

#include <cstring>

namespace gz {
namespace {

constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

// The only per-kind code: a magic, a record size, and packing and
// checked unpacking of one record. Unpack returns nullptr, or why the
// record is malformed.
template <typename Record>
struct RecordCodec;

template <>
struct RecordCodec<GraphUpdate> {
  static constexpr char kMagic[4] = {'G', 'Z', 'S', 'T'};
  static constexpr size_t kSize = 4 + 4 + 1;

  static void Pack(const GraphUpdate& update, uint8_t* out) {
    std::memcpy(out, &update.edge.u, 4);
    std::memcpy(out + 4, &update.edge.v, 4);
    out[8] = static_cast<uint8_t>(update.type);
  }

  static const char* Unpack(const uint8_t* in, uint64_t num_nodes,
                            GraphUpdate* update) {
    NodeId u, v;
    std::memcpy(&u, in, 4);
    std::memcpy(&v, in + 4, 4);
    if (u == v) return "self-loop edge";
    if (u >= num_nodes || v >= num_nodes) {
      return "endpoint not below the header's node count";
    }
    if (in[8] > static_cast<uint8_t>(UpdateType::kDelete)) {
      return "type byte is neither insert (0) nor delete (1)";
    }
    update->edge = Edge(u, v);
    update->type = static_cast<UpdateType>(in[8]);
    return nullptr;
  }
};

template <>
struct RecordCodec<WeightedUpdate> {
  static constexpr char kMagic[4] = {'G', 'Z', 'W', 'S'};
  static constexpr size_t kSize = RecordCodec<GraphUpdate>::kSize + 4;

  static void Pack(const WeightedUpdate& wu, uint8_t* out) {
    RecordCodec<GraphUpdate>::Pack(wu.update, out);
    std::memcpy(out + RecordCodec<GraphUpdate>::kSize, &wu.weight, 4);
  }

  static const char* Unpack(const uint8_t* in, uint64_t num_nodes,
                            WeightedUpdate* wu) {
    const char* why = RecordCodec<GraphUpdate>::Unpack(in, num_nodes,
                                                       &wu->update);
    if (why != nullptr) return why;
    std::memcpy(&wu->weight, in + RecordCodec<GraphUpdate>::kSize, 4);
    return wu->weight == 0 ? "zero weight" : nullptr;
  }
};

template <typename Record>
void PackHeader(uint64_t num_nodes, uint64_t count, uint8_t out[kHeaderSize]) {
  std::memcpy(out, RecordCodec<Record>::kMagic, 4);
  std::memcpy(out + 4, &kVersion, 4);
  std::memcpy(out + 8, &num_nodes, 8);
  std::memcpy(out + 16, &count, 8);
}

}  // namespace

template <typename Record>
StreamFileWriter<Record>::~StreamFileWriter() {
  if (file_ != nullptr) (void)Close();
}

template <typename Record>
Status StreamFileWriter<Record>::Open(const std::string& path,
                                      uint64_t num_nodes) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("writer already open");
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError("cannot create stream file: " + path);
  }
  num_nodes_ = num_nodes;
  count_ = 0;
  uint8_t header[kHeaderSize];
  PackHeader<Record>(num_nodes_, 0, header);
  if (std::fwrite(header, 1, kHeaderSize, file_) != kHeaderSize) {
    return Status::IoError("short header write: " + path);
  }
  return Status::Ok();
}

template <typename Record>
Status StreamFileWriter<Record>::Append(const Record& record) {
  if (file_ == nullptr) return Status::FailedPrecondition("writer not open");
  uint8_t rec[RecordCodec<Record>::kSize];
  RecordCodec<Record>::Pack(record, rec);
  if (std::fwrite(rec, 1, sizeof(rec), file_) != sizeof(rec)) {
    return Status::IoError("short record write");
  }
  ++count_;
  return Status::Ok();
}

template <typename Record>
Status StreamFileWriter<Record>::Close() {
  if (file_ == nullptr) return Status::FailedPrecondition("writer not open");
  uint8_t header[kHeaderSize];
  PackHeader<Record>(num_nodes_, count_, header);
  Status result = Status::Ok();
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, kHeaderSize, file_) != kHeaderSize) {
    result = Status::IoError("header rewrite failed");
  }
  std::fclose(file_);
  file_ = nullptr;
  return result;
}

template <typename Record>
StreamFileReader<Record>::~StreamFileReader() {
  Close();
}

template <typename Record>
Status StreamFileReader<Record>::Open(const std::string& path) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("reader already open");
  }
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::NotFound("cannot open stream file: " + path);
  }
  uint8_t header[kHeaderSize];
  if (std::fread(header, 1, kHeaderSize, file_) != kHeaderSize) {
    Close();
    return Status::IoError("short header read: " + path);
  }
  if (std::memcmp(header, RecordCodec<Record>::kMagic, 4) != 0) {
    Close();
    return Status::InvalidArgument("bad magic in stream file: " + path);
  }
  uint32_t version;
  std::memcpy(&version, header + 4, 4);
  if (version != kVersion) {
    Close();
    return Status::InvalidArgument("unsupported stream file version");
  }
  std::memcpy(&num_nodes_, header + 8, 8);
  std::memcpy(&num_updates_, header + 16, 8);
  consumed_ = 0;
  status_ = Status::Ok();
  return Status::Ok();
}

template <typename Record>
bool StreamFileReader<Record>::Next(Record* record) {
  if (file_ == nullptr || !status_.ok() || consumed_ >= num_updates_) {
    return false;
  }
  uint8_t rec[RecordCodec<Record>::kSize];
  if (std::fread(rec, 1, sizeof(rec), file_) != sizeof(rec)) {
    status_ = Status::IoError("short record read (stream truncated)");
    return false;
  }
  const char* why = RecordCodec<Record>::Unpack(rec, num_nodes_, record);
  if (why != nullptr) {
    status_ = Status::InvalidArgument("stream record " +
                                      std::to_string(consumed_) + ": " + why);
    return false;
  }
  ++consumed_;
  return true;
}

template <typename Record>
void StreamFileReader<Record>::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

template class StreamFileWriter<GraphUpdate>;
template class StreamFileWriter<WeightedUpdate>;
template class StreamFileReader<GraphUpdate>;
template class StreamFileReader<WeightedUpdate>;

}  // namespace gz
