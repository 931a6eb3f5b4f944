// Binary stream files: the on-disk representation of a graph stream.
// One codec serves two record kinds; the record type picks the kind at
// compile time:
//
//   record type     magic   record (packed, little-endian)        bytes
//   GraphUpdate     GZST    u: u32, v: u32, type: u8                  9
//   WeightedUpdate  GZWS    u: u32, v: u32, type: u8, weight: u32    13
//
// Both kinds share a 24-byte header: magic, version (u32, 1), node count
// (u64) and update count (u64, rewritten by Close()). A reader refuses
// the other kind's magic, and checks every record it returns: endpoints
// distinct and below the header's node count, type 0 (insert) or 1
// (delete), and a weighted record's weight non-zero. A bad record ends
// the read with an InvalidArgument naming its index.
#ifndef GZ_STREAM_STREAM_FILE_H_
#define GZ_STREAM_STREAM_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

// A stream update carrying an integer edge weight, feeding the
// MSF-weight sketch (algos/msf_weight.h).
struct WeightedUpdate {
  GraphUpdate update;
  uint32_t weight = 1;

  friend bool operator==(const WeightedUpdate& a, const WeightedUpdate& b) {
    return a.update == b.update && a.weight == b.weight;
  }
};

// Instantiated for GraphUpdate and WeightedUpdate only.
template <typename Record>
class StreamFileWriter {
 public:
  StreamFileWriter() = default;
  ~StreamFileWriter();
  StreamFileWriter(const StreamFileWriter&) = delete;
  StreamFileWriter& operator=(const StreamFileWriter&) = delete;

  // Creates/truncates `path` and writes the header. `num_nodes` is the
  // node-count upper bound consumers should size their structures for.
  Status Open(const std::string& path, uint64_t num_nodes);

  Status Append(const Record& record);

  // Rewrites the header with the final update count and closes the file.
  Status Close();

 private:
  FILE* file_ = nullptr;
  uint64_t num_nodes_ = 0;
  uint64_t count_ = 0;
};

template <typename Record>
class StreamFileReader {
 public:
  StreamFileReader() = default;
  ~StreamFileReader();
  StreamFileReader(const StreamFileReader&) = delete;
  StreamFileReader& operator=(const StreamFileReader&) = delete;

  Status Open(const std::string& path);

  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_updates() const { return num_updates_; }

  // Reads the next record. Returns true on success, false at EOF or on
  // the first error, which `status()` then holds: IoError for a
  // truncated file, InvalidArgument for a malformed record.
  bool Next(Record* record);

  const Status& status() const { return status_; }

  void Close();

 private:
  FILE* file_ = nullptr;
  uint64_t num_nodes_ = 0;
  uint64_t num_updates_ = 0;
  uint64_t consumed_ = 0;
  Status status_;
};

using StreamWriter = StreamFileWriter<GraphUpdate>;
using StreamReader = StreamFileReader<GraphUpdate>;
using WeightedStreamWriter = StreamFileWriter<WeightedUpdate>;
using WeightedStreamReader = StreamFileReader<WeightedUpdate>;

// Whole-file conveniences for tests, tools and examples.
template <typename Record = GraphUpdate>
Status WriteStreamFile(const std::string& path, uint64_t num_nodes,
                       const std::vector<Record>& records) {
  StreamFileWriter<Record> writer;
  Status s = writer.Open(path, num_nodes);
  for (size_t i = 0; s.ok() && i < records.size(); ++i) {
    s = writer.Append(records[i]);
  }
  return s.ok() ? writer.Close() : s;
}

template <typename Record = GraphUpdate>
Result<std::vector<Record>> ReadStreamFile(const std::string& path,
                                           uint64_t* num_nodes_out) {
  StreamFileReader<Record> reader;
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  if (num_nodes_out != nullptr) *num_nodes_out = reader.num_nodes();
  // No reserve: the header's count is unchecked until the records
  // arrive.
  std::vector<Record> records;
  Record record;
  while (reader.Next(&record)) records.push_back(record);
  if (!reader.status().ok()) return reader.status();
  return records;
}

}  // namespace gz

#endif  // GZ_STREAM_STREAM_FILE_H_
