#include "core/stream_ingestor.h"

#include <vector>

#include "stream/stream_file.h"

namespace gz {

namespace {
// Updates read from the stream file per bulk hand-off. Spans this size
// keep the flat batch pipeline fed without growing resident state.
constexpr size_t kChunkUpdates = 4096;
}  // namespace

Result<uint64_t> IngestStreamFile(GraphZeppelin* gz, const std::string& path) {
  StreamReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  if (reader.num_nodes() > gz->config().num_nodes) {
    return Status::InvalidArgument(
        "stream has more nodes than the GraphZeppelin instance");
  }

  uint64_t consumed = 0;
  std::vector<GraphUpdate> chunk;
  chunk.reserve(kChunkUpdates);
  const auto hand_off = [&] {
    gz->Update(chunk.data(), chunk.size());
    consumed += chunk.size();
    chunk.clear();
  };
  GraphUpdate update;
  while (reader.Next(&update)) {
    chunk.push_back(update);
    if (chunk.size() == kChunkUpdates) hand_off();
  }
  if (!chunk.empty()) hand_off();
  if (!reader.status().ok()) return reader.status();
  gz->Flush();
  return consumed;
}

}  // namespace gz
