// Drives a GraphZeppelin instance from a binary stream file — the glue
// between stored streams and the system that the tools share.
#ifndef GZ_CORE_STREAM_INGESTOR_H_
#define GZ_CORE_STREAM_INGESTOR_H_

#include <cstdint>
#include <string>

#include "core/graph_zeppelin.h"
#include "util/status.h"

namespace gz {

// Streams `path` into `gz` (which must be initialized with at least the
// file's node count), then flushes. Returns the number of updates
// ingested.
Result<uint64_t> IngestStreamFile(GraphZeppelin* gz, const std::string& path);

}  // namespace gz

#endif  // GZ_CORE_STREAM_INGESTOR_H_
