// gz_forest: solve the paper's Problem 1 end to end — read an
// insert/delete edge stream, output an *insert-only* edge stream
// defining a spanning forest of the final graph.
//
// Usage:
//   gz_forest --stream in.gzst --out forest.gzst [--workers N] [--seed N]
#include <cstdio>
#include <string>

#include "core/graph_zeppelin.h"
#include "core/stream_ingestor.h"
#include "stream/stream_file.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  using namespace gz;
  tools::Flags flags(argc, argv);
  const std::string in = flags.GetString("stream", "");
  const std::string out = flags.GetString("out", "");
  if (!flags.AllKnown({"stream", "out", "workers", "seed"}) || in.empty() ||
      out.empty() || !tools::ValidIngestFlags(flags)) {
    std::fprintf(stderr,
                 "usage: gz_forest --stream IN.gzst --out FOREST.gzst "
                 "[--workers N] [--seed N]\n");
    return 2;
  }

  // Peek the node count from the stream header.
  StreamReader probe;
  Status s = probe.Open(in);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const uint64_t num_nodes = probe.num_nodes();
  probe.Close();

  GraphZeppelinConfig config;
  config.num_nodes = num_nodes;
  config.seed = flags.GetInt("seed", 42);
  config.num_workers = static_cast<int>(flags.GetInt("workers", 2));
  GraphZeppelin gz(config);
  s = gz.Init();
  if (!s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }

  Result<uint64_t> ingested = IngestStreamFile(&gz, in);
  if (!ingested.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 ingested.status().ToString().c_str());
    return 1;
  }

  const ConnectivityResult result = gz.ListSpanningForest();
  if (result.failed) {
    std::fprintf(stderr, "sketch query failed; retry with another seed\n");
    return 1;
  }
  s = WriteSpanningForestStream(result, num_nodes, out);
  if (!s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "read %llu updates over %llu nodes; wrote spanning forest of %zu "
      "edges (%zu components) to %s\n",
      static_cast<unsigned long long>(ingested.value()),
      static_cast<unsigned long long>(num_nodes),
      result.spanning_forest.size(), result.num_components, out.c_str());
  return 0;
}
