// gz_msf: minimum-spanning-forest weight of a weighted dynamic graph
// stream, computed with level sketches (algos/msf_weight.h).
//
// Usage:
//   gz_msf --stream weighted.gzws --max-weight W [--seed N] [--workers N]
// Generate an input with gz_generate's --weighted-out/--max-weight flags,
// or write the weighted (GZWS) format directly with WeightedStreamWriter
// (stream/stream_file.h). A malformed record, or a weight above
// --max-weight, exits 1 with a message naming the record.
#include <cstdio>
#include <string>

#include "algos/msf_weight.h"
#include "stream/stream_file.h"
#include "tools/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace gz;
  tools::Flags flags(argc, argv);
  const std::string in = flags.GetString("stream", "");
  const uint32_t max_weight =
      static_cast<uint32_t>(flags.GetInt("max-weight", 0));
  if (!flags.AllKnown({"stream", "max-weight", "seed", "workers"}) ||
      in.empty() || max_weight == 0 || !tools::ValidIngestFlags(flags)) {
    std::fprintf(stderr,
                 "usage: gz_msf --stream FILE.gzws --max-weight W "
                 "[--seed N] [--workers N]\n");
    return 2;
  }

  WeightedStreamReader reader;
  Status s = reader.Open(in);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  GraphZeppelinConfig config;
  config.num_nodes = reader.num_nodes();
  config.seed = flags.GetInt("seed", 42);
  config.num_workers = static_cast<int>(flags.GetInt("workers", 1));
  MsfWeightSketch msf(config, max_weight);
  s = msf.Init();
  if (!s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }

  WallTimer timer;
  WeightedUpdate wu;
  uint64_t consumed = 0;
  while (reader.Next(&wu)) {
    if (wu.weight > max_weight) {
      std::fprintf(stderr,
                   "read failed: stream record %llu: weight %u is above "
                   "--max-weight %u\n",
                   static_cast<unsigned long long>(consumed), wu.weight,
                   max_weight);
      return 1;
    }
    msf.Update(wu.update.edge, wu.weight, wu.update.type);
    ++consumed;
  }
  if (!reader.status().ok()) {
    std::fprintf(stderr, "read failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }

  const MsfWeightResult result = msf.Query();
  if (result.failed) {
    std::fprintf(stderr, "sketch query failed; retry with another seed\n");
    return 1;
  }
  std::printf(
      "read %llu weighted updates over %llu nodes in %.2fs\n"
      "MSF weight = %llu across %zu components (weights in [1, %u])\n",
      static_cast<unsigned long long>(consumed),
      static_cast<unsigned long long>(reader.num_nodes()), timer.Seconds(),
      static_cast<unsigned long long>(result.weight), result.num_components,
      max_weight);
  return 0;
}
