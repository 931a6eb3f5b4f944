// gz_snapshot: operate on serialized GraphSnapshot files — the bytes a
// sharded/multi-process deployment ships to its coordinator.
//
// Merges any number of snapshot files (XOR fold; all must share seed
// and sketch geometry), answers the connectivity query on the result,
// and optionally writes the merged snapshot back out. One snapshot file
// in = plain "query a saved checkpoint".
//
// Usage:
//   gz_snapshot --in a.snap,b.snap,... [--out merged.snap]
//     [--threads N] [--top K]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "tools/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace gz;
  tools::Flags flags(argc, argv);
  const std::string in = flags.GetString("in", "");
  if (!flags.AllKnown({"in", "out", "threads", "top"}) || in.empty()) {
    std::fprintf(stderr,
                 "usage: gz_snapshot --in A.snap[,B.snap,...] "
                 "[--out MERGED.snap] [--threads N] [--top K]\n");
    return 2;
  }
  std::vector<std::string> paths;
  for (size_t pos = 0; pos < in.size();) {
    const size_t comma = in.find(',', pos);
    const size_t end = comma == std::string::npos ? in.size() : comma;
    if (end > pos) paths.push_back(in.substr(pos, end - pos));
    pos = end + 1;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "gz_snapshot: --in lists no snapshot files\n");
    return 2;
  }

  GraphSnapshot merged;
  for (size_t i = 0; i < paths.size(); ++i) {
    Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(paths[i]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s failed: %s\n", paths[i].c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (i == 0) {
      merged = std::move(loaded.value());
    } else {
      Status s = merged.Merge(loaded.value());
      if (!s.ok()) {
        std::fprintf(stderr, "merge %s failed: %s\n", paths[i].c_str(),
                     s.ToString().c_str());
        return 1;
      }
    }
  }
  std::printf(
      "merged %zu snapshot(s): %llu nodes, seed %llu, %d rounds, "
      "%llu updates\n",
      paths.size(), static_cast<unsigned long long>(merged.num_nodes()),
      static_cast<unsigned long long>(merged.seed()), merged.rounds(),
      static_cast<unsigned long long>(merged.num_updates()));

  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  WallTimer timer;
  const ConnectivityResult result = Connectivity(merged, threads);
  if (result.failed) {
    std::fprintf(stderr, "sketch query failed; re-ingest with another "
                         "seed\n");
    return 1;
  }
  std::printf("query     %.3fs (%d threads), %d of %d Boruvka rounds\n",
              timer.Seconds(), ResolveQueryThreads(threads),
              result.rounds_used, merged.rounds());
  std::printf("components %zu, spanning forest %zu edges\n",
              result.num_components, result.spanning_forest.size());

  const int top = static_cast<int>(flags.GetInt("top", 5));
  if (top > 0) {
    auto components = ComponentsFromLabels(result.component_of);
    std::sort(components.begin(), components.end(),
              [](const auto& a, const auto& b) { return a.size() > b.size(); });
    for (int i = 0; i < top && i < static_cast<int>(components.size()); ++i) {
      std::printf("  component %d: %zu nodes\n", i + 1,
                  components[i].size());
    }
  }

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    Status s = merged.SaveToFile(out);
    if (!s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("merged snapshot written to %s\n", out.c_str());
  }
  return 0;
}
