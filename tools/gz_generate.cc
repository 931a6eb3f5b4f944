// gz_generate: create a binary graph-stream file from a synthetic
// generator — the workload-preparation tool of this repository.
//
// Usage:
//   gz_generate --out stream.gzst --kind kron --scale 12 --density 0.5
//   gz_generate --out stream.gzst --kind er --nodes 5000 --p 0.1
// Common flags: --seed N, --churn F, --phantom F, --disconnect K
// Exit codes: 0 ok, 1 write failure, 2 usage error (a missing --out, an
// unknown --kind, or a flag out of range).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "stream/erdos_renyi_generator.h"
#include "stream/kronecker_generator.h"
#include "stream/stream_file.h"
#include "stream/stream_transform.h"
#include "tools/flags.h"
#include "util/xxhash.h"

int main(int argc, char** argv) {
  using namespace gz;
  tools::Flags flags(argc, argv);

  const auto usage = [](const char* problem) {
    if (problem != nullptr) std::fprintf(stderr, "%s\n", problem);
    std::fprintf(stderr,
                 "usage: gz_generate --out FILE [--kind kron|er] "
                 "[--scale N | --nodes N --p F] [--density F] [--seed N]\n"
                 "       [--churn F] [--phantom F] [--disconnect K] "
                 "[--weighted-out FILE --max-weight N]\n");
    return 2;
  };
  if (!flags.AllKnown({"out", "kind", "seed", "scale", "density", "nodes",
                       "p", "churn", "phantom", "disconnect", "weighted-out",
                       "max-weight"})) {
    return usage(nullptr);
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return usage(nullptr);

  const std::string kind = flags.GetString("kind", "kron");
  const uint64_t seed = flags.GetInt("seed", 1);
  // Every range the generators and BuildStream would abort on (or, for
  // too many phantoms, never return from) is checked here first. The
  // negated comparisons reject NaN too.
  const int64_t scale = flags.GetInt("scale", 10);
  const double density = flags.GetDouble("density", 0.5);
  const int64_t nodes = flags.GetInt("nodes", 1024);
  const double p = flags.GetDouble("p", 0.5);
  const double churn = flags.GetDouble("churn", 0.03);
  const double phantom = flags.GetDouble("phantom", 0.02);
  const int64_t max_weight = flags.GetInt("max-weight", 8);
  if (kind != "kron" && kind != "er") return usage("--kind wants kron or er");
  if (kind == "kron" && !(scale >= 1 && scale <= 24)) {
    return usage("--scale wants 1..24");
  }
  if (kind == "kron" && !(density > 0.0 && density <= 1.0)) {
    return usage("--density wants a value in (0, 1]");
  }
  if (kind == "er" && nodes < 2) return usage("--nodes wants >= 2");
  if (kind == "er" && !(p > 0.0 && p <= 1.0)) {
    return usage("--p wants a value in (0, 1]");
  }
  if (!(churn >= 0.0 && churn <= 1.0)) {
    return usage("--churn wants a value in [0, 1]");
  }
  if (!(phantom >= 0.0 && std::isfinite(phantom))) {
    return usage("--phantom wants a finite value >= 0");
  }
  if (!(max_weight >= 1 && max_weight <= UINT32_MAX)) {
    return usage("--max-weight wants 1..2^32-1");
  }

  EdgeList edges;
  uint64_t num_nodes = 0;
  if (kind == "kron") {
    KroneckerParams kp;
    kp.scale = static_cast<int>(scale);
    kp.density = density;
    kp.seed = seed;
    KroneckerGenerator gen(kp);
    num_nodes = gen.num_nodes();
    edges = gen.Generate();
  } else {
    ErdosRenyiParams ep;
    ep.num_nodes = static_cast<uint64_t>(nodes);
    ep.p = p;
    ep.seed = seed;
    num_nodes = ep.num_nodes;
    edges = ErdosRenyiGenerator(ep).Generate();
  }

  StreamTransformParams tp;
  tp.num_nodes = num_nodes;
  tp.seed = seed;
  tp.churn_fraction = churn;
  tp.phantom_fraction = phantom;
  tp.disconnect_count = static_cast<int>(flags.GetInt("disconnect", 0));
  if (tp.disconnect_count > 0 &&
      static_cast<uint64_t>(tp.disconnect_count) >= num_nodes) {
    return usage("--disconnect wants fewer nodes than the graph has");
  }
  // BuildStream makes floor(phantom * |edges|) phantoms, each a distinct
  // non-edge; both generators emit distinct edges, so C(V, 2) - |edges|
  // is how many there can be.
  if (std::floor(phantom * static_cast<double>(edges.size())) >
      static_cast<double>(NumPossibleEdges(num_nodes) - edges.size())) {
    return usage("--phantom asks for more phantom edges than the graph has "
                 "non-edges");
  }
  const StreamTransformResult stream = BuildStream(edges, tp);

  const Status s = WriteStreamFile(out, num_nodes, stream.updates);
  if (!s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %llu nodes, %zu graph edges, %zu stream updates, "
              "%zu disconnected nodes\n",
              out.c_str(), static_cast<unsigned long long>(num_nodes),
              edges.size(), stream.updates.size(),
              stream.disconnected_nodes.size());

  // Optional weighted companion stream for gz_msf: each edge gets a
  // hash-derived weight so an edge's insert and delete always agree.
  const std::string weighted_out = flags.GetString("weighted-out", "");
  if (!weighted_out.empty()) {
    std::vector<WeightedUpdate> weighted;
    weighted.reserve(stream.updates.size());
    for (const GraphUpdate& u : stream.updates) {
      const uint64_t idx = EdgeToIndex(u.edge, num_nodes);
      WeightedUpdate wu;
      wu.update = u;
      wu.weight = 1 + static_cast<uint32_t>(XxHash64Word(idx, seed) %
                                            static_cast<uint64_t>(max_weight));
      weighted.push_back(wu);
    }
    const Status ws = WriteStreamFile(weighted_out, num_nodes, weighted);
    if (!ws.ok()) {
      std::fprintf(stderr, "weighted write failed: %s\n",
                   ws.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: weighted companion (weights in [1, %lld])\n",
                weighted_out.c_str(), static_cast<long long>(max_weight));
  }
  return 0;
}
