// Shared helpers for the per-figure benchmark harnesses.
//
// Every bench prints paper-style rows at a scaled-down default size and
// honors environment overrides so the full paper scales can be run on
// bigger hardware:
//   GZ_BENCH_KRON_MIN / GZ_BENCH_KRON_MAX  — Kronecker scale range
//   GZ_BENCH_TRIALS                        — reliability trial count
//   GZ_BENCH_WORKERS                       — max Graph Workers
#ifndef GZ_BENCH_BENCH_COMMON_H_
#define GZ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/csr_batch_graph.h"
#include "baseline/hash_adjacency_graph.h"
#include "core/graph_zeppelin.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/kronecker_generator.h"
#include "stream/stream_transform.h"
#include "util/check.h"
#include "util/mem_usage.h"
#include "util/timer.h"

namespace gz {
namespace bench {

inline int GetEnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

inline std::string TempDir() {
  const char* dir = std::getenv("TMPDIR");
  return dir != nullptr && *dir != '\0' ? dir : "/tmp";
}

// A named stream workload (kronNN or a real-world stand-in).
struct Workload {
  std::string name;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;  // Edges of the generated (pre-stream) graph.
  StreamTransformResult stream;
};

// Builds the paper's kronNN dense stream at the given scale.
inline Workload MakeKronWorkload(int scale, uint64_t seed = 1,
                                 double density = 0.5) {
  KroneckerParams kp;
  kp.scale = scale;
  kp.density = density;
  kp.seed = seed;
  KroneckerGenerator gen(kp);
  Workload w;
  w.name = "kron" + std::to_string(scale);
  w.num_nodes = gen.num_nodes();
  EdgeList edges = gen.Generate();
  w.num_edges = edges.size();
  StreamTransformParams tp;
  tp.num_nodes = w.num_nodes;
  tp.seed = seed;
  w.stream = BuildStream(edges, tp);
  return w;
}

// Real-world dataset stand-ins: the paper's Table 10 graphs are external
// downloads, so the benches build synthetic graphs of the same shape
// (node count, density, skew) at reduced scale instead.
inline std::vector<Workload> MakeRealWorldWorkloads(int divisor = 16) {
  std::vector<Workload> workloads;
  auto add = [&workloads](const std::string& name, uint64_t nodes,
                          EdgeList edges, uint64_t seed) {
    Workload w;
    w.name = name;
    w.num_nodes = nodes;
    w.num_edges = edges.size();
    StreamTransformParams tp;
    tp.num_nodes = nodes;
    tp.seed = seed;
    w.stream = BuildStream(edges, tp);
    workloads.push_back(std::move(w));
  };

  // p2p-gnutella: sparse, near-random peer network (E ~ 2.4 N).
  {
    const uint64_t n = 63000 / divisor;
    add("p2p-gnutella", n, RandomConnectedGraph(n, n * 24 / 10, 101), 101);
  }
  // rec-amazon: very sparse co-purchase graph (E ~ 1.4 N).
  {
    const uint64_t n = 92000 / divisor;
    add("rec-amazon", n, RandomConnectedGraph(n, n * 14 / 10, 102), 102);
  }
  // google-plus: skewed social graph, avg degree ~250 in the paper;
  // Kronecker skew at moderate density mimics it.
  {
    KroneckerParams kp;
    kp.scale = 11;
    kp.density = 0.05;
    kp.seed = 103;
    KroneckerGenerator gen(kp);
    add("google-plus", gen.num_nodes(), gen.Generate(), 103);
  }
  // web-uk: web graph with heavy local clustering.
  {
    KroneckerParams kp;
    kp.scale = 11;
    kp.density = 0.04;
    kp.seed = 104;
    KroneckerGenerator gen(kp);
    add("web-uk", gen.num_nodes(), gen.Generate(), 104);
  }
  return workloads;
}

// --- Ingestion runners ----------------------------------------------------

struct IngestResult {
  double seconds = 0.0;
  double updates_per_sec = 0.0;
  size_t ram_bytes = 0;
  size_t disk_bytes = 0;
};

inline IngestResult RunGraphZeppelin(const Workload& w,
                                     GraphZeppelinConfig config,
                                     ConnectivityResult* query_result =
                                         nullptr,
                                     double* query_seconds = nullptr) {
  config.num_nodes = w.num_nodes;
  GraphZeppelin gz(config);
  GZ_CHECK_OK(gz.Init());
  // Ingestion time includes the final flush/drain, as the paper's
  // average ingestion rates do. The whole stream goes through the bulk
  // span API, the fastest path through the flat batch pipeline.
  WallTimer timer;
  gz.Update(w.stream.updates.data(), w.stream.updates.size());
  // Sample memory before the final flush: steady-state ingestion RAM
  // includes the loaded gutters, which drain at flush time.
  const size_t ram_mid_stream = gz.RamByteSize();
  gz.Flush();
  IngestResult out;
  out.seconds = std::max(timer.Seconds(), 1e-9);
  out.updates_per_sec =
      static_cast<double>(w.stream.updates.size()) / out.seconds;
  out.ram_bytes = std::max(ram_mid_stream, gz.RamByteSize());
  out.disk_bytes = gz.DiskByteSize();
  if (query_result != nullptr || query_seconds != nullptr) {
    WallTimer query_timer;
    ConnectivityResult r = gz.ListSpanningForest();
    if (query_seconds != nullptr) *query_seconds = query_timer.Seconds();
    if (query_result != nullptr) *query_result = std::move(r);
  }
  return out;
}

template <typename GraphT>
inline IngestResult RunExplicitBaseline(const Workload& w, GraphT* graph,
                                        ConnectivityResult* query_result =
                                            nullptr,
                                        double* query_seconds = nullptr) {
  WallTimer timer;
  for (const GraphUpdate& u : w.stream.updates) graph->Update(u);
  IngestResult out;
  out.seconds = timer.Seconds();
  if (out.seconds <= 0) out.seconds = 1e-9;
  out.updates_per_sec =
      static_cast<double>(w.stream.updates.size()) / out.seconds;
  out.ram_bytes = graph->ByteSize();
  if (query_result != nullptr || query_seconds != nullptr) {
    WallTimer query_timer;
    ConnectivityResult r = graph->ConnectedComponents();
    if (query_seconds != nullptr) *query_seconds = query_timer.Seconds();
    if (query_result != nullptr) *query_result = std::move(r);
  }
  return out;
}

inline GraphZeppelinConfig DefaultGzConfig(uint64_t seed = 42) {
  GraphZeppelinConfig c;
  c.seed = seed;
  c.num_workers = GetEnvInt("GZ_BENCH_WORKERS", 2);
  c.disk_dir = TempDir();
  return c;
}

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("=== %s: %s ===\n", figure, title);
}

}  // namespace bench
}  // namespace gz

#endif  // GZ_BENCH_BENCH_COMMON_H_
