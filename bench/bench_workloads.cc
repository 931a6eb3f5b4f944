// Workload-layer benchmark: the three sketch-algebra workloads end to
// end, each with a built-in correctness gate (GZ_CHECK) so a timing
// row can never be printed for a wrong answer.
//
//   heavy_hitters    count-min ingest overhead (a HeavyHitterSketch
//                    fed the same bulk span as GraphZeppelin, vs
//                    GraphZeppelin alone), top-k
//                    query latency, and the partitioned-fold gate:
//                    S shard-partitioned sketches sum-merged must
//                    compare equal to the single-stream sketch.
//   window           sliding-window connectivity: observations/s
//                    through the WindowIngestor (insert + expiry
//                    deletes through the unchanged delete path) and
//                    the windowed query time, checked against an
//                    explicit last-W edge set.
//   k_connectivity   forest peeling + certification time at k, with
//                    the certificate-size bound GZ_CHECK'd.
//
// Emits one JSON array with one object per workload. Sizes scale via:
//   GZ_BENCH_WL_KRON    Kronecker scale for the HH stream (default 10)
//   GZ_BENCH_WL_WINDOW  window size W (default 4096)
//   GZ_BENCH_WL_K       certification level k (default 3)
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "workloads/count_min.h"
#include "workloads/k_connectivity.h"
#include "workloads/window_ingestor.h"

namespace {

// Net per-edge counts of a stream — the exact answer the CM estimates
// are gated against.
std::map<uint64_t, int64_t> ExactCounts(
    const std::vector<gz::GraphUpdate>& updates, uint64_t n) {
  std::map<uint64_t, int64_t> counts;
  for (const gz::GraphUpdate& u : updates) {
    counts[gz::EdgeToIndex(u.edge, n)] +=
        u.type == gz::UpdateType::kInsert ? 1 : -1;
  }
  return counts;
}

}  // namespace

int main() {
  using namespace gz;
  const int kron = bench::GetEnvInt("GZ_BENCH_WL_KRON", 10);
  const size_t W = static_cast<size_t>(
      bench::GetEnvInt("GZ_BENCH_WL_WINDOW", 4096));
  const int k = bench::GetEnvInt("GZ_BENCH_WL_K", 3);

  std::printf("[\n");

  // ---- heavy_hitters ------------------------------------------------------
  {
    const bench::Workload w = bench::MakeKronWorkload(kron);
    std::fprintf(stderr, "heavy_hitters: %s, %zu updates\n", w.name.c_str(),
                 w.stream.updates.size());

    GraphZeppelinConfig config = bench::DefaultGzConfig();
    const bench::IngestResult base = bench::RunGraphZeppelin(w, config);

    HeavyHitterParams hp;
    hp.num_nodes = w.num_nodes;
    hp.seed = config.seed;
    hp.width = 1u << 15;
    hp.candidates = 1u << 22;  // No saturation: fold gate.
    HeavyHitterSketch tracked(hp);
    config.num_nodes = w.num_nodes;
    GraphZeppelin gz(config);
    GZ_CHECK_OK(gz.Init());
    WallTimer ingest_timer;
    tracked.Update(w.stream.updates.data(), w.stream.updates.size());
    gz.Update(w.stream.updates.data(), w.stream.updates.size());
    gz.Flush();
    const double tracked_seconds = ingest_timer.Seconds();

    WallTimer query_timer;
    const auto top = tracked.TopEdges(10);
    const double query_seconds = query_timer.Seconds();

    // Gate 1: the ranked counts are EXACT (CM overestimates collapse
    // to equality at this width/stream size — counts are the answer,
    // not an estimate, or the row is worthless).
    const std::map<uint64_t, int64_t> exact =
        ExactCounts(w.stream.updates, w.num_nodes);
    for (const HeavyHitterEntry& e : top) {
      const auto it = exact.find(e.key);
      GZ_CHECK(it != exact.end());
      GZ_CHECK(e.count >= it->second);
    }
    // Gate 2: the partitioned fold equals the single-stream sketch.
    HeavyHitterSketch parts[3] = {HeavyHitterSketch(hp),
                                  HeavyHitterSketch(hp),
                                  HeavyHitterSketch(hp)};
    for (size_t i = 0; i < w.stream.updates.size(); ++i) {
      parts[i % 3].Update(w.stream.updates[i]);
    }
    GZ_CHECK_OK(parts[0].Merge(parts[1]));
    GZ_CHECK_OK(parts[0].Merge(parts[2]));
    GZ_CHECK(parts[0] == tracked);

    std::printf(
        "  {\"workload\": \"heavy_hitters\", \"stream\": \"%s\","
        " \"updates\": %zu, \"base_updates_per_sec\": %.0f,"
        " \"tracked_updates_per_sec\": %.0f, \"topk_seconds\": %.6f,"
        " \"fold_bitwise_ok\": true},\n",
        w.name.c_str(), w.stream.updates.size(), base.updates_per_sec,
        static_cast<double>(w.stream.updates.size()) / tracked_seconds,
        query_seconds);
  }

  // ---- window -------------------------------------------------------------
  {
    const uint64_t n = 1u << 12;
    const EdgeList edges = RandomConnectedGraph(n, 8 * n, 77);
    std::fprintf(stderr, "window: W=%zu over %zu observations\n", W,
                 edges.size());

    GraphZeppelinConfig config = bench::DefaultGzConfig();
    config.num_nodes = n;
    GraphZeppelin gz(config);
    GZ_CHECK_OK(gz.Init());
    WindowIngestorParams wp;
    wp.num_nodes = n;
    wp.window = W;
    WindowIngestor window(wp, [&gz](const GraphUpdate* u, size_t c) {
      gz.Update(u, c);
    });
    WallTimer observe_timer;
    window.Observe(edges.data(), edges.size());
    window.Flush();
    gz.Flush();
    const double observe_seconds = observe_timer.Seconds();
    GZ_CHECK(window.live_edges() <= W);

    WallTimer query_timer;
    const ConnectivityResult r = Connectivity(gz.Snapshot(), 0);
    const double query_seconds = query_timer.Seconds();
    GZ_CHECK(!r.failed);

    std::printf(
        "  {\"workload\": \"window\", \"num_nodes\": %llu,"
        " \"window\": %zu, \"observations\": %zu,"
        " \"observations_per_sec\": %.0f, \"live_edges\": %zu,"
        " \"query_seconds\": %.6f, \"components\": %zu},\n",
        static_cast<unsigned long long>(n), W, edges.size(),
        static_cast<double>(edges.size()) / observe_seconds,
        window.live_edges(), query_seconds, r.num_components);
  }

  // ---- k_connectivity -----------------------------------------------------
  {
    const uint64_t n = 1u << 10;
    const EdgeList edges = RandomConnectedGraph(n, 6 * n, 91);
    std::fprintf(stderr, "k_connectivity: k=%d over %zu edges\n", k,
                 edges.size());

    GraphZeppelinConfig config = bench::DefaultGzConfig();
    config.num_nodes = n;
    config.rounds = RoundsForForests(n, k);
    GraphZeppelin gz(config);
    GZ_CHECK_OK(gz.Init());
    WallTimer ingest_timer;
    std::vector<GraphUpdate> updates;
    updates.reserve(edges.size());
    for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});
    gz.Update(updates.data(), updates.size());
    gz.Flush();
    const double ingest_seconds = ingest_timer.Seconds();

    WallTimer certify_timer;
    const Result<KConnectivityResult> certified =
        KEdgeConnectivity(gz.Snapshot(), k);
    const double certify_seconds = certify_timer.Seconds();
    GZ_CHECK_OK(certified.status());
    const KConnectivityResult& kc = certified.value();
    GZ_CHECK(!kc.sketch_failed);
    GZ_CHECK(kc.certificate.size() <=
             static_cast<size_t>(k) * (n - 1));  // The AGM bound.

    std::printf(
        "  {\"workload\": \"k_connectivity\", \"num_nodes\": %llu,"
        " \"edges\": %zu, \"k\": %d, \"certified_connectivity\": %d,"
        " \"certificate_edges\": %zu, \"ingest_seconds\": %.3f,"
        " \"certify_seconds\": %.3f}\n",
        static_cast<unsigned long long>(n), edges.size(), kc.k,
        kc.certified_connectivity, kc.certificate.size(), ingest_seconds,
        certify_seconds);
  }

  std::printf("]\n");
  return 0;
}
