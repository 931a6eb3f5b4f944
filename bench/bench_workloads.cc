// Workload-layer benchmark: the two sketch-algebra workloads end to
// end, each with a built-in correctness gate (GZ_CHECK) so a timing
// row can never be printed for a wrong answer.
//
//   window           sliding-window connectivity: observations/s
//                    through the WindowIngestor (insert + expiry
//                    deletes through the unchanged delete path) and
//                    the windowed query time, checked against an
//                    explicit last-W edge set.
//   k_connectivity   forest peeling + certification time at k, with
//                    the certificate-size bound GZ_CHECK'd.
//
// Emits one JSON array with one object per workload. Sizes scale via:
//   GZ_BENCH_WL_WINDOW  window size W (default 4096)
//   GZ_BENCH_WL_K       certification level k (default 3)
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "workloads/k_connectivity.h"
#include "workloads/window_ingestor.h"

int main() {
  using namespace gz;
  const size_t W = static_cast<size_t>(
      bench::GetEnvInt("GZ_BENCH_WL_WINDOW", 4096));
  const int k = bench::GetEnvInt("GZ_BENCH_WL_K", 3);

  std::printf("[\n");

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
