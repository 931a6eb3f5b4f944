// gz_query: a serving-tier client. Dials every shard listener of a
// cluster as an authenticated *reader* session (QuerySession), pulls a
// consistent merged snapshot keyed by the shards' watermarks (round 0's
// samples and every later round's summary, then only the rounds a
// query reads whole), and answers graph queries from it — without touching the coordinator,
// whose write path keeps streaming unimpeded.
//
// Replicated clusters need no extra flags: list every replica's
// endpoint and the session groups them by the shard id each reports,
// reading from one live replica per shard (with failover).
//
// Usage:
//   gz_query --endpoints tcp://h:p,tcp://h:p,... [--mode connectivity]
//     [--auth-secret SECRET | --auth-secret-file PATH]
//     [--threads N] [--json] [--top K]
//   gz_query --mode forest --endpoints ... --forest-out forest.gzst
//   gz_query --k-connectivity K --endpoints ...      (forest peeling)
//   gz_query --mode bipartite --endpoints ... --doubled-endpoints ...
//   gz_query --watch --endpoints ... --watch-count
//     [--watch-connected U:V,...] [--watch-forest] [--poll-ms MS]
//     [--no-subscribe] [--watch-duration SEC] [--watch-max N]
//
// Modes:
//   connectivity  components + spanning-forest size (default)
//   forest        also write the forest as an insert-only stream file
//   bipartite     AGM doubled-graph verdict; --endpoints serves the
//                 primal cluster, --doubled-endpoints the doubled one
//                 (2V nodes), both fed by a BipartitenessSketch-style
//                 writer
//   --watch       standing queries: registers the requested watches,
//                 subscribes to the shards' push-notify streams, and
//                 prints one JSON line per CHANGED answer until
//                 --watch-duration / --watch-max / SIGINT ends it
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "algos/bipartiteness.h"
#include "core/connectivity.h"
#include "distributed/query_session.h"
#include "tools/flags.h"
#include "util/timer.h"
#include "workloads/k_connectivity.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gz_query --endpoints tcp://H:P,... [--mode MODE]\n"
      "       [--auth-secret SECRET | --auth-secret-file PATH]\n"
      "       [--threads N] [--json] [--top K]\n"
      "  --mode connectivity   components + forest size (default)\n"
      "  --mode forest         connectivity + --forest-out stream file\n"
      "  --mode bipartite      doubled-graph verdict; needs\n"
      "                        --doubled-endpoints tcp://H:P,...\n"
      "  --endpoints           the cluster's shard listeners, one per\n"
      "                        shard, comma-separated\n"
      "  --auth-secret         shared handshake secret (or\n"
      "                        --auth-secret-file / $GZ_SHARD_AUTH_SECRET)\n"
      "  --threads             Boruvka pool (0 = auto)\n"
      "  --json                one machine-readable JSON line on stdout\n"
      "  --k-connectivity K    certify min(edge connectivity, K) from\n"
      "                        the merged snapshot (k forest peels)\n"
      "  --watch               stream standing-query notifications; add\n"
      "                        --watch-count, --watch-forest and/or\n"
      "                        --watch-connected U:V[,U:V...]\n"
      "  --poll-ms             watch fallback poll cadence (default 200)\n"
      "  --no-subscribe        watch by polling only (no push streams)\n"
      "  --watch-duration      stop the watch after SEC seconds (0 = run\n"
      "                        until --watch-max or SIGINT)\n"
      "  --watch-max           stop after N notifications (0 = no limit)\n");
  return 2;
}

std::atomic<bool> g_interrupted{false};

const char* KindName(gz::StandingQueryKind kind) {
  switch (kind) {
    case gz::StandingQueryKind::kConnected:
      return "connected";
    case gz::StandingQueryKind::kComponentCount:
      return "components";
    case gz::StandingQueryKind::kSpanningForest:
      return "forest";
  }
  return "unknown";
}

// A node id: decimal digits only, so "a" or "-1" is refused instead of
// being read as 0 or wrapped.
bool ParseNodeId(const std::string& text, gz::NodeId* out) {
  if (text.empty() || text.size() > 10 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (value > std::numeric_limits<gz::NodeId>::max()) return false;
  *out = static_cast<gz::NodeId>(value);
  return true;
}

// The standing queries the --watch-* flags ask for. False, with a
// message, when a --watch-connected entry is not U:V of two node ids or
// no query was asked for.
bool ParseWatchSpecs(const gz::tools::Flags& flags,
                     std::vector<gz::StandingQuerySpec>* specs) {
  using namespace gz;
  for (const std::string& pair :
       tools::SplitCommaList(flags.GetString("watch-connected", ""))) {
    const size_t colon = pair.find(':');
    StandingQuerySpec spec;
    spec.kind = StandingQueryKind::kConnected;
    if (colon == std::string::npos ||
        !ParseNodeId(pair.substr(0, colon), &spec.u) ||
        !ParseNodeId(pair.substr(colon + 1), &spec.v)) {
      std::fprintf(stderr, "gz_query: --watch-connected wants U:V, got %s\n",
                   pair.c_str());
      return false;
    }
    specs->push_back(spec);
  }
  if (flags.GetBool("watch-count", false)) {
    specs->push_back({StandingQueryKind::kComponentCount, 0, 0});
  }
  if (flags.GetBool("watch-forest", false)) {
    specs->push_back({StandingQueryKind::kSpanningForest, 0, 0});
  }
  if (specs->empty()) {
    std::fprintf(stderr,
                 "gz_query: --watch needs at least one of --watch-count, "
                 "--watch-forest, --watch-connected\n");
    return false;
  }
  return true;
}

// The streaming watch loop: registers `specs`, starts the watcher
// (push-notified unless --no-subscribe), and prints one JSON line per
// notification. Exits 0 when a bound (--watch-max / --watch-duration /
// SIGINT) ends the watch.
int RunWatch(const gz::tools::Flags& flags,
             const std::vector<gz::StandingQuerySpec>& specs,
             gz::QuerySession* session) {
  using namespace gz;
  for (const StandingQuerySpec& spec : specs) {
    session->AddStandingQuery(spec);
  }

  const uint64_t max_notifications =
      static_cast<uint64_t>(flags.GetInt("watch-max", 0));
  const double duration = flags.GetDouble("watch-duration", 0.0);
  std::atomic<uint64_t> printed{0};
  StandingWatchOptions options;
  options.poll_interval_ms =
      static_cast<int>(flags.GetInt("poll-ms", 200));
  options.subscribe = !flags.GetBool("no-subscribe", false);
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  const Status s = session->StartWatch(
      options,
      [&printed](const StandingQueryNotification& n, const GraphSnapshot&) {
        // One line per changed answer, flushed: a pipe consumer (the CI
        // subscriber, a dashboard) sees it immediately.
        std::printf("{\"event\":\"notify\",\"query_id\":%llu,"
                    "\"seq\":%llu,\"num_updates\":%llu,"
                    "\"kind\":\"%s\",\"u\":%llu,\"v\":%llu,"
                    "\"connected\":%s,\"components\":%zu,"
                    "\"forest_edges\":%zu}\n",
                    static_cast<unsigned long long>(n.query_id),
                    static_cast<unsigned long long>(n.sequence),
                    static_cast<unsigned long long>(n.num_updates),
                    KindName(n.spec.kind),
                    static_cast<unsigned long long>(n.spec.u),
                    static_cast<unsigned long long>(n.spec.v),
                    n.answer.connected ? "true" : "false",
                    n.answer.num_components, n.answer.forest.size());
        std::fflush(stdout);
        printed.fetch_add(1);
      });
  if (!s.ok()) {
    std::fprintf(stderr, "gz_query: watch: %s\n", s.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, [](int) { g_interrupted.store(true); });
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(duration * 1000));
  while (!g_interrupted.load()) {
    if (max_notifications > 0 && printed.load() >= max_notifications) break;
    if (duration > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Counters read before StopWatch(): it tears the notify streams down.
  const size_t streams = session->watch_notify_streams();
  session->StopWatch();
  const Status err = session->watch_error();
  if (!err.ok()) {
    std::fprintf(stderr, "gz_query: watch ended with: %s\n",
                 err.ToString().c_str());
  }
  std::printf("{\"event\":\"watch_done\",\"notifications\":%llu,"
              "\"evaluations\":%llu,\"notify_streams\":%zu}\n",
              static_cast<unsigned long long>(session->watch_notifications()),
              static_cast<unsigned long long>(session->watch_evaluations()),
              streams);
  return 0;
}

// Connects a reader session to the given listener endpoints, failing
// the process with a useful message otherwise.
std::unique_ptr<gz::QuerySession> Dial(const std::string& endpoint_list,
                                       const std::string& secret,
                                       const char* what) {
  gz::QuerySessionOptions options;
  options.endpoints = gz::tools::SplitCommaList(endpoint_list);
  options.auth_secret = secret;
  auto session = std::make_unique<gz::QuerySession>(std::move(options));
  const gz::Status s = session->Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "gz_query: connecting %s cluster: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
  return session;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gz;
  tools::Flags flags(argc, argv);
  if (!flags.AllKnown({"endpoints", "mode", "auth-secret", "auth-secret-file",
                       "threads", "json", "top", "forest-out",
                       "doubled-endpoints", "k-connectivity", "watch",
                       "watch-count", "watch-forest", "watch-connected",
                       "poll-ms", "no-subscribe", "watch-duration",
                       "watch-max"})) {
    return Usage();
  }
  const std::string endpoints = flags.GetString("endpoints", "");
  if (endpoints.empty()) return Usage();
  const std::string mode = flags.GetString("mode", "connectivity");
  if (mode != "connectivity" && mode != "forest" && mode != "bipartite") {
    return Usage();
  }
  const std::string secret = tools::ResolveAuthSecret(flags, "gz_query");
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  const bool json = flags.GetBool("json", false);
  const bool watch = flags.GetBool("watch", false);
  std::vector<StandingQuerySpec> watch_specs;
  if (watch && !ParseWatchSpecs(flags, &watch_specs)) return 2;

  std::unique_ptr<QuerySession> session = Dial(endpoints, secret, "primal");

  if (watch) return RunWatch(flags, watch_specs, session.get());

  WallTimer refresh_timer;
  const GraphSnapshot* snap = nullptr;
  Status s = session->Snapshot(&snap);
  if (!s.ok()) {
    std::fprintf(stderr, "gz_query: snapshot: %s\n", s.ToString().c_str());
    return 1;
  }
  const double refresh_seconds = refresh_timer.Seconds();

  const int kconn = static_cast<int>(flags.GetInt("k-connectivity", 0));
  if (kconn > 0) {
    WallTimer query_timer;
    // Through the session: the peel pulls every round, and a cluster
    // that moved since the snapshot reruns the query at its new
    // position.
    Result<KConnectivityResult> certified = KConnectivityResult();
    s = session->RunQuery([&](const GraphSnapshot& current) {
      certified = KEdgeConnectivity(current, kconn);
    });
    const double query_seconds = query_timer.Seconds();
    if (!s.ok()) {
      std::fprintf(stderr, "gz_query: k-connectivity: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (!certified.ok()) {
      std::fprintf(stderr, "gz_query: k-connectivity: %s\n",
                   certified.status().ToString().c_str());
      return 1;
    }
    const KConnectivityResult& kc = certified.value();
    if (kc.sketch_failed) {
      std::fprintf(stderr, "gz_query: sketch query failed\n");
      return 1;
    }
    if (json) {
      std::printf(
          "{\"mode\":\"k_connectivity\",\"k\":%d,"
          "\"certified_connectivity\":%d,\"is_k_edge_connected\":%s,"
          "\"certificate_edges\":%zu,\"refresh_seconds\":%.6f,"
          "\"query_seconds\":%.6f}\n",
          kc.k, kc.certified_connectivity,
          kc.is_k_edge_connected ? "true" : "false", kc.certificate.size(),
          refresh_seconds, query_seconds);
    } else {
      std::printf("k-connectivity  certified min(lambda, %d) = %d — graph "
                  "is %sat least %d-edge-connected\n",
                  kc.k, kc.certified_connectivity,
                  kc.is_k_edge_connected ? "" : "NOT ", kc.k);
      std::printf("certificate     %zu edges across %zu forests "
                  "(query %.3fs)\n",
                  kc.certificate.size(), kc.decomposition.forests.size(),
                  query_seconds);
    }
    return 0;
  }

  if (mode == "bipartite") {
    const std::string doubled_list = flags.GetString("doubled-endpoints", "");
    if (doubled_list.empty()) return Usage();
    std::unique_ptr<QuerySession> doubled_session =
        Dial(doubled_list, secret, "doubled");
    const GraphSnapshot* doubled = nullptr;
    s = doubled_session->Snapshot(&doubled);
    if (!s.ok()) {
      std::fprintf(stderr, "gz_query: doubled snapshot: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (doubled->params().num_nodes != 2 * snap->params().num_nodes) {
      std::fprintf(stderr,
                   "gz_query: doubled cluster has %llu nodes, expected "
                   "2 x %llu — not this graph's doubling\n",
                   static_cast<unsigned long long>(
                       doubled->params().num_nodes),
                   static_cast<unsigned long long>(snap->params().num_nodes));
      return 1;
    }
    // Each side through its own session, which reruns a query whose
    // later window found its cluster moved.
    WallTimer query_timer;
    const Result<ConnectivityResult> primal_cc = session->Connectivity(threads);
    const Result<ConnectivityResult> doubled_cc =
        doubled_session->Connectivity(threads);
    const double query_seconds = query_timer.Seconds();
    for (const Result<ConnectivityResult>* side : {&primal_cc, &doubled_cc}) {
      if (!side->ok()) {
        std::fprintf(stderr, "gz_query: %s\n",
                     side->status().ToString().c_str());
        return 1;
      }
    }
    const BipartitenessResult verdict =
        BipartitenessFromComponents(primal_cc.value(), doubled_cc.value());
    if (verdict.failed) {
      std::fprintf(stderr, "gz_query: sketch query failed\n");
      return 1;
    }
    size_t odd = 0;
    for (uint64_t u = 0; u < snap->params().num_nodes; ++u) {
      if (!verdict.component_bipartite[u] &&
          verdict.component_of[u] == static_cast<NodeId>(u)) {
        ++odd;  // Count each non-bipartite component once, at its root.
      }
    }
    if (json) {
      std::printf(
          "{\"mode\":\"bipartite\",\"bipartite\":%s,"
          "\"odd_components\":%zu,\"refresh_seconds\":%.6f,"
          "\"query_seconds\":%.6f}\n",
          verdict.whole_graph_bipartite ? "true" : "false", odd,
          refresh_seconds, query_seconds);
    } else {
      std::printf("graph is %sbipartite (%zu component%s with an odd "
                  "cycle)\n",
                  verdict.whole_graph_bipartite ? "" : "NOT ", odd,
                  odd == 1 ? "" : "s");
    }
    return 0;
  }

  // Through the session: a later window that finds the cluster moved
  // retries from a fresh snapshot instead of failing the query.
  WallTimer query_timer;
  const Result<ConnectivityResult> answered = session->Connectivity(threads);
  const double query_seconds = query_timer.Seconds();
  if (!answered.ok()) {
    std::fprintf(stderr, "gz_query: %s\n",
                 answered.status().ToString().c_str());
    return 1;
  }
  const ConnectivityResult& result = answered.value();
  if (result.failed) {
    std::fprintf(stderr, "gz_query: sketch query failed\n");
    return 1;
  }

  if (mode == "forest") {
    const std::string forest_out = flags.GetString("forest-out", "");
    if (forest_out.empty()) {
      std::fprintf(stderr, "gz_query: --mode forest needs --forest-out\n");
      return 2;
    }
    s = WriteSpanningForestStream(result, snap->params().num_nodes,
                                  forest_out);
    if (!s.ok()) {
      std::fprintf(stderr, "gz_query: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (json) {
    std::printf(
        "{\"mode\":\"%s\",\"num_nodes\":%llu,\"num_updates\":%llu,"
        "\"components\":%zu,\"forest_edges\":%zu,\"rounds\":%d,"
        "\"round_budget\":%d,\"refresh_seconds\":%.6f,\"query_seconds\":%.6f,"
        "\"seqlock_rounds\":%d,\"range_pulls\":%llu,\"rounds_pulled\":%d,"
        "\"bytes_pulled\":%llu}\n",
        mode.c_str(),
        static_cast<unsigned long long>(snap->params().num_nodes),
        static_cast<unsigned long long>(snap->num_updates()),
        result.num_components, result.spanning_forest.size(),
        result.rounds_used, snap->rounds(), refresh_seconds, query_seconds,
        session->last_refresh_rounds(),
        static_cast<unsigned long long>(session->range_pulls()),
        session->rounds_pulled(),
        static_cast<unsigned long long>(session->bytes_pulled()));
  } else {
    std::printf("snapshot  %llu nodes, %llu updates served "
                "(refresh %.3fs, %d seqlock round%s, %llu range pulls, "
                "%d of %d rounds, %llu bytes pulled)\n",
                static_cast<unsigned long long>(snap->params().num_nodes),
                static_cast<unsigned long long>(snap->num_updates()),
                refresh_seconds, session->last_refresh_rounds(),
                session->last_refresh_rounds() == 1 ? "" : "s",
                static_cast<unsigned long long>(session->range_pulls()),
                session->rounds_pulled(), snap->rounds(),
                static_cast<unsigned long long>(session->bytes_pulled()));
    std::printf("query     %.3fs, %d of %d Boruvka rounds\n",
                query_seconds, result.rounds_used, snap->rounds());
    std::printf("components %zu, spanning forest %zu edges\n",
                result.num_components, result.spanning_forest.size());
    const int top = static_cast<int>(flags.GetInt("top", 0));
    if (top > 0) {
      auto components = ComponentsFromLabels(result.component_of);
      std::sort(components.begin(), components.end(),
                [](const auto& a, const auto& b) {
                  return a.size() > b.size();
                });
      for (int i = 0; i < top && i < static_cast<int>(components.size());
           ++i) {
        std::printf("  component %d: %zu nodes\n", i + 1,
                    components[i].size());
      }
    }
  }
  return 0;
}
