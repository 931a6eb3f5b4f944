// Query-layer benchmark. Per vertex scale V it times, once each, a
// GraphSnapshot's capture, XOR merge, serialize and deserialize, and
// one Boruvka query on one thread and on the parallel pool, and
// GZ_CHECKs that both queries return the identical forest. Each row's
// "rounds" is the snapshot's round budget (NodeSketch::DefaultRounds);
// "rounds_used" is how many of them the 1-thread query ran. Then it
// times the serving tier over a loopback-TCP listener fleet: a reader
// session's cold Snapshot() vs a cached repeat at an unmoved position
// vs the coordinator's re-fold (GZ_CHECKed: the served snapshot equals
// the re-fold bitwise, and a cached repeat pulls nothing and is at least
// 10x faster than the re-fold), reader-session query qps/p50/p99 at
// 1/4/16 concurrent readers with the writer's ingest rate beside them,
// and the standing-query watch: push vs poll notification latency
// p50/p99 and the writer's ingest rate with 16 live subscriptions.
// Emits one JSON object per vertex scale, the serving object last.
//
// Sizes: V = 2^GZ_BENCH_QUERY_LOGV_MIN .. 2^GZ_BENCH_QUERY_LOGV_MAX
// (defaults 12..14); GZ_BENCH_QUERY_THREADS sizes the pool (0 = auto).
// Serving knobs: GZ_BENCH_SERVING_LOGV (default 11),
// GZ_BENCH_SERVING_MS (ingest window per reader count, default 250),
// GZ_BENCH_SERVING_QUERIES (latency samples per reader, default 25).
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/standing_query.h"
#include "core/graph_snapshot.h"
#include "distributed/query_session.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"

namespace {

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(samples->size() - 1));
  return (*samples)[idx];
}

}  // namespace

int main() {
  using namespace gz;
  const int logv_min = bench::GetEnvInt("GZ_BENCH_QUERY_LOGV_MIN", 12);
  const int logv_max = bench::GetEnvInt("GZ_BENCH_QUERY_LOGV_MAX", 14);
  const int par_threads = ResolveQueryThreads(
      bench::GetEnvInt("GZ_BENCH_QUERY_THREADS", 0));

  std::fprintf(stderr,
               "query bench: V = 2^%d..2^%d, parallel pool = %d threads\n",
               logv_min, logv_max, par_threads);
  std::printf("[\n");
  for (int logv = logv_min; logv <= logv_max; ++logv) {
    const uint64_t n = 1ULL << logv;
    // Sparse random graph, avg degree ~8: forces Boruvka through many
    // rounds with a large live-component population (the parallel
    // engine's target regime).
    const EdgeList edges = RandomConnectedGraph(n, 4 * n, 1000 + logv);

    GraphZeppelinConfig config = bench::DefaultGzConfig();
    config.num_nodes = n;
    // Halves of the stream land in two same-seed instances so the
    // merge measurement below folds two genuinely different snapshots.
    GraphZeppelin a(config), b(config);
    GZ_CHECK_OK(a.Init());
    GZ_CHECK_OK(b.Init());
    std::vector<GraphUpdate> updates;
    updates.reserve(edges.size());
    for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});
    const size_t half = updates.size() / 2;
    a.Update(updates.data(), half);
    b.Update(updates.data() + half, updates.size() - half);

    WallTimer snap_timer;
    GraphSnapshot snapshot = a.Snapshot();
    const double snapshot_s = snap_timer.Seconds();

    // Timed with b's capture, as a coordinator folding a second
    // instance pays it.
    WallTimer merge_timer;
    GZ_CHECK_OK(snapshot.Merge(b.Snapshot()));
    const double merge_s = merge_timer.Seconds();
    GZ_CHECK(snapshot.num_updates() == updates.size());

    WallTimer ser_timer;
    const std::vector<uint8_t> bytes = snapshot.Serialize();
    const double serialize_s = ser_timer.Seconds();
    WallTimer deser_timer;
    Result<GraphSnapshot> thawed =
        GraphSnapshot::Deserialize(bytes.data(), bytes.size());
    const double deserialize_s = deser_timer.Seconds();
    GZ_CHECK(thawed.ok() && thawed.value() == snapshot);

    // Untimed warmup: the first query pays first-touch page faults for
    // its component-sketch buffers; without this the second timed run
    // would win on warm pages, not on algorithm.
    GZ_CHECK(!Connectivity(snapshot, 1).failed);

    WallTimer seq_timer;
    const ConnectivityResult seq = Connectivity(snapshot, 1);
    const double boruvka_1t_s = seq_timer.Seconds();
    GZ_CHECK(!seq.failed);

    WallTimer par_timer;
    const ConnectivityResult par = Connectivity(snapshot, par_threads);
    const double boruvka_par_s = par_timer.Seconds();
    // Determinism contract: identical spanning forest, bit for bit.
    GZ_CHECK(!par.failed);
    GZ_CHECK(par.spanning_forest == seq.spanning_forest);
    GZ_CHECK(par.component_of == seq.component_of);

    const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    std::printf(
        "  {\"v\": %llu, \"edges\": %zu, \"rounds\": %d, \"rounds_used\": %d,\n"
        "   \"snapshot_s\": %.4f, \"merge_s\": %.4f,\n"
        "   \"serialize_s\": %.4f, \"deserialize_s\": %.4f,\n"
        "   \"snapshot_mb\": %.1f, \"serialize_mb_per_s\": %.0f,\n"
        "   \"boruvka_1t_s\": %.4f, \"boruvka_par_s\": %.4f,\n"
        "   \"par_threads\": %d, \"speedup\": %.2f}%s\n",
        static_cast<unsigned long long>(n), edges.size(), snapshot.rounds(),
        seq.rounds_used, snapshot_s, merge_s, serialize_s, deserialize_s, mb,
        serialize_s > 0 ? mb / serialize_s : 0.0, boruvka_1t_s,
        boruvka_par_s, par_threads,
        boruvka_par_s > 0 ? boruvka_1t_s / boruvka_par_s : 0.0,
        ",");
  }

  // ---- Serving tier ---------------------------------------------------------
  // Two phases over one loopback-TCP listener fleet, one JSON object
  // (always the array's last element):
  //   (a) a QuerySession's cached snapshot — its cold Snapshot() vs a
  //       cached repeat at an unmoved position vs the coordinator's
  //       full re-fold, bitwise-checked and with the "cached >= 10x
  //       faster than re-fold" floor enforced;
  //   (b) QuerySession readers — quiesced query qps/p50/p99 and the
  //       writer's ingest rate with readers polling, at 1/4/16
  //       readers, vs a no-reader baseline.
  {
    const int logv = bench::GetEnvInt("GZ_BENCH_SERVING_LOGV", 11);
    const int ingest_ms = bench::GetEnvInt("GZ_BENCH_SERVING_MS", 250);
    const int queries = bench::GetEnvInt("GZ_BENCH_SERVING_QUERIES", 25);
    // Per-reader staleness-poll cadence during the ingest windows.
    // 100 Hz per reader is an aggressive dashboard; 0 = unpaced torture
    // loop (measures sweep saturation, not representative load).
    const int poll_ms = bench::GetEnvInt("GZ_BENCH_SERVING_POLL_MS", 10);
    const uint64_t n = 1ULL << logv;
    const int kShards = 3;
    std::fprintf(stderr,
                 "serving bench: V = 2^%d, %d shards, %d ms ingest windows\n",
                 logv, kShards, ingest_ms);

    const EdgeList edges = RandomConnectedGraph(n, 4 * n, 4242);
    std::vector<GraphUpdate> updates;
    updates.reserve(edges.size());
    for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});

    // The TCP fleet. 16 readers + the writer + a pin session exceed the
    // listener's default session budget, so raise it for the children.
    const std::string kSecret = "bench-serving";
    ::setenv("GZ_SHARD_MAX_SESSIONS", "40", 1);
    std::vector<std::unique_ptr<ListenerShard>> listeners;
    std::vector<std::string> fleet;
    const std::string scratch = bench::TempDir();
    GZ_CHECK_OK(StartListenerShards(DefaultShardBinary(), kShards, scratch,
                                    scratch + "/gz_bench_serving_l", kSecret,
                                    &listeners, &fleet));
    ::unsetenv("GZ_SHARD_MAX_SESSIONS");

    GraphZeppelinConfig tcp_config = bench::DefaultGzConfig();
    // Two spare nodes host the standing-query probe edge: outside the
    // random graph, connected only by the probe itself, so every
    // toggle flips the watched answer deterministically.
    tcp_config.num_nodes = n + 2;
    ShardClusterOptions copts;
    copts.auth_secret = kSecret;
    copts.shard_endpoints = fleet;
    // Steady-state routing throughput is the measurement; an
    // auto-checkpoint barrier landing inside a timed window is not.
    copts.checkpoint_interval_updates = 0;
    ShardCluster cluster(tcp_config, kShards, copts);
    GZ_CHECK_OK(cluster.Start());
    const size_t half = updates.size() / 2;
    GZ_CHECK_OK(cluster.Update(updates.data(), half));
    GZ_CHECK_OK(cluster.Flush());

    QuerySessionOptions qopts;
    qopts.endpoints = fleet;
    qopts.auth_secret = kSecret;

    // (a) Reader-cache economics at a quiesced position: the first
    // Snapshot() of a fresh session pulls the first round window of
    // every shard (cold), a repeat
    // only sweeps positions (cached), and the coordinator's Snapshot()
    // re-folds every shard's full range (refold). The served snapshot
    // must be exactly the coordinator's fold.
    double cold_s = 0, cached_s = 0, refold_s = 0;
    {
      QuerySession pin(qopts);
      GZ_CHECK_OK(pin.Connect());
      const GraphSnapshot* served = nullptr;
      WallTimer cold_timer;
      GZ_CHECK_OK(pin.Snapshot(&served));
      cold_s = cold_timer.Seconds();

      const int refolds = 5;
      WallTimer refold_timer;
      Result<GraphSnapshot> full = cluster.Snapshot();
      for (int i = 1; i < refolds; ++i) full = cluster.Snapshot();
      refold_s = refold_timer.Seconds() / refolds;
      GZ_CHECK_OK(full.status());

      const int reps = 50;
      const uint64_t cold_pulls = pin.range_pulls();
      WallTimer cached_timer;
      for (int i = 0; i < reps; ++i) GZ_CHECK_OK(pin.Snapshot(&served));
      cached_s = cached_timer.Seconds() / reps;

      // Every cached repeat answered from the cache: no chunk pulled.
      // (Read before the compare, which pulls the later rounds.)
      GZ_CHECK(pin.range_pulls() == cold_pulls);
      GZ_CHECK(*served == full.value());
      // The serving tier's reason to exist; regressing this means a
      // cached hit re-folded.
      GZ_CHECK(cached_s * 10.0 <= refold_s);
    }

    // Ingest windows recycle the second half of the stream in bursts
    // (sketch updates are XOR toggles, so replays are fine — only the
    // routed-update rate matters here).
    // One ingest window: bursts of kBurst updates, paced to `target`
    // updates/s (0 = unthrottled). Returns the achieved rate.
    const size_t kBurst = 512;
    size_t cursor = half;
    auto ingest_window = [&](int ms, double target) {
      WallTimer t;
      uint64_t sent = 0;
      while (t.Seconds() * 1000.0 < ms) {
        if (cursor >= updates.size()) cursor = half;
        const size_t take = std::min(kBurst, updates.size() - cursor);
        GZ_CHECK_OK(cluster.Update(updates.data() + cursor, take));
        cursor += take;
        sent += take;
        if (target > 0) {
          const double ahead =
              static_cast<double>(sent) / target - t.Seconds();
          if (ahead > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ahead));
          }
        }
      }
      return static_cast<double>(sent) / t.Seconds();
    };
    // Every measured window is preceded by an unmeasured warmup window
    // with NO flush in between: the warmup fills the socket buffers and
    // shard queues to their backpressure equilibrium, so the window
    // measures steady-state routing throughput, not a burst into empty
    // buffers.
    auto steady_rate = [&](double target) {
      (void)ingest_window(ingest_ms / 2, target);
      return ingest_window(ingest_ms, target);
    };
    // Unthrottled capacity first; the impact windows then pace the
    // writer at half of it. An unthrottled writer on a small machine
    // saturates every core, so readers would measure CPU division, not
    // serving overhead — the question a deployment asks is whether
    // readers make a writer WITH HEADROOM miss its provisioned rate.
    const double capacity_rate = steady_rate(0);
    const double target_rate = capacity_rate / 2;
    GZ_CHECK_OK(cluster.Flush());

    struct ReaderPoint {
      int readers;
      double qps, p50_ms, p99_ms, poll_rate, ingest_rate, ingest_ratio;
    };
    std::vector<ReaderPoint> points;
    for (const int readers : {1, 4, 16}) {
      // Quiesced latency: each reader warms its session cache once
      // (untimed cold pull), then times cache-hit round trips — the
      // steady state a dashboard poller lives in. No reader starts
      // timing until every reader is warm, so cold folds never share
      // the host with timed hits.
      std::vector<std::vector<double>> lat(readers);
      {
        std::barrier warm(readers);
        std::vector<std::thread> threads;
        for (int r = 0; r < readers; ++r) {
          threads.emplace_back([&, r] {
            QuerySession session(qopts);
            GZ_CHECK_OK(session.Connect());
            const GraphSnapshot* snap = nullptr;
            GZ_CHECK_OK(session.Snapshot(&snap));
            warm.arrive_and_wait();
            lat[r].reserve(queries);
            for (int q = 0; q < queries; ++q) {
              WallTimer qt;
              GZ_CHECK_OK(session.Snapshot(&snap));
              lat[r].push_back(qt.Seconds());
            }
          });
        }
        for (auto& t : threads) t.join();
      }
      // Aggregate throughput from the timed loops only — connect and
      // the cold warmup pull are session setup, not serving rate.
      double qps = 0.0;
      std::vector<double> all;
      for (auto& v : lat) {
        double busy = 0.0;
        for (double s : v) busy += s;
        if (busy > 0) qps += static_cast<double>(v.size()) / busy;
        all.insert(all.end(), v.begin(), v.end());
      }

      // Ingest impact: stale-serving readers. Each refreshes once while
      // the cluster is quiesced, signals ready, then polls the cluster
      // position in a tight loop while the writer streams — the
      // shard-side read load a dashboard fleet imposes between
      // refreshes. (A content refresh against a continuously moving
      // writer re-pulls every shard's full range; that measures bulk
      // transfer, not reader overhead, so it is not in this loop.)
      // Solo and loaded windows alternate (pollers pause for the solo
      // ones) and the pairs are averaged: back-to-back interleaving
      // cancels the scheduler drift that would otherwise dominate the
      // ratio when the whole fleet timeshares a small machine.
      GZ_CHECK_OK(cluster.Flush());
      std::atomic<bool> stop{false};
      std::atomic<bool> pause{true};
      std::atomic<int> ready{0};
      std::atomic<uint64_t> polls{0};
      std::vector<std::thread> pollers;
      for (int r = 0; r < readers; ++r) {
        pollers.emplace_back([&] {
          QuerySession session(qopts);
          GZ_CHECK_OK(session.Connect());
          const GraphSnapshot* snap = nullptr;
          GZ_CHECK_OK(session.Snapshot(&snap));  // Quiesced cold build.
          ready.fetch_add(1);
          bool fresh = false;
          while (!stop.load(std::memory_order_relaxed)) {
            if (pause.load(std::memory_order_relaxed)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              continue;
            }
            GZ_CHECK_OK(session.PollPositions(&fresh));
            polls.fetch_add(1, std::memory_order_relaxed);
            if (poll_ms > 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
            }
          }
        });
      }
      while (ready.load() < readers) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const int pairs = bench::GetEnvInt("GZ_BENCH_SERVING_WINDOWS", 3);
      double solo_rate = 0, loaded_rate = 0, window_s = 0;
      for (int w = 0; w < pairs; ++w) {
        pause.store(true);
        solo_rate += steady_rate(target_rate);
        pause.store(false);
        WallTimer window_timer;
        loaded_rate += steady_rate(target_rate);
        window_s += window_timer.Seconds();
      }
      stop.store(true);
      for (auto& t : pollers) t.join();
      solo_rate /= pairs;
      loaded_rate /= pairs;

      points.push_back(
          {readers, qps, 1e3 * Percentile(&all, 0.50),
           1e3 * Percentile(&all, 0.99),
           window_s > 0 ? static_cast<double>(polls.load()) / window_s : 0.0,
           loaded_rate, solo_rate > 0 ? loaded_rate / solo_rate : 0.0});
    }
    std::printf(
        "  {\"serving\": {\"v\": %llu, \"shards\": %d,\n"
        "   \"cold_refresh_s\": %.6f, \"cached_s\": %.9f,\n"
        "   \"refold_s\": %.6f, \"cached_speedup\": %.1f,\n"
        "   \"ingest_capacity_updates_per_s\": %.0f,\n"
        "   \"ingest_target_updates_per_s\": %.0f,\n"
        "   \"readers\": [",
        static_cast<unsigned long long>(n), kShards, cold_s, cached_s,
        refold_s, cached_s > 0 ? refold_s / cached_s : 0.0, capacity_rate,
        target_rate);
    for (size_t i = 0; i < points.size(); ++i) {
      const ReaderPoint& p = points[i];
      std::printf(
          "\n    {\"readers\": %d, \"qps\": %.0f, \"p50_ms\": %.3f, "
          "\"p99_ms\": %.3f, \"polls_per_s\": %.0f, "
          "\"ingest_updates_per_s\": %.0f, \"ingest_ratio\": %.3f}%s",
          p.readers, p.qps, p.p50_ms, p.p99_ms, p.poll_rate, p.ingest_rate,
          p.ingest_ratio, i + 1 < points.size() ? "," : "");
    }
    std::printf("],\n");

    // ---- Standing-query watch ---------------------------------------
    // Notification latency: a kConnected standing query on the probe
    // edge, toggled by the otherwise-quiesced writer. The sample is
    // Update() -> the notifier firing with the flipped answer, so it
    // covers the full path: shard position push (or cadence poll),
    // the session's cold rebuild, the Boruvka query, and the answer
    // diff. Push subscriptions vs pure polling at the same cadence.
    const int toggles = bench::GetEnvInt("GZ_BENCH_WATCH_TOGGLES", 20);
    const int watch_poll_ms = bench::GetEnvInt("GZ_BENCH_WATCH_POLL_MS", 200);
    const Edge probe(static_cast<NodeId>(n), static_cast<NodeId>(n + 1));
    GZ_CHECK_OK(cluster.Flush());
    struct WatchLatency {
      double p50_ms = 0, p99_ms = 0;
    };
    WatchLatency push_lat, poll_lat;
    bool probe_in = false;
    for (const bool subscribe : {true, false}) {
      QuerySession session(qopts);
      GZ_CHECK_OK(session.Connect());
      session.AddStandingQuery(
          {StandingQueryKind::kConnected, probe.u, probe.v});
      std::mutex mu;
      std::condition_variable cv;
      bool last_connected = false;
      uint64_t notes = 0;
      StandingWatchOptions wopts;
      wopts.poll_interval_ms = watch_poll_ms;
      wopts.subscribe = subscribe;
      GZ_CHECK_OK(session.StartWatch(
          wopts,
          [&](const StandingQueryNotification& nn, const GraphSnapshot&) {
            std::lock_guard<std::mutex> lock(mu);
            last_connected = nn.answer.connected;
            ++notes;
            cv.notify_all();
          }));
      {
        std::unique_lock<std::mutex> lock(mu);
        GZ_CHECK(cv.wait_for(lock, std::chrono::seconds(30),
                             [&] { return notes >= 1; }));
      }
      std::vector<double> lat;
      lat.reserve(toggles);
      for (int i = 0; i < toggles; ++i) {
        const GraphUpdate u{
            probe, probe_in ? UpdateType::kDelete : UpdateType::kInsert};
        probe_in = !probe_in;
        WallTimer toggle_timer;
        GZ_CHECK_OK(cluster.Update(&u, 1));
        std::unique_lock<std::mutex> lock(mu);
        GZ_CHECK(cv.wait_for(lock, std::chrono::seconds(30),
                             [&] { return last_connected == probe_in; }));
        lat.push_back(toggle_timer.Seconds());
      }
      session.StopWatch();
      WatchLatency& out = subscribe ? push_lat : poll_lat;
      out.p50_ms = 1e3 * Percentile(&lat, 0.50);
      out.p99_ms = 1e3 * Percentile(&lat, 0.99);
    }

    // Ingest impact of live subscriptions: 16 sessions, each holding a
    // component-count standing query over push notify streams,
    // re-folding as the writer streams — the heaviest continuous-query
    // fleet the serving tier is specified for. Solo/loaded window
    // pairs as above; the watchers are torn down for the solo half of
    // each pair, so the drift-cancelling alternation is preserved.
    const int kWatchers = 16;
    double watch_solo = 0, watch_loaded = 0;
    {
      const int pairs = bench::GetEnvInt("GZ_BENCH_SERVING_WINDOWS", 3);
      for (int w = 0; w < pairs; ++w) {
        watch_solo += steady_rate(target_rate);
        std::vector<std::unique_ptr<QuerySession>> watchers;
        for (int r = 0; r < kWatchers; ++r) {
          watchers.push_back(std::make_unique<QuerySession>(qopts));
          GZ_CHECK_OK(watchers.back()->Connect());
          watchers.back()->AddStandingQuery(
              {StandingQueryKind::kComponentCount, 0, 0});
          StandingWatchOptions wopts;
          wopts.poll_interval_ms = watch_poll_ms;
          GZ_CHECK_OK(watchers.back()->StartWatch(
              wopts,
              [](const StandingQueryNotification&, const GraphSnapshot&) {}));
        }
        watch_loaded += steady_rate(target_rate);
        for (auto& watcher : watchers) watcher->StopWatch();
      }
      watch_solo /= pairs;
      watch_loaded /= pairs;
    }
    GZ_CHECK_OK(cluster.Shutdown());

    std::printf(
        "   \"watch\": {\"toggles\": %d, \"poll_ms\": %d,\n"
        "    \"push_p50_ms\": %.3f, \"push_p99_ms\": %.3f,\n"
        "    \"poll_p50_ms\": %.3f, \"poll_p99_ms\": %.3f,\n"
        "    \"subscribers\": %d, \"ingest_updates_per_s\": %.0f, "
        "\"ingest_ratio\": %.3f}}}\n",
        toggles, watch_poll_ms, push_lat.p50_ms, push_lat.p99_ms,
        poll_lat.p50_ms, poll_lat.p99_ms, kWatchers, watch_loaded,
        watch_solo > 0 ? watch_loaded / watch_solo : 0.0);
  }
  std::printf("]\n");
  return 0;
}
