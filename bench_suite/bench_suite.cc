// bench_suite: the repository's one end-to-end benchmark.
//
//   bench_suite --seed S [--workload NAME] [--seconds T] [--trace FILE]
//               [--work-dir DIR]
//
// Runs four fixed workloads against the public API of src/core,
// src/buffer, src/sketch and src/distributed and prints one JSON
// document: a stamp (host, nproc, sketch kernel, seed, src/ line count)
// and, per workload, every end-to-end metric with its unit. Every query
// answer is checked against an exact reference partition computed from
// the stream; a wrong answer or a non-OK Status counts as a failed
// operation rather than aborting the run.
//
// --seed changes only the generated stream. Sketch seed, worker counts
// and sizes are fixed here. Each workload runs fresh-instance passes
// until --seconds have elapsed (at least kMinPasses), closed loop: the
// one main thread hands over the next 4096-update span only after
// Update() returns, the way gz_components streams a file.
//
// --trace FILE interleaves traced passes with the untraced ones. For
// the in-process workloads a traced pass runs TracedPipeline (the same
// pipeline GraphZeppelin::Init builds, with spans around every layer
// call), whose final snapshot must equal GraphZeppelin's bitwise or the
// run exits 1. For tcp_replicated the spans wrap the ShardCluster and
// QuerySession calls. Per-layer metrics are medians over traced passes;
// every span is written to FILE as one JSON line.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "distributed/query_session.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "dsu/dsu.h"
#include "pipeline.h"
#include "sketch/sketch_kernel.h"
#include "stream/kronecker_generator.h"
#include "stream/stream_transform.h"
#include "trace.h"

namespace gz::bench_suite {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kSketchSeed = 42;
constexpr size_t kSpanUpdates = 4096;
constexpr int kSetupRepeats = 5;
constexpr int kMinPasses = 3;
constexpr int kQueryThreads = 0;  // Auto, as GraphZeppelinConfig's default.
constexpr int kShards = 2;
constexpr int kReplicas = 2;
constexpr int kReaderQueries = 5;
constexpr char kSecret[] = "bench-suite-secret";

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Kind { kLocal, kTcp };

struct WorkloadSpec {
  const char* name;
  int scale;  // kron<scale>: 2^scale nodes, density 0.5.
  Kind kind;
  GraphZeppelinConfig::Buffering buffering;
  GraphZeppelinConfig::Storage storage;
  size_t query_every;  // Mid-stream query cadence in updates; 0 = none.
  int end_queries;     // Queries after the end-of-stream Flush.
};

// Why each workload exists is in README.md; in short: ram_ingest is the
// kernel-bound fig13 path, disk_ingest the only gutter-tree and on-disk
// store path, mixed_query the query-bound path, tcp_replicated the only
// path through sockets, replication, the fold and repair.
constexpr WorkloadSpec kWorkloads[] = {
    {"ram_ingest", 11, Kind::kLocal, GraphZeppelinConfig::Buffering::kLeafOnly,
     GraphZeppelinConfig::Storage::kRam, 0, 8},
    {"disk_ingest", 11, Kind::kLocal,
     GraphZeppelinConfig::Buffering::kGutterTree,
     GraphZeppelinConfig::Storage::kDisk, 0, 8},
    {"mixed_query", 11, Kind::kLocal,
     GraphZeppelinConfig::Buffering::kLeafOnly,
     GraphZeppelinConfig::Storage::kRam, 16384, 1},
    {"tcp_replicated", 11, Kind::kTcp,
     GraphZeppelinConfig::Buffering::kLeafOnly,
     GraphZeppelinConfig::Storage::kRam, 0, 0},
};

struct Options {
  uint64_t seed = 1;
  std::string workload;  // Empty = all.
  double seconds = 10;
  std::string trace_path;  // Empty = untraced.
  std::string work_dir;
};

// ---- Checked operations ----------------------------------------------------

class Outcome {
 public:
  // Counts one checked operation; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      if (failed_ < 20) std::fprintf(stderr, "bench_suite: FAILED %s\n",
                                     what.c_str());
      ++failed_;
    }
    return ok;
  }
  bool Ok(const Status& s, const std::string& what) {
    return Check(s.ok(), what + (s.ok() ? "" : ": " + s.ToString()));
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Inputs and the exact reference ---------------------------------------

struct Input {
  uint64_t num_nodes = 0;
  std::vector<GraphUpdate> updates;
  // Stream prefixes at which answers are checked (the last is the whole
  // stream), and the exact partition at each.
  std::vector<size_t> query_points;
  std::vector<std::vector<NodeId>> reference;
};

// Relabels a root-per-node vector so each node maps to the smallest node
// of its component: equal partitions give equal vectors.
template <typename T>
std::vector<NodeId> Canonical(const std::vector<T>& root_of) {
  constexpr NodeId kUnset = ~NodeId{0};
  std::vector<NodeId> first(root_of.size(), kUnset);
  std::vector<NodeId> label(root_of.size());
  for (size_t v = 0; v < root_of.size(); ++v) {
    const size_t root = static_cast<size_t>(root_of[v]);
    if (root >= first.size()) return {};  // Not a partition of [0, n).
    if (first[root] == kUnset) first[root] = static_cast<NodeId>(v);
    label[v] = first[root];
  }
  return label;
}

// Replays the stream into a bitset of present edges and runs a DSU over
// it at every query point.
std::vector<std::vector<NodeId>> ReferencePartitions(
    uint64_t n, const std::vector<GraphUpdate>& updates,
    const std::vector<size_t>& points) {
  std::vector<uint64_t> present((NumPossibleEdges(n) + 63) / 64, 0);
  std::vector<std::vector<NodeId>> out;
  size_t applied = 0;
  for (const size_t point : points) {
    for (; applied < point; ++applied) {
      const EdgeIndex idx = EdgeToIndex(updates[applied].edge, n);
      present[idx >> 6] ^= uint64_t{1} << (idx & 63);
    }
    Dsu dsu(n);
    // Row u of the triangular index holds edges (u, u+1..n-1).
    uint64_t u = 0, row_start = 0, row_end = n - 1;
    for (size_t w = 0; w < present.size(); ++w) {
      for (uint64_t bits = present[w]; bits != 0; bits &= bits - 1) {
        const uint64_t idx = w * 64 + std::countr_zero(bits);
        while (idx >= row_end) {
          ++u;
          row_start = row_end;
          row_end += n - 1 - u;
        }
        dsu.Union(u, u + 1 + (idx - row_start));
      }
    }
    std::vector<size_t> roots(n);
    for (size_t v = 0; v < n; ++v) roots[v] = dsu.Find(v);
    out.push_back(Canonical(roots));
  }
  return out;
}

std::vector<GraphUpdate> KroneckerStream(int scale, uint64_t seed) {
  KroneckerParams kp;
  kp.scale = scale;
  kp.density = 0.5;
  kp.seed = seed;
  KroneckerGenerator gen(kp);
  StreamTransformParams tp;
  tp.num_nodes = gen.num_nodes();
  tp.seed = seed;
  return BuildStream(gen.Generate(), tp).updates;
}

// ---- Systems under test ----------------------------------------------------

GraphZeppelinConfig LocalConfig(const WorkloadSpec& spec, uint64_t num_nodes,
                                const std::string& work_dir) {
  GraphZeppelinConfig c;
  c.num_nodes = num_nodes;
  c.seed = kSketchSeed;
  c.num_workers = 2;
  c.buffering = spec.buffering;
  c.storage = spec.storage;
  c.disk_dir = work_dir;
  c.query_threads = kQueryThreads;
  return c;
}

// Four loopback `gz_shard --listen` processes (2 shards x 2 replicas,
// one Graph Worker each) and the coordinator dialing them.
struct TcpDeployment {
  std::vector<std::unique_ptr<ListenerShard>> listeners;
  std::vector<std::string> endpoints;  // Shard-major: s0r0 s0r1 s1r0 s1r1.
  std::unique_ptr<ShardCluster> cluster;  // Destroyed before listeners.

  Status Start(uint64_t num_nodes, const std::string& work_dir) {
    Status s = StartListenerShards(DefaultShardBinary(), kShards * kReplicas,
                                   work_dir, work_dir + "/listener-", kSecret,
                                   &listeners, &endpoints);
    if (!s.ok()) return s;
    GraphZeppelinConfig base;
    base.num_nodes = num_nodes;
    base.seed = kSketchSeed;
    base.num_workers = 1;
    base.disk_dir = work_dir;
    base.query_threads = kQueryThreads;
    ShardClusterOptions options;
    options.shard_endpoints = endpoints;
    options.auth_secret = kSecret;
    options.checkpoint_dir = work_dir;
    options.log_dir = work_dir;
    options.replication_factor = kReplicas;
    // Only the pass's own mid-stream checkpoint: restore replays exactly
    // the second half of the stream.
    options.checkpoint_interval_updates = 0;
    cluster = std::make_unique<ShardCluster>(base, kShards, options);
    return cluster->Start();
  }
};

// ---- One pass --------------------------------------------------------------

struct PassResult {
  bool complete = false;
  double ingest_s = 0;
  std::vector<double> query_ms;
  std::vector<double> rounds;
  double ram_bytes = 0;
  double disk_bytes = 0;
  std::optional<GraphSnapshot> final_snapshot;
  TracedPipeline::Counters counters;
  // tcp_replicated only.
  double restore_s = 0;
  double repair_s = 0;
  uint64_t reconcile_chunks = 0;
};

struct Answer {
  size_t point = 0;  // Index into Input::query_points.
  bool failed = false;
  std::vector<NodeId> component_of;
};

void CheckAnswers(const std::vector<Answer>& answers, const Input& in,
                  Outcome* oc) {
  for (const Answer& a : answers) {
    oc->Check(!a.failed && Canonical(a.component_of) == in.reference[a.point],
              "partition after " + std::to_string(in.query_points[a.point]) +
                  " updates");
  }
}

// One pass of an in-process workload over `sys`: GraphZeppelin, or
// TracedPipeline with `log` recording the main thread's spans.
template <typename System>
void DriveLocalPass(System& sys, const WorkloadSpec& spec, const Input& in,
                    Tracer::Log* log, PassResult* out, Outcome* oc) {
  std::vector<Answer> answers;
  auto query = [&](size_t point) {
    const Clock::time_point t0 = Clock::now();
    ConnectivityResult r;
    {
      ScopedSpan q(log, "query");
      {
        ScopedSpan s(log, "buffer.flush");
        sys.Flush();
      }
      GraphSnapshot snap;
      {
        ScopedSpan s(log, "core.snapshot");
        snap = sys.Snapshot();
      }
      ScopedSpan s(log, "core.boruvka");
      r = Connectivity(std::move(snap), kQueryThreads);
    }
    out->query_ms.push_back(SecondsSince(t0) * 1e3);
    out->rounds.push_back(r.rounds_used);
    answers.push_back({point, r.failed, std::move(r.component_of)});
  };

  const size_t n = in.updates.size();
  const size_t last_point = in.query_points.size() - 1;
  {
    ScopedSpan root(log, "pass");
    const Clock::time_point start = Clock::now();
    size_t point = 0;
    for (size_t off = 0; off < n; off += kSpanUpdates) {
      const size_t count = std::min(kSpanUpdates, n - off);
      {
        ScopedSpan s(log, "buffer.insert");
        sys.Update(in.updates.data() + off, count);
      }
      if (point < last_point && off + count == in.query_points[point]) {
        query(point++);
      }
    }
    {
      ScopedSpan s(log, "buffer.flush");
      sys.Flush();
    }
    out->ingest_s = SecondsSince(start);
    for (int i = 0; i < spec.end_queries; ++i) query(last_point);
  }
  // The batch pool never frees a slab and the store and gutters have a
  // fixed size, so RamByteSize() only grows: its value now is the peak.
  // (Sampling it per span would cost ~6% of ingest: it walks every
  // sketch.)
  out->ram_bytes = static_cast<double>(sys.RamByteSize());
  out->disk_bytes = static_cast<double>(sys.DiskByteSize());
  CheckAnswers(answers, in, oc);
  out->complete = true;
}

void RunLocalPass(const WorkloadSpec& spec, const Input& in,
                  const Options& opt, Tracer* tracer, int pass,
                  bool keep_snapshot, PassResult* out, Outcome* oc) {
  const GraphZeppelinConfig config =
      LocalConfig(spec, in.num_nodes, opt.work_dir);
  if (tracer == nullptr) {
    GraphZeppelin gz(config);
    if (!oc->Ok(gz.Init(), "GraphZeppelin::Init")) return;
    DriveLocalPass(gz, spec, in, nullptr, out, oc);
    if (keep_snapshot) out->final_snapshot = gz.Snapshot();
    return;
  }
  Tracer::Log* log = tracer->NewLog("producer", spec.name, pass);
  TracedPipeline pipeline(config, tracer, spec.name, pass);
  if (!oc->Ok(pipeline.Init(), "TracedPipeline::Init")) return;
  DriveLocalPass(pipeline, spec, in, log, out, oc);
  out->counters = pipeline.counters();  // Before the untimed snapshot.
  out->final_snapshot = pipeline.Snapshot();
}

// One cold reader query, the shape of one gz_query run: dial and
// authenticate `endpoints`, pull and fold the snapshot, run Boruvka.
// The answer must match the reference and the folded snapshot must
// equal `want` bitwise. Its latency joins the pass's query pool.
void ReaderQuery(const std::vector<std::string>& endpoints,
                   const GraphSnapshot& want, const Input& in,
                   Tracer::Log* log, PassResult* out, Outcome* oc) {
  ScopedSpan q(log, "query");
  const Clock::time_point t0 = Clock::now();
  QuerySessionOptions options;
  options.endpoints = endpoints;
  options.auth_secret = kSecret;
  QuerySession session(options);
  Status s;
  {
    ScopedSpan span(log, "distributed.reader_connect");
    s = session.Connect();
  }
  if (!oc->Ok(s, "QuerySession::Connect")) return;
  const GraphSnapshot* snap = nullptr;
  {
    ScopedSpan span(log, "distributed.reader_snapshot");
    s = session.Snapshot(&snap);
  }
  if (!oc->Ok(s, "QuerySession::Snapshot")) return;
  ConnectivityResult r;
  {
    ScopedSpan span(log, "core.boruvka");
    r = Connectivity(*snap, kQueryThreads);
  }
  out->query_ms.push_back(SecondsSince(t0) * 1e3);
  ScopedSpan check(log, "bench.check");
  out->rounds.push_back(r.rounds_used);
  oc->Check(*snap == want, "reader snapshot equals the coordinator fold");
  CheckAnswers({{in.query_points.size() - 1, r.failed,
                 std::move(r.component_of)}},
               in, oc);
}

void RunTcpPass(const Input& in, const Options& opt, Tracer* tracer, int pass,
                PassResult* out, Outcome* oc) {
  Tracer::Log* log =
      tracer == nullptr
          ? nullptr
          : tracer->NewLog("coordinator", "tcp_replicated", pass);
  TcpDeployment d;
  if (!oc->Ok(d.Start(in.num_nodes, opt.work_dir), "tcp cluster start")) return;
  ShardCluster& cluster = *d.cluster;
  const size_t n = in.updates.size();
  const size_t midpoint = (n / 2) / kSpanUpdates * kSpanUpdates;
  {
    ScopedSpan root(log, "pass");
    const Clock::time_point start = Clock::now();
    for (size_t off = 0; off < n; off += kSpanUpdates) {
      const size_t count = std::min(kSpanUpdates, n - off);
      Status s;
      {
        ScopedSpan span(log, "distributed.update");
        s = cluster.Update(in.updates.data() + off, count);
      }
      if (!oc->Ok(s, "ShardCluster::Update")) return;
      if (off + count == midpoint) {
        ScopedSpan span(log, "distributed.checkpoint");
        if (!oc->Ok(cluster.Checkpoint(), "ShardCluster::Checkpoint")) return;
      }
    }
    {
      ScopedSpan span(log, "distributed.flush");
      if (!oc->Ok(cluster.Flush(), "ShardCluster::Flush")) return;
    }
    out->ingest_s = SecondsSince(start);

    // The coordinator's own end-of-stream query: fold + Boruvka.
    GraphSnapshot fold;
    {
      ScopedSpan q(log, "query");
      Result<GraphSnapshot> folded = Status::Internal("not folded");
      {
        ScopedSpan span(log, "distributed.fold");
        folded = cluster.Snapshot();
      }
      if (!oc->Ok(folded.status(), "ShardCluster::Snapshot")) return;
      fold = std::move(folded).value();
      ConnectivityResult r;
      {
        ScopedSpan span(log, "core.boruvka");
        r = Connectivity(fold, kQueryThreads);
      }
      ScopedSpan check(log, "bench.check");
      out->rounds.push_back(r.rounds_used);
      oc->Check(fold.num_updates() == n, "fold covers the whole stream");
      CheckAnswers({{in.query_points.size() - 1, r.failed,
                     std::move(r.component_of)}},
                   in, oc);
    }
    {
      ScopedSpan span(log, "distributed.stats");
      for (int shard = 0; shard < kShards; ++shard) {
        Result<ShardStats> st = cluster.Stats(shard);
        if (!oc->Ok(st.status(), "ShardCluster::Stats")) return;
        out->ram_bytes +=
            static_cast<double>(st.value().ram_bytes) * kReplicas;
      }
    }
    for (int i = 0; i < kReaderQueries; ++i) {
      ReaderQuery(d.endpoints, fold, in, log, out, oc);
    }

    // Recovery of replica (1, 1): classic restore + replay from the
    // mid-stream checkpoint, then anti-entropy repair from empty. Each
    // is timed until a Flush barrier shows the replica caught up, and
    // then read back through a reader that sees only that replica of
    // shard 1.
    const std::vector<std::string> via_replica = {d.endpoints[0],
                                                  d.endpoints[3]};
    cluster.KillReplica(1, 1);
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(log, "distributed.restore");
      if (!oc->Ok(cluster.RestartReplica(1, 1), "RestartReplica") ||
          !oc->Ok(cluster.Flush(), "Flush after restore")) {
        return;
      }
    }
    out->restore_s = SecondsSince(t0);
    ReaderQuery(via_replica, fold, in, log, out, oc);

    cluster.KillReplica(1, 1);
    t0 = Clock::now();
    {
      ScopedSpan span(log, "distributed.repair");
      if (!oc->Ok(cluster.Reconcile(&out->reconcile_chunks), "Reconcile") ||
          !oc->Ok(cluster.Flush(), "Flush after repair")) {
        return;
      }
    }
    out->repair_s = SecondsSince(t0);
    ReaderQuery(via_replica, fold, in, log, out, oc);
  }
  oc->Ok(cluster.Shutdown(), "ShardCluster::Shutdown");
  out->complete = true;
}

// ---- Statistics and per-layer aggregation ----------------------------------

// Linear interpolation between closest ranks; q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

using MetricMap = std::map<std::string, double>;

// One traced pass's per-layer numbers, from its spans and counters.
MetricMap LayerMetrics(const Tracer& tracer, const WorkloadSpec& spec,
                       int pass, const PassResult& r) {
  MetricMap m;
  const Tracer::Log* main_log = nullptr;
  std::vector<const Tracer::Log*> workers;
  for (const Tracer::Log* log : tracer.LogsOf(spec.name, pass)) {
    if (log->thread().rfind("worker-", 0) == 0) {
      workers.push_back(log);
    } else {
      main_log = log;
    }
  }
  // The main thread's root span bounds the pass; worker time outside it
  // (idle before the first batch, after the last query) is not the
  // pass's.
  int64_t lo = 0, hi = 0;
  for (const Tracer::Span& s : main_log->spans()) {
    if (s.parent == 0) {
      lo = s.start_ns;
      hi = s.end_ns;
    }
  }
  const Tracer::Log::Summary d = main_log->Summarize(lo, hi);
  MetricMap self = d.self;
  const double main_cover = 100.0 * d.root_covered / d.root;
  // The kernel share looks only at the ingest interval (first Update
  // until Flush returns), where queries cannot idle the workers.
  const int64_t ingest_hi = lo + static_cast<int64_t>(r.ingest_s * 1e9);
  double worker_root = 0, worker_covered = 0;
  double kernel_in_ingest = 0, worker_in_ingest = 0;
  for (const Tracer::Log* w : workers) {
    const Tracer::Log::Summary ws = w->Summarize(lo, hi);
    for (const auto& [name, sec] : ws.self) self[name] += sec;
    worker_root += ws.root;
    worker_covered += ws.root_covered;
    Tracer::Log::Summary ingest = w->Summarize(lo, ingest_hi);
    kernel_in_ingest += ingest.self["sketch.update"];
    worker_in_ingest += ingest.root;
  }

  const TracedPipeline::Counters& c = r.counters;
  m["buffer.insert_s"] = self["buffer.insert"];
  m["buffer.flush_s"] = self["buffer.flush"];
  m["buffer.queue_wait_s"] = self["buffer.queue_wait"];
  m["buffer.batches"] = static_cast<double>(c.batches);
  m["buffer.batch_fill"] =
      c.batches == 0 ? 0
                     : static_cast<double>(c.node_updates) /
                           (static_cast<double>(c.batches) * c.slab_capacity);
  m["buffer.tree_bytes_written"] = static_cast<double>(c.tree_bytes_written);
  m["buffer.tree_bytes_read"] = static_cast<double>(c.tree_bytes_read);
  m["sketch.update_s"] = self["sketch.update"];
  m["sketch.kernel_share_pct"] =
      worker_in_ingest > 0 ? 100.0 * kernel_in_ingest / worker_in_ingest : 0;
  m["sketch.node_updates_per_s"] =
      self["sketch.update"] > 0
          ? static_cast<double>(c.node_updates) / self["sketch.update"]
          : 0;
  m["core.store_merge_s"] = self["core.store_merge"];
  m["core.store_bytes_read"] = static_cast<double>(c.store_bytes_read);
  m["core.store_bytes_written"] = static_cast<double>(c.store_bytes_written);
  m["core.snapshot_s"] = self["core.snapshot"];
  m["core.boruvka_s"] = self["core.boruvka"];
  m["core.boruvka_rounds"] = Median(r.rounds);
  m["core.disk_mb"] = r.disk_bytes / 1e6;
  m["distributed.update_s"] = self["distributed.update"];
  m["distributed.flush_s"] = self["distributed.flush"];
  m["distributed.checkpoint_s"] = self["distributed.checkpoint"];
  m["distributed.fold_s"] = self["distributed.fold"];
  m["distributed.reader_connect_s"] = self["distributed.reader_connect"];
  m["distributed.reader_snapshot_s"] = self["distributed.reader_snapshot"];
  m["distributed.restore_s"] = r.restore_s;
  m["distributed.repair_s"] = r.repair_s;
  m["distributed.reconcile_chunks"] = static_cast<double>(r.reconcile_chunks);
  const bool tcp = spec.kind == Kind::kTcp;
  m["trace.cover_producer"] = tcp ? 0 : main_cover;
  m["trace.cover_coordinator"] = tcp ? main_cover : 0;
  m["trace.cover_worker"] =
      worker_root > 0 ? 100.0 * worker_covered / worker_root : 0;
  return m;
}

const char* UnitOf(const std::string& name) {
  auto ends_with = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name == "ingest_mups") return "Mupd/s";
  if (name.rfind("query_ms", 0) == 0) return "ms";
  if (name.rfind("trace.", 0) == 0 || ends_with("_pct")) return "%";
  if (name == "buffer.batch_fill") return "ratio";
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_mb")) return "MB";
  if (name.find("_bytes_") != std::string::npos) return "B";
  if (ends_with("_s")) return "s";
  return "count";
}

// ---- Stamp and output ----------------------------------------------------

long SourceLines() {
  namespace fs = std::filesystem;
  std::error_code ec;
  long lines = 0;
  for (fs::recursive_directory_iterator it(GZ_SOURCE_ROOT "/src", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    std::ifstream f(it->path());
    lines += std::count(std::istreambuf_iterator<char>(f),
                        std::istreambuf_iterator<char>(), '\n');
  }
  return ec ? -1 : lines;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const MetricMap& values) {
  std::string out;
  for (const auto& [name, value] : values) {
    out += (out.empty() ? "{\"" : ", \"") + name + "\": {\"value\": " +
           JsonNumber(value) + ", \"unit\": \"" + UnitOf(name) + "\"}";
  }
  return out + "}";
}

// ---- One workload --------------------------------------------------------

struct WorkloadReport {
  std::string json;
  bool fatal = false;  // The mirror diverged: no per-layer numbers.
};

WorkloadReport RunWorkload(const WorkloadSpec& spec, const Options& opt,
                           Tracer* tracer) {
  Outcome oc;
  // Set-up, several times over; the last repetition's input is used.
  Input in;
  std::vector<double> setup_s, generate_s, reference_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    in = Input();
    in.num_nodes = uint64_t{1} << spec.scale;
    in.updates = KroneckerStream(spec.scale, opt.seed);
    generate_s.push_back(SecondsSince(t0));
    const Clock::time_point t1 = Clock::now();
    const size_t n = in.updates.size();
    for (size_t p = spec.query_every; spec.query_every > 0 && p < n;
         p += spec.query_every) {
      in.query_points.push_back(p);
    }
    in.query_points.push_back(n);
    in.reference = ReferencePartitions(in.num_nodes, in.updates,
                                       in.query_points);
    reference_s.push_back(SecondsSince(t1));
    // Bring the system up once, as a pass does before its first update.
    if (spec.kind == Kind::kLocal) {
      GraphZeppelin gz(LocalConfig(spec, in.num_nodes, opt.work_dir));
      oc.Ok(gz.Init(), "GraphZeppelin::Init");
      setup_s.push_back(SecondsSince(t0));
    } else {
      TcpDeployment d;
      oc.Ok(d.Start(in.num_nodes, opt.work_dir), "tcp cluster start");
      setup_s.push_back(SecondsSince(t0));
      if (d.cluster != nullptr) oc.Ok(d.cluster->Shutdown(), "Shutdown");
    }
  }

  // Passes: untraced ones feed the end-to-end metrics; with --trace,
  // traced passes alternate with untraced ones and feed the per-layer
  // metrics.
  std::vector<PassResult> plain, traced;
  std::vector<MetricMap> layers;
  std::optional<GraphSnapshot> plain_snapshot;
  WorkloadReport report;
  const Clock::time_point budget = Clock::now();
  const bool tracing = tracer != nullptr;
  for (int pass = 0;; ++pass) {
    // A traced run needs one pass of each kind; its end-to-end numbers
    // only feed trace.overhead_pct.
    const bool enough =
        tracing ? !plain.empty() && !traced.empty()
                : static_cast<int>(plain.size()) >= kMinPasses;
    if (enough && SecondsSince(budget) >= opt.seconds) break;
    // A pass is traced only after more untraced passes than traced ones
    // completed, so an in-process traced pass always finds the untraced
    // snapshot it must equal (every completed untraced local pass keeps
    // one while tracing).
    const bool trace_pass = tracing && plain.size() > traced.size();
    PassResult r;
    if (spec.kind == Kind::kTcp) {
      RunTcpPass(in, opt, trace_pass ? tracer : nullptr, pass, &r, &oc);
    } else {
      RunLocalPass(spec, in, opt, trace_pass ? tracer : nullptr, pass,
                   tracing && !plain_snapshot.has_value(), &r, &oc);
    }
    if (!r.complete) {
      if (pass >= 8 * kMinPasses) break;  // Failing throughout: give up.
      continue;
    }
    std::fprintf(stderr, "bench_suite: %s pass %d%s: ingest %.4f s, %zu "
                 "queries, median %.3f ms\n", spec.name, pass,
                 trace_pass ? " (traced)" : "", r.ingest_s, r.query_ms.size(),
                 Median(r.query_ms));
    if (!trace_pass) {
      if (r.final_snapshot.has_value()) {
        plain_snapshot = std::move(r.final_snapshot);
      }
      plain.push_back(std::move(r));
      continue;
    }
    if (spec.kind == Kind::kLocal) {
      if (!(*r.final_snapshot == *plain_snapshot)) {
        std::fprintf(stderr,
                     "bench_suite: %s pass %d: TracedPipeline's snapshot "
                     "differs from GraphZeppelin's\n",
                     spec.name, pass);
        report.fatal = true;
        return report;
      }
      r.final_snapshot.reset();
    }
    layers.push_back(LayerMetrics(*tracer, spec, pass, r));
    traced.push_back(std::move(r));
  }

  MetricMap e2e;
  std::vector<double> ingest, pool, ram;
  for (const PassResult& r : plain) {
    ingest.push_back(r.ingest_s);
    ram.push_back(r.ram_bytes);
    pool.insert(pool.end(), r.query_ms.begin(), r.query_ms.end());
  }
  e2e["setup_s"] = Median(setup_s);
  e2e["ingest_mups"] =
      ingest.empty() ? NAN : in.updates.size() / Median(ingest) / 1e6;
  e2e["query_ms_p50"] = pool.empty() ? NAN : Quantile(pool, 0.5);
  e2e["query_ms_p90"] = pool.empty() ? NAN : Quantile(pool, 0.9);
  e2e["ram_mb"] = ram.empty() ? NAN : Median(ram) / 1e6;

  char head[512];
  std::snprintf(head, sizeof(head),
                "{\"workload\": \"%s\", \"updates\": %zu, \"nodes\": %llu, "
                "\"passes\": %zu, \"traced_passes\": %zu, "
                "\"query_samples\": %zu, \"correct\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, ",
                spec.name, in.updates.size(),
                static_cast<unsigned long long>(in.num_nodes), plain.size(),
                traced.size(), pool.size(),
                oc.failed() == 0 && !plain.empty() ? "true" : "false",
                static_cast<unsigned long long>(oc.attempted()),
                static_cast<unsigned long long>(oc.failed()));
  report.json = head;
  report.json += "\"metrics\": " + MetricsJson(e2e);
  if (tracing) {
    MetricMap per_layer;
    for (const auto& entry : layers.empty() ? MetricMap() : layers[0]) {
      std::vector<double> values;
      for (const MetricMap& m : layers) values.push_back(m.at(entry.first));
      per_layer[entry.first] = Median(values);
    }
    per_layer["stream.generate_s"] = Median(generate_s);
    per_layer["stream.reference_s"] = Median(reference_s);
    std::vector<double> traced_ingest;
    for (const PassResult& r : traced) traced_ingest.push_back(r.ingest_s);
    per_layer["trace.overhead_pct"] =
        100.0 * (Median(traced_ingest) / Median(ingest) - 1.0);
    report.json += ", \"per_layer\": " + MetricsJson(per_layer);
  }
  report.json += "}";
  return report;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --seed S [--workload NAME] [--seconds T]\n"
               "                   [--trace FILE] [--work-dir DIR]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  const char* tmp = std::getenv("TMPDIR");
  opt.work_dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace_path = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return Usage();
    }
  }
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload.empty() || opt.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty() || opt.seconds < 0) return Usage();

  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  std::unique_ptr<Tracer> tracer;
  if (!opt.trace_path.empty()) tracer = std::make_unique<Tracer>();

  std::string out;
  char stamp[1024];
  std::snprintf(stamp, sizeof(stamp),
                "{\"stamp\": {\"host\": \"%s\", \"nproc\": %ld, "
                "\"sketch_kernel\": \"%s\", \"seed\": %llu, "
                "\"src_lines\": %ld, \"seconds\": %g, \"trace\": %s}, "
                "\"workloads\": [",
                host, ::sysconf(_SC_NPROCESSORS_ONLN),
                SketchKernelName(ActiveSketchKernel()),
                static_cast<unsigned long long>(opt.seed), SourceLines(),
                opt.seconds, tracer != nullptr ? "true" : "false");
  out = stamp;
  for (size_t i = 0; i < selected.size(); ++i) {
    const WorkloadReport r = RunWorkload(*selected[i], opt, tracer.get());
    if (r.fatal) return 1;
    out += (i == 0 ? "" : ", ") + r.json;
  }
  out += "]}";
  if (tracer != nullptr && !tracer->WriteJsonLines(opt.trace_path)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n",
                 opt.trace_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace gz::bench_suite

int main(int argc, char** argv) { return gz::bench_suite::Main(argc, argv); }
