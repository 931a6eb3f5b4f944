#include "core/connectivity.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "dsu/dsu.h"
#include "stream/stream_file.h"
#include "util/check.h"

namespace gz {
namespace {

// Work-size floors below which a round's phase runs inline even when a
// pool exists: late Boruvka rounds are tiny and cost less than the pool
// barrier.
constexpr uint64_t kMinParallelSampleRoots = 1024;
constexpr size_t kMinParallelBuildMembers = 1024;
// Node ids one sampling task covers: a quarter of the sampling floor,
// so a round at the floor already spreads over a 4-thread pool (round
// one samples every column of every node).
constexpr uint64_t kSampleBlockNodes = 256;
// Members one build task XORs together: small enough that one giant
// component spreads over the pool, large enough to amortize the grab.
constexpr size_t kBuildChunkMembers = 64;

// A minimal fixed-size pool for query-time parallelism. One pool lives
// for the duration of a BoruvkaConnectivity call; each Run() is a
// barriered parallel-for over block indices with dynamic chunking
// (atomic grab), so imbalanced blocks spread across threads. Callers
// must keep distinct blocks data-disjoint; determinism comes from
// writing block results into per-block slots, never from run order.
class QueryThreadPool {
 public:
  explicit QueryThreadPool(int num_workers) {
    workers_.reserve(num_workers);
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~QueryThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Runs body(block) for every block in [0, num_blocks), returning once
  // all blocks are done. The calling thread participates.
  void Run(size_t num_blocks, const std::function<void(size_t)>& body) {
    if (workers_.empty() || num_blocks <= 1) {
      for (size_t b = 0; b < num_blocks; ++b) body(b);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      num_blocks_ = num_blocks;
      next_block_.store(0, std::memory_order_relaxed);
      busy_ = static_cast<int>(workers_.size());
      ++epoch_;
    }
    work_cv_.notify_all();
    size_t b;
    while ((b = next_block_.fetch_add(1, std::memory_order_relaxed)) <
           num_blocks) {
      body(b);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return busy_ == 0; });
    body_ = nullptr;
  }

 private:
  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    for (;;) {
      const std::function<void(size_t)>* body;
      size_t num_blocks;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        body = body_;
        num_blocks = num_blocks_;
      }
      size_t b;
      while ((b = next_block_.fetch_add(1, std::memory_order_relaxed)) <
             num_blocks) {
        (*body)(b);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--busy_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  const std::function<void(size_t)>* body_ = nullptr;
  std::atomic<size_t> next_block_{0};
  size_t num_blocks_ = 0;
  int busy_ = 0;
  uint64_t epoch_ = 0;
  bool stop_ = false;
};

// Per-block output of the sampling phase: the block's candidate cut
// edges are the first `count` of its slot in the round's candidate
// buffer (kSampleBlockNodes * cols entries, at most one per column per
// representative). `undecided`: a representative's summary did not
// decide it, so the block is sampled again from the whole round.
struct SampleBlock {
  size_t count = 0;
  bool any_fail = false;
  bool undecided = false;
};

// One build task: members [begin, end) of the round's member list,
// all of component `comp`. `partial` is the chunk's slot in the round's
// partial sums, or -1 when the chunk is the whole component.
struct BuildChunk {
  size_t begin;
  size_t end;
  size_t comp;
  int64_t partial;
};

// A component built from several chunks: its chunk sums are the
// partials [first_partial, end_partial).
struct SpreadComponent {
  size_t comp;
  size_t first_partial;
  size_t end_partial;
};

}  // namespace

int ResolveQueryThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(hw == 0 ? 1u : hw, 8u));
}

ConnectivityResult Connectivity(const GraphSnapshot& snapshot,
                                int num_threads) {
  return BoruvkaConnectivity(snapshot, /*first_round=*/0, /*num_rounds=*/-1,
                             ResolveQueryThreads(num_threads));
}

ConnectivityResult BoruvkaConnectivity(const GraphSnapshot& snapshot,
                                       int first_round, int num_rounds,
                                       int num_threads) {
  GZ_CHECK_MSG(snapshot.valid(), "querying an empty snapshot");
  const uint64_t num_nodes = snapshot.num_nodes();
  const int rounds = snapshot.rounds();
  GZ_CHECK(first_round >= 0 && first_round < rounds);
  const int last_round = num_rounds < 0
                             ? rounds
                             : std::min(rounds, first_round + num_rounds);

  // Spawn the pool only when a parallel gate can actually fire: below
  // the sampling floor neither phase ever goes parallel, and thread
  // create/join would dominate the whole query on small graphs.
  const int threads = std::max(1, num_threads);
  std::unique_ptr<QueryThreadPool> pool;
  if (threads > 1 && num_nodes >= kMinParallelSampleRoots) {
    pool = std::make_unique<QueryThreadPool>(threads - 1);
  }
  auto run = [&pool](bool parallel, size_t n,
                     const std::function<void(size_t)>& body) {
    if (pool != nullptr && parallel) {
      pool->Run(n, body);
    } else {
      for (size_t i = 0; i < n; ++i) body(i);
    }
  };

  ConnectivityResult result;
  Dsu dsu(num_nodes);
  // root_of freezes each node's representative at the top of the round;
  // the parallel phases read it instead of calling Dsu::Find, whose
  // path compression is not safe under concurrency.
  std::vector<NodeId> root_of(num_nodes);
  // The round's multi-member components, k = 0, 1, ... in ascending
  // root order: slot_of[root] = k (-1 for a singleton, which is queried
  // in place), members grouped by root (cursor counts, then places
  // them) and cut into build chunks, and the component's cut samples in
  // samples[k], their coordinates in the cols-wide slot k of `picks`.
  // Only components spanning several chunks park their chunk sums in
  // `partials` (one round_stride slot per chunk, in one flat buffer)
  // until folded. The buffers live across rounds so later rounds reuse
  // them; the ones filled by push_back are reserved to their bound up
  // front, so a query allocates per round, not per component or node.
  // `summary_partials` holds the same chunks' summary sums.
  const SketchLayout& layout = snapshot.layout();
  constexpr size_t kSummaryBytes = GraphSnapshot::kSummaryBytes;
  const size_t round_bytes = layout.round_bytes();
  const size_t stride = layout.round_stride();
  const int cols = layout.cols();
  std::vector<uint64_t> cursor(num_nodes);
  std::vector<int64_t> slot_of(num_nodes);
  std::vector<NodeId> members;
  std::vector<BuildChunk> chunks;
  chunks.reserve(num_nodes / 2 + num_nodes / kBuildChunkMembers + 1);
  std::vector<SpreadComponent> spread;
  spread.reserve(num_nodes / (kBuildChunkMembers + 1) + 1);
  std::vector<uint8_t> partials;  // operator new aligns it to 16.
  std::vector<uint8_t> summary_partials;
  std::vector<ColumnSamples> samples;
  samples.reserve(num_nodes / 2);
  std::vector<uint64_t> picks;
  const size_t num_blocks =
      (num_nodes + kSampleBlockNodes - 1) / kSampleBlockNodes;
  std::vector<SampleBlock> blocks(num_blocks);
  std::vector<uint64_t> block_picks(num_blocks * cols);
  std::vector<Edge> candidates(num_blocks * kSampleBlockNodes * cols);
  result.spanning_forest.reserve(num_nodes - 1);
  const GraphSnapshot::BlockRunner load_blocks =
      [&run](size_t n, const std::function<void(size_t)>& body) {
        run(true, n, body);
      };
  bool complete = false;

  for (int round = first_round; round < last_round && !complete; ++round) {
    result.rounds_used = round - first_round + 1;
    // Round 0's samples, when the snapshot holds them, decide every
    // node there exactly: each is still a singleton. Otherwise the
    // round's summaries first: a lazy snapshot loads them now, spread
    // over the pool in the sampling phase's node blocks, and the whole
    // round only if they leave some component undecided. A round that
    // fails to load ends the query as failed: no answer mixes in other
    // bytes.
    GraphSnapshot::RoundView held;
    const bool sampled = round == 0 && snapshot.Samples(&held);
    GraphSnapshot::RoundView summaries;
    if (!sampled &&
        !snapshot.Summary(round, kSampleBlockNodes, load_blocks, &summaries)
             .ok()) {
      break;
    }
    for (uint64_t i = 0; i < num_nodes; ++i) {
      root_of[i] = static_cast<NodeId>(dsu.Find(i));
    }
    const uint64_t live_roots = dsu.num_sets();

    // Phase 1: sample each multi-member component's round-`round`
    // sketch, the XOR of its members' subsketches, in parallel over
    // chunks of members, one sample per column (see
    // SketchLayout::SampleColumns); a component spanning several chunks
    // is sampled once its chunk sums are folded. The layout depends only
    // on the DSU, and XOR is order-free, so every sample is identical
    // for any thread count. The summary pass (1a) XORs only the
    // members' deterministic buckets: a zero or verified-singleton sum
    // is the component's sample, exactly what SampleColumns returns on
    // the whole sum (SketchLayout::SampleDeterministic), and only the
    // components it leaves undecided (kFail) build the whole sum (1b).
    chunks.clear();
    spread.clear();
    samples.clear();
    std::fill(cursor.begin(), cursor.end(), 0);
    for (uint64_t i = 0; i < num_nodes; ++i) ++cursor[root_of[i]];
    size_t num_members = 0;
    size_t num_partials = 0;
    for (uint64_t root = 0; root < num_nodes; ++root) {
      const uint64_t size = cursor[root];
      slot_of[root] = -1;
      if (size < 2) continue;
      const size_t comp = samples.size();
      slot_of[root] = static_cast<int64_t>(comp);
      samples.emplace_back();
      const size_t end = num_members + size;
      if (size <= kBuildChunkMembers) {
        chunks.push_back({num_members, end, comp, -1});
      } else {
        const size_t first = num_partials;
        for (size_t b = num_members; b < end; b += kBuildChunkMembers) {
          chunks.push_back({b, std::min(b + kBuildChunkMembers, end), comp,
                            static_cast<int64_t>(num_partials++)});
        }
        spread.push_back({comp, first, num_partials});
      }
      cursor[root] = num_members;
      num_members = end;
    }
    members.resize(num_members);
    for (uint64_t i = 0; i < num_nodes; ++i) {
      if (slot_of[root_of[i]] >= 0) {
        members[cursor[root_of[i]]++] = static_cast<NodeId>(i);
      }
    }
    summary_partials.resize(num_partials * kSummaryBytes);
    picks.resize(samples.size() * cols);
    const bool parallel_build = num_members >= kMinParallelBuildMembers;
    run(parallel_build, chunks.size(), [&](size_t c) {
      const BuildChunk& ch = chunks[c];
      uint8_t det[kSummaryBytes] = {};
      for (size_t k = ch.begin; k < ch.end; ++k) {
        XorDetBucket(det, summaries.node(members[k]));
      }
      if (ch.partial < 0) {
        samples[ch.comp] = layout.SampleDeterministic(
            round, det, picks.data() + ch.comp * cols);
      } else {
        std::memcpy(&summary_partials[ch.partial * kSummaryBytes], det,
                    kSummaryBytes);
      }
    });
    run(spread.size() > 1, spread.size(), [&](size_t g) {
      uint8_t det[kSummaryBytes] = {};
      for (size_t p = spread[g].first_partial; p < spread[g].end_partial;
           ++p) {
        XorDetBucket(det, &summary_partials[p * kSummaryBytes]);
      }
      samples[spread[g].comp] = layout.SampleDeterministic(
          round, det, picks.data() + spread[g].comp * cols);
    });

    // Phase 2: gather every live component's candidate cut edges, in
    // parallel over contiguous node-id blocks: singletons are sampled
    // here (or read from the held samples), multi-member components
    // read their phase-1 samples. Per-block result slots keep the
    // gathered candidate order equal to the sequential order (ascending
    // representative, then column) regardless of which thread ran which
    // block. With `whole` null a block samples from the summaries and
    // stops at its first undecided representative; it is then sampled
    // again, after 1b, from the whole round.
    const auto sample_block = [&](size_t b,
                                  const GraphSnapshot::RoundView* whole) {
      SampleBlock& out = blocks[b];
      Edge* found = candidates.data() + b * kSampleBlockNodes * cols;
      uint64_t* own = block_picks.data() + b * cols;
      out.count = 0;
      out.any_fail = false;
      out.undecided = false;
      const uint64_t begin = b * kSampleBlockNodes;
      const uint64_t end = std::min(begin + kSampleBlockNodes, num_nodes);
      for (uint64_t i = begin; i < end; ++i) {
        if (root_of[i] != i) continue;  // Only component representatives.
        const NodeId node = static_cast<NodeId>(i);
        const uint64_t* got;
        ColumnSamples s;
        if (slot_of[i] >= 0) {
          got = picks.data() + slot_of[i] * cols;
          s = samples[slot_of[i]];
        } else {
          got = own;
          if (sampled) {
            s = GraphSnapshot::ReadSamples(held.node(node), own);
          } else if (whole != nullptr) {
            s = layout.SampleColumns(round, whole->node(node), own, cols);
          } else {
            s = layout.SampleDeterministic(round, summaries.node(node), own);
          }
        }
        // A held sample is final; a summary's kFail is undecided.
        if (whole == nullptr && s.kind == SampleKind::kFail && !sampled) {
          out.undecided = true;
          return;
        }
        switch (s.kind) {
          case SampleKind::kGood:
            for (int k = 0; k < s.count; ++k) {
              found[out.count++] = IndexToEdge(got[k], num_nodes);
            }
            break;
          case SampleKind::kZero:
            break;  // Empty cut: this component is finished.
          case SampleKind::kFail:
            out.any_fail = true;
            break;
        }
      }
    };
    const bool parallel_sample = live_roots >= kMinParallelSampleRoots;
    run(parallel_sample, num_blocks,
        [&](size_t b) { sample_block(b, nullptr); });
    const bool decided = std::none_of(
        blocks.begin(), blocks.end(),
        [](const SampleBlock& block) { return block.undecided; });
    if (!decided) {
      GraphSnapshot::RoundView sketches;
      if (!snapshot.Round(round, kSampleBlockNodes, load_blocks, &sketches)
               .ok()) {
        break;
      }
      // Phase 1b: the whole sums of the undecided components.
      partials.resize(num_partials * stride);
      auto slot = [&](size_t p) { return partials.data() + p * stride; };
      auto sample = [&](size_t comp, const uint8_t* sum) {
        samples[comp] = layout.SampleColumns(
            round, sum, picks.data() + comp * cols, cols);
      };
      run(parallel_build, chunks.size(), [&](size_t c) {
        const BuildChunk& ch = chunks[c];
        if (samples[ch.comp].kind != SampleKind::kFail) return;
        // A whole component's sum is sampled at once: one scratch
        // slot per thread.
        thread_local std::vector<uint8_t> whole;
        if (whole.size() < stride) whole.resize(stride);
        uint8_t* sum = ch.partial < 0 ? whole.data() : slot(ch.partial);
        std::memcpy(sum, sketches.node(members[ch.begin]), round_bytes);
        for (size_t k = ch.begin + 1; k < ch.end; ++k) {
          XorBytes(sum, sketches.node(members[k]), round_bytes);
        }
        if (ch.partial < 0) sample(ch.comp, sum);
      });
      run(spread.size() > 1, spread.size(), [&](size_t g) {
        if (samples[spread[g].comp].kind != SampleKind::kFail) return;
        uint8_t* sum = slot(spread[g].first_partial);
        for (size_t p = spread[g].first_partial + 1;
             p < spread[g].end_partial; ++p) {
          XorBytes(sum, slot(p), round_bytes);
        }
        sample(spread[g].comp, sum);
      });
      run(parallel_sample, num_blocks, [&](size_t b) {
        if (blocks[b].undecided) sample_block(b, &sketches);
      });
    }

    // Phase 3 (sequential): drive the DSU over the candidates in
    // ascending-representative, then column order, recording forest
    // edges. No sketch is touched here, so the merge structure this
    // induces is identical for every thread count.
    bool any_fail = false;
    bool found_edge = false;
    for (size_t b = 0; b < num_blocks; ++b) {
      any_fail |= blocks[b].any_fail;
      const Edge* found = candidates.data() + b * kSampleBlockNodes * cols;
      for (const Edge& e : std::span(found, blocks[b].count)) {
        const size_t ra = dsu.Find(e.u);
        const size_t rb = dsu.Find(e.v);
        if (ra == rb) continue;  // Already merged transitively this round.
        GZ_CHECK(dsu.Union(ra, rb));
        result.spanning_forest.push_back(e);
        found_edge = true;
      }
    }
    if (!found_edge && !any_fail) complete = true;  // All cuts empty.
  }

  result.failed = !complete;
  result.num_components = dsu.num_sets();
  result.component_of.resize(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    result.component_of[i] = static_cast<NodeId>(dsu.Find(i));
  }
  return result;
}

Status WriteSpanningForestStream(const ConnectivityResult& result,
                                 uint64_t num_nodes,
                                 const std::string& path) {
  StreamWriter writer;
  Status s = writer.Open(path, num_nodes);
  if (!s.ok()) return s;
  for (const Edge& e : result.spanning_forest) {
    s = writer.Append({e, UpdateType::kInsert});
    if (!s.ok()) return s;
  }
  return writer.Close();
}

std::vector<std::vector<NodeId>> ComponentsFromLabels(
    const std::vector<NodeId>& component_of) {
  std::vector<std::vector<NodeId>> components;
  std::vector<int64_t> slot(component_of.size(), -1);
  for (NodeId i = 0; i < component_of.size(); ++i) {
    const NodeId root = component_of[i];
    if (slot[root] < 0) {
      slot[root] = static_cast<int64_t>(components.size());
      components.emplace_back();
    }
    components[slot[root]].push_back(i);
  }
  return components;
}

}  // namespace gz
