#include "stream/stream_transform.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"
#include "util/random.h"
#include "util/xxhash.h"

namespace gz {
namespace {

struct Event {
  uint64_t timestamp;
  uint32_t sequence;  // Tie-break preserving per-edge order.
  GraphUpdate update;
};

// Appends the alternating insert/delete event chain for one edge.
// `count` is the total number of events; odd count leaves the edge
// present at the end of the stream.
void AppendChain(const Edge& edge, int count, SplitMix64* rng,
                 std::vector<Event>* events) {
  // Draw `count` random timestamps and assign them in sorted order so
  // the interleaving is uniform while per-edge order is preserved.
  uint64_t ts[4];
  GZ_CHECK(count >= 1 && count <= 4);
  for (int i = 0; i < count; ++i) ts[i] = rng->Next();
  std::sort(ts, ts + count);
  for (int i = 0; i < count; ++i) {
    GraphUpdate u;
    u.edge = edge;
    u.type = (i % 2 == 0) ? UpdateType::kInsert : UpdateType::kDelete;
    events->push_back(
        Event{ts[i], static_cast<uint32_t>(events->size()), u});
  }
}

}  // namespace

StreamTransformResult BuildStream(const EdgeList& input_edges,
                                  const StreamTransformParams& params) {
  GZ_CHECK(params.num_nodes >= 2);
  SplitMix64 rng(XxHash64Word(0x73747265616dULL, params.seed));

  // --- Choose the disconnected node set (guarantee iii) ----------------
  std::unordered_set<NodeId> disconnected;
  int want = params.disconnect_count;
  if (want == 0) {
    want = static_cast<int>(std::min<uint64_t>(
        {149, std::max<uint64_t>(2, params.num_nodes / 64),
         params.num_nodes - 1}));
  }
  if (want > 0) {
    GZ_CHECK(static_cast<uint64_t>(want) < params.num_nodes);
    while (disconnected.size() < static_cast<size_t>(want)) {
      disconnected.insert(
          static_cast<NodeId>(rng.NextBelow(params.num_nodes)));
    }
  }
  auto touches_disconnected = [&](const Edge& e) {
    return disconnected.count(e.u) > 0 || disconnected.count(e.v) > 0;
  };

  // --- Build per-edge event chains -------------------------------------
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(
      static_cast<double>(input_edges.size()) *
      (1.0 + 2.0 * params.churn_fraction + 2.0 * params.phantom_fraction)) +
      64);

  StreamTransformResult result;
  for (const Edge& e : input_edges) {
    if (touches_disconnected(e)) {
      AppendChain(e, 2, &rng, &events);  // insert then delete (iv)
    } else if (rng.NextDouble() < params.churn_fraction) {
      AppendChain(e, 3, &rng, &events);  // insert, delete, insert
      result.final_edges.push_back(e);
    } else {
      AppendChain(e, 1, &rng, &events);
      result.final_edges.push_back(e);
    }
  }

  // --- Phantom edges: present mid-stream, gone at the end --------------
  const size_t num_phantoms = static_cast<size_t>(
      params.phantom_fraction * static_cast<double>(input_edges.size()));
  if (num_phantoms > 0) {
    // Membership test against the input so a phantom never collides with
    // a real edge (which would violate guarantee (iv)).
    std::unordered_set<uint64_t> present;
    present.reserve(input_edges.size() * 2);
    for (const Edge& e : input_edges) {
      present.insert(EdgeToIndex(e, params.num_nodes));
    }
    // Phantoms are distinct non-edges; asking for more never returns.
    GZ_CHECK_MSG(num_phantoms <= NumPossibleEdges(params.num_nodes) -
                                     present.size(),
                 "more phantom edges than the graph has non-edges");
    size_t made = 0;
    while (made < num_phantoms) {
      NodeId u = static_cast<NodeId>(rng.NextBelow(params.num_nodes));
      NodeId v = static_cast<NodeId>(rng.NextBelow(params.num_nodes));
      if (u == v) continue;
      Edge e(u, v);
      const uint64_t idx = EdgeToIndex(e, params.num_nodes);
      if (present.count(idx) > 0) continue;
      present.insert(idx);  // Also dedups phantoms against each other.
      AppendChain(e, 2, &rng, &events);
      ++made;
    }
  }

  // --- Random interleaving (timestamps), stable per edge ---------------
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return a.sequence < b.sequence;
  });

  result.updates.reserve(events.size());
  for (const Event& ev : events) result.updates.push_back(ev.update);
  result.disconnected_nodes.assign(disconnected.begin(), disconnected.end());
  std::sort(result.disconnected_nodes.begin(),
            result.disconnected_nodes.end());
  return result;
}

}  // namespace gz
