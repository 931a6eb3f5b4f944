// Sliding-window connectivity: `connected(u, v) within the last W
// observations` answered by the UNCHANGED sketch stack. The window
// layer sits in front of any ingestion surface (GraphZeppelin,
// ShardCluster — anything that takes GraphUpdate spans): it records
// each observed edge in a W-slot ring and, when an observation falls
// out of the ring, issues the expiring DELETE through the same span.
// Downstream, the instance simply holds the windowed graph, so every
// existing query — snapshot folds, Boruvka, standing queries over the
// kSubscribe push stream — is automatically a sliding-window query.
// No new query algebra, no decay factors in the sketches: the delete
// path the paper already supports IS the decay.
//
// Delete discipline (the part that guards XOR set semantics): sketches
// toggle, so a duplicate insert would REMOVE the edge. The ingestor
// therefore keeps a presence count per distinct edge and emits an
// insert only on the 0 -> 1 transition and the expiry delete only on
// the 1 -> 0 transition — re-observing a live edge refreshes its
// presence in the window without touching the sketches. Consequently a
// single emitted span may carry both an edge's insert and its own
// expiry delete (short window, long span); the pooled batch pipeline
// must fold such a mixed slab to a no-op for that edge, which the
// XOR-cancellation regression test pins.
//
// Emitted updates are buffered and handed to the sink 1024 at a time;
// Flush() hands over a partial span. One span may mix inserts and
// expiry deletes.
//
// Zero-alloc at steady state: the ring, the presence table and the
// emit buffer are sized once in the constructor; Observe() allocates
// nothing.
#ifndef GZ_WORKLOADS_WINDOW_INGESTOR_H_
#define GZ_WORKLOADS_WINDOW_INGESTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "stream/stream_types.h"

namespace gz {

struct WindowIngestorParams {
  uint64_t num_nodes = 0;
  // W: number of most-recent observations the window retains.
  size_t window = 0;
};

class WindowIngestor {
 public:
  // The downstream ingestion surface — e.g.
  //   [&gz](const GraphUpdate* u, size_t n) { gz.Update(u, n); }
  using Sink = std::function<void(const GraphUpdate* updates, size_t count)>;

  WindowIngestor(const WindowIngestorParams& params, Sink sink);

  // One stream observation: edge `e` was seen now. Expires the
  // observation that falls out of the window, if any.
  void Observe(const Edge& e);
  void Observe(const Edge* edges, size_t count);

  // Hands any buffered emitted updates to the sink (call before
  // querying the downstream instance, or the window's most recent
  // transitions are still in this layer's buffer).
  void Flush();

  // Total observations ever seen; the window covers the last
  // min(observations, W) of them. This is the window's logical
  // position — pair it with the downstream instance's own position
  // when verifying a fold.
  uint64_t observations() const { return observations_; }
  // Distinct edges currently present in the window.
  size_t live_edges() const { return live_edges_; }
  const WindowIngestorParams& params() const { return params_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t count = 0;
    bool used = false;
  };

  // Presence-count table ops (open addressing, sized for W distinct
  // keys at < 1/2 load; entries with count 0 stay as tombstone-free
  // placeholders and are reused on the next touch of the same key).
  Slot* FindSlot(uint64_t key);

  void Emit(const Edge& e, UpdateType type);
  void ExpireOldest();

  WindowIngestorParams params_;
  Sink sink_;
  std::vector<Edge> ring_;  // W slots, circular.
  size_t ring_head_ = 0;    // Next write position.
  size_t ring_count_ = 0;   // Observations currently retained.
  std::vector<Slot> presence_;
  size_t presence_mask_ = 0;
  std::vector<GraphUpdate> emit_;
  uint64_t observations_ = 0;
  size_t live_edges_ = 0;
};

}  // namespace gz

#endif  // GZ_WORKLOADS_WINDOW_INGESTOR_H_
