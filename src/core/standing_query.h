// Standing queries: the registry + answer-diff engine behind the
// continuous-connectivity surface. A client registers a query —
// connected(u,v)?, component count, or a spanning-forest watch — and a
// driver (QuerySession's watcher thread, or a single-process caller
// evaluating on its own snapshots between updates) re-evaluates all of
// them whenever the position moves, firing a notification for each
// query whose ANSWER changed since its last notification.
//
// One evaluation runs Boruvka ONCE per position, however many queries
// are registered: every registered answer is derived from the same
// ConnectivityResult, so adding the 16th standing query costs a
// structural diff, not another fold. Diffing is structural — the
// spanning forest is canonicalized (sorted edges) before comparison,
// so two evaluations whose forests merely enumerate the same edges in
// a different order do not notify.
//
// Delivery semantics: a notification fires on a query's FIRST
// evaluation (the subscriber learns the current answer) and then once
// per evaluated position at which the answer differs from the last
// NOTIFIED answer. Positions between evaluations coalesce: if the
// answer flips A -> B -> A entirely between two evaluations, nothing
// fires — the contract is "the latest answer, when it changed", not a
// total history. Every notification carries the num_updates position
// it was evaluated at, and the notifier also receives the
// evaluated snapshot itself, so a subscriber (or a chaos test) can
// re-run the fold at exactly the reported position and check the
// answer bitwise.
//
// Not thread-safe; the owner serializes access (QuerySession guards it
// with the watch mutex; a single-process caller drives it from one
// thread).
#ifndef GZ_CORE_STANDING_QUERY_H_
#define GZ_CORE_STANDING_QUERY_H_

#include <cstdint>
#include <functional>
#include <map>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

enum class StandingQueryKind : uint8_t {
  kConnected = 0,       // connected(u, v)?
  kComponentCount = 1,  // number of connected components
  kSpanningForest = 2,  // the spanning forest itself (canonicalized)
};

struct StandingQuerySpec {
  StandingQueryKind kind = StandingQueryKind::kComponentCount;
  // Endpoints of a kConnected query; ignored by the other kinds.
  NodeId u = 0;
  NodeId v = 0;
};

// A query's current answer. Only the field(s) its kind uses are
// meaningful; the others stay default so operator== is a structural
// comparison of exactly what the query observes.
struct StandingQueryAnswer {
  bool connected = false;     // kConnected
  size_t num_components = 0;  // kComponentCount, kSpanningForest
  EdgeList forest;            // kSpanningForest, sorted ascending

  friend bool operator==(const StandingQueryAnswer& a,
                         const StandingQueryAnswer& b) {
    return a.connected == b.connected &&
           a.num_components == b.num_components && a.forest == b.forest;
  }
  friend bool operator!=(const StandingQueryAnswer& a,
                         const StandingQueryAnswer& b) {
    return !(a == b);
  }
};

// Derives one query's answer from a shared ConnectivityResult (the
// one-fold-many-queries contract). Exposed so verifiers can re-derive
// an answer from a fresh fold and compare structurally.
StandingQueryAnswer DeriveStandingAnswer(const StandingQuerySpec& spec,
                                         const ConnectivityResult& result);

struct StandingQueryNotification {
  uint64_t query_id = 0;
  // Per-query notification sequence, 1-based: 1 is the initial answer.
  uint64_t sequence = 0;
  // The position (stream updates folded) the answer was evaluated at.
  uint64_t num_updates = 0;
  StandingQuerySpec spec;
  StandingQueryAnswer answer;
};

// Fired once per changed answer. `snapshot` is the exact snapshot the
// answer was derived from — re-running Connectivity on it reproduces
// the answer bit for bit, which is how subscribers verify a
// notification against a fresh fold at its reported position.
using StandingQueryNotifier =
    std::function<void(const StandingQueryNotification& notification,
                       const GraphSnapshot& snapshot)>;

class StandingQueryRegistry {
 public:
  // Registers a query; the returned id names it in notifications. Ids
  // are never reused.
  uint64_t Add(const StandingQuerySpec& spec);
  size_t size() const { return queries_.size(); }

  // True when some registered query has never been evaluated — a
  // driver must evaluate even at an unmoved position so a freshly
  // added query receives its initial answer.
  bool HasUnevaluated() const;

  // Evaluates every registered query against `snapshot` (ONE
  // Connectivity run at `threads`), fires `notifier` for each whose
  // answer changed (always on first evaluation), and records the
  // notified answers. Returns the number of notifications fired, or an
  // error when the sketch query failed (nothing is recorded then — the
  // next evaluation retries from the last notified answers).
  Result<size_t> Evaluate(const GraphSnapshot& snapshot, int threads,
                          const StandingQueryNotifier& notifier);

  // Total notifications fired across all Evaluate calls.
  uint64_t notifications() const { return notifications_; }
  // Evaluations that ran a fold (for observability: one per moved
  // position, not one per query).
  uint64_t evaluations() const { return evaluations_; }

 private:
  struct Entry {
    StandingQuerySpec spec;
    uint64_t sequence = 0;  // Notifications fired for this query.
    StandingQueryAnswer last_notified;
  };

  std::map<uint64_t, Entry> queries_;
  uint64_t next_id_ = 1;
  uint64_t notifications_ = 0;
  uint64_t evaluations_ = 0;
};

}  // namespace gz

#endif  // GZ_CORE_STANDING_QUERY_H_
