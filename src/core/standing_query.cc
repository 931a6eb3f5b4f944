#include "core/standing_query.h"

#include <algorithm>

namespace gz {

StandingQueryAnswer DeriveStandingAnswer(const StandingQuerySpec& spec,
                                         const ConnectivityResult& result) {
  StandingQueryAnswer answer;
  switch (spec.kind) {
    case StandingQueryKind::kConnected:
      answer.connected = result.Connected(spec.u, spec.v);
      break;
    case StandingQueryKind::kComponentCount:
      answer.num_components = result.num_components;
      break;
    case StandingQueryKind::kSpanningForest:
      // Canonical order: Boruvka's forest is deterministic for a given
      // snapshot, but the diff must not depend on enumeration order —
      // two folds listing the same edges differently are the same
      // answer.
      answer.forest = result.spanning_forest;
      std::sort(answer.forest.begin(), answer.forest.end());
      answer.num_components = result.num_components;
      break;
  }
  return answer;
}

uint64_t StandingQueryRegistry::Add(const StandingQuerySpec& spec) {
  const uint64_t id = next_id_++;
  Entry entry;
  entry.spec = spec;
  queries_.emplace(id, std::move(entry));
  return id;
}

bool StandingQueryRegistry::HasUnevaluated() const {
  for (const auto& [id, entry] : queries_) {
    (void)id;
    if (entry.sequence == 0) return true;
  }
  return false;
}

Result<size_t> StandingQueryRegistry::Evaluate(
    const GraphSnapshot& snapshot, int threads,
    const StandingQueryNotifier& notifier) {
  if (queries_.empty()) return size_t{0};
  // One fold serves every registered query at this position.
  const ConnectivityResult result = Connectivity(snapshot, threads);
  if (result.failed) {
    return Status::Internal(
        "standing-query evaluation: sketch connectivity failed");
  }
  ++evaluations_;
  size_t fired = 0;
  for (auto& [id, entry] : queries_) {
    StandingQueryAnswer answer = DeriveStandingAnswer(entry.spec, result);
    const bool changed =
        entry.sequence == 0 || answer != entry.last_notified;
    if (!changed) continue;
    ++entry.sequence;
    entry.last_notified = std::move(answer);
    ++notifications_;
    ++fired;
    if (notifier != nullptr) {
      StandingQueryNotification notification;
      notification.query_id = id;
      notification.sequence = entry.sequence;
      notification.num_updates = snapshot.num_updates();
      notification.spec = entry.spec;
      notification.answer = entry.last_notified;
      notifier(notification, snapshot);
    }
  }
  return fired;
}

}  // namespace gz
