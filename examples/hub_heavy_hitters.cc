// Heavy-hitter analysis of a follow-graph stream — composes a
// count-min sketch beside GraphZeppelin: every update goes to both, so
// while the linear XOR sketches maintain connectivity, a turnstile CM
// sketch (insert = +1, delete = -1) tracks per-node degrees and
// per-edge multiplicities, and answers "who are the hub accounts?" in
// O(k) candidate re-estimation, no adjacency storage.
//
// Scenario: a social service streams follow/unfollow events. The
// operator wants the highest-degree accounts (hubs) live, from the
// same pass that maintains connectivity — and the counts must survive
// churn: an unfollow decrements exactly what the follow incremented.
#include <algorithm>
#include <cstdio>

#include "core/graph_zeppelin.h"
#include "util/random.h"
#include "workloads/count_min.h"

int main() {
  using namespace gz;

  constexpr uint64_t kAccounts = 512;
  GraphZeppelinConfig config;
  config.num_nodes = kAccounts;
  config.seed = 12;
  GraphZeppelin gz(config);
  if (!gz.Init().ok()) return 1;
  HeavyHitterParams hp;
  hp.num_nodes = kAccounts;
  hp.seed = config.seed;
  HeavyHitterSketch hh(hp);
  // The CM sketch must see each signed update before GraphZeppelin's
  // gutters erase the sign, so both are fed the same update.
  const auto update = [&](const GraphUpdate& u) {
    hh.Update(&u, 1);
    gz.Update(u);
  };

  // Three celebrity accounts accumulate followers; everyone else
  // follows a couple of random peers. Set semantics: each pair is
  // followed at most once (the XOR sketches require it; the CM side
  // would happily count multigraph multiplicities too).
  const NodeId celebrities[] = {7, 42, 300};
  SplitMix64 rng(5);
  uint64_t events = 0;
  EdgeList follows_of_42;  // For the churn phase below.
  for (NodeId fan = 0; fan < kAccounts; ++fan) {
    for (const NodeId star : celebrities) {
      if (fan == star) continue;
      if (!rng.NextBool(fan % 3 == 0 ? 0.9 : 0.4)) continue;
      const Edge e(std::min(fan, star), std::max(fan, star));
      update({e, UpdateType::kInsert});
      if (star == 42) follows_of_42.push_back(e);
      ++events;
    }
    const NodeId peer = static_cast<NodeId>(rng.Next() % kAccounts);
    if (peer != fan) {
      update({Edge(std::min(fan, peer), std::max(fan, peer)),
              UpdateType::kInsert});
      ++events;
    }
  }
  // Churn: account 42 loses its first 50 followers. Only edges that
  // were actually inserted are deleted (set semantics), and each
  // unfollow decrements exactly what the follow incremented.
  const size_t unfollows = std::min<size_t>(50, follows_of_42.size());
  for (size_t i = 0; i < unfollows; ++i) {
    update({follows_of_42[i], UpdateType::kDelete});
  }
  events += unfollows;

  std::printf("stream: %llu events over %llu accounts (%llu tracked)\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(kAccounts),
              static_cast<unsigned long long>(hh.updates_applied()));

  std::printf("top accounts by live degree:\n");
  for (const HeavyHitterEntry& entry : hh.TopDegrees(5)) {
    std::printf("  account %4llu  degree %lld\n",
                static_cast<unsigned long long>(entry.key),
                static_cast<long long>(entry.count));
  }
  // The CM sketch is linear, so sketches built over disjoint parts of
  // the stream sum-merge (HeavyHitterSketch::Merge) to exactly this one.
  return 0;
}
