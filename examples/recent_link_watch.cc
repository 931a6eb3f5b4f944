// Sliding-window connectivity with a standing query, composed from its
// three parts: a WindowIngestor turns "connected within the last W
// observations?" into plain connectivity on a GraphZeppelin instance
// that always holds exactly the windowed graph (expiry deletes through
// the unchanged delete path ARE the decay), and a StandingQueryRegistry
// notifies only when the windowed answer CHANGES. The one rule the
// composition needs: flush the window layer before each evaluation, so
// its most recent transitions have reached the instance.
//
// Scenario: two sites exchange traffic through relays. The operator
// watches "are site A and site B linked by RECENT traffic?" — old
// flows must stop counting, so a plain cumulative graph would answer
// the wrong question.
#include <cstdio>
#include <vector>

#include "core/graph_zeppelin.h"
#include "core/standing_query.h"
#include "workloads/window_ingestor.h"

int main() {
  using namespace gz;

  constexpr uint64_t kHosts = 32;
  constexpr NodeId kSiteA = 0, kSiteB = 31;
  GraphZeppelinConfig config;
  config.num_nodes = kHosts;
  config.seed = 19;
  GraphZeppelin gz(config);
  if (!gz.Init().ok()) return 1;

  WindowIngestorParams window_params;
  window_params.num_nodes = kHosts;
  window_params.window = 12;  // Only the last 12 flows count.
  WindowIngestor window(window_params,
                        [&gz](const GraphUpdate* updates, size_t count) {
                          gz.Update(updates, count);
                        });

  StandingQueryRegistry registry;
  registry.Add({StandingQueryKind::kConnected, kSiteA, kSiteB});

  // Phase 1: a relay chain A -> 10 -> 20 -> B comes up.
  // Phase 2: unrelated chatter pushes the chain out of the window.
  // Phase 3: a direct A - B flow restores the link.
  std::vector<Edge> flows = {
      Edge(kSiteA, 10), Edge(10, 20), Edge(20, kSiteB),  // Chain up.
      Edge(1, 2),   Edge(3, 4),   Edge(5, 6),   Edge(7, 8),    // Chatter...
      Edge(9, 11),  Edge(12, 13), Edge(14, 15), Edge(16, 17),
      Edge(18, 19), Edge(21, 22), Edge(23, 24), Edge(25, 26),  // ...expires
      Edge(27, 28),                                            // the chain.
      Edge(kSiteA, kSiteB),                                    // Direct link.
  };

  uint64_t observed = 0;
  for (const Edge& flow : flows) {
    window.Observe(flow);
    ++observed;
    window.Flush();
    const Result<size_t> fired = registry.Evaluate(
        gz.Snapshot(), 1,
        [observed](const StandingQueryNotification& n, const GraphSnapshot&) {
          std::printf("  after %3llu flows: sites %s (notification #%llu)\n",
                      static_cast<unsigned long long>(observed),
                      n.answer.connected ? "LINKED" : "not linked",
                      static_cast<unsigned long long>(n.sequence));
        });
    if (!fired.ok()) {
      std::fprintf(stderr, "evaluation failed: %s\n",
                   fired.status().ToString().c_str());
      return 1;
    }
  }

  std::printf("window now holds %zu distinct recent flows "
              "(%llu observed in total)\n",
              window.live_edges(),
              static_cast<unsigned long long>(window.observations()));
  // The answer flipped with the WINDOW, not the cumulative stream: a
  // cumulative graph would have reported LINKED from flow 3 onward,
  // forever.
  return 0;
}
