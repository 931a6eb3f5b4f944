#include "distributed/range_pull.h"

#include <algorithm>
#include <map>
#include <utility>

#include "sketch/cube_sketch.h"

namespace gz {

Status PullAndFold(const NodeSketchParams& params,
                   const std::vector<std::vector<int>>& shards,
                   const std::vector<RoundPull>& pulls,
                   uint64_t nodes_per_chunk, ShardFrame* reply,
                   const std::function<void(size_t shard, size_t replica,
                                            const Status& error)>& on_dead,
                   PullTally* tally, Status* round_error) {
  *round_error = Status::Ok();
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t vector_len = NumPossibleEdges(num_nodes);
  const size_t round_bytes = SketchLayout::RoundBytes(vector_len, params.cols);
  const size_t stride = SketchLayout::RoundStride(vector_len, params.cols);
  // Per pull: a record holds `unit` bytes per round, a buffer `slot`
  // bytes per node.
  std::vector<std::function<void(NodeId, const uint8_t*)>> folds;
  for (const RoundPull& pull : pulls) {
    const bool whole = pull.part == RoundPart::kWhole;
    const size_t unit = whole ? round_bytes : GraphSnapshot::kSummaryBytes;
    const size_t slot = whole ? stride : GraphSnapshot::kSummaryBytes;
    // Sized in place: copying one zeroed prototype into every round
    // would allocate and free one more V-sized buffer per pull.
    pull.rounds->assign(pull.r_hi - pull.r_lo, {});
    for (std::vector<uint8_t>& buf : *pull.rounds) buf.resize(num_nodes * slot);
    folds.push_back([&pull, whole, unit, slot](NodeId i,
                                               const uint8_t* record) {
      for (int r = pull.r_lo; r < pull.r_hi; ++r) {
        uint8_t* dst = (*pull.rounds)[r - pull.r_lo].data() + i * slot;
        const uint8_t* src = record + (r - pull.r_lo) * unit;
        if (whole) {
          XorBytes(dst, src, unit);
        } else {
          XorDetBucket(dst, src);
        }
      }
    });
  }
  const uint64_t step = nodes_per_chunk == 0 ? num_nodes : nodes_per_chunk;
  // (shard, pull) -> lo of its next unpulled chunk.
  std::map<std::pair<size_t, size_t>, uint64_t> next;
  std::vector<std::vector<bool>> dead(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    for (const int fd : shards[s]) dead[s].push_back(fd < 0);
    for (size_t p = 0; p < pulls.size(); ++p) next.emplace(std::pair(s, p), 0);
  }
  Status last_dead = Status::FailedPrecondition("shard has no live replica");
  const auto kill = [&](size_t shard, size_t replica, const Status& error) {
    dead[shard][replica] = true;
    last_dead = error;
    on_dead(shard, replica, error);
  };
  Status fatal = Status::Ok();
  while (!next.empty() && round_error->ok() && fatal.ok()) {
    // Send: one chunk request per shard and pull, to the shard's first
    // live replica. (key, replica) in send order.
    std::vector<std::pair<std::pair<size_t, size_t>, size_t>> wave;
    for (const auto& [key, lo] : next) {
      const RoundPull& pull = pulls[key.second];
      const std::vector<uint8_t> req =
          EncodeMigrateExtract(lo, std::min(num_nodes, lo + step), pull.r_lo,
                               pull.r_hi, pull.part);
      const std::vector<int>& fds = shards[key.first];
      size_t sent_to = fds.size();
      for (size_t r = 0; r < fds.size() && sent_to == fds.size(); ++r) {
        if (dead[key.first][r]) continue;
        const Status s = SendFrame(fds[r], ShardMessageType::kMigrateExtract,
                                   req.data(), req.size());
        if (s.ok()) {
          sent_to = r;
        } else {
          kill(key.first, r, s);
        }
      }
      if (sent_to == fds.size()) {
        // The shard's last live replica died during the pull.
        *round_error = last_dead;
        break;
      }
      wave.emplace_back(key, sent_to);
    }
    // Receive in send order. Every request sent to a live socket is
    // read, whatever its outcome, so no reply outlives the wave to
    // answer a later request; a socket that failed is never read again.
    for (const auto& [key, r] : wave) {
      if (dead[key.first][r]) continue;  // The next wave re-sends it.
      bool in_sync = false;
      Status s = RecvReply(shards[key.first][r], ShardMessageType::kMigrateData,
                           reply, &in_sync);
      if (s.ok()) {
        ++tally->replies;
        tally->bytes += reply->payload.size();
        const RoundPull& pull = pulls[key.second];
        s = GraphSnapshot::FoldSerialized(
            reply->payload.data(), reply->payload.size(), params, pull.r_lo,
            pull.r_hi, folds[key.second], pull.part);
        if (!s.ok()) {
          // Well framed, but not a range of this graph: void the pull.
          if (round_error->ok()) *round_error = s;
          continue;
        }
        uint64_t& lo = next.at(key);
        lo += step;
        if (lo >= num_nodes) next.erase(key);
      } else if (!in_sync) {
        kill(key.first, r, s);
      } else if (s.code() == StatusCode::kFailedPrecondition) {
        // "shard not configured": a writer bounce mid-pull. The
        // position will have moved; retry the pull.
        if (round_error->ok()) *round_error = s;
      } else if (fatal.ok()) {
        fatal = s;
      }
    }
  }
  return fatal;
}

}  // namespace gz
