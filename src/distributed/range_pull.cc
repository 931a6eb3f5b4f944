#include "distributed/range_pull.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "sketch/cube_sketch.h"
#include "util/check.h"

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
    const RoundPart part = pull.part;
    size_t unit = GraphSnapshot::kSummaryBytes;
    size_t slot = unit;
    if (part == RoundPart::kWhole) {
      unit = round_bytes;
      slot = stride;
    } else if (part == RoundPart::kSamples) {
      GZ_CHECK_MSG(pull.overlap != nullptr, "samples pull without a flag");
      unit = slot = GraphSnapshot::SamplesBytes(params.cols);
    }
    // Sized in place: copying one zeroed prototype into every round
    // would allocate and free one more V-sized buffer per pull.
    pull.rounds->assign(pull.r_hi - pull.r_lo, {});
    for (std::vector<uint8_t>& buf : *pull.rounds) buf.resize(num_nodes * slot);
    folds.push_back([&pull, part, unit, slot](NodeId i,
                                              const uint8_t* record) {
      for (int r = pull.r_lo; r < pull.r_hi; ++r) {
        uint8_t* dst = (*pull.rounds)[r - pull.r_lo].data() + i * slot;
        const uint8_t* src = record + (r - pull.r_lo) * unit;
        if (part == RoundPart::kWhole) {
          XorBytes(dst, src, unit);
        } else if (part == RoundPart::kSummary) {
          XorDetBucket(dst, src);
        } else if (src[0] != 0) {  // A touched node's samples.
          if (dst[0] != 0) {
            *pull.overlap = true;
          } else {
            std::memcpy(dst, src, unit);
          }
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
    // One exchange per wave: a chunk request per shard and pull, to the
    // shard's first live replica; wave[i] = ((shard, pull), replica).
    std::vector<std::pair<std::pair<size_t, size_t>, size_t>> wave;
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<ShardRequest> requests;
    for (const auto& [key, lo] : next) {
      size_t r = 0;  // The shard's first live replica.
      while (r < dead[key.first].size() && dead[key.first][r]) ++r;
      if (r == dead[key.first].size()) {
        // The shard's last live replica died during the pull.
        *round_error = last_dead;
        break;
      }
      const RoundPull& pull = pulls[key.second];
      const std::vector<uint8_t>& req = payloads.emplace_back(
          EncodeMigrateExtract(lo, std::min(num_nodes, lo + step), pull.r_lo,
                               pull.r_hi, pull.part));
      wave.emplace_back(key, r);
      requests.push_back({shards[key.first][r],
                          ShardMessageType::kMigrateExtract, req.data(),
                          req.size()});
    }
    if (!round_error->ok()) break;
    const std::vector<ShardReply> replies =
        Exchange(requests, reply, [&](size_t i, ShardFrame& frame) {
          ++tally->replies;
          tally->bytes += frame.payload.size();
          const auto& key = wave[i].first;
          const RoundPull& pull = pulls[key.second];
          const Status s = GraphSnapshot::FoldSerialized(
              frame.payload.data(), frame.payload.size(), params, pull.r_lo,
              pull.r_hi, folds[key.second], pull.part);
          if (!s.ok()) return s;
          uint64_t& lo = next.at(key);
          lo += step;
          if (lo >= num_nodes) next.erase(key);
          return Status::Ok();
        });
    // A replica that lost sync is never asked again: the next wave
    // re-sends its chunk, a failed send included, to the next one.
    for (size_t i = 0; i < replies.size(); ++i) {
      const Status& s = replies[i].status;
      if (s.ok()) continue;
      const size_t shard = wave[i].first.first, replica = wave[i].second;
      if (replies[i].lost) {
        if (!dead[shard][replica]) kill(shard, replica, s);
      } else if (replies[i].replied ||
                 s.code() == StatusCode::kFailedPrecondition) {
        // Well framed, but not a range of this graph; or "shard not
        // configured", a writer bounce mid-pull whose position will
        // have moved. Either way the pull is retried.
        if (round_error->ok()) *round_error = s;
      } else if (fatal.ok()) {
        fatal = s;
      }
    }
  }
  return fatal;
}

}  // namespace gz
