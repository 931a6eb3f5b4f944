#include "distributed/query_session.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "distributed/range_pull.h"

namespace gz {
namespace {

// Seqlock rounds a pull attempts while the cluster position keeps
// moving before giving up; also the attempts RunQuery() gives a query.
constexpr int kMaxPositionRetries = 16;

// Two position sweeps agree iff the same connections answered and
// every one that did reports the same (shard, updates, delta_seq) tuple
// — the seqlock's "sequence unchanged" check. Monotonicity of
// the position components makes equality proof of an unmoved position,
// not a coincidence; a change in who answered is treated as movement
// too (the folded pulls may have come from a connection that then died
// or lost its shard mid-sweep).
bool SamePosition(const std::vector<ShardStatsEx>& a,
                  const std::vector<Status>& answers_a,
                  const std::vector<ShardStatsEx>& b,
                  const std::vector<Status>& answers_b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (answers_a[i].ok() != answers_b[i].ok()) return false;
    if (!answers_a[i].ok()) continue;
    if (a[i].shard_id != b[i].shard_id ||
        a[i].num_updates != b[i].num_updates ||
        a[i].delta_seq != b[i].delta_seq) {
      return false;
    }
  }
  return true;
}

Status PositionMoved() {
  return Status::FailedPrecondition(
      "cluster position moved since the snapshot was taken");
}

}  // namespace

struct QuerySession::Lease {
  explicit Lease(const NodeSketchParams& params) : zero(params) {}

  std::mutex mu;
  QuerySession* session = nullptr;  // Null once revoked.
  const NodeSketch zero;            // The snapshot's params and layout.
  ShardWatermarks marks;
  // Per round: its folded whole buffer and its folded summary until the
  // snapshot takes them, and whether the whole round was ever pulled.
  std::vector<std::vector<uint8_t>> pulled;
  std::vector<std::vector<uint8_t>> summaries;
  std::vector<bool> have;
  int reached = 0;  // One past the last round any whole pull attempted.
};

QuerySession::QuerySession(QuerySessionOptions options)
    : options_(std::move(options)) {}

QuerySession::~QuerySession() {
  StopWatch();
  Revoke();
}

void QuerySession::Revoke() {
  merged_ = GraphSnapshot();
  if (lease_ == nullptr) return;
  std::lock_guard<std::mutex> lock(lease_->mu);
  lease_->session = nullptr;
  lease_->pulled.clear();
  lease_->summaries.clear();
}

int QuerySession::rounds_pulled() const {
  if (lease_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(lease_->mu);
  return static_cast<int>(
      std::count(lease_->have.begin(), lease_->have.end(), true));
}

int QuerySession::RoundsReached() const {
  if (lease_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(lease_->mu);
  return lease_->reached;
}

Status QuerySession::Connect() {
  Revoke();  // Cached content may predate a re-dial.
  conns_.clear();
  conn_alive_.clear();
  conn_shard_ids_.clear();
  conn_error_ = Status::Ok();
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("query session has no endpoints");
  }
  std::vector<std::unique_ptr<TcpShardTransport>> conns;
  for (const std::string& uri : options_.endpoints) {
    Result<ShardEndpoint> parsed = ParseShardEndpoint(uri);
    if (!parsed.ok()) return parsed.status();
    if (parsed.value().kind != ShardEndpoint::Kind::kTcp) {
      return Status::InvalidArgument(
          "query sessions dial tcp:// listeners, not " +
          parsed.value().ToString() + " endpoints (" + uri + ")");
    }
    auto conn = std::make_unique<TcpShardTransport>(
        std::move(parsed).value(), options_.auth_secret,
        ShardSessionRole::kReader);
    Status s = conn->Connect();
    if (!s.ok()) return s;
    // The handshake ran under (and then cleared) its own deadline; from
    // here on every receive runs under the session's. Armed once — an
    // OS-level socket timeout, so a silent listener costs one deadline,
    // not an eternal block.
    if (options_.receive_deadline_seconds > 0) {
      SetShardSocketTimeout(conn->fd(), options_.receive_deadline_seconds);
    }
    conns.push_back(std::move(conn));
  }
  // All or nothing: a session holding only the reachable shards would
  // fold a partial graph and call it the answer.
  conns_ = std::move(conns);
  conn_alive_.assign(conns_.size(), true);
  conn_shard_ids_.assign(conns_.size(), -1);
  return Status::Ok();
}

Status QuerySession::ReadPositions(std::vector<ShardStatsEx>* stats,
                                   std::vector<Status>* answers) {
  stats->assign(conns_.size(), ShardStatsEx());
  answers->assign(conns_.size(), Status::Ok());
  std::vector<ShardRequest> requests;  // Request i asks connection i.
  for (size_t i = 0; i < conns_.size(); ++i) {  // -1: dead, not asked.
    requests.push_back({conn_alive_[i] ? conns_[i]->fd() : -1,
                        ShardMessageType::kStatsEx});
  }
  const std::vector<ShardReply> replies =
      Exchange(requests, &reply_buf_, [stats](size_t i, ShardFrame& reply) {
        return DecodeShardStatsEx(reply.payload.data(), reply.payload.size(),
                                  &(*stats)[i]);
      });
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!conn_alive_[i]) continue;
    const Status& s = replies[i].status;
    if (s.ok()) {
      conn_shard_ids_[i] = static_cast<int>((*stats)[i].shard_id);
    } else if (replies[i].lost || replies[i].replied) {
      // Lost sync, a deadline expiry included, or a payload that does
      // not decode: the request/reply stream is unrecoverable (a late
      // reply would answer the wrong request), so the connection is
      // done.
      conn_alive_[i] = false;
      conn_error_ = s;
    } else {
      // A kError reply ("shard not configured" while the coordinator
      // restarts the listener's replica): the stream is intact, so the
      // connection only sits this sweep out.
      (*answers)[i] = s;
    }
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conn_alive_[i]) (*answers)[i] = conn_error_;
  }
  for (const Status& answer : *answers) {
    if (answer.ok()) return Status::Ok();
  }
  return answers->empty()
             ? Status::FailedPrecondition("query session not connected")
             : answers->front();
}

Status QuerySession::BuildView(const std::vector<ShardStatsEx>& stats,
                               const std::vector<Status>& answers,
                               PositionView* view) {
  *view = PositionView();
  size_t first = conns_.size();
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (answers[i].ok()) {
      first = i;
      break;
    }
  }
  // ReadPositions already failed the sweep if nothing answered.
  view->params.num_nodes = stats[first].num_nodes;
  view->params.seed = stats[first].seed;
  view->params.cols = stats[first].cols;
  view->params.rounds = stats[first].rounds;
  const uint32_t replication = stats[first].replication;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!answers[i].ok()) continue;
    const ShardStatsEx& st = stats[i];
    if (st.num_nodes != view->params.num_nodes ||
        st.seed != view->params.seed || st.cols != view->params.cols ||
        st.rounds != view->params.rounds) {
      return Status::FailedPrecondition(
          "shard listeners disagree on sketch geometry; these "
          "endpoints are not one cluster");
    }
    if (st.replication != replication) {
      return Status::FailedPrecondition(
          "shard listeners disagree on the replication factor; these "
          "endpoints are not one cluster");
    }
    view->groups[static_cast<int>(st.shard_id)].push_back(i);
  }
  for (const auto& [shard, members] : view->groups) {
    if (members.size() > replication) {
      // A deployment mistake — two listeners told to host the same
      // shard — not a moving position. With no replication the classic
      // message; with it, the group exceeded the advertised factor.
      if (replication <= 1) {
        return Status::FailedPrecondition(
            "two endpoints serve shard id " + std::to_string(shard) +
            "; each listener must host a distinct shard");
      }
      return Status::FailedPrecondition(
          std::to_string(members.size()) + " endpoints serve shard id " +
          std::to_string(shard) + " but the cluster replicates " +
          std::to_string(replication) + " ways");
    }
    // Replicas of one shard are bitwise-equal AT ONE POSITION; an
    // update fan-out or repair caught mid-flight makes them disagree
    // transiently. Skew, like any moving position — never an error.
    const ShardStatsEx& lead = stats[members[0]];
    for (const size_t m : members) {
      if (stats[m].num_updates != lead.num_updates ||
          stats[m].delta_seq != lead.delta_seq) {
        view->skew = true;
      }
    }
    ShardWatermark mark;
    mark.num_updates = lead.num_updates;
    mark.delta_seq = lead.delta_seq;
    view->marks.emplace(shard, mark);
    view->total_updates += lead.num_updates;
  }
  // Coverage: a connection that did not answer is survivable only if
  // some replica that did still serves its shard. One that never
  // reported a shard id might have been the only one serving it — its
  // error, not a silently smaller cluster, is the answer.
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (answers[i].ok()) continue;
    if (conn_shard_ids_[i] < 0 ||
        view->groups.find(conn_shard_ids_[i]) == view->groups.end()) {
      return answers[i];
    }
  }
  return Status::Ok();
}

bool QuerySession::Cached(const PositionView& view) const {
  return merged_.valid() && view.marks == marks_ &&
         merged_.load_status().ok();
}

Status QuerySession::Snapshot(const GraphSnapshot** out) {
  return Refresh(0, out);
}

Status QuerySession::PullStable(
    int r_lo, int r_hi, const ShardWatermarks* required, PositionView* view,
    std::vector<std::vector<uint8_t>>* rounds,
    std::vector<std::vector<uint8_t>>* summaries) {
  Status last = Status::Ok();
  std::vector<ShardStatsEx> t0, t1;
  std::vector<Status> answers0, answers1;
  for (int attempt = 0; attempt < kMaxPositionRetries; ++attempt) {
    if (required == nullptr) ++last_refresh_rounds_;
    Status s = ReadPositions(&t0, &answers0);
    if (!s.ok()) return s;
    // One cluster position: every shard at the same geometry, replicas
    // in agreement. Skew is a fan-out caught mid-flight — a moving
    // position, so retry.
    s = BuildView(t0, answers0, view);
    if (!s.ok()) return s;
    if (required != nullptr && view->marks != *required) {
      return PositionMoved();
    }
    if (view->skew) {
      last = Status::FailedPrecondition(
          "replicas of one shard report different positions");
      continue;
    }
    if (required == nullptr) {
      if (Cached(*view)) {
        rounds->clear();
        return Status::Ok();
      }
      // Positions only grow, so the stale cache goes before the
      // candidate is built.
      Revoke();
    }
    // Pull and fold, THEN re-read the positions (a pull after the
    // t0 == t1 check would be unverified); any live replica may serve a
    // chunk, since replicas are bitwise-equal at the position t0 == t1
    // certifies.
    Status round_error;
    const int whole_hi = std::min(r_hi, view->params.rounds);
    std::vector<RoundPull> pulls = {{r_lo, whole_hi, RoundPart::kWhole, rounds}};
    if (summaries != nullptr) {
      summaries->clear();
      if (whole_hi < view->params.rounds) {
        pulls.push_back(
            {whole_hi, view->params.rounds, RoundPart::kSummary, summaries});
      }
    }
    // Replica i of a shard is conn i (-1 when conn i serves another
    // shard). A shard at the zero watermark (a fresh split child) holds
    // the XOR identity: no pull.
    std::vector<std::vector<int>> fds;
    for (const auto& [shard, conns] : view->groups) {
      if (view->marks.at(shard) == ShardWatermark{}) continue;
      std::vector<int>& shard_fds = fds.emplace_back(conns_.size(), -1);
      for (const size_t conn : conns) shard_fds[conn] = conns_[conn]->fd();
    }
    PullTally tally;
    s = PullAndFold(
        view->params, fds, pulls, options_.nodes_per_chunk, &reply_buf_,
        [&](size_t, size_t conn, const Status& error) {
          conn_alive_[conn] = false;
          conn_error_ = error;
        },
        &tally, &round_error);
    range_pulls_ += tally.replies;
    bytes_pulled_ += tally.bytes;
    if (!s.ok()) return s;
    if (!round_error.ok()) {
      last = round_error;
      continue;
    }
    s = ReadPositions(&t1, &answers1);
    if (!s.ok()) return s;
    if (!SamePosition(t0, answers0, t1, answers1)) {
      // A moved position, or a replica lost mid-pull (the pull may have
      // mixed replicas). With required marks, the next t0 sweep tells
      // the two apart.
      last = Status::FailedPrecondition(
          "cluster position moved during the pull");
      continue;
    }
    return Status::Ok();
  }
  return Status(StatusCode::kResourceExhausted,
                "cluster position kept moving; the pull did not stabilize "
                "within " +
                    std::to_string(kMaxPositionRetries) +
                    " rounds (last: " + last.ToString() + ")");
}

Status QuerySession::Refresh(int first_rounds, const GraphSnapshot** out) {
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  last_refresh_rounds_ = 0;
  PositionView view;
  std::vector<std::vector<uint8_t>> fresh, summaries;
  Status s = PullStable(0, std::max(1, first_rounds), nullptr, &view, &fresh,
                        &summaries);
  if (!s.ok()) return s;
  if (fresh.empty()) {  // The cache is the cluster's position.
    *out = &merged_;
    return Status::Ok();
  }
  auto lease = std::make_shared<Lease>(view.params);
  const int rounds = view.params.rounds;
  const int r_hi = static_cast<int>(fresh.size());
  lease->session = this;
  lease->marks = view.marks;
  lease->pulled = std::move(fresh);
  lease->pulled.resize(rounds);
  lease->summaries.resize(rounds);
  std::move(summaries.begin(), summaries.end(),
            lease->summaries.begin() + r_hi);
  lease->have.assign(rounds, false);
  std::fill(lease->have.begin(), lease->have.begin() + r_hi, true);
  lease->reached = r_hi;
  // Range folds carry no counts; the positions supply them.
  merged_ = GraphSnapshot::Lazy(
      lease->zero, view.total_updates / 2,
      [lease](int round, RoundPart part, uint64_t,
              const GraphSnapshot::BlockRunner&, std::vector<uint8_t>* buf) {
        std::lock_guard<std::mutex> lock(lease->mu);
        if (lease->session == nullptr) {
          return Status::FailedPrecondition(
              "reader snapshot outlived its session's position (a "
              "later Snapshot(), Connect(), StartWatch() or the "
              "session's end); take a new Snapshot()");
        }
        // Every round the first pull did not take whole came with its
        // summary; a round pulled whole serves its summary too.
        if (part == RoundPart::kSummary && !lease->have[round]) {
          *buf = std::move(lease->summaries[round]);
          return Status::Ok();
        }
        if (!lease->have[round]) {
          Status s = lease->session->PullRound(lease.get(), round);
          if (!s.ok()) return s;
        }
        *buf = std::move(lease->pulled[round]);
        return Status::Ok();
      });
  lease_ = std::move(lease);
  marks_ = std::move(view.marks);
  *out = &merged_;
  return Status::Ok();
}

Status QuerySession::PullRound(Lease* lease, int round) {
  lease->reached = std::max(lease->reached, round + 1);
  PositionView view;
  std::vector<std::vector<uint8_t>> window;
  const Status s = PullStable(round, round + 1, &lease->marks, &view, &window,
                              /*summaries=*/nullptr);
  if (!s.ok()) return s;
  lease->pulled[round] = std::move(window[0]);
  lease->have[round] = true;
  return Status::Ok();
}

Status QuerySession::PollPositions(bool* fresh) {
  *fresh = false;
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  std::vector<ShardStatsEx> stats;
  std::vector<Status> answers;
  Status s = ReadPositions(&stats, &answers);
  if (!s.ok()) return s;
  // Same validation Snapshot() runs: a configuration error (duplicate
  // shard beyond the replication factor, mixed geometry) is an ERROR
  // here too — reporting it as mere staleness would have a poller
  // serving its stale cache forever, never learning the deployment is
  // broken. Only genuine movement (replica skew) is stale.
  PositionView view;
  s = BuildView(stats, answers, &view);
  if (!s.ok()) return s;
  if (view.skew) return Status::Ok();  // Mid-flight position = stale.
  *fresh = Cached(view);
  return Status::Ok();
}

Status QuerySession::RunQuery(
    const std::function<void(const GraphSnapshot&)>& query) {
  int first_rounds = 0;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < kMaxPositionRetries; ++attempt) {
    const GraphSnapshot* snap = nullptr;
    Status s = Refresh(first_rounds, &snap);
    if (!s.ok()) return s;
    query(*snap);
    last = snap->load_status();
    if (last.ok()) return last;
    first_rounds = RoundsReached();
  }
  return Status(StatusCode::kResourceExhausted,
                "every query's later round found the position moved; " +
                    std::to_string(kMaxPositionRetries) +
                    " attempts (last: " + last.ToString() + ")");
}

Result<ConnectivityResult> QuerySession::Connectivity(int threads) {
  ConnectivityResult result;
  const Status s = RunQuery([&](const GraphSnapshot& snap) {
    result = gz::Connectivity(snap, threads);
  });
  if (!s.ok()) return s;
  return result;
}

// ---- Standing queries ---------------------------------------------

uint64_t QuerySession::AddStandingQuery(const StandingQuerySpec& spec) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.Add(spec);
}

uint64_t QuerySession::watch_notifications() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.notifications();
}

uint64_t QuerySession::watch_evaluations() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.evaluations();
}

size_t QuerySession::watch_notify_streams() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return notify_conns_.size();
}

Status QuerySession::watch_error() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return watch_error_;
}

void QuerySession::OpenNotifyStreams() {
  // Extra reader sessions, one per endpoint, each converted into a
  // notify stream by kSubscribe. Every failure — dial, handshake, a
  // kError refusal (shard not yet configured), a garbled first frame —
  // just drops that stream: the cadence poll still covers its shard,
  // and a subscriber that wants pushes back can re-StartWatch later.
  for (const std::string& uri : options_.endpoints) {
    Result<ShardEndpoint> parsed = ParseShardEndpoint(uri);
    if (!parsed.ok()) continue;
    auto conn = std::make_unique<TcpShardTransport>(
        std::move(parsed).value(), options_.auth_secret,
        ShardSessionRole::kReader);
    if (!conn->Connect().ok()) continue;
    if (options_.receive_deadline_seconds > 0) {
      SetShardSocketTimeout(conn->fd(), options_.receive_deadline_seconds);
    }
    // The 1:1 reply: the initial kNotify (current position), or kError.
    ShardFrame first;
    if (!Exchange({{conn->fd(), ShardMessageType::kSubscribe}}, &first,
                  nullptr)[0]
             .status.ok()) {
      continue;
    }
    std::lock_guard<std::mutex> lock(watch_mu_);
    notify_conns_.push_back(std::move(conn));
  }
}

Status QuerySession::StartWatch(const StandingWatchOptions& options,
                                StandingQueryNotifier notifier) {
  if (watching_.load()) {
    return Status::FailedPrecondition("watch already running");
  }
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  if (options.poll_interval_ms <= 0) {
    return Status::InvalidArgument("poll_interval_ms must be positive");
  }
  // The watcher owns the connections from here on; a snapshot the
  // owner still holds must not pull through them.
  Revoke();
  if (::pipe(watch_stop_pipe_) != 0) {
    return Status::IoError(std::string("watch stop pipe: ") +
                           std::strerror(errno));
  }
  watch_options_ = options;
  watch_notifier_ = std::move(notifier);
  watch_error_ = Status::Ok();
  watching_.store(true);
  watch_thread_ = std::thread([this] { WatchLoop(); });
  return Status::Ok();
}

void QuerySession::StopWatch() {
  if (!watching_.load()) return;
  const char byte = 'q';
  // A full pipe just means a wake-up is already pending.
  (void)!::write(watch_stop_pipe_[1], &byte, 1);
  watch_thread_.join();
  ::close(watch_stop_pipe_[0]);
  ::close(watch_stop_pipe_[1]);
  watch_stop_pipe_[0] = watch_stop_pipe_[1] = -1;
  std::lock_guard<std::mutex> lock(watch_mu_);
  notify_conns_.clear();
  watching_.store(false);
}

void QuerySession::WatchLoop() {
  if (watch_options_.subscribe) OpenNotifyStreams();
  ShardFrame frame;
  while (true) {
    // Wait for a push, the stop byte, or the fallback cadence. The
    // notify fds are registered alongside the stop pipe so a pushed
    // position change wakes the watcher immediately.
    std::vector<struct pollfd> pfds;
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      pfds.reserve(notify_conns_.size() + 1);
      struct pollfd stop;
      stop.fd = watch_stop_pipe_[0];
      stop.events = POLLIN;
      stop.revents = 0;
      pfds.push_back(stop);
      for (const auto& conn : notify_conns_) {
        struct pollfd p;
        p.fd = conn->fd();
        p.events = POLLIN;
        p.revents = 0;
        pfds.push_back(p);
      }
    }
    const int rc =
        ::poll(pfds.data(), pfds.size(), watch_options_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) return;
    if (pfds[0].revents != 0) return;  // StopWatch.
    if (rc > 0) {
      // Drain one frame per readable stream; anything but a clean
      // kNotify (EOF, transport error, a stray frame type) retires the
      // stream — the cadence poll takes over for its shard.
      std::lock_guard<std::mutex> lock(watch_mu_);
      size_t conn_idx = 0;
      for (size_t i = 1; i < pfds.size(); ++i, ++conn_idx) {
        if (pfds[i].revents == 0) continue;
        // pfds[i] was built from notify_conns_ under the same mutex and
        // streams are only ever retired here, so indices still line up.
        const Status s =
            RecvFrame(notify_conns_[conn_idx]->fd(), &frame);
        if (!s.ok() || frame.type != ShardMessageType::kNotify) {
          notify_conns_.erase(notify_conns_.begin() + conn_idx);
          --conn_idx;
          continue;
        }
      }
    }
    WatchEvaluate();
  }
}

void QuerySession::WatchEvaluate() {
  std::lock_guard<std::mutex> lock(watch_mu_);
  if (registry_.size() == 0) return;
  // Probe first: a fresh position with nothing newly registered means
  // no fold and no pulls this cycle. (Snapshot() would conclude the
  // same, but the probe makes the steady-state cost of an idle watch
  // exactly one STATS_EX sweep per wake-up.)
  bool fresh = false;
  Status s = PollPositions(&fresh);
  if (!s.ok()) {
    watch_error_ = s;
    return;
  }
  if (fresh && !registry_.HasUnevaluated()) return;
  // An evaluation whose later round found the position moved fires
  // nothing (Boruvka failed) and is retried by RunQuery.
  Result<size_t> fired = size_t{0};
  s = RunQuery([&](const GraphSnapshot& snap) {
    fired = registry_.Evaluate(snap, watch_options_.threads, watch_notifier_);
  });
  // A failed refresh is transient by design: a mid-reshard refresh that
  // kept moving, or a shard waiting on failover. The watch keeps
  // running; the next wake-up retries.
  watch_error_ = !s.ok() ? s : fired.ok() ? Status::Ok() : fired.status();
}

}  // namespace gz
