#include "distributed/shard_listener.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace gz {
namespace {

// Best-effort refusal on a socket we are about to close: arm a short
// send deadline so a peer that never reads cannot stall the caller,
// send the kError, and let the caller close. The refused peer is still
// inside its client handshake, whose reply path decodes kError frames
// into a clean Status.
void RefuseAndClose(int fd, const Status& error) {
  SetShardSocketTimeout(fd, 2);
  const std::vector<uint8_t> payload = EncodeShardError(error);
  SendFrame(fd, ShardMessageType::kError, payload.data(), payload.size());
  ::close(fd);
}

// One session's frame loop. An exception escaping it ends the session
// like a lost connection would: a shard running on a thread of a
// coordinator's process must not take that process down.
Status ServeSession(int fd, ShardInstanceState* state, ShardSessionRole role) {
  try {
    return ShardServer(fd, state, role).Serve();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gz_shard: session aborted: %s\n", e.what());
    return Status::Internal(std::string("session aborted: ") + e.what());
  }
}

}  // namespace

ShardListener::~ShardListener() {
  // Run() joins all sessions before returning, so only fds remain.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

Status ShardListener::Bind() {
  const std::string& listen = options_.listen;
  const size_t colon = listen.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("listen address wants host:port, got \"" +
                                   listen + "\"");
  }
  const std::string host = listen.substr(0, colon);
  const std::string port = listen.substr(colon + 1);

  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + listen + ": " +
                                   ::gai_strerror(rc));
  }
  for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    listen_fd_ = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (listen_fd_ < 0) continue;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, a->ai_addr, a->ai_addrlen) == 0) break;
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::freeaddrinfo(addrs);
  if (listen_fd_ < 0 || ::listen(listen_fd_, 16) != 0) {
    const Status s = Status::IoError("cannot listen on " + listen + ": " +
                                     std::strerror(errno));
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return s;
  }
  struct sockaddr_storage bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    if (bound.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port_ =
          ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  if (::pipe(stop_pipe_) != 0) {
    return Status::IoError(std::string("cannot create stop pipe: ") +
                           std::strerror(errno));
  }
  if (!options_.port_file.empty()) {
    // Write-then-rename so a polling harness never reads a half-written
    // file.
    const std::string tmp = options_.port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      return Status::IoError("cannot write port file " + tmp);
    }
    std::fprintf(f, "%u\n", port_);
    std::fclose(f);
    if (::rename(tmp.c_str(), options_.port_file.c_str()) != 0) {
      return Status::IoError("cannot publish port file " +
                             options_.port_file);
    }
  }
  return Status::Ok();
}

void ShardListener::RunSession(Session* session) {
  const int fd = session->fd;
  // Pre-auth work happens HERE, on the session's own thread: a peer
  // that stalls mid-handshake burns one bounded slot for at most the
  // handshake deadline, never the accept loop.
  ShardSessionRole role = ShardSessionRole::kWriter;
  Status s = ServerHandshake(fd, options_.auth_secret, &role);
  if (!s.ok()) {
    std::fprintf(stderr, "gz_shard: session refused: %s\n",
                 s.ToString().c_str());
    session->done.store(true);
    return;
  }
  if (role == ShardSessionRole::kWriter) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // A coordinator that drops its connection and immediately
      // redials (kill + restart, replica repair) races the OLD writer
      // session thread, which may not have observed the EOF yet. The
      // handover is legitimate, so wait briefly for the doomed slot to
      // drain; a writer that is genuinely alive keeps the slot claimed
      // past the grace period and the newcomer is refused as before.
      writer_cv_.wait_for(lock, std::chrono::seconds(10), [this] {
        return !writer_active_ || stopping_;
      });
      if (writer_active_ || stopping_) {
        // The slot is claimed post-handshake: only an AUTHENTICATED
        // second coordinator draws this refusal, and it arrives as the
        // reply to its first request, decoded like any shard error.
        const std::vector<uint8_t> payload = EncodeShardError(
            Status::FailedPrecondition(
                "a writer session is already active on this shard"));
        SendFrame(fd, ShardMessageType::kError, payload.data(),
                  payload.size());
        session->done.store(true);
        return;
      }
      writer_active_ = true;
    }
    s = ServeSession(fd, &state_, ShardSessionRole::kWriter);
    std::lock_guard<std::mutex> lock(mu_);
    writer_active_ = false;
    writer_cv_.notify_all();
    if (s.ok()) {
      // Orderly kShutdown: retire the whole listener.
      shutdown_requested_ = true;
      Stop();
    } else {
      // Writer gone mid-session: the instance is discarded — exactly
      // the state loss of a SIGKILLed shard process, recovered by the
      // coordinator the same way (reconnect + restore + replay).
      // Readers keep their sessions and observe an unconfigured shard.
      std::lock_guard<std::mutex> state_lock(state_.mutex);
      state_.Reset();
      std::fprintf(
          stderr,
          "gz_shard: writer session ended (%s); instance discarded\n",
          s.ToString().c_str());
    }
  } else {
    s = ServeSession(fd, &state_, ShardSessionRole::kReader);
    // Reader disconnects are unremarkable by design; nothing to reset.
  }
  session->done.store(true);
}

void ShardListener::Stop() {
  const char byte = 's';
  (void)!::write(stop_pipe_[1], &byte, 1);
}

size_t ShardListener::SweepSessionsLocked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done.load()) {
      it->thread.join();
      ::close(it->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  return sessions_.size();
}

Status ShardListener::Run() {
  while (true) {
    struct pollfd pfds[2];
    pfds[0].fd = listen_fd_;
    pfds[0].events = POLLIN;
    pfds[0].revents = 0;
    pfds[1].fd = stop_pipe_[0];
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    if (::poll(pfds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // Writer shutdown or Stop().
    if (pfds[0].revents == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      std::fprintf(stderr, "gz_shard: accept: %s\n", std::strerror(errno));
      break;
    }
    TuneShardSocket(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (SweepSessionsLocked() >=
        static_cast<size_t>(options_.max_sessions)) {
      RefuseAndClose(
          fd, Status(StatusCode::kResourceExhausted,
                     "shard session limit reached (" +
                         std::to_string(options_.max_sessions) + ")"));
      continue;
    }
    sessions_.emplace_back();
    Session* session = &sessions_.back();
    session->fd = fd;
    session->thread = std::thread([this, session] { RunSession(session); });
  }
  // Wind-down: stop accepting, then break every live session out of
  // its blocking read (shutdown(2) makes reads return 0 => the session
  // loop exits with an IoError) and join.
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    // Subscription loops block on the instance condvar, not a read, so
    // shutdown(2) alone does not wake them — flag the wind-down and
    // signal so they exit on their next predicate check.
    std::lock_guard<std::mutex> state_lock(state_.mutex);
    state_.winding_down = true;
    state_.position_cv.notify_all();
  }
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  writer_cv_.notify_all();  // Break any writer waiting on the slot.
  for (Session& s : sessions_) {
    if (!s.done.load()) ::shutdown(s.fd, SHUT_RDWR);
  }
  // Join OUTSIDE the lock: a session draining out of the writer-slot
  // wait (or clearing the slot after Serve) needs mu_ to exit. The
  // accept loop is gone, so sessions_ cannot grow under us.
  lock.unlock();
  for (Session& s : sessions_) {
    s.thread.join();
    ::close(s.fd);
  }
  lock.lock();
  sessions_.clear();
  const bool orderly = shutdown_requested_;
  lock.unlock();
  return orderly ? Status::Ok()
                 : Status::IoError("shard listener stopped without an "
                                   "orderly shutdown");
}

}  // namespace gz
