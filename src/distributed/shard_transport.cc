#include "distributed/shard_transport.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "distributed/shard_listener.h"
#include "util/check.h"

namespace gz {

extern "C" char** environ;

namespace {

// fork/execs `binary` with the given argv tail, stderr appended to
// `log_path` (empty = inherit), and GZ_SHARD_AUTH_SECRET pinned in the
// child's environment — never argv, which is world-readable through
// /proc/<pid>/cmdline, and always set (even empty) so an inherited
// env var can't silently override the coordinator's secret. The child
// gets SIGKILL when the spawning thread exits, so a coordinator that
// crashes leaves no listener holding its ports and pipes.
Result<pid_t> SpawnShardChild(const std::string& binary,
                              const std::vector<std::string>& args,
                              const std::string& log_path,
                              const std::string& auth_secret) {
  // Everything the child dereferences is materialized BEFORE fork():
  // between fork and exec only async-signal-safe calls are allowed,
  // and that includes no allocation.
  std::vector<const char*> argv;
  argv.push_back(binary.c_str());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  argv.push_back(nullptr);
  const std::string secret_entry = "GZ_SHARD_AUTH_SECRET=" + auth_secret;
  std::vector<const char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GZ_SHARD_AUTH_SECRET=", 21) == 0) continue;
    envp.push_back(*e);
  }
  envp.push_back(secret_entry.c_str());
  envp.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // Parent died before prctl.
    if (!log_path.empty()) {
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
        if (log_fd != STDERR_FILENO) ::close(log_fd);
      }
    }
    ::execve(binary.c_str(), const_cast<char* const*>(argv.data()),
             const_cast<char* const*>(envp.data()));
    const char msg[] = "gz_shard exec failed\n";
    const ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(127);
  }
  return pid;
}

// waitpid bookkeeping: true while the child has neither exited nor
// been reaped (`*reaped` tracks the reap across calls).
bool ShardChildRunning(pid_t pid, bool* reaped) {
  if (pid < 0 || *reaped) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  if (r == pid) {
    *reaped = true;
    return false;
  }
  return r == 0;
}

// SIGKILL + blocking reap; idempotent via `*reaped`.
void KillShardChild(pid_t pid, bool* reaped) {
  if (pid < 0 || *reaped) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  *reaped = true;
}

// What local: and thread: shards share: a loopback listener this
// transport starts, dialed with TcpShardTransport under the cluster's
// secret or, when that is empty, one minted here at random — a
// loopback port any local process can reach must admit only us.
class LoopbackShardTransport : public ShardTransport {
 public:
  int fd() const override { return conn_ == nullptr ? -1 : conn_->fd(); }

 protected:
  explicit LoopbackShardTransport(const std::string& cluster_secret)
      : secret_(cluster_secret.empty() ? MintSecret() : cluster_secret) {}

  Status Dial(uint16_t port) {
    conn_ = std::make_unique<TcpShardTransport>(
        ShardEndpoint::Tcp("127.0.0.1", port), secret_);
    return conn_->Connect();
  }
  void HangUp() {
    if (conn_ != nullptr) conn_->Terminate();
  }

  const std::string secret_;

 private:
  static std::string MintSecret() {
    std::random_device rd;
    std::string secret;
    for (int i = 0; i < 4; ++i) {
      char word[9];
      std::snprintf(word, sizeof(word), "%08x", rd());
      secret += word;
    }
    return secret;
  }

  std::unique_ptr<TcpShardTransport> conn_;
};

// local: a `gz_shard --listen 127.0.0.1:0` child per Connect().
class LocalShardTransport final : public LoopbackShardTransport {
 public:
  explicit LocalShardTransport(const ShardTransportOptions& options)
      : LoopbackShardTransport(options.auth_secret),
        binary_(options.binary),
        log_path_(options.log_path) {}

  // Spawns the child (FailedPrecondition while one runs) and dials it.
  Status Connect() override {
    const size_t slash = log_path_.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : log_path_.substr(0, slash);
    Status s = child_.Start(binary_, dir, log_path_, secret_);
    if (!s.ok()) return s;  // A failed Start() reaps its own child.
    s = Dial(child_.port());
    if (!s.ok()) Terminate();
    return s;
  }
  bool Alive() override { return child_.Running(); }
  void Terminate() override {
    child_.Stop();
    HangUp();
  }

 private:
  std::string binary_;
  std::string log_path_;
  ListenerShard child_;
};

// thread: a ShardListener running on a thread of this process.
class ThreadShardTransport final : public LoopbackShardTransport {
 public:
  explicit ThreadShardTransport(const std::string& auth_secret)
      : LoopbackShardTransport(auth_secret) {}
  ~ThreadShardTransport() override {
    HangUp();
    StopListener();
  }

  // Starts the listener unless it runs (an orderly kShutdown retires
  // it), then dials it.
  Status Connect() override {
    if (!running_.load()) {
      StopListener();
      ShardListenerOptions options;
      options.listen = "127.0.0.1:0";
      options.auth_secret = secret_;
      listener_ = std::make_unique<ShardListener>(std::move(options));
      const Status s = listener_->Bind();
      if (!s.ok()) {
        listener_.reset();
        return s;
      }
      running_.store(true);
      runner_ = std::thread([this] {
        (void)listener_->Run();
        running_.store(false);
      });
    }
    return Dial(listener_->port());
  }
  bool Alive() override { return running_.load() && fd() >= 0; }
  // The listener sees the writer hang up and discards the instance,
  // exactly as a tcp:// shard does.
  void Terminate() override { HangUp(); }

 private:
  void StopListener() {
    if (runner_.joinable()) {
      listener_->Stop();
      runner_.join();
    }
    listener_.reset();
  }

  std::unique_ptr<ShardListener> listener_;
  std::atomic<bool> running_{false};
  std::thread runner_;
};

// connect() bounded by a deadline instead of the kernel's SYN-retry
// budget (~2 minutes): a blackholed endpoint — DROP firewall, powered-
// off host on a routed subnet — must fail Start()/RestartReplica in
// seconds, not stall them for minutes. True on success; false leaves
// the reason in errno (ETIMEDOUT for the deadline).
bool ConnectWithDeadline(int fd, const struct sockaddr* addr,
                         socklen_t addrlen) {
  constexpr int kConnectTimeoutMs = 10 * 1000;
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, addrlen);
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    do {
      rc = ::poll(&pfd, 1, kConnectTimeoutMs);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      errno = ETIMEDOUT;
      rc = -1;
    } else if (rc > 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      errno = err;
      rc = err == 0 ? 0 : -1;
    }
  }
  const int saved_errno = errno;
  ::fcntl(fd, F_SETFL, flags);  // Back to blocking for the session.
  errno = saved_errno;
  return rc == 0;
}

}  // namespace

std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardEndpoint& endpoint, const ShardTransportOptions& options) {
  switch (endpoint.kind) {
    case ShardEndpoint::Kind::kTcp:
      return std::make_unique<TcpShardTransport>(endpoint,
                                                 options.auth_secret);
    case ShardEndpoint::Kind::kThread:
      return std::make_unique<ThreadShardTransport>(options.auth_secret);
    case ShardEndpoint::Kind::kLocal:
      break;
  }
  return std::make_unique<LocalShardTransport>(options);
}

// ---- TcpShardTransport ----------------------------------------------------

TcpShardTransport::TcpShardTransport(ShardEndpoint endpoint,
                                     std::string auth_secret,
                                     ShardSessionRole role)
    : endpoint_(std::move(endpoint)),
      auth_secret_(std::move(auth_secret)),
      role_(role) {
  GZ_CHECK(endpoint_.kind == ShardEndpoint::Kind::kTcp);
}

TcpShardTransport::~TcpShardTransport() { Terminate(); }

void TcpShardTransport::Terminate() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpShardTransport::Connect() {
  Terminate();
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  const std::string port_str = std::to_string(endpoint_.port);
  struct addrinfo* addrs = nullptr;
  const int rc =
      ::getaddrinfo(endpoint_.host.c_str(), port_str.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::IoError("cannot resolve " + endpoint_.ToString() + ": " +
                           ::gai_strerror(rc));
  }
  // Only connection-refused retries: that is the listener still
  // tearing down its previous session (a restart drill reconnects the
  // instant after it aborted the old connection), and it clears within
  // milliseconds. Anything else — unreachable host, reset, resolution
  // to a dead box — fails fast rather than stalling Start() behind a
  // misconfigured endpoint. Backoff doubles from 10ms, ~3s total.
  Status last = Status::IoError("no addresses for " + endpoint_.ToString());
  useconds_t backoff_us = 10 * 1000;
  for (int attempt = 0; attempt < 9; ++attempt) {
    if (attempt > 0) {
      ::usleep(backoff_us);
      backoff_us = std::min<useconds_t>(backoff_us * 2, 1000 * 1000);
    }
    bool refused = false;
    for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
      const int fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
      if (fd < 0) continue;
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      if (ConnectWithDeadline(fd, a->ai_addr, a->ai_addrlen)) {
        TuneShardSocket(fd);
        Status s = ClientHandshake(fd, auth_secret_, role_);
        if (!s.ok()) {
          ::close(fd);
          ::freeaddrinfo(addrs);
          return s;  // Auth/framing failures do not retry.
        }
        fd_ = fd;
        ::freeaddrinfo(addrs);
        return Status::Ok();
      }
      refused = refused || errno == ECONNREFUSED;
      last = Status::IoError("connect " + endpoint_.ToString() + ": " +
                             std::strerror(errno));
      ::close(fd);
    }
    if (!refused) break;
  }
  ::freeaddrinfo(addrs);
  return last;
}

// ---- ListenerShard --------------------------------------------------------

ListenerShard::~ListenerShard() { Stop(); }

bool ListenerShard::Running() { return ShardChildRunning(pid_, &reaped_); }

void ListenerShard::Stop() { KillShardChild(pid_, &reaped_); }

Status ListenerShard::Start(const std::string& binary,
                            const std::string& scratch_dir,
                            const std::string& log_path,
                            const std::string& auth_secret) {
  if (pid_ >= 0 && Running()) {
    return Status::FailedPrecondition("listener shard already running");
  }
  static std::atomic<int> counter{0};
  const std::string port_file = scratch_dir + "/gz_listener_p" +
                                std::to_string(::getpid()) + "_" +
                                std::to_string(counter++) + ".port";
  ::unlink(port_file.c_str());
  Result<pid_t> pid = SpawnShardChild(
      binary, {"--listen", "127.0.0.1:0", "--port-file", port_file},
      log_path, auth_secret);
  if (!pid.ok()) return pid.status();
  pid_ = pid.value();
  reaped_ = false;
  // The child publishes the kernel-assigned port once bound; poll for
  // it (the write is tiny and atomic via rename on the child side)
  // every millisecond, since every local: shard spawn waits here, for
  // up to 15 s.
  for (int attempt = 0; attempt < 15000; ++attempt) {
    FILE* f = std::fopen(port_file.c_str(), "rb");
    if (f != nullptr) {
      long port = 0;
      const int matched = std::fscanf(f, "%ld", &port);
      std::fclose(f);
      if (matched == 1 && port > 0 && port <= 65535) {
        port_ = static_cast<uint16_t>(port);
        ::unlink(port_file.c_str());
        return Status::Ok();
      }
    }
    if (!Running()) break;
    ::usleep(1000);
  }
  Stop();
  ::unlink(port_file.c_str());
  return Status::IoError("listener shard did not publish a port (see " +
                         (log_path.empty() ? std::string("its stderr")
                                           : log_path) +
                         ")");
}

Status StartListenerShards(const std::string& binary, int count,
                           const std::string& scratch_dir,
                           const std::string& log_prefix,
                           const std::string& auth_secret,
                           std::vector<std::unique_ptr<ListenerShard>>* fleet,
                           std::vector<std::string>* endpoints) {
  for (int i = 0; i < count; ++i) {
    auto listener = std::make_unique<ListenerShard>();
    const std::string log =
        log_prefix.empty()
            ? std::string()
            : log_prefix + std::to_string(fleet->size()) + ".log";
    Status s = listener->Start(binary, scratch_dir, log, auth_secret);
    if (!s.ok()) {
      return Status(s.code(), "listener shard " +
                                  std::to_string(fleet->size()) + ": " +
                                  s.message());
    }
    endpoints->push_back(listener->endpoint());
    fleet->push_back(std::move(listener));
  }
  return Status::Ok();
}

}  // namespace gz
