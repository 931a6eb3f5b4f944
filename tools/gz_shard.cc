// gz_shard: one shard of a multi-process sharded deployment.
//
//   --listen host:port   bind and serve the shard as a multi-session listener —
//                        one authenticated writer (the coordinator, full
//                        protocol) plus up to --max-sessions-1 authenticated
//                        readers (PING / STATS_EX / MIGRATE_EXTRACT / SUBSCRIBE
//                        only), the serving tier's data plane. Port 0 asks the
//                        kernel for a free port; --port-file PATH publishes the
//                        bound port (for harnesses that need to discover it). A
//                        coordinator's local: endpoint spawns `gz_shard
//                        --listen 127.0.0.1:0` itself; a tcp:// endpoint dials
//                        one started by hand. A dropped writer connection
//                        discards the in-memory instance — exactly the state
//                        loss of a SIGKILLed shard, recovered the same way
//                        (reconnect + checkpoint restore + replay) — while
//                        reader sessions ride through. An orderly SHUTDOWN from
//                        the writer retires the process.
//
// Every session starts with the authenticated HELLO handshake
// (--auth-secret SECRET or --auth-secret-file PATH, else
// $GZ_SHARD_AUTH_SECRET; default open). A listener on an untrusted
// network MUST carry a secret: without one, anyone who can reach the
// port can inject UPDATE_BATCHes — or read the whole graph state
// through a reader session. Everything interesting lives in
// ShardListener / ShardServer; this is only argv plumbing.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "distributed/shard_listener.h"
#include "tools/flags.h"
#include "util/status.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gz_shard --listen host:port [--port-file PATH]\n"
      "       [--auth-secret SECRET | --auth-secret-file PATH]\n"
      "       [--max-sessions N]\n"
      "  --listen      bind host:port (port 0 = kernel-assigned) and\n"
      "                serve one writer plus concurrent reader sessions\n"
      "  --port-file   write the bound port here once listening\n"
      "  --auth-secret shared handshake secret (or --auth-secret-file /\n"
      "                $GZ_SHARD_AUTH_SECRET); required on untrusted\n"
      "                networks\n"
      "  --max-sessions   concurrent session bound, writer included\n"
      "                   (default 17, or $GZ_SHARD_MAX_SESSIONS)\n");
  return 2;
}

long EnvOr(const char* name, long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atol(value) : fallback;
}

int RunListener(const gz::tools::Flags& flags, const std::string& secret) {
  gz::ShardListenerOptions options;
  options.listen = flags.GetString("listen", "");
  options.port_file = flags.GetString("port-file", "");
  options.auth_secret = secret;
  options.max_sessions = static_cast<int>(
      flags.GetInt("max-sessions", EnvOr("GZ_SHARD_MAX_SESSIONS", 17)));
  if (options.max_sessions < 1) {
    std::fprintf(stderr, "gz_shard: --max-sessions must be positive\n");
    return 2;
  }
  gz::ShardListener listener(std::move(options));
  gz::Status s = listener.Bind();
  if (!s.ok()) {
    std::fprintf(stderr, "gz_shard: %s\n", s.ToString().c_str());
    return s.code() == gz::StatusCode::kInvalidArgument ? 2 : 1;
  }
  std::fprintf(stderr, "gz_shard: listening on %s (port %u)%s\n",
               flags.GetString("listen", "").c_str(), listener.port(),
               secret.empty() ? " WITHOUT an auth secret" : "");
  s = listener.Run();
  if (!s.ok()) {
    std::fprintf(stderr, "gz_shard: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;  // Orderly SHUTDOWN: the shard retires.
}

}  // namespace

int main(int argc, char** argv) {
  gz::tools::Flags flags(argc, argv);
  if (!flags.AllKnown({"listen", "port-file", "max-sessions", "auth-secret",
                       "auth-secret-file"}) ||
      !flags.Has("listen")) {
    return Usage();
  }
  return RunListener(flags, gz::tools::ResolveAuthSecret(flags, "gz_shard"));
}
