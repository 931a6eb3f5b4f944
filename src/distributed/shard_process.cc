#include "distributed/shard_process.h"

#include <cstdlib>

#include <unistd.h>

#include "util/check.h"

namespace gz {

std::string DefaultShardBinary() {
  const char* env = std::getenv("GZ_SHARD_BIN");
  if (env != nullptr && *env != '\0') return env;
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  GZ_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe");
  self[n] = '\0';
  std::string path(self);
  const size_t slash = path.rfind('/');
  GZ_CHECK(slash != std::string::npos);
  return path.substr(0, slash + 1) + "gz_shard";
}

}  // namespace gz
