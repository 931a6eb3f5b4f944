// Tiny command-line flag parser for the CLI tools: --name=value or
// --name value. No external dependencies.
#ifndef GZ_TOOLS_FLAGS_H_
#define GZ_TOOLS_FLAGS_H_

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace gz {
namespace tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      const char* eq = std::strchr(arg, '=');
      if (eq != nullptr) {
        values_[std::string(arg + 2, eq - arg - 2)] = eq + 1;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[arg + 2] = argv[++i];
      } else {
        values_[arg + 2] = "true";  // Bare boolean flag.
      }
    }
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

  double GetDouble(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  bool GetBool(const std::string& name, bool fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1";
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  // Checks that every flag given is one of `known` (names without the
  // leading "--"). Prints the first that is not and returns false; the
  // tool then prints its usage and exits 2.
  bool AllKnown(std::initializer_list<const char*> known) const {
    for (const auto& entry : values_) {
      bool found = false;
      for (const char* name : known) found = found || entry.first == name;
      if (!found) {
        std::fprintf(stderr, "unknown flag --%s\n", entry.first.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
};

// Checks the ingest flags that GraphZeppelinConfig would abort on, when
// given: --workers must be a count >= 1 (a non-numeric value parses as
// 0) and --gutter-fraction finite and > 0. Prints the first problem and
// returns false; the tool then prints its usage and exits 2.
inline bool ValidIngestFlags(const Flags& flags) {
  const int64_t workers = flags.GetInt("workers", 1);
  if (workers < 1 || workers > INT_MAX) {
    std::fprintf(stderr, "--workers wants a count >= 1\n");
    return false;
  }
  const double fraction = flags.GetDouble("gutter-fraction", 1.0);
  if (!(std::isfinite(fraction) && fraction > 0.0)) {
    std::fprintf(stderr, "--gutter-fraction wants a finite value > 0\n");
    return false;
  }
  return true;
}

// Splits a comma-separated endpoint list (empty entries dropped) — the
// shared grammar of every tool that dials a shard fleet.
inline std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// The shared secret-resolution order of every networked tool:
// --auth-secret, then --auth-secret-file (trailing newlines stripped,
// exits on an unreadable file), then $GZ_SHARD_AUTH_SECRET, then "".
inline std::string ResolveAuthSecret(const Flags& flags, const char* tool) {
  if (flags.Has("auth-secret")) return flags.GetString("auth-secret", "");
  if (flags.Has("auth-secret-file")) {
    const std::string path = flags.GetString("auth-secret-file", "");
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot read --auth-secret-file %s\n", tool,
                   path.c_str());
      std::exit(2);
    }
    std::string secret;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      secret.append(buf, n);
    }
    std::fclose(f);
    while (!secret.empty() &&
           (secret.back() == '\n' || secret.back() == '\r')) {
      secret.pop_back();
    }
    return secret;
  }
  const char* env = std::getenv("GZ_SHARD_AUTH_SECRET");
  return env != nullptr ? env : "";
}

}  // namespace tools
}  // namespace gz

#endif  // GZ_TOOLS_FLAGS_H_
