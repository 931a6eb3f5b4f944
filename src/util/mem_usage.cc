#include "util/mem_usage.h"

#include <cstdio>

namespace gz {

const char* FormatBytes(size_t bytes, char* buf, int buf_len) {
  const double b = static_cast<double>(bytes);
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, buf_len, "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, buf_len, "%.2f MiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, buf_len, "%.2f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, buf_len, "%zu B", bytes);
  }
  return buf;
}

}  // namespace gz
