// Memory accounting helpers. Structures in this library expose exact
// ByteSize() methods; this header formats them for printing.
#ifndef GZ_UTIL_MEM_USAGE_H_
#define GZ_UTIL_MEM_USAGE_H_

#include <cstddef>

namespace gz {

// Formats a byte count as a human-readable string ("3.40 GiB").
const char* FormatBytes(size_t bytes, char* buf, int buf_len);

}  // namespace gz

#endif  // GZ_UTIL_MEM_USAGE_H_
