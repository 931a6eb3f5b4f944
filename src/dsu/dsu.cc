#include "dsu/dsu.h"

#include <numeric>

#include "util/check.h"

namespace gz {

Dsu::Dsu(size_t n) : parent_(n), rank_(n, 0), num_sets_(n) {
  GZ_CHECK(n <= UINT32_MAX);
  std::iota(parent_.begin(), parent_.end(), 0);
}

size_t Dsu::Find(size_t x) {
  GZ_CHECK(x < parent_.size());
  // Two-pass path compression.
  size_t root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    size_t next = parent_[x];
    parent_[x] = static_cast<uint32_t>(root);
    x = next;
  }
  return root;
}

bool Dsu::Union(size_t a, size_t b) {
  size_t ra = Find(a);
  size_t rb = Find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = static_cast<uint32_t>(ra);
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --num_sets_;
  return true;
}

}  // namespace gz
