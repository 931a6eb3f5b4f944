// Disjoint-set union (union by rank + path compression), the merging
// substrate for Boruvka's algorithm and Kruskal's reference checker.
#ifndef GZ_DSU_DSU_H_
#define GZ_DSU_DSU_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gz {

class Dsu {
 public:
  explicit Dsu(size_t n);

  // Representative of x's set (with path compression).
  size_t Find(size_t x);

  // Unites the sets of a and b. Returns true iff they were distinct.
  bool Union(size_t a, size_t b);

  size_t num_sets() const { return num_sets_; }
  size_t size() const { return parent_.size(); }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
  size_t num_sets_;
};

}  // namespace gz

#endif  // GZ_DSU_DSU_H_
