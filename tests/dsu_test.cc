// Tests for the disjoint-set union substrate.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dsu/dsu.h"
#include "util/random.h"

namespace gz {
namespace {

TEST(DsuTest, InitiallyAllSingletons) {
  Dsu dsu(5);
  EXPECT_EQ(dsu.num_sets(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(dsu.Find(i), i);
}

TEST(DsuTest, UnionMergesAndReportsNovelty) {
  Dsu dsu(4);
  EXPECT_TRUE(dsu.Union(0, 1));
  EXPECT_FALSE(dsu.Union(1, 0));
  EXPECT_TRUE(dsu.Union(2, 3));
  EXPECT_TRUE(dsu.Union(0, 3));
  EXPECT_FALSE(dsu.Union(1, 2));
  EXPECT_EQ(dsu.num_sets(), 1u);
}

TEST(DsuTest, FindIsIdempotent) {
  Dsu dsu(10);
  dsu.Union(1, 2);
  dsu.Union(2, 3);
  const size_t root = dsu.Find(3);
  EXPECT_EQ(dsu.Find(3), root);
  EXPECT_EQ(dsu.Find(root), root);
  EXPECT_EQ(dsu.Find(1), root);
}

TEST(DsuTest, OutOfRangeAborts) {
  Dsu dsu(3);
  EXPECT_DEATH(dsu.Find(3), "x < parent_.size");
}

// Property test: DSU agrees with a naive label-propagation reference.
class DsuRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DsuRandomTest, MatchesNaiveReference) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed);
  const size_t n = 200;
  Dsu dsu(n);
  std::vector<size_t> naive(n);
  for (size_t i = 0; i < n; ++i) naive[i] = i;

  for (int step = 0; step < 300; ++step) {
    const size_t a = rng.NextBelow(n);
    const size_t b = rng.NextBelow(n);
    if (a == b) continue;
    dsu.Union(a, b);
    const size_t la = naive[a], lb = naive[b];
    if (la != lb) {
      for (size_t i = 0; i < n; ++i) {
        if (naive[i] == lb) naive[i] = la;
      }
    }
  }
  // Compare partitions (labels may differ; the partition must match).
  std::map<size_t, size_t> canon_dsu, canon_naive;
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t d = dsu.Find(i);
    if (canon_dsu.find(d) == canon_dsu.end()) canon_dsu[d] = count++;
  }
  count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (canon_naive.find(naive[i]) == canon_naive.end()) {
      canon_naive[naive[i]] = count++;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(dsu.Find(i) == dsu.Find(j), naive[i] == naive[j])
          << i << "," << j;
    }
  }
  EXPECT_EQ(dsu.num_sets(), canon_naive.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsuRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace gz
