#include "stream/kronecker_generator.h"

#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/random.h"
#include "util/xxhash.h"

namespace gz {
namespace {

// Graph500 initiator matrix; B == C keeps the graph undirected-symmetric.
constexpr double kA = 0.57;
constexpr double kB = 0.19;
constexpr double kC = 0.19;
constexpr double kD = 0.05;

// A weight class: all ordered pairs (u, v) whose bitwise comparison has
// the same counts of (0,0), (0,1), (1,0), (1,1) positions share one
// Kronecker weight. There are O(scale^3) classes, so calibration over
// the histogram is exact and cheap at any scale.
struct WeightClass {
  double weight;         // Symmetrized pair weight.
  double ordered_count;  // Number of ordered pairs in the class.
};

double Multinomial(int n, int k0, int k1, int k2, int k3) {
  // n! / (k0! k1! k2! k3!) computed multiplicatively in doubles; exact
  // for the magnitudes involved (scale <= 24 => counts <= 4^24 < 2^53).
  double result = 1.0;
  int used = 0;
  for (int k : {k0, k1, k2, k3}) {
    for (int i = 1; i <= k; ++i) {
      ++used;
      result = result * used / i;
    }
  }
  GZ_CHECK(used == n);
  return result;
}

}  // namespace

KroneckerGenerator::KroneckerGenerator(const KroneckerParams& params)
    : params_(params) {
  GZ_CHECK(params_.scale >= 1 && params_.scale <= 24);
  GZ_CHECK(params_.density > 0.0 && params_.density <= 1.0);
}

double KroneckerGenerator::PairWeight(NodeId u, NodeId v) const {
  // Product over bit positions of the initiator weight selected by the
  // (u-bit, v-bit) pair, symmetrized over edge direction.
  double w_uv = 1.0;
  double w_vu = 1.0;
  for (int bit = 0; bit < params_.scale; ++bit) {
    const int bu = (u >> bit) & 1;
    const int bv = (v >> bit) & 1;
    const double m[2][2] = {{kA, kB}, {kC, kD}};
    w_uv *= m[bu][bv];
    w_vu *= m[bv][bu];
  }
  return 0.5 * (w_uv + w_vu);
}

EdgeList KroneckerGenerator::Generate() const {
  const uint64_t n = num_nodes();
  const uint64_t possible = NumPossibleEdges(n);
  const double target = params_.density * static_cast<double>(possible);

  // --- Build the exact weight-class histogram --------------------------
  // Classes with n01 == n10 == 0 are exactly the diagonal (u == v) and
  // are excluded; every unordered pair {u, v} appears as two ordered
  // pairs whose symmetrized weights coincide.
  std::vector<WeightClass> classes;
  const int s = params_.scale;
  for (int n00 = 0; n00 <= s; ++n00) {
    for (int n01 = 0; n01 + n00 <= s; ++n01) {
      for (int n10 = 0; n10 + n01 + n00 <= s; ++n10) {
        const int n11 = s - n00 - n01 - n10;
        if (n01 == 0 && n10 == 0) continue;  // Diagonal u == v.
        const double w_uv = std::pow(kA, n00) * std::pow(kB, n01) *
                            std::pow(kC, n10) * std::pow(kD, n11);
        const double w_vu = std::pow(kA, n00) * std::pow(kC, n01) *
                            std::pow(kB, n10) * std::pow(kD, n11);
        classes.push_back(WeightClass{0.5 * (w_uv + w_vu),
                                      Multinomial(s, n00, n01, n10, n11)});
      }
    }
  }

  // Expected unordered-edge count if each pair is kept with probability
  // min(1, c * weight).
  auto expected_edges = [&classes](double c) {
    double total = 0.0;
    for (const WeightClass& wc : classes) {
      total += wc.ordered_count * std::min(1.0, c * wc.weight);
    }
    return 0.5 * total;  // Ordered -> unordered.
  };

  // --- Binary search for the calibration constant ----------------------
  double lo = 0.0;
  double hi = 1.0;
  while (expected_edges(hi) < target && hi < 1e300) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expected_edges(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double scale_factor = hi;

  // --- Single sampling pass over all pairs ------------------------------
  EdgeList edges;
  edges.reserve(static_cast<size_t>(target * 1.02) + 16);
  SplitMix64 rng(XxHash64Word(0x6b726f6eULL, params_.seed));
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double p = scale_factor * PairWeight(u, v);
      if (rng.NextDouble() < p) edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace gz
