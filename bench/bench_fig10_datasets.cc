// Figure 10 (Table): dimensions of the evaluation datasets — Kronecker
// streams kronN plus the real-world stand-ins. Scaled down by default;
// set GZ_BENCH_KRON_MIN/MAX to regenerate larger streams.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace gz;
  bench::PrintHeader("Figure 10", "dataset dimensions");
  std::printf("%-14s %12s %14s %16s\n", "Name", "# Nodes", "# Edges",
              "# Stream Updates");

  const int kron_min = bench::GetEnvInt("GZ_BENCH_KRON_MIN", 8);
  const int kron_max = bench::GetEnvInt("GZ_BENCH_KRON_MAX", 11);
  for (int scale = kron_min; scale <= kron_max; ++scale) {
    const bench::Workload w = bench::MakeKronWorkload(scale);
    std::printf("%-14s %12" PRIu64 " %14" PRIu64 " %16zu\n", w.name.c_str(),
                w.num_nodes, w.num_edges, w.stream.updates.size());
  }
  for (const bench::Workload& w : bench::MakeRealWorldWorkloads()) {
    std::printf("%-14s %12" PRIu64 " %14" PRIu64 " %16zu\n", w.name.c_str(),
                w.num_nodes, w.num_edges, w.stream.updates.size());
  }
  std::printf(
      "\nNote: kron streams are dense (~half of all possible edges);\n"
      "real-world rows are synthetic stand-ins shaped like the paper's\n"
      "Table 10 datasets, which are external downloads.\n");
  return 0;
}
