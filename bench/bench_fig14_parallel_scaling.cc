// Figure 14: ingestion rate vs number of Graph Worker threads.
//
// Paper shape to reproduce: near-linear scaling with workers (26x at 46
// threads on a 24-core machine). Speedup can only track the hardware
// threads the host exposes (printed first): rows past that count add
// workers that contend for the same cores, so the curve flattens there.
// Run on a larger box (GZ_BENCH_WORKERS_MAX) to see the paper's scaling.
//
// A "workers = N" row runs N Graph Worker threads. The ingesting thread
// also applies batches while the work queue is full (during Flush and
// under backpressure in Update), so up to N + 1 threads run the kernel.
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"

int main() {
  using namespace gz;
  bench::PrintHeader("Figure 14", "ingestion rate vs Graph Workers");
  std::printf("(hardware threads available: %u)\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %10s %14s %10s\n", "Dataset", "Workers", "Updates/s",
              "Speedup");

  const int scale = bench::GetEnvInt("GZ_BENCH_KRON_MAX", 10) - 1;
  const bench::Workload w = bench::MakeKronWorkload(scale);
  const int max_workers = bench::GetEnvInt("GZ_BENCH_WORKERS_MAX", 8);

  double base_rate = 0;
  for (int workers = 1; workers <= max_workers; workers *= 2) {
    GraphZeppelinConfig config = bench::DefaultGzConfig();
    config.num_workers = workers;
    const bench::IngestResult result = bench::RunGraphZeppelin(w, config);
    if (workers == 1) base_rate = result.updates_per_sec;
    std::printf("%-8s %10d %14.0f %9.2fx\n", w.name.c_str(), workers,
                result.updates_per_sec,
                result.updates_per_sec / base_rate);
  }
  return 0;
}
