// Figure 13: in-RAM ingestion rate, GraphZeppelin vs the explicit
// baselines on dense Kronecker streams.
//
// Paper shape to reproduce: explicit systems slow down as the graph
// densifies (per-edge structure maintenance grows), while
// GraphZeppelin's per-update cost is independent of density; by kron18
// GraphZeppelin ingests ~3x faster than Aspen and >10x Terrace.
//
// The two GraphZeppelin columns force the sketch kernel: "GZ-scalar"
// pins GZ_SKETCH_KERNEL=scalar, "GZ-<best>" the widest SIMD kernel the
// CPU supports, so the table shows what the vectorized update path
// buys end to end. A JSON tail re-emits the rows for BENCH_*.json
// ingest trajectories.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "sketch/sketch_kernel.h"

int main() {
  using namespace gz;
  const SketchKernel best = BestSupportedSketchKernel();
  char gz_best_col[16];
  std::snprintf(gz_best_col, sizeof(gz_best_col), "GZ-%s",
                SketchKernelName(best));

  bench::PrintHeader("Figure 13", "in-RAM ingestion rate (updates/s)");
  std::printf("%-8s %14s %14s %14s %14s\n", "Dataset", "Aspen-like",
              "Terrace-like", "GZ-scalar", gz_best_col);

  struct JsonRow {
    std::string dataset;
    double aspen = 0, terrace = 0, gz_scalar = 0, gz_best = 0;
  };
  std::vector<JsonRow> json_rows;

  const int kron_min = bench::GetEnvInt("GZ_BENCH_KRON_MIN", 8);
  const int kron_max = bench::GetEnvInt("GZ_BENCH_KRON_MAX", 11);
  for (int scale = kron_min; scale <= kron_max; ++scale) {
    const bench::Workload w = bench::MakeKronWorkload(scale);

    CsrBatchGraph aspen_like(w.num_nodes, 1 << 16);
    const bench::IngestResult aspen =
        bench::RunExplicitBaseline(w, &aspen_like);
    HashAdjacencyGraph terrace_like(w.num_nodes);
    const bench::IngestResult terrace =
        bench::RunExplicitBaseline(w, &terrace_like);

    GraphZeppelinConfig config = bench::DefaultGzConfig();
    ForceSketchKernel(SketchKernel::kScalar);
    const bench::IngestResult gz_scalar = bench::RunGraphZeppelin(w, config);
    ForceSketchKernel(best);
    const bench::IngestResult gz_best = bench::RunGraphZeppelin(w, config);

    std::printf("%-8s %14.0f %14.0f %14.0f %14.0f\n", w.name.c_str(),
                aspen.updates_per_sec, terrace.updates_per_sec,
                gz_scalar.updates_per_sec, gz_best.updates_per_sec);
    json_rows.push_back({w.name, aspen.updates_per_sec,
                         terrace.updates_per_sec, gz_scalar.updates_per_sec,
                         gz_best.updates_per_sec});
  }
  std::printf(
      "\nShape check vs paper: GraphZeppelin's rate is roughly flat in\n"
      "density/scale; explicit baselines degrade as per-vertex structures\n"
      "grow. GZ columns run GZ_BENCH_WORKERS Graph Workers (default 2;\n"
      "paper: 46 threads).\n\n");

  std::printf("{\n  \"bench\": \"fig13_inram_ingest\", "
              "\"best_kernel\": \"%s\",\n  \"rows\": [\n",
              SketchKernelName(best));
  for (size_t i = 0; i < json_rows.size(); ++i) {
    const JsonRow& r = json_rows[i];
    std::printf("    {\"dataset\": \"%s\", \"aspen_like\": %.0f, "
                "\"terrace_like\": %.0f, \"gz_scalar\": %.0f, "
                "\"gz_best_kernel\": %.0f}%s\n",
                r.dataset.c_str(), r.aspen, r.terrace, r.gz_scalar, r.gz_best,
                i + 1 < json_rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
