// In-memory span recorder for the suite's traced passes.
//
// Every thread that records spans owns one Tracer::Log and appends only
// to it, so recording takes no lock: a span is two steady_clock reads,
// one atomic id and a vector push. Spans nest by scope on their thread
// (ScopedSpan), which is what makes "self time = duration minus the time
// covered by child spans" exact: children of one span never overlap.
// Spans stay in memory and are written out as JSON lines at exit.
#ifndef GZ_BENCH_SUITE_TRACE_H_
#define GZ_BENCH_SUITE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gz::bench_suite {

class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = a root span.
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // One thread's spans within one pass.
  class Log {
   public:
    Log(Tracer* tracer, std::string thread, std::string workload, int pass)
        : tracer_(tracer),
          thread_(std::move(thread)),
          workload_(std::move(workload)),
          pass_(pass) {}

    const std::string& thread() const { return thread_; }
    const std::string& workload() const { return workload_; }
    int pass() const { return pass_; }
    const std::vector<Span>& spans() const { return spans_; }

    // Seconds of self time by span name, of root spans, and of root time
    // their children cover. Only the part of each span inside
    // [lo_ns, hi_ns] counts, so a worker's idle wait after the pass ends
    // is not charged to the pass.
    struct Summary {
      std::map<std::string, double> self;
      double root = 0;
      double root_covered = 0;
    };
    Summary Summarize(int64_t lo_ns, int64_t hi_ns) const;

   private:
    friend class ScopedSpan;
    Tracer* tracer_;
    std::string thread_;
    std::string workload_;
    int pass_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;  // Indices of the spans still open.
  };

  Tracer();

  // Thread-safe. The log lives as long as the tracer.
  Log* NewLog(const std::string& thread, const std::string& workload,
              int pass);

  // Every log of `pass` (call once the pass's threads have joined).
  std::vector<const Log*> LogsOf(const std::string& workload, int pass) const;

  // One JSON object per span: {id, parent, name, workload, pass, thread,
  // start_us, end_us}, times relative to the tracer's creation.
  bool WriteJsonLines(const std::string& path) const;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  friend class ScopedSpan;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Log>> logs_;  // Guarded by mu_.
};

// Records one span on `log` for the lifetime of the object; a null log
// (an untraced pass) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Log* log, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Log* log_;
};

}  // namespace gz::bench_suite

#endif  // GZ_BENCH_SUITE_TRACE_H_
