#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace gz::bench_suite {

namespace {

double ClippedSeconds(const Tracer::Span& s, int64_t lo, int64_t hi) {
  const int64_t start = std::max(s.start_ns, lo);
  const int64_t end = std::min(s.end_ns, hi);
  return end > start ? static_cast<double>(end - start) * 1e-9 : 0.0;
}

}  // namespace

Tracer::Log::Summary Tracer::Log::Summarize(int64_t lo, int64_t hi) const {
  std::unordered_map<uint64_t, double> covered;  // By parent span id.
  for (const Span& s : spans_) {
    if (s.parent != 0) covered[s.parent] += ClippedSeconds(s, lo, hi);
  }
  Summary out;
  for (const Span& s : spans_) {
    const auto it = covered.find(s.id);
    const double children = it == covered.end() ? 0.0 : it->second;
    const double own = ClippedSeconds(s, lo, hi);
    out.self[s.name] += own - children;
    if (s.parent == 0) {
      out.root += own;
      out.root_covered += children;
    }
  }
  return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::Log* Tracer::NewLog(const std::string& thread,
                            const std::string& workload, int pass) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<Log>(this, thread, workload, pass));
  return logs_.back().get();
}

std::vector<const Tracer::Log*> Tracer::LogsOf(const std::string& workload,
                                               int pass) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Log*> out;
  for (const auto& log : logs_) {
    if (log->workload() == workload && log->pass() == pass) {
      out.push_back(log.get());
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                   "\"workload\": \"%s\", \"pass\": %d, \"thread\": \"%s\", "
                   "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   log->workload().c_str(), log->pass(),
                   log->thread().c_str(), s.start_ns * 1e-3, s.end_ns * 1e-3);
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer::Log* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  Tracer::Span span;
  span.id = log_->tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = log_->open_.empty() ? 0 : log_->spans_[log_->open_.back()].id;
  span.name = name;
  log_->open_.push_back(log_->spans_.size());
  span.start_ns = log_->tracer_->NowNs();
  log_->spans_.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans_[log_->open_.back()].end_ns = log_->tracer_->NowNs();
  log_->open_.pop_back();
}

}  // namespace gz::bench_suite
