#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::window_quantile(double q) const {
  const auto window = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
  const std::size_t windows = values_.size() / window;
  if (windows < 3) return quantile(q);
  Samples per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    Samples part;
    const auto first = values_.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? values_.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    part.values_.assign(first, last);
    per_window.add(part.quantile(q));
  }
  return per_window.median();
}

namespace {
// Spans open on this thread, innermost last: the default parent.
thread_local std::vector<std::uint64_t> open_spans;
}  // namespace

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t parent) {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  if (parent == 0 && !open_spans.empty()) parent = open_spans.back();
  const double t0 =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, parent, tid, t0, t0});
    id = spans_.size();
  }
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (id == 0) return;
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  const double t1 =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].t1_us = t1;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.t0_us
        << ",\"dur\":" << (s.t1_us - s.t0_us) << ",\"args\":{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
