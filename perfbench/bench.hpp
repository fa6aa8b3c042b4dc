// bench.hpp — shared pieces of the MPH benchmark binary: sample
// statistics, the operation tally behind `failed`, the metric list printed
// at the end, and the benchmark's own span recorder for traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Timings of one kind (seconds or any other unit the caller picks).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Tail quantile that one noisy stretch of the run cannot move: the
  /// samples are cut, in the order they were taken, into windows just large
  /// enough to hold 10 samples beyond q, and the median of the windows'
  /// q-quantiles is returned.  Plain quantile() when there are fewer than
  /// three windows.
  [[nodiscard]] double window_quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Messages and the time they took, summed over timed windows.  The rate
/// is total over total: single windows' rates range over 7x within a run,
/// and a median of them jumps with the mix of fast and slow windows.
struct Throughput {
  std::uint64_t messages = 0;
  double seconds = 0.0;
  void add(std::uint64_t n, double s) {
    messages += n;
    seconds += s;
  }
  void add(const Throughput& t) { add(t.messages, t.seconds); }
  [[nodiscard]] double per_second() const {
    return seconds > 0.0 ? static_cast<double>(messages) / seconds : 0.0;
  }
};

/// Operations attempted and operations whose output was wrong or missing.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; the result line prints them in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's own spans around its calls into each layer (traced runs
/// only): name, start, end and parent, kept in memory and written out as
/// Chrome trace JSON when the run ends.  Thread safe.
class SpanRecorder {
 public:
  /// Start a span; returns its id (0 when recording is off).  Without an
  /// explicit parent, the innermost span open on this thread is the parent.
  std::uint64_t begin(const char* name, std::uint64_t parent = 0);
  void end(std::uint64_t id);
  /// Turn recording on or off; spans already open still record their end.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::uint64_t tid;
    double t0_us;
    double t1_us;
  };
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; id = index + 1
};

/// The process-wide recorder (disabled unless the run is traced).
SpanRecorder& spans();

/// RAII helper over spans().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0)
      : id_(spans().begin(name, parent)) {}
  ~ScopedSpan() { spans().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
};

/// Heap allocations counted by the replaced global operator new while
/// counting is on (alloc_count.cpp).
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t alloc_count();

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
