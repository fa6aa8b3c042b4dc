// E11 — telemetry overhead (DESIGN.md §12): the metrics registry is a
// handful of relaxed atomic increments per message, so the mailbox hot
// path with the monitor on must stay within 2x of the monitor-off path
// (perf-smoke enforces the pairing via `check_bench_regression.py
// overhead`).  Also pins the raw per-hook cost of the registry itself,
// and the same pairing for mph_watch (DESIGN.md §17): the health-rule
// engine runs on the monitor thread's reader side, so a ticking monitor
// with the watcher judging every snapshot must stay within 2x of the
// same ticking monitor without it.
#include <chrono>
#include <filesystem>

#include "bench/bench_util.hpp"
#include "src/minimpi/metrics.hpp"

using namespace mph;
using namespace mph::bench;

namespace {

// Enough round trips that a job spans several monitor ticks: the reported
// per-round-trip time then reflects steady-state overhead (hooks plus the
// amortized tick), not whether a single tick happened to land mid-timer.
constexpr int kRoundTripsPerJob = 2000;

minimpi::JobOptions monitored_job_options(bool monitor) {
  minimpi::JobOptions options = bench_job_options();
  if (monitor) {
    options.monitor.enabled = true;
    // A real, ticking monitor thread: the measured overhead includes the
    // aggregate-on-read scans racing the hot path, not just the hooks.
    options.monitor.interval = std::chrono::milliseconds(5);
    options.monitor.dir =
        (std::filesystem::temp_directory_path() / "mph_bench_metrics").string();
  }
  return options;
}

/// Monitor ticking either way; `watch` adds the health-rule engine judging
/// every published snapshot.  The on/off delta is the whole watch cost as
/// the hot path sees it.
minimpi::JobOptions watched_job_options(bool watch) {
  minimpi::JobOptions options = monitored_job_options(true);
  if (watch) {
    options.watch.enabled = true;
    options.watch.flight_record = false;  // no tracer in the bench job
    options.watch.dir = options.monitor.dir;
  }
  return options;
}

/// One ping-pong job under `options`; returns the ping rank's measured
/// per-round-trip seconds (the bench_p2p body, telemetry the only knob).
double pingpong_seconds(std::size_t doubles, minimpi::JobOptions options) {
  const std::string registry = "BEGIN\nping\npong\nEND\n";
  MaxSeconds rt_time;
  auto ping = [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
    Mph h = Mph::components_setup(world, RegistrySource::from_text(registry),
                                  {"ping"});
    std::vector<double> buf(doubles, 1.0);
    const util::Timer timer;
    for (int i = 0; i < kRoundTripsPerJob; ++i) {
      h.send(std::span<const double>(buf), "pong", 0, 7);
      h.recv(std::span<double>(buf), "pong", 0, 8);
    }
    rt_time.update(timer.seconds() / kRoundTripsPerJob);
  };
  auto pong = [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
    Mph h = Mph::components_setup(world, RegistrySource::from_text(registry),
                                  {"pong"});
    std::vector<double> buf(doubles);
    for (int i = 0; i < kRoundTripsPerJob; ++i) {
      h.recv(std::span<double>(buf), "ping", 0, 7);
      h.send(std::span<const double>(buf), "ping", 0, 8);
    }
  };
  const auto report =
      minimpi::run_mpmd({{"ping", 1, ping, {}}, {"pong", 1, pong, {}}},
                        std::move(options));
  require_ok(report, "metrics pingpong");
  return rt_time.get();
}

/// The bench_p2p ping-pong, parameterized on whether the monitor is live.
/// Same registry, same traffic — the only variable is telemetry.
void BM_MetricsPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const bool monitor = state.range(1) != 0;
  const std::size_t doubles = std::max<std::size_t>(1, bytes / sizeof(double));
  for (auto _ : state) {
    state.SetIterationTime(
        pingpong_seconds(doubles, monitored_job_options(monitor)));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 2 *
      static_cast<std::int64_t>(doubles * sizeof(double)));
}

/// The same traffic under a ticking monitor, with and without the watcher
/// judging every snapshot — the mph_watch overhead pair perf-smoke gates
/// at 2x.
void BM_WatchPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const bool watch = state.range(1) != 0;
  const std::size_t doubles = std::max<std::size_t>(1, bytes / sizeof(double));
  for (auto _ : state) {
    state.SetIterationTime(
        pingpong_seconds(doubles, watched_job_options(watch)));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 2 *
      static_cast<std::int64_t>(doubles * sizeof(double)));
}

/// Raw cost of one send+match hook sequence on the registry — the
/// per-message price floor of telemetry, independent of the mailbox (the
/// mailbox itself counts deliveries, monitored or not).
void BM_MetricsHooks(benchmark::State& state) {
  minimpi::MetricsRegistry reg(2);
  std::uint64_t i = 0;
  for (auto _ : state) {
    reg.on_send(0, 64);
    reg.on_match(1, ++i);
    benchmark::DoNotOptimize(reg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_MetricsPingPong)
    ->ArgsProduct({{256, 65536}, {0, 1}})
    ->ArgNames({"bytes", "monitor"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(3);

BENCHMARK(BM_WatchPingPong)
    ->ArgsProduct({{256, 65536}, {0, 1}})
    ->ArgNames({"bytes", "watch"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(3);

BENCHMARK(BM_MetricsHooks);

MPH_BENCH_MAIN();
