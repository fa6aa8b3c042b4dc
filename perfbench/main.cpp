// mph_perfbench — one run of one workload of the MPH benchmark.
//
//   mph_perfbench --workload <ccsm_coupled|p2p_named|handshake_churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--git-sha <sha>] [--spans-out <file>]
//                 [--corrupt-echo <n>] [--short-echo <n>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics (ladder.cpp).  The last line of standard
// output is the result object {"correct", "attempted", "failed", "metrics"}.
// See README.md in this directory for every metric and why each workload
// exists.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int corrupt_echoes = 0;
  int short_echoes = 0;
  std::string git_sha = "unknown";
  std::string spans_out;
};

bool known_workload(const std::string& w) {
  return w == "ccsm_coupled" || w == "p2p_named" || w == "handshake_churn";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--corrupt-echo") {
      a.corrupt_echoes = std::stoi(value);
    } else if (key == "--short-echo") {
      a.short_echoes = std::stoi(value);
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("options take one value each");
  if (!known_workload(a.workload)) {
    throw std::invalid_argument("--workload must be ccsm_coupled, p2p_named "
                                "or handshake_churn");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Time shares of one end-to-end run.  Every --trace 0 run reports every
/// end-to-end metric of BENCHMARK.json, so besides its own loop a run also
/// runs the other two loops, on inputs from the same seed, for the metrics
/// they own.  The workload's own loop gets the largest share; the others
/// still get enough time that their metrics hold as steady as its own.
constexpr double kPrimaryShare = 0.4;
constexpr double kProbeShare = 0.3;
/// The run alternates the three loops in rounds so slow drift of the
/// machine lands on all of them alike.
constexpr int kRounds = 6;
constexpr int kChurnLayouts = 1024;

void run_end_to_end(const Args& a, Metrics& m, Tally& tally) {
  const bool ccsm_primary = a.workload == "ccsm_coupled";
  const bool p2p_primary = a.workload == "p2p_named";
  const bool churn_primary = a.workload == "handshake_churn";
  const CcsmInputs ccsm = make_ccsm_inputs(a.seed);
  P2pInputs p2p = make_p2p_inputs(a.seed);
  p2p.corrupt_echoes = a.corrupt_echoes;
  p2p.short_echoes = a.short_echoes;
  const std::vector<Layout> layouts = churn_layouts(a.seed, kChurnLayouts);

  // Warm-up: one untimed job of each kind.
  {
    CcsmResult c;
    P2pResult p;
    ChurnResult h;
    const Clock::time_point now = Clock::now();
    ccsm_loop(ccsm, now, c);
    P2pInputs warm = make_p2p_inputs(a.seed);
    p2p_loop(warm, now, p);
    churn_loop(layouts, now, h);
  }

  CcsmResult c;
  P2pResult p;
  ChurnResult h;
  const double round_s = a.seconds / kRounds;
  const auto share = [&](bool primary) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            round_s * (primary ? kPrimaryShare : kProbeShare)));
  };
  for (int r = 0; r < kRounds; ++r) {
    ccsm_loop(ccsm, Clock::now() + share(ccsm_primary), c);
    p2p_loop(p2p, Clock::now() + share(p2p_primary), p);
    churn_loop(layouts, Clock::now() + share(churn_primary), h);
  }

  // Each metric comes from the loop that owns it (README.md): setup_s from
  // the workload's own jobs, setup_s_p90 from handshake_churn, intervals
  // from ccsm_coupled, round trips and bursts from p2p_named.
  const Samples& setup =
      ccsm_primary ? c.setup_s : (p2p_primary ? p.setup_s : h.setup_s);
  m.add("setup_s", setup.median(), "s");
  m.add("setup_s_p90", h.setup_s.window_quantile(0.9), "s");
  m.add("interval_ms_p50", c.interval_ms.median(), "ms");
  m.add("interval_ms_p90", c.interval_ms.window_quantile(0.9), "ms");
  m.add("rtt_small_us_p50", p.rtt_small_us.median(), "us");
  m.add("rtt_small_us_p90", p.rtt_small_us.window_quantile(0.9), "us");
  m.add("rtt_large_us_p50", p.rtt_large_us.median(), "us");
  m.add("rtt_large_us_p90", p.rtt_large_us.window_quantile(0.9), "us");
  m.add("burst_msgs_per_s", p.burst.per_second(), "1/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
  tally.add(c.tally);
  tally.add(p.tally);
  tally.add(h.tally);
  m.add("ok_frac",
        1.0 - static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
        "frac");

  std::cout << "samples: setup=" << setup.size()
            << " interval=" << c.interval_ms.size()
            << " rtt_small=" << p.rtt_small_us.size()
            << " rtt_large=" << p.rtt_large_us.size()
            << " burst_msgs=" << p.burst.messages
            << " handshakes=" << h.setup_s.size() << "\n";
}

/// Pin the process to one CPU, the last one it may run on; every thread
/// started later (rank threads, the launcher's helpers) inherits the mask.
/// On a virtual machine a rank that wakes a peer on another vCPU waits for
/// the hypervisor to resume that vCPU, and how long that takes moves with
/// the host's load, by up to 2x between runs (README.md).  On one CPU a
/// wake-up is a context switch inside the guest.  Returns the CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpu;
}

/// Rank threads of the workload's job.
int rank_threads(const std::string& workload) {
  return workload == "ccsm_coupled" ? ccsm_layout().ranks()
         : workload == "p2p_named"  ? p2p_layout().ranks()
                                    : churn_layouts(0, 1).front().ranks();
}

void print_context(const Args& a, int cpu) {
  std::cout << "context: {\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"pinned_cpu\":" << cpu << ",\"build_type\":\""
            << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
            << PERFBENCH_COMPILER << "\",\"git_sha\":\"" << a.git_sha
            << "\",\"l2_bytes\":" << sysconf(_SC_LEVEL2_CACHE_SIZE)
            << ",\"workload\":\"" << a.workload
            << "\",\"rank_threads_per_core\":" << rank_threads(a.workload)
            << ",\"seed\":" << a.seed << ",\"seconds\":" << a.seconds
            << ",\"trace\":" << (a.trace ? 1 : 0)
            << ",\"rtt_large_note\":\"1 MiB payload; in-cache copy when L2 "
               ">= 1 MiB\"}\n";
}

std::string result_json(const Metrics& m, const Tally& t) {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : m.all()) {
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + metric.name + " is not finite");
    }
    out << (first ? "" : ", ") << "\"" << metric.name
        << "\": {\"value\": " << metric.value << ", \"unit\": \""
        << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const int cpu = pin_to_one_cpu();
    if (args.trace) spans().set_enabled(true);
    print_context(args, cpu);
    Metrics metrics;
    Tally tally;
    if (args.trace) {
      run_layers(LayerRun{args.workload, args.seed, args.seconds}, metrics,
                 tally);
    } else {
      run_end_to_end(args, metrics, tally);
    }
    if (tally.attempted == 0) throw std::runtime_error("no operation attempted");
    for (const Metric& metric : metrics.all()) {
      std::cout << "metric " << metric.name << " = " << metric.value << " "
                << metric.unit << "\n";
    }
    if (!args.spans_out.empty() && args.trace &&
        !spans().write(args.spans_out)) {
      throw std::runtime_error("cannot write " + args.spans_out);
    }
    const std::string result = result_json(metrics, tally);
    std::cout << result << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mph_perfbench: " << e.what() << "\n";
    return 1;
  }
}
