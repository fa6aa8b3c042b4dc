// Pooled rank threads: a finished rank's thread parks and runs later ranks,
// the pool grows instead of deadlocking when a rank launches a job itself,
// and per-rank state ends with the rank, not with the thread.
#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/mph/compat.hpp"

using namespace minimpi;

namespace {

/// Kernel thread id.  std::thread::id cannot tell threads apart here:
/// glibc hands a fresh thread the id of one that has exited.
long kernel_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

JobOptions fast_options() {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  return options;
}

/// Run an n-rank job whose ranks only record their kernel thread ids.
std::set<long> tids_of_job(int nprocs) {
  std::mutex mutex;
  std::set<long> tids;
  const JobReport report = run_spmd(
      nprocs,
      [&](const Comm&, const ExecEnv&) {
        const std::lock_guard<std::mutex> lock(mutex);
        tids.insert(kernel_tid());
      },
      fast_options());
  EXPECT_TRUE(report.ok) << report.first_error();
  return tids;
}

std::atomic<int> g_exit_hook_runs{0};
void count_exit_hook() { g_exit_hook_runs.fetch_add(1); }

}  // namespace

TEST(RankPool, BackToBackJobsReuseTheSameThreads) {
  (void)tids_of_job(4);
  std::set<long> seen;
  for (int job = 0; job < 100; ++job) {
    const std::set<long> tids = tids_of_job(4);
    seen.insert(tids.begin(), tids.end());
  }
  EXPECT_LE(seen.size(), 4u);
}

TEST(RankPool, RankThatRunsAJobGrowsThePool) {
  // Every rank of the outer job launches an inner job while it still holds
  // its own thread: the inner ranks need threads of their own.
  std::atomic<int> inner_ok{0};
  const JobReport report = run_spmd(
      4,
      [&](const Comm& outer, const ExecEnv&) {
        const JobReport inner = run_spmd(
            4,
            [](const Comm& world, const ExecEnv&) {
              if (allreduce_value(world, world.size(), op::Sum{}) != 16) {
                throw std::runtime_error("bad inner allreduce");
              }
            },
            fast_options());
        if (inner.ok) inner_ok.fetch_add(1);
        barrier(outer);
      },
      fast_options());
  ASSERT_TRUE(report.ok) << report.first_error();
  EXPECT_EQ(inner_ok.load(), 4);
}

TEST(RankPool, CompatHandleEndsWithTheRank) {
  const std::string registry = "BEGIN\natmosphere\nocean\nEND\n";
  std::mutex mutex;
  std::set<long> setup_tids;
  const auto setup = [&](const std::string& name) {
    return [&, name](const Comm& world, const ExecEnv&) {
      (void)mph::compat::MPH_components_setup(
          world, mph::RegistrySource::from_text(registry), {name});
      EXPECT_TRUE(mph::compat::has_current());
      const std::lock_guard<std::mutex> lock(mutex);
      setup_tids.insert(kernel_tid());
    };
  };
  const JobReport first = run_mpmd({ExecSpec{"atm", 1, setup("atmosphere"), {}},
                                    ExecSpec{"ocn", 1, setup("ocean"), {}}},
                                   fast_options());
  ASSERT_TRUE(first.ok) << first.first_error();

  std::set<long> reused_tids;
  std::atomic<int> stale{0};
  const JobReport second = run_spmd(
      2,
      [&](const Comm&, const ExecEnv&) {
        if (mph::compat::has_current()) stale.fetch_add(1);
        const std::lock_guard<std::mutex> lock(mutex);
        reused_tids.insert(kernel_tid());
      },
      fast_options());
  ASSERT_TRUE(second.ok) << second.first_error();
  EXPECT_EQ(stale.load(), 0);
  // The check above only means something if job 2 ran on job 1's threads.
  for (const long tid : reused_tids) EXPECT_EQ(setup_tids.count(tid), 1u);
}

TEST(RankPool, ExitHooksRunOncePerRankThenAreForgotten) {
  g_exit_hook_runs = 0;
  ASSERT_TRUE(run_spmd(
                  3,
                  [](const Comm&, const ExecEnv&) {
                    at_rank_exit(&count_exit_hook);
                    at_rank_exit(&count_exit_hook);
                  },
                  fast_options())
                  .ok);
  EXPECT_EQ(g_exit_hook_runs.load(), 3);
  // A throwing rank runs its hooks too.
  const JobReport failed = run_spmd(
      1,
      [](const Comm&, const ExecEnv&) {
        at_rank_exit(&count_exit_hook);
        throw std::runtime_error("boom");
      },
      fast_options());
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(g_exit_hook_runs.load(), 4);
  // Later ranks on the same threads do not inherit the registrations.
  (void)tids_of_job(3);
  EXPECT_EQ(g_exit_hook_runs.load(), 4);
}

TEST(RankPool, TracedJobClosesEveryRankMainSpan) {
  for (int job = 0; job < 20; ++job) {
    JobOptions options = fast_options();
    options.trace.enabled = true;
    const JobReport report = run_spmd(
        4, [](const Comm& world, const ExecEnv&) { barrier(world); },
        options);
    ASSERT_TRUE(report.ok) << report.first_error();
    ASSERT_TRUE(report.trace.has_value());
    ASSERT_EQ(report.trace->ranks.size(), 4u);
    for (const RankTrace& rank : report.trace->ranks) {
      int closed = 0;
      for (const TraceEvent& event : rank.events) {
        if (event.span && event.tag == kPhaseRankMain &&
            std::string(event.name) == "rank_main") {
          ++closed;
        }
      }
      EXPECT_EQ(closed, 1) << "rank " << rank.world_rank << " in job " << job;
    }
  }
}
