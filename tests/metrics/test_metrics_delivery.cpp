// Delivery facts in metrics snapshots.  Each mailbox owns its rank's
// delivered count, delivered bytes, queue depth and queue high water;
// Job::metrics_snapshot() reads them from the mailboxes, so these tests
// send real messages through a Job instead of poking the registry.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/minimpi/job.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/metrics.hpp"

using minimpi::Job;
using minimpi::JobOptions;
using minimpi::kWorldContext;
using minimpi::RankMetrics;

namespace {

/// Monitoring on with interval 0: the registry collects, no monitor thread.
JobOptions monitored() {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  options.monitor.enabled = true;
  options.monitor.interval = std::chrono::milliseconds(0);
  return options;
}

constexpr minimpi::tag_t kTag = 5;

/// Queue one unexpected `bytes`-byte message from world rank 0 at rank 1.
void send_unexpected(Job& job, std::size_t bytes) {
  const std::vector<std::byte> payload(bytes);
  job.send_envelope(kWorldContext, 0, 1, kTag, payload, {}, "send");
}

RankMetrics rank_row(const Job& job, minimpi::rank_t rank) {
  return job.metrics_snapshot().ranks.at(static_cast<std::size_t>(rank));
}

}  // namespace

TEST(MetricsDelivery, SnapshotReadsCountsAndGaugesFromTheMailbox) {
  Job job(2, monitored());
  send_unexpected(job, 100);
  send_unexpected(job, 50);
  send_unexpected(job, 0);
  // Depth and high water peak at 3 while nothing is received ...
  RankMetrics r1 = rank_row(job, 1);
  EXPECT_EQ(r1.queue_depth, 3u);
  EXPECT_EQ(r1.queue_high_water, 3u);

  // ... then receiving two leaves the gauge at its last value, the high
  // water at the maximum ever.
  std::array<std::byte, 100> buffer{};
  for (int i = 0; i < 2; ++i) {
    (void)job.mailbox(1).recv(kWorldContext, 0, kTag, buffer,
                              minimpi::Deadline::max());
  }
  r1 = rank_row(job, 1);
  EXPECT_EQ(r1.delivered, 3u);
  EXPECT_EQ(r1.delivered_bytes, 150u);
  EXPECT_EQ(r1.queue_depth, 1u);
  EXPECT_EQ(r1.queue_high_water, 3u);

  const RankMetrics r0 = rank_row(job, 0);
  EXPECT_EQ(r0.sends, 3u);
  EXPECT_EQ(r0.send_bytes, 150u);
  EXPECT_EQ(r0.delivered, 0u);
  EXPECT_EQ(r0.delivered_bytes, 0u);
  EXPECT_EQ(r0.queue_depth, 0u);
  EXPECT_EQ(r0.queue_high_water, 0u);
}

TEST(MetricsDelivery, HealedDomainReportsAnEmptyQueue) {
  // heal_domain drains the member's mailbox: the depth gauge must follow
  // the queue to 0, while the high water keeps the peak it reached.
  Job job(2, monitored());
  constexpr int kDomain = 7;
  job.join_domain(1, kDomain, "member");
  for (int i = 0; i < 3; ++i) send_unexpected(job, 8);
  ASSERT_EQ(rank_row(job, 1).queue_depth, 3u);

  job.abort_domain(kDomain,
                   minimpi::AbortInfo{1, "member", "test", "injected"});
  job.heal_domain(kDomain);
  ASSERT_EQ(job.mailbox(1).queued(), 0u);
  const RankMetrics r1 = rank_row(job, 1);
  EXPECT_EQ(r1.queue_depth, 0u);
  EXPECT_EQ(r1.queue_high_water, 3u);
  EXPECT_EQ(r1.delivered, 3u);
}

TEST(MetricsDelivery, ConcurrentTrafficAndSnapshotsLoseNoDelivery) {
  // Every rank but the last streams kOps messages around a ring while the
  // last rank takes snapshots — the monitor thread's access pattern.  TSan
  // checks the reads; the final snapshot, taken after every rank joined,
  // must count each delivery exactly once.
  constexpr int kRing = 4;
  constexpr int kOps = 5000;
  std::atomic<int> finished{0};
  const minimpi::JobReport report = minimpi::run_spmd(
      kRing + 1,
      [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
        const minimpi::rank_t me = world.rank();
        if (me == kRing) {
          while (finished.load(std::memory_order_acquire) < kRing) {
            (void)world.job().metrics_snapshot();
          }
          return;
        }
        const std::uint64_t value = 1;
        std::uint64_t got = 0;
        for (int i = 0; i < kOps; ++i) {
          world.send(value, (me + 1) % kRing, kTag);
          world.recv(got, (me + kRing - 1) % kRing, kTag);
        }
        finished.fetch_add(1, std::memory_order_release);
      },
      monitored());
  ASSERT_TRUE(report.ok) << report.first_error();
  ASSERT_TRUE(report.metrics.has_value());
  std::uint64_t delivered = 0;
  for (const RankMetrics& r : report.metrics->ranks) {
    const std::uint64_t expected = r.world_rank < kRing ? kOps : 0;
    EXPECT_EQ(r.delivered, expected) << "rank " << r.world_rank;
    EXPECT_EQ(r.delivered_bytes, expected * sizeof(std::uint64_t))
        << "rank " << r.world_rank;
    EXPECT_EQ(r.queue_depth, 0u) << "rank " << r.world_rank;
    delivered += r.delivered;
  }
  EXPECT_EQ(delivered, report.stats.messages);
}
