// The expected-message path of the Mailbox: a receive posted before its
// message (an irecv, or a blocking recv that found nothing queued) gets the
// sender's bytes copied straight into its buffer, with no heap allocation;
// only an unexpected message is copied into an owned, queued Envelope.
// Also: a blocking recv's stack ticket never outlives the call, its trace is
// one `recv` span, and fault rules still apply to a posted receive.
//
// This binary replaces the global allocation functions to count heap
// allocations (all of them, from every thread, while counting is on).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/error.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/mailbox.hpp"
#include "src/minimpi/trace.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::uint64_t> g_watched_allocs{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == g_watched_size.load(std::memory_order_relaxed)) {
      g_watched_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* throwing(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Counts allocations from construction to stop(); `watched` bytes are also
/// counted apart (the payload size under test).
struct AllocWindow {
  explicit AllocWindow(std::size_t watched = 0) {
    g_watched_size.store(watched);
    g_allocs.store(0);
    g_watched_allocs.store(0);
    g_counting.store(true);
  }
  ~AllocWindow() { g_counting.store(false); }
  void stop() { g_counting.store(false); }
  [[nodiscard]] std::uint64_t allocs() const { return g_allocs.load(); }
  [[nodiscard]] std::uint64_t watched() const {
    return g_watched_allocs.load();
  }
};

}  // namespace

// Every form that pairs with the plain delete is replaced (the nothrow ones
// too: std::stable_sort's buffer comes from them), so malloc/free match.
void* operator new(std::size_t size) { return throwing(counted_alloc(size)); }
void* operator new[](std::size_t size) {
  return throwing(counted_alloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace minimpi;

namespace {

constexpr context_t kCtx = 1;
constexpr rank_t kSender = 0;
constexpr rank_t kOwner = 1;
constexpr tag_t kTag = 5;

/// Records when the owner rank blocks, so a test can deliver only once a
/// blocking recv has posted its ticket (deterministically, not by sleeping).
struct BlockedHook : Scheduler {
  std::atomic<int> blocks{0};
  void note_blocked(rank_t, rank_t, const char*, context_t, tag_t) override {
    blocks.fetch_add(1, std::memory_order_release);
  }
};

Envelope head_from(rank_t src, tag_t tag, std::uint64_t flow = 0) {
  Envelope head;
  head.context = kCtx;
  head.src = src;
  head.tag = tag;
  head.flow = flow;
  return head;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>(
        (i * 131 + static_cast<std::size_t>(seed)) & 0xff);
  }
  return bytes;
}

struct ExpectedPath : ::testing::Test {
  mph::atomic<bool> abort_flag{false};
  std::string abort_reason = "test abort";
  BlockedHook hook;
  Deadline soon = std::chrono::steady_clock::now() + std::chrono::seconds(30);

  /// Run `recv` on a receiver thread and, once it is blocked, `send` here.
  template <class Recv, class Send>
  void posted_first(Recv recv, Send send) {
    const int before = hook.blocks.load(std::memory_order_acquire);
    std::thread receiver(recv);
    while (hook.blocks.load(std::memory_order_acquire) == before) {
      std::this_thread::yield();
    }
    send();
    receiver.join();
  }
};

const std::size_t kSizes[] = {8, 4096, std::size_t{1} << 20};

}  // namespace

TEST_F(ExpectedPath, PostedBlockingRecvAllocatesNothing) {
  Mailbox box(abort_flag, abort_reason, kOwner, nullptr, nullptr, &hook);
  for (const std::size_t n : kSizes) {
    const std::vector<std::byte> msg = pattern(n, static_cast<int>(n));
    std::vector<std::byte> buf(n);
    Status st;
    std::uint64_t allocs = 0;
    // Round 0 grows the posted-receive list and meets the context's first
    // delivery (its counter slot) once; round 1 is measured.
    // The window opens on the receiver thread (after its creation) and
    // spans the sender's deliver, which completes before recv returns.
    for (int round = 0; round < 2; ++round) {
      std::fill(buf.begin(), buf.end(), std::byte{0});
      posted_first(
          [&] {
            AllocWindow window;
            st = box.recv(kCtx, kSender, kTag, buf, soon);
            window.stop();
            allocs = window.allocs();
          },
          [&] { box.deliver(head_from(kSender, kTag), msg); });
    }
    EXPECT_EQ(allocs, 0u) << n << " B";
    EXPECT_EQ(buf, msg) << n << " B";
    EXPECT_EQ(st.bytes, n);
    EXPECT_EQ(st.source, kSender);
    EXPECT_EQ(box.queued(), 0u);
  }
  EXPECT_EQ(box.drain().posted_recvs, 0u);
}

TEST_F(ExpectedPath, PostedIrecvDeliverAndWaitAllocateNothing) {
  Mailbox box(abort_flag, abort_reason, kOwner);
  for (const std::size_t n : kSizes) {
    const std::vector<std::byte> msg = pattern(n, 3);
    std::vector<std::byte> buf(n);
    Status st;
    std::uint64_t allocs = 0;
    // Round 0 meets the context's first delivery (its counter slot) once.
    for (int round = 0; round < 2; ++round) {
      // The ticket itself is the one allocation of an irecv, at post time.
      auto ticket = box.post_recv(kCtx, kSender, kTag, buf);
      AllocWindow window;
      box.deliver(head_from(kSender, kTag), msg);
      st = box.wait(ticket, soon);
      window.stop();
      allocs = window.allocs();
    }
    EXPECT_EQ(allocs, 0u) << n << " B";
    EXPECT_EQ(buf, msg);
    EXPECT_EQ(st.bytes, n);
  }
}

TEST_F(ExpectedPath, UnexpectedMessageAllocatesOnePayload) {
  Mailbox box(abort_flag, abort_reason, kOwner);
  for (const std::size_t n : kSizes) {
    const std::vector<std::byte> msg = pattern(n, 7);
    std::vector<std::byte> buf(n);
    AllocWindow queued(n);
    box.deliver(head_from(kSender, kTag), msg);
    queued.stop();
    // The owned copy, plus at most one block of the queue itself.
    EXPECT_EQ(queued.watched(), 1u) << n << " B";
    EXPECT_LE(queued.allocs(), 2u) << n << " B";
    EXPECT_EQ(box.queued(), 1u);

    AllocWindow taken;
    const Status st = box.recv(kCtx, kSender, kTag, buf, soon);
    taken.stop();
    EXPECT_EQ(taken.allocs(), 0u) << n << " B";
    EXPECT_EQ(buf, msg);
    EXPECT_EQ(st.bytes, n);
  }
}

TEST_F(ExpectedPath, OwnedEnvelopeIsQueuedWithoutACopy) {
  // deliver(Envelope&&) moves the caller's payload into the queue.
  Mailbox box(abort_flag, abort_reason, kOwner);
  Envelope env = head_from(kSender, kTag);
  env.payload = pattern(4096, 1);
  const std::byte* owned = env.payload.data();
  AllocWindow window(4096);
  box.deliver(std::move(env));
  window.stop();
  EXPECT_EQ(window.watched(), 0u);
  auto [st, payload] = box.recv_take(kCtx, kSender, kTag, soon);
  EXPECT_EQ(payload.data(), owned);
  EXPECT_EQ(st.bytes, 4096u);
}

// ---------------------------------------------------------------------------
// Unwinding: the stack ticket leaves posted_ on every exit.
// ---------------------------------------------------------------------------

TEST_F(ExpectedPath, TimedOutRecvLeavesNoPostedTicket) {
  Mailbox box(abort_flag, abort_reason, kOwner);
  int out = 0;
  const Deadline fast =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  try {
    box.recv(kCtx, kSender, kTag,
             std::as_writable_bytes(std::span<int>(&out, 1)), fast);
    FAIL() << "expected a timeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::timeout);
  }
  // A late message is queued, not written into the dead frame.
  const int value = 42;
  box.deliver(head_from(kSender, kTag),
              std::as_bytes(std::span<const int>(&value, 1)));
  EXPECT_EQ(out, 0);
  const MailboxDrain drained = box.drain();
  EXPECT_EQ(drained.posted_recvs, 0u);
  EXPECT_EQ(drained.envelopes, 1u);
}

TEST_F(ExpectedPath, AbortedRecvLeavesNoPostedTicket) {
  Mailbox box(abort_flag, abort_reason, kOwner, nullptr, nullptr, &hook);
  posted_first(
      [&] {
        int out = 0;
        EXPECT_THROW(box.recv(kCtx, kSender, kTag,
                              std::as_writable_bytes(std::span<int>(&out, 1)),
                              Deadline::max()),
                     AbortedError);
      },
      [&] {
        abort_flag.store(true, std::memory_order_release);
        box.wake_all();
      });
  EXPECT_EQ(box.drain().posted_recvs, 0u);
}

TEST_F(ExpectedPath, SenderRacingATimingOutReceiverNeverLosesAMessage) {
  // Under TSan this is the race gate of the stack ticket: the sender either
  // completes the ticket before the deadline or finds it gone and queues.
  Mailbox box(abort_flag, abort_reason, kOwner);
  constexpr int kRounds = 200;
  int received = 0;
  int queued = 0;
  for (int i = 0; i < kRounds; ++i) {
    int out = -1;
    const int value = i;
    std::thread sender([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(i % 7 * 50));
      box.deliver(head_from(kSender, kTag),
                  std::as_bytes(std::span<const int>(&value, 1)));
    });
    const Deadline deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(150);
    try {
      box.recv(kCtx, kSender, kTag,
               std::as_writable_bytes(std::span<int>(&out, 1)), deadline);
      EXPECT_EQ(out, i);
      ++received;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::timeout);
      sender.join();
      EXPECT_EQ(out, -1);  // never written after the receive gave up
      const MailboxDrain drained = box.drain();
      EXPECT_EQ(drained.envelopes, 1u);
      EXPECT_EQ(drained.posted_recvs, 0u);
      ++queued;
      continue;
    }
    sender.join();
    EXPECT_EQ(box.drain().posted_recvs, 0u);
  }
  EXPECT_EQ(received + queued, kRounds);
}

TEST(ExpectedPathJob, TimedOutAndAbortedRecvsKeepTheLeakAuditSilent) {
  JobOptions options;
  options.recv_timeout = std::chrono::milliseconds(50);
  options.check.leaks = true;
  const JobReport timed_out = run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        if (world.rank() != 0) return;
        int never = 0;
        EXPECT_THROW(world.recv(std::span<int>(&never, 1), 1, 9), Error);
      },
      options);
  EXPECT_TRUE(timed_out.ok) << timed_out.first_error();
  ASSERT_TRUE(timed_out.check.has_value());
  EXPECT_TRUE(timed_out.check->clean()) << timed_out.check->to_string();

  options.recv_timeout = std::chrono::seconds(30);
  const JobReport aborted = run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        if (world.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("rank 1 fails while rank 0 waits");
        }
        int never = 0;
        world.recv(std::span<int>(&never, 1), 1, 9);
      },
      options);
  EXPECT_FALSE(aborted.ok);
  ASSERT_TRUE(aborted.check.has_value());
  for (const CheckReport::RankLeak& leak : aborted.check->leaks) {
    EXPECT_EQ(leak.posted_recvs, 0u) << aborted.check->to_string();
    EXPECT_EQ(leak.outstanding_requests, 0u) << aborted.check->to_string();
  }
}

// ---------------------------------------------------------------------------
// Trace shape and fault rules on the direct path.
// ---------------------------------------------------------------------------

TEST_F(ExpectedPath, DirectBlockingRecvTracesOneRecvSpan) {
  TraceOptions trace_options;
  trace_options.enabled = true;
  Tracer tracer(2, trace_options, JobClock::process());
  Mailbox box(abort_flag, abort_reason, kOwner, nullptr, nullptr, &hook,
              &tracer);
  const std::uint64_t flow = tracer.next_flow(kSender);
  int out = 0;
  const int value = 17;
  posted_first(
      [&] {
        box.recv(kCtx, kSender, kTag,
                 std::as_writable_bytes(std::span<int>(&out, 1)), soon);
      },
      [&] {
        box.deliver(head_from(kSender, kTag, flow),
                    std::as_bytes(std::span<const int>(&value, 1)));
      });
  EXPECT_EQ(out, value);
  int recv_spans = 0;
  for (const TraceEvent& e : tracer.ring(kOwner).snapshot().events) {
    const std::string name = e.name;
    EXPECT_NE(name, "post_recv");
    EXPECT_NE(name, "recv_match");
    if (e.op != TraceOp::recv) continue;
    ++recv_spans;
    EXPECT_TRUE(e.span);
    EXPECT_EQ(name, "recv");
    EXPECT_EQ(e.flow, flow);
    EXPECT_EQ(e.peer, kSender);
    EXPECT_EQ(e.bytes, sizeof(int));
  }
  EXPECT_EQ(recv_spans, 1);
}

TEST_F(ExpectedPath, FaultRulesApplyToAReceivePostedFirst) {
  FaultPlan plan;
  plan.truncate(EnvelopeMatch{kCtx, kSender, any_source, kTag}, 3)
      .drop(EnvelopeMatch{kCtx, kSender, any_source, kTag + 1});
  FaultInjector faults(plan);
  Mailbox box(abort_flag, abort_reason, kOwner, &faults, nullptr, &hook);
  const std::vector<std::byte> msg = pattern(16, 9);

  // Truncate, blocking recv posted first: 3 bytes land, the rest is untouched.
  std::vector<std::byte> buf(16, std::byte{0xee});
  Status st;
  posted_first([&] { st = box.recv(kCtx, kSender, kTag, buf, soon); },
               [&] { box.deliver(head_from(kSender, kTag), msg); });
  EXPECT_EQ(st.bytes, 3u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + 3, msg.begin()));
  EXPECT_TRUE(std::all_of(buf.begin() + 3, buf.end(),
                          [](std::byte b) { return b == std::byte{0xee}; }));

  // Drop, irecv posted first: the ticket never completes, nothing queues.
  std::vector<std::byte> lost(16, std::byte{0xee});
  auto ticket = box.post_recv(kCtx, kSender, kTag + 1, lost);
  box.deliver(head_from(kSender, kTag + 1), msg);
  Status ignored;
  EXPECT_FALSE(box.test(ticket, &ignored));
  EXPECT_EQ(box.queued(), 0u);
  EXPECT_EQ(lost, std::vector<std::byte>(16, std::byte{0xee}));
  box.cancel(ticket);
  EXPECT_EQ(faults.events().size(), 2u);
}
