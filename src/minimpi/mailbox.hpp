// mailbox.hpp — per-rank message store with MPI matching semantics.
//
// Every rank of a job owns one Mailbox.  Senders call deliver() on the
// destination's mailbox; the owning rank posts receives (a blocking recv()
// posts one and waits for it) that a later deliver() completes in the
// sender's thread, copying the sender's bytes straight into the posted
// buffer.  Only an *unexpected* message, one no receive is posted for yet,
// is copied into an owned Envelope and queued.  Matching follows MPI: a
// receive (source, tag) matches an envelope when context ids are equal and
// each of source/tag either equals the envelope's or is a wildcard;
// envelopes from the same (source, tag) are matched in arrival order (the
// MPI non-overtaking rule).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/minimpi/check.hpp"
#include "src/minimpi/error.hpp"
#include "src/minimpi/metrics.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/schedule.hpp"
#include "src/minimpi/trace.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

class FaultInjector;

/// A message in flight: routing key plus owned payload bytes.
/// `src` is always the *global* (world) rank of the sender; communicators
/// translate to local ranks at the API boundary.
struct Envelope {
  context_t context = kWorldContext;
  rank_t src = any_source;
  tag_t tag = any_tag;
  std::vector<std::byte> payload;
  /// Element-type signature of a typed send (empty for raw/control traffic);
  /// verified against the receive side when type checking is on.
  TypeSig sig{};
  /// Sender's vector clock at send time (null unless a verifying scheduler
  /// is active); drives the wildcard-race classification.
  ClockStamp vc;
  /// Trace flow id stamped at the send site (0 when tracing is off): the
  /// matching receive event records the same id, which is what lets
  /// mph_prof stitch cross-rank happens-before edges.
  std::uint64_t flow = 0;
};

/// A posted (nonblocking) receive and its completion state.  Shared between
/// the poster (who waits) and the delivering sender (who completes it).
/// All fields are protected by the owning Mailbox's mutex.
struct RecvTicket {
  bool done = false;
  Status status;                    ///< valid once done (source is global)
  std::exception_ptr error;         ///< set instead of status on failure
  // Posted pattern, matched by deliver() and named in timeout diagnostics.
  context_t context = kWorldContext;
  rank_t source = any_source;
  tag_t tag = any_tag;
  std::span<std::byte> buffer;  ///< caller-owned; valid until done/abandoned
  TypeSig expected{};           ///< receive-side type signature (empty = raw)
  /// Leak audit: flips when the request is waited/tested-done/cancelled, so
  /// each request is counted consumed at most once.
  bool accounted = false;
  /// Flow id of the envelope that completed this receive (0 until matched
  /// or when tracing is off) — recorded on the wait span.
  std::uint64_t flow = 0;
  /// Set when the request handle died unconsumed: its buffer may be gone,
  /// so deliver() passes this receive over (drain still reports it).
  bool abandoned = false;
  /// A blocking receive's own ticket: its `recv` span records the match,
  /// so no `recv_match` instant is emitted for it.
  bool blocking = false;
};

/// Deadline for blocking operations; Mailbox treats time_point::max() as
/// "wait forever".
using Deadline = std::chrono::steady_clock::time_point;

/// What Mailbox::drain found (and discarded) at teardown.
struct MailboxDrain {
  std::size_t envelopes = 0;       ///< queued, never-received messages
  std::size_t posted_recvs = 0;    ///< posted receives that never matched
};

/// Snapshot of one mailbox's delivery facts.  The mailbox is their only
/// owner: it counts where envelopes land, under the deliver-side lock and
/// after the fault filter (so drops never count).  Job::stats() sums them;
/// Job::metrics_snapshot() reports them per rank.
struct MailboxCounts {
  std::uint64_t messages = 0;  ///< envelopes delivered
  std::uint64_t bytes = 0;     ///< payload bytes delivered
  /// Envelopes per communicator context (few per rank: a linear scan).
  std::vector<std::pair<context_t, std::uint64_t>> by_context;
  std::size_t queue_depth = 0;       ///< unmatched backlog right now
  std::size_t queue_high_water = 0;  ///< max unmatched backlog ever seen
};

class Mailbox {
 public:
  /// `abort_flag` / `abort_reason` belong to the owning Job; every blocking
  /// wait observes them so a failed rank unblocks the whole job.
  /// `owner_rank` is the world rank this mailbox belongs to and `faults`
  /// the job's injector (null when fault injection is off); both serve the
  /// deliver-side envelope hooks.  `checker` is the job's mpicheck registry
  /// (null when no checker is enabled): blocked waits register wait-for
  /// edges there and matched envelopes get their type signatures verified.
  /// `sched` is the job's scheduler (null = pass-through): decision points
  /// yield to it, and when it is *verifying* wildcard matches are resolved
  /// through explicit scheduler decisions instead of arrival order.
  /// `tracer` is the job's event tracer (null = tracing off): match points
  /// and blocked intervals record onto the owner rank's ring.  `metrics`
  /// is the job's mph_mon registry (null = monitoring off): send counts,
  /// match latency and blocked time land there.
  Mailbox(const mph::atomic<bool>& abort_flag, const std::string& abort_reason,
          rank_t owner_rank = 0, FaultInjector* faults = nullptr,
          Checker* checker = nullptr, Scheduler* sched = nullptr,
          Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr)
      : abort_flag_(abort_flag),
        abort_reason_(abort_reason),
        owner_rank_(owner_rank),
        faults_(faults),
        checker_(checker),
        sched_(sched),
        tracer_(tracer),
        metrics_(metrics),
        verify_(sched != nullptr && sched->verifying()) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Attach a failure-domain abort flag/reason (ensemble member isolation):
  /// blocking waits then also unwind when just this rank's domain aborts.
  void set_domain(const mph::atomic<bool>* flag, const std::string* reason);

  /// Sender-side entry point: copy the borrowed `payload` straight into a
  /// matching posted receive, or into `head.payload` and queue `head`.
  /// Consults the fault injector first (drop/delay/truncate rules).
  void deliver(Envelope head, std::span<const std::byte> payload);

  /// The same with an owned payload, moved into the queue if unexpected.
  void deliver(Envelope&& env) {
    const std::span<const std::byte> bytes = env.payload;
    deliver(std::move(env), bytes);  // the move keeps the buffer: owned
  }

  /// Blocking receive into a caller-owned buffer: a queued match, or a
  /// ticket posted on its own stack that deliver() fills.  Throws
  /// Errc::truncation if the matched payload exceeds `buffer.size()`.
  /// `expected` is the receive's type signature for the checker (empty = raw).
  Status recv(context_t ctx, rank_t source, tag_t tag,
              std::span<std::byte> buffer, Deadline deadline,
              TypeSig expected = {});

  /// Blocking receive that takes ownership of the payload (used when the
  /// receiver does not know the size in advance).
  std::pair<Status, std::vector<std::byte>> recv_take(context_t ctx,
                                                      rank_t source, tag_t tag,
                                                      Deadline deadline,
                                                      TypeSig expected = {});

  /// Post an asynchronous receive.  The buffer must stay valid until the
  /// ticket completes.  May complete immediately if a message is queued.
  std::shared_ptr<RecvTicket> post_recv(context_t ctx, rank_t source,
                                        tag_t tag, std::span<std::byte> buffer,
                                        TypeSig expected = {});

  /// Block until `ticket` completes; rethrows any delivery error.
  Status wait(const std::shared_ptr<RecvTicket>& ticket, Deadline deadline);

  /// Nonblocking completion check; fills `out` when done.
  bool test(const std::shared_ptr<RecvTicket>& ticket, Status* out);

  /// Cancel a not-yet-matched posted receive (used on error unwind).
  void cancel(const std::shared_ptr<RecvTicket>& ticket);

  /// Mark a posted receive whose handle died unconsumed: deliver() never
  /// writes its buffer again, but it stays posted for the leak audit.
  void abandon(const std::shared_ptr<RecvTicket>& ticket);

  /// Blocking probe: wait for a matching message without consuming it.
  Status probe(context_t ctx, rank_t source, tag_t tag, Deadline deadline);

  /// Nonblocking probe.
  std::optional<Status> iprobe(context_t ctx, rank_t source, tag_t tag);

  /// Wake every waiter (called by Job::abort from any thread).
  void wake_all();

  /// Number of queued (unmatched) envelopes — for tests/diagnostics.
  [[nodiscard]] std::size_t queued() const;

  /// Wildcard (ANY_SOURCE) receive operations this rank issued.
  [[nodiscard]] std::uint64_t wildcard_recvs() const noexcept {
    return wildcard_recvs_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the delivery counters (one lock).
  [[nodiscard]] MailboxCounts counts() const;

  /// Envelopes delivered so far, read without the lock: the deadlock
  /// checker's delivery epoch of this rank (see check.hpp).
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.load(std::memory_order_acquire);
  }

  /// One matchable sender for a held wildcard receive: the first queued
  /// envelope from `src` matching the pattern (MPI non-overtaking makes it
  /// the only one that receive could match from that sender).
  struct WildcardCandidate {
    rank_t src = any_source;
    tag_t tag = any_tag;
    ClockStamp vc;  ///< the candidate send's vector clock (may be null)
  };

  /// Candidates of the wildcard pattern (ctx, ANY_SOURCE, tag): the first
  /// matching queued envelope of every distinct sender, ascending by sender
  /// rank.  Called by the verify scheduler's monitor thread while the owner
  /// rank is held at the wildcard fence.
  [[nodiscard]] std::vector<WildcardCandidate> wildcard_candidates(
      context_t ctx, tag_t tag) const;

  /// Discard every queued envelope and posted receive, reporting what
  /// leaked — the finalize()/teardown accounting pass.
  MailboxDrain drain();

 private:
  /// True when the (ctx,source,tag) pattern matches envelope `e`.
  static bool matches(context_t ctx, rank_t source, tag_t tag,
                      const Envelope& e) noexcept {
    return e.context == ctx && (source == any_source || source == e.src) &&
           (tag == any_tag || tag == e.tag);
  }

  /// Throws if the job (or this rank's failure domain) has aborted.
  /// Caller must hold `mutex_`.
  void check_abort_locked() const;

  /// One stamp from the job clock for a receive's trace span and match
  /// latency alike (0 when neither layer is on).
  [[nodiscard]] std::uint64_t stamp() const noexcept {
    if (tracer_ != nullptr) return tracer_->now_ns();
    return metrics_ != nullptr ? metrics_->now_ns() : 0;
  }

  /// Waits on the condition variable until `pred` or deadline/abort.
  /// Caller must hold `lock`.  Throws on timeout or abort; the timeout
  /// error names the unmatched (context, source, tag) pattern and the
  /// queued-envelope count so deadlocks identify the missing message.
  template <class Pred>
  void wait_locked(std::unique_lock<std::mutex>& lock, Deadline deadline,
                   Pred pred, const char* operation, context_t ctx,
                   rank_t source, tag_t tag);

  /// Find the first queued envelope matching the pattern. Caller holds lock.
  [[nodiscard]] std::deque<Envelope>::iterator find_locked(context_t ctx,
                                                           rank_t source,
                                                           tag_t tag);

  /// wildcard_candidates() body. Caller holds `mutex_`.
  [[nodiscard]] std::vector<WildcardCandidate> candidates_locked(
      context_t ctx, tag_t tag) const;

  /// wait_locked until a queued envelope matches; returns it.
  [[nodiscard]] std::deque<Envelope>::iterator wait_match_locked(
      std::unique_lock<std::mutex>& lock, Deadline deadline,
      const char* operation, context_t ctx, rank_t source, tag_t tag);

  /// The one match path of every receive: scheduler on_match, type and
  /// truncation checks against `rx`, then copy `payload` (env's bytes,
  /// owned or borrowed) into `rx.buffer` — or move the owned payload into
  /// `*take` — and complete `rx`.  A failed check stores its error in
  /// `rx`; `env` is consumed either way, as in MPI.  Caller holds `mutex_`.
  void complete_match_locked(Envelope& env,
                             std::span<const std::byte> payload,
                             RecvTicket& rx,
                             std::vector<std::byte>* take = nullptr);

  /// complete_match_locked from queued envelope `it`, then erase it.
  void take_queued_locked(std::deque<Envelope>::iterator it, RecvTicket& rx,
                          std::vector<std::byte>* take = nullptr);

  /// Epilogue of recv, recv_take and wait: rethrow a match error, else
  /// record the span (started at `t0`) and the match latency.
  Status finish_recv_locked(const RecvTicket& done, const char* name,
                            context_t ctx, std::uint64_t t0);

  /// Consume `ticket` for the leak audit exactly once. Caller holds `mutex_`.
  void account_consumed_locked(RecvTicket& ticket) const;

  /// For an ANY_SOURCE pattern: count the wildcard receive and, in verify
  /// mode, hold the owner at the scheduler until it picks the exact source
  /// to match.  Any other `source` is returned unchanged.
  [[nodiscard]] rank_t fence_wildcard(context_t ctx, rank_t source, tag_t tag,
                                      const char* operation);

  /// Count one delivered envelope. Caller holds mutex_.
  void count_delivery_locked(context_t ctx, std::size_t bytes);

  const mph::atomic<bool>& abort_flag_;
  const std::string& abort_reason_;
  rank_t owner_rank_;
  FaultInjector* faults_;
  Checker* checker_;
  Scheduler* sched_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  bool verify_;  ///< sched_ != null and it serializes match decisions

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;          ///< unmatched arrivals, in order
  std::vector<std::shared_ptr<RecvTicket>> posted_;  ///< in posting order
  // Delivery facts (see MailboxCounts), written under mutex_ only.
  mph::atomic<std::uint64_t> delivered_{0};  ///< lock-free readable
  std::uint64_t delivered_bytes_ = 0;
  std::vector<std::pair<context_t, std::uint64_t>> by_context_;
  std::size_t queue_high_water_ = 0;
  mph::atomic<std::uint64_t> wildcard_recvs_{0};

  // Failure-domain abort channel (null until set_domain).
  const mph::atomic<bool>* domain_flag_ = nullptr;
  const std::string* domain_reason_ = nullptr;
};

}  // namespace minimpi
