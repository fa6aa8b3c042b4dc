// schedule.hpp — the scheduler hook layer of minimpi.
//
// Every potentially-blocking communication decision point (mailbox match,
// wildcard ANY_SOURCE resolution, probe, nonblocking poll, wait) reports to
// the Job's Scheduler.  The base class here is the *pass-through* scheduler:
// every hook is an inline no-op and the hot paths guard the calls with a
// null-pointer check, so a job without a scheduler pays nothing.
//
// The verify scheduler (src/minimpi/verify/) overrides the hooks to
// serialize wildcard match choices: a rank reaching a wildcard receive is
// *held* in resolve_wildcard() until every other rank is provably unable to
// produce further candidates, at which point the exploration engine picks
// the matched sender explicitly.  See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/minimpi/types.hpp"

namespace minimpi {

class Job;

/// Vector-clock stamp a verifying scheduler attaches to an envelope at send
/// time (component i = sends rank i had issued when this send happened).
/// Null whenever verification is off — an Envelope then costs one unused
/// shared_ptr, nothing more.
using ClockStamp = std::shared_ptr<const std::vector<std::uint64_t>>;

/// Pass-through scheduler and hook vocabulary.  All hooks are called from
/// rank threads; implementations must be thread safe.  Locking contract:
/// hooks marked "under the mailbox mutex" may take the scheduler's own
/// mutex (mailbox -> scheduler is the sanctioned lock order) but a
/// scheduler must never acquire a mailbox mutex while holding its own.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  virtual ~Scheduler() = default;

  /// True for schedulers that serialize match decisions (the verify
  /// scheduler).  Mailboxes consult this once at construction.
  [[nodiscard]] virtual bool verifying() const noexcept { return false; }

  /// Attach the owning job.  Called once by the Job constructor after the
  /// mailboxes exist.
  virtual void bind(Job* job) { (void)job; }

  /// Park any helper threads.  Idempotent; called by the launcher after
  /// every rank exited and again by ~Job.
  virtual void stop() {}

  // --- rank lifecycle (launcher) -------------------------------------------

  virtual void rank_started(rank_t world_rank) { (void)world_rank; }
  /// Also called when a rank unwinds with an exception: a finished rank can
  /// never produce another send, which is what quiescence detection needs.
  virtual void rank_finished(rank_t world_rank) { (void)world_rank; }

  // --- send / delivery ------------------------------------------------------

  /// Sender side, before the destination mailbox is locked.  Returns the
  /// envelope's vector-clock stamp (null when not verifying).
  virtual ClockStamp on_send(rank_t src, rank_t dest, context_t ctx,
                             tag_t tag) {
    (void)src;
    (void)dest;
    (void)ctx;
    (void)tag;
    return nullptr;
  }

  /// Under the destination mailbox's mutex, on every delivery (the
  /// scheduler's delivery-epoch bump; see the quiescence argument in
  /// DESIGN.md §10).
  virtual void note_delivery(rank_t dest) { (void)dest; }

  /// A receive (blocking or posted) matched an envelope.  Called under the
  /// destination mailbox's mutex; `stamp` is the envelope's send clock.
  virtual void on_match(rank_t dest, rank_t src, context_t ctx, tag_t tag,
                        const ClockStamp& stamp) {
    (void)dest;
    (void)src;
    (void)ctx;
    (void)tag;
    (void)stamp;
  }

  // --- blocked / polling state (under the owner's mailbox mutex) -----------

  /// `owner` is blocked waiting for (waits_on, ctx, tag); registered after
  /// the first failed match check.
  virtual void note_blocked(rank_t owner, rank_t waits_on, const char* op,
                            context_t ctx, tag_t tag) {
    (void)owner;
    (void)waits_on;
    (void)op;
    (void)ctx;
    (void)tag;
  }

  /// The blocked owner's wait predicate failed again after a wakeup: it has
  /// examined every delivery so far and still matches nothing.
  virtual void note_still_blocked(rank_t owner) { (void)owner; }

  /// The blocked wait completed or unwound.
  virtual void note_unblocked(rank_t owner) { (void)owner; }

  /// `owner` took a nonblocking miss (iprobe with no match, test on an
  /// incomplete ticket) — it may be spinning rather than blocking.
  virtual void note_polling(rank_t owner) { (void)owner; }

  // --- decision points ------------------------------------------------------

  /// Wildcard fence: hold `owner`'s ANY_SOURCE receive/probe until the
  /// engine picks the sender it must match; returns the chosen world rank.
  /// Called *without* the mailbox mutex held.  The pass-through value
  /// any_source means "match whatever arrives first" (normal semantics).
  virtual rank_t resolve_wildcard(rank_t owner, context_t ctx, tag_t tag,
                                  const char* op) {
    (void)owner;
    (void)ctx;
    (void)tag;
    (void)op;
    return any_source;
  }

  /// Immediate decision for a nonblocking wildcard probe that matched more
  /// than one sender: pick from `candidates` (ascending world ranks).
  /// Called under the owner's mailbox mutex.
  virtual rank_t resolve_immediate(rank_t owner, context_t ctx, tag_t tag,
                                   const std::vector<rank_t>& candidates) {
    (void)owner;
    (void)ctx;
    (void)tag;
    return candidates.front();
  }
};

}  // namespace minimpi
