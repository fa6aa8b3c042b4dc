#include "src/minimpi/mailbox.hpp"

#include <algorithm>
#include <cstring>

#include "src/minimpi/fault.hpp"

namespace minimpi {

namespace {

std::string pattern_string(context_t ctx, rank_t source, tag_t tag) {
  std::string out = "(context=" + std::to_string(ctx) + ", source=";
  out += source == any_source ? "*" : std::to_string(source);
  out += ", tag=";
  out += tag == any_tag ? "*" : std::to_string(tag);
  out += ")";
  return out;
}

}  // namespace

void Mailbox::set_domain(const mph::atomic<bool>* flag,
                         const std::string* reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  domain_flag_ = flag;
  domain_reason_ = reason;
}

void Mailbox::check_abort_locked() const {
  // Acquire pairs with Job::abort's release store: observing the flag
  // guarantees the write-once abort_reason_ is visible (the implicit
  // seq_cst load this replaces was stronger than the protocol needs on
  // this hot path; mph_racer litmus mailbox_abort_flag).
  if (abort_flag_.load(std::memory_order_acquire)) {
    throw AbortedError(abort_reason_);
  }
  if (domain_flag_ != nullptr &&
      domain_flag_->load(std::memory_order_acquire)) {
    throw AbortedError(*domain_reason_);
  }
}

template <class Pred>
void Mailbox::wait_locked(std::unique_lock<std::mutex>& lock, Deadline deadline,
                          Pred pred, const char* operation, context_t ctx,
                          rank_t source, tag_t tag) {
  // While blocked, this rank's wait-for edge lives in the checker's graph
  // and its blocked state in the scheduler.  Both are registered after the
  // first failed predicate check and refreshed after every later one — all
  // under `mutex_`, the same mutex deliver() bumps the epochs under, so
  // "seen == epoch" proves the waiter examined every delivery and matched
  // nothing.
  struct BlockedScope {
    const Mailbox& box;
    rank_t waits_on;
    const char* op;
    context_t ctx;
    tag_t tag;
    const char* label = "";
    std::uint64_t t0 = 0;
    bool registered = false;
    void blocked() {
      const rank_t owner = box.owner_rank_;
      if (registered) {
        if (box.checker_ != nullptr) box.checker_->refresh(owner);
        if (box.sched_ != nullptr) box.sched_->note_still_blocked(owner);
        return;
      }
      if (box.checker_ != nullptr) {
        box.checker_->block(owner, waits_on, op, ctx, tag);
      }
      if (box.sched_ != nullptr) {
        box.sched_->note_blocked(owner, waits_on, op, ctx, tag);
      }
      // Blocked spans take the enclosing collective's label when one is
      // active ("barrier", "bcast", ...), the raw operation otherwise —
      // that label drives the recv-wait vs collective-wait breakdown.
      const char* scoped = ScopedCheckOp::current();
      label = scoped != nullptr ? scoped : op;
      t0 = box.stamp();
      if (box.metrics_ != nullptr) box.metrics_->note_block_start(owner, t0);
      registered = true;
    }
    ~BlockedScope() {
      if (!registered) return;
      const rank_t owner = box.owner_rank_;
      if (box.checker_ != nullptr) box.checker_->unblock(owner);
      if (box.sched_ != nullptr) box.sched_->note_unblocked(owner);
      if (box.tracer_ != nullptr) {
        box.tracer_->span_end(owner, TraceOp::blocked, label, t0, waits_on,
                              ctx, tag);
      }
      if (box.metrics_ != nullptr) box.metrics_->note_block_end(owner, t0);
    }
  } scope{*this, source, operation, ctx, tag};

  while (!pred()) {
    check_abort_locked();
    scope.blocked();
    if (deadline == Deadline::max()) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      check_abort_locked();
      if (pred()) return;
      scope.blocked();
      // Upgrade: when this rank sits on a confirmed wait-for cycle, report
      // the whole cycle instead of a bare timeout.
      if (checker_ != nullptr) {
        if (auto cycle = checker_->deadlock_cycle(owner_rank_)) {
          throw DeadlockError(*cycle);
        }
      }
      throw Error(Errc::timeout,
                  std::string("blocking ") + operation +
                      " exceeded the job receive timeout waiting for " +
                      pattern_string(ctx, source, tag) + "; " +
                      std::to_string(queue_.size()) +
                      " unmatched envelope(s) queued (likely deadlock: a "
                      "matching send was never issued)");
    }
  }
  check_abort_locked();
}

std::deque<Envelope>::iterator Mailbox::find_locked(context_t ctx,
                                                    rank_t source, tag_t tag) {
  return std::find_if(queue_.begin(), queue_.end(), [&](const Envelope& e) {
    return matches(ctx, source, tag, e);
  });
}

std::deque<Envelope>::iterator Mailbox::wait_match_locked(
    std::unique_lock<std::mutex>& lock, Deadline deadline,
    const char* operation, context_t ctx, rank_t source, tag_t tag) {
  auto it = queue_.end();
  wait_locked(
      lock, deadline,
      [&] {
        it = find_locked(ctx, source, tag);
        return it != queue_.end();
      },
      operation, ctx, source, tag);
  return it;
}

void Mailbox::complete_match_locked(Envelope& env,
                                    std::span<const std::byte> payload,
                                    RecvTicket& rx,
                                    std::vector<std::byte>* take) {
  const std::size_t bytes = payload.size();
  if (tracer_ != nullptr && !rx.blocking) {
    // A posted receive's match on the receiver's timeline (deliver records
    // it from the sender's thread — the rings are multi-producer).
    tracer_->instant(owner_rank_, TraceOp::recv, "recv_match", env.src,
                     env.context, env.tag, bytes, env.flow);
  }
  if (sched_ != nullptr) {
    sched_->on_match(owner_rank_, env.src, env.context, env.tag, env.vc);
  }
  const std::size_t room = take != nullptr ? bytes : rx.buffer.size();
  if (checker_ != nullptr) {
    if (auto mismatch =
            checker_->type_mismatch(env.sig, bytes, rx.expected, room, env.src,
                                    owner_rank_, env.context, env.tag)) {
      rx.error = std::make_exception_ptr(TypeMismatchError(*mismatch));
    }
  }
  if (!rx.error && bytes > room) {
    rx.error = std::make_exception_ptr(Error(
        Errc::truncation, "receive buffer of " + std::to_string(room) +
                              " bytes matched a message of " +
                              std::to_string(bytes) + " bytes"));
  }
  if (!rx.error) {
    if (take != nullptr) {
      *take = std::move(env.payload);
    } else if (bytes != 0) {
      std::memcpy(rx.buffer.data(), payload.data(), bytes);
    }
    rx.status = Status{env.src, env.tag, bytes};
  }
  rx.flow = env.flow;
  rx.done = true;
}

void Mailbox::take_queued_locked(std::deque<Envelope>::iterator it,
                                 RecvTicket& rx,
                                 std::vector<std::byte>* take) {
  complete_match_locked(*it, it->payload, rx, take);
  queue_.erase(it);
}

void Mailbox::account_consumed_locked(RecvTicket& ticket) const {
  if (ticket.accounted) return;
  ticket.accounted = true;
  if (checker_ != nullptr) checker_->note_request_consumed(owner_rank_);
}

rank_t Mailbox::fence_wildcard(context_t ctx, rank_t source, tag_t tag,
                               const char* operation) {
  if (source != any_source) return source;
  wildcard_recvs_.fetch_add(1, std::memory_order_relaxed);
  if (!verify_) return source;
  // Hold the rank at the scheduler (no mailbox mutex held: the monitor
  // thread inspects this mailbox to enumerate candidates) until the
  // exploration engine picks the sender this wildcard must match.  The
  // subsequent exact-source match is deterministic: MPI non-overtaking
  // plus single-threaded senders fix the envelope a (src, tag) pattern
  // matches.
  return sched_->resolve_wildcard(owner_rank_, ctx, tag, operation);
}

void Mailbox::deliver(Envelope env, std::span<const std::byte> payload) {
  // `payload` is borrowed unless it is env.payload (the owned overload).
  const auto own = [&] {
    if (payload.data() != env.payload.data()) {
      env.payload.assign(payload.begin(), payload.end());
    }
    payload = env.payload;
  };
  // Sends are counted before the fault filter: an injected drop is still a
  // send the application issued, and the sender/delivered gap is exactly the
  // in-flight + dropped message count the monitor surfaces.
  if (metrics_ != nullptr) metrics_->on_send(env.src, payload.size());
  if (faults_ != nullptr) {
    own();  // the filter edits env.payload (truncate rules)
    if (faults_->filter(env, owner_rank_) == FaultInjector::Filter::drop) {
      return;  // injected message loss
    }
    payload = env.payload;
  }
  // Vector-clock stamp for the send event (null unless verifying); taken
  // in the sender's thread before the destination mailbox is locked.
  if (sched_ != nullptr) {
    env.vc = sched_->on_send(env.src, owner_rank_, env.context, env.tag);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // The delivered count is the checker's epoch.  It advances under the
    // same mutex the owner's wait predicate runs under: a blocked waiter
    // whose seen-epoch equals the current count has provably examined this
    // (and every earlier) delivery.  note_send invalidates any iprobe-spin
    // edge the *sender* held — it is visibly making progress.
    count_delivery_locked(env.context, payload.size());
    if (checker_ != nullptr) checker_->note_send(env.src);
    if (sched_ != nullptr) sched_->note_delivery(owner_rank_);
    // Complete the earliest-posted live matching receive: the one copy.
    auto it = std::find_if(posted_.begin(), posted_.end(), [&](const auto& t) {
      return !t->abandoned && matches(t->context, t->source, t->tag, env);
    });
    if (it != posted_.end()) {
      complete_match_locked(env, payload, **it);
      posted_.erase(it);
    } else {
      own();  // unexpected: the queued envelope must own its bytes
      queue_.push_back(std::move(env));
      queue_high_water_ = std::max(queue_high_water_, queue_.size());
    }
  }
  // Ticket completion is observed through the same cv.
  cv_.notify_all();
}

Status Mailbox::recv(context_t ctx, rank_t source, tag_t tag,
                     std::span<std::byte> buffer, Deadline deadline,
                     TypeSig expected) {
  const std::uint64_t t0 = stamp();
  source = fence_wildcard(ctx, source, tag, "recv");
  RecvTicket rx;
  rx.context = ctx;
  rx.source = source;
  rx.tag = tag;
  rx.buffer = buffer;
  rx.expected = expected;
  rx.blocking = true;
  std::unique_lock<std::mutex> lock(mutex_);
  if (const auto it = find_locked(ctx, source, tag); it != queue_.end()) {
    take_queued_locked(it, rx);
  } else {
    // Post the ticket itself through a non-owning pointer (no allocation,
    // no leak-audit request): deliver() fills `buffer` directly.  It must
    // leave posted_ before this frame does.
    posted_.emplace_back(std::shared_ptr<void>{}, &rx);
    try {
      wait_locked(
          lock, deadline, [&] { return rx.done; }, "recv", ctx, source, tag);
    } catch (...) {
      std::erase_if(posted_, [&](const auto& t) { return t.get() == &rx; });
      throw;
    }
  }
  return finish_recv_locked(rx, "recv", ctx, t0);
}

std::pair<Status, std::vector<std::byte>> Mailbox::recv_take(
    context_t ctx, rank_t source, tag_t tag, Deadline deadline,
    TypeSig expected) {
  const std::uint64_t t0 = stamp();
  source = fence_wildcard(ctx, source, tag, "recv");
  RecvTicket rx;
  rx.expected = expected;
  rx.blocking = true;
  std::vector<std::byte> payload;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = wait_match_locked(lock, deadline, "recv", ctx, source, tag);
  take_queued_locked(it, rx, &payload);
  return {finish_recv_locked(rx, "recv", ctx, t0), std::move(payload)};
}

Status Mailbox::finish_recv_locked(const RecvTicket& done, const char* name,
                                   context_t ctx, std::uint64_t t0) {
  if (done.error) std::rethrow_exception(done.error);
  if (tracer_ != nullptr) {
    tracer_->span_end(owner_rank_, TraceOp::recv, name, t0,
                      done.status.source, ctx, done.status.tag,
                      done.status.bytes, done.flow);
  }
  if (metrics_ != nullptr) {
    metrics_->on_match(owner_rank_, metrics_->now_ns() - t0);
  }
  return done.status;
}

std::shared_ptr<RecvTicket> Mailbox::post_recv(context_t ctx, rank_t source,
                                               tag_t tag,
                                               std::span<std::byte> buffer,
                                               TypeSig expected) {
  if (verify_ && source == any_source) {
    // A posted wildcard receive would be matched by arrival order inside
    // deliver(), outside the scheduler's decision points.  Exploration
    // would silently miss schedules; refuse instead (documented limit).
    throw Error(Errc::invalid_argument,
                "schedule verification does not support nonblocking wildcard "
                "receives (irecv with source=ANY_SOURCE); use a blocking "
                "recv or an exact source");
  }
  source = fence_wildcard(ctx, source, tag, "irecv");  // counts a wildcard
  if (tracer_ != nullptr) {
    tracer_->instant(owner_rank_, TraceOp::post_recv, "post_recv", source, ctx,
                     tag, buffer.size());
  }
  auto ticket = std::make_shared<RecvTicket>();
  ticket->context = ctx;
  ticket->source = source;
  ticket->tag = tag;
  ticket->buffer = buffer;
  ticket->expected = expected;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (checker_ != nullptr) checker_->note_request_posted(owner_rank_);
    if (const auto it = find_locked(ctx, source, tag); it != queue_.end()) {
      take_queued_locked(it, *ticket);
    } else {
      posted_.push_back(ticket);
    }
  }
  return ticket;
}

Status Mailbox::wait(const std::shared_ptr<RecvTicket>& ticket,
                     Deadline deadline) {
  const std::uint64_t t0 = stamp();
  std::unique_lock<std::mutex> lock(mutex_);
  wait_locked(
      lock, deadline, [&] { return ticket->done; }, "wait",
      ticket->context, ticket->source, ticket->tag);
  account_consumed_locked(*ticket);
  return finish_recv_locked(*ticket, "wait", ticket->context, t0);
}

bool Mailbox::test(const std::shared_ptr<RecvTicket>& ticket, Status* out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Like iprobe: a test-spin loop must observe a job abort (e.g. the
  // deadlock checker reporting the very cycle this spin is part of), or
  // the spinning rank outlives the abort and the job never joins.
  check_abort_locked();
  if (!ticket->done) {
    // A test miss is a poll: register a *soft* wait-for edge (a spinning
    // wait_any loop deadlocks exactly like a blocking wait would) and tell
    // the scheduler the rank may be spinning rather than blocking.
    if (checker_ != nullptr) {
      checker_->iprobe_miss(owner_rank_, ticket->source, "test",
                            ticket->context, ticket->tag);
    }
    if (sched_ != nullptr) sched_->note_polling(owner_rank_);
    return false;
  }
  if (checker_ != nullptr) checker_->iprobe_hit(owner_rank_);
  account_consumed_locked(*ticket);
  if (ticket->error) std::rethrow_exception(ticket->error);
  if (out != nullptr) *out = ticket->status;
  return true;
}

void Mailbox::cancel(const std::shared_ptr<RecvTicket>& ticket) {
  const std::lock_guard<std::mutex> lock(mutex_);
  account_consumed_locked(*ticket);
  std::erase(posted_, ticket);
}

void Mailbox::abandon(const std::shared_ptr<RecvTicket>& ticket) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ticket->abandoned = true;
}

Status Mailbox::probe(context_t ctx, rank_t source, tag_t tag,
                      Deadline deadline) {
  source = fence_wildcard(ctx, source, tag, "probe");
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = wait_match_locked(lock, deadline, "probe", ctx, source, tag);
  return Status{it->src, it->tag, it->payload.size()};
}

std::optional<Status> Mailbox::iprobe(context_t ctx, rank_t source, tag_t tag) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_abort_locked();
  if (verify_ && source == any_source) {
    // Nonblocking wildcard probe: cannot fence (iprobe must not block), but
    // the *choice among currently-queued senders* is still a decision the
    // engine must control and record.  A miss stays a miss.
    std::vector<rank_t> srcs;
    for (const WildcardCandidate& c : candidates_locked(ctx, tag)) {
      srcs.push_back(c.src);
    }
    if (srcs.size() == 1) source = srcs.front();
    if (srcs.size() > 1) {
      source = sched_->resolve_immediate(owner_rank_, ctx, tag, srcs);
    }
  }
  auto it = find_locked(ctx, source, tag);
  if (it == queue_.end()) {
    // Register a soft wait-for edge: an iprobe spin loop whose peer is
    // blocked waiting on *us* is a deadlock, and should be reported as a
    // cycle instead of timing out (or hanging).
    if (checker_ != nullptr) {
      checker_->iprobe_miss(owner_rank_, source, "iprobe", ctx, tag);
    }
    if (sched_ != nullptr) sched_->note_polling(owner_rank_);
    return std::nullopt;
  }
  if (checker_ != nullptr) checker_->iprobe_hit(owner_rank_);
  if (source == any_source) {
    // Counted on the hit only: a polling loop of misses is one logical
    // wildcard receive, not thousands.
    wildcard_recvs_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status{it->src, it->tag, it->payload.size()};
}

std::vector<Mailbox::WildcardCandidate> Mailbox::wildcard_candidates(
    context_t ctx, tag_t tag) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return candidates_locked(ctx, tag);
}

std::vector<Mailbox::WildcardCandidate> Mailbox::candidates_locked(
    context_t ctx, tag_t tag) const {
  std::vector<WildcardCandidate> out;
  for (const Envelope& e : queue_) {
    if (!matches(ctx, any_source, tag, e)) continue;
    const bool seen =
        std::any_of(out.begin(), out.end(),
                    [&](const WildcardCandidate& c) { return c.src == e.src; });
    if (!seen) out.push_back(WildcardCandidate{e.src, e.tag, e.vc});
  }
  std::sort(out.begin(), out.end(),
            [](const WildcardCandidate& a, const WildcardCandidate& b) {
              return a.src < b.src;
            });
  return out;
}

void Mailbox::wake_all() {
  // Lock/unlock pairs with waiters' predicate checks so none miss the abort.
  { const std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

std::size_t Mailbox::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Mailbox::count_delivery_locked(context_t ctx, std::size_t bytes) {
  // Only deliver() writes, under mutex_: a load plus a store loses no count
  // and needs no locked read-modify-write.
  delivered_.store(delivered_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  delivered_bytes_ += bytes;
  for (auto& [context, count] : by_context_) {
    if (context == ctx) {
      ++count;
      return;
    }
  }
  by_context_.emplace_back(ctx, 1);
}

MailboxCounts Mailbox::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return MailboxCounts{delivered_.load(std::memory_order_relaxed),
                       delivered_bytes_, by_context_, queue_.size(),
                       queue_high_water_};
}

MailboxDrain Mailbox::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  MailboxDrain report;
  report.envelopes = queue_.size();
  report.posted_recvs = posted_.size();
  queue_.clear();
  posted_.clear();
  return report;
}

}  // namespace minimpi
