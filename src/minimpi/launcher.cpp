#include "src/minimpi/launcher.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/minimpi/error.hpp"
#include "src/minimpi/fault.hpp"
#include "src/util/diagnostics.hpp"

namespace minimpi {

namespace {

/// Rank-exit hooks registered by the rank running on this thread.
thread_local std::vector<void (*)()> t_rank_exit_hooks;

/// Run and forget the hooks of the rank that just returned, so the next
/// rank this thread runs starts without the last one's per-rank state.
void run_rank_exit_hooks() noexcept {
  std::vector<void (*)()> hooks;
  hooks.swap(t_rank_exit_hooks);
  for (void (*hook)() : hooks) hook();
}

/// Process-wide pool of parked rank threads.  A launch hands the rank to an
/// idle worker, the one parked last, so back-to-back jobs of at most N
/// ranks keep reusing the same N threads; it creates a worker only when
/// none is idle, so a nested or concurrent job never waits for one.
/// A worker runs `body`, parks itself again, then runs `post`: by the time
/// `post` has told the job's supervisor that the rank is done, the worker
/// can already take the next launch.
class RankPool {
 public:
  /// noexcept: a job that cannot start one rank cannot unwind either, since
  /// its ranks already running refer to the launcher's frame.
  void launch(std::function<void()> body,
              std::function<void()> post) noexcept {
    std::unique_lock<std::mutex> lock(mutex_);
    if (idle_.empty()) {
      lock.unlock();
      std::thread(&RankPool::serve, this, std::move(body), std::move(post))
          .detach();
      return;
    }
    Worker& worker = *idle_.back();
    idle_.pop_back();
    worker.body = std::move(body);
    worker.post = std::move(post);
    lock.unlock();
    worker.wake.notify_one();
  }

 private:
  struct Worker {
    std::condition_variable wake;
    std::function<void()> body;  ///< next rank; set under mutex_
    std::function<void()> post;
  };

  [[noreturn]] void serve(std::function<void()> body,
                          std::function<void()> post) {
    Worker self;  // lives as long as this thread, which never exits
    for (;;) {
      body();
      body = nullptr;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(&self);
      }
      post();
      post = nullptr;
      std::unique_lock<std::mutex> lock(mutex_);
      self.wake.wait(lock, [&] { return static_cast<bool>(self.body); });
      body = std::exchange(self.body, nullptr);
      post = std::exchange(self.post, nullptr);
    }
  }

  std::mutex mutex_;
  std::vector<Worker*> idle_;  ///< parked workers, most recent last
};

/// Never destroyed: parked workers may still wait on it at process exit.
RankPool& rank_pool() {
  static RankPool* const pool = new RankPool;
  return *pool;
}

/// Route one rank's failure: domain members abort only their domain (the
/// failure is *contained*), everyone else takes the whole job down.
/// Returns true when the failure was contained.
bool record_failure(Job& job, const AbortInfo& info) {
  const int domain = job.domain_of(info.world_rank);
  if (domain >= 0) {
    job.abort_domain(domain, info);
    return true;
  }
  job.abort(info);
  return false;
}

}  // namespace

JobReport run_mpmd(const std::vector<ExecSpec>& specs, JobOptions options) {
  if (specs.empty()) {
    throw Error(Errc::invalid_argument, "run_mpmd: empty command file");
  }
  int total = 0;
  for (const ExecSpec& spec : specs) {
    if (spec.nprocs <= 0) {
      throw Error(Errc::invalid_argument,
                  "run_mpmd: executable '" + spec.name +
                      "' requests nprocs=" + std::to_string(spec.nprocs));
    }
    if (!spec.entry) {
      throw Error(Errc::invalid_argument,
                  "run_mpmd: executable '" + spec.name + "' has no entry point");
    }
    total += spec.nprocs;
  }

  auto job = std::make_shared<Job>(total, options);

  JobReport report;
  std::mutex report_mutex;

  // Respawn is a wall-clock event outside any explored schedule space, so
  // it is incompatible with an installed scheduler (mph_verify).
  bool respawn_enabled = options.respawn.enabled;
  if (respawn_enabled && job->scheduler() != nullptr) {
    MPH_DIAG_LOG(info)
        << "run_mpmd: respawn disabled (a scheduler is installed)";
    respawn_enabled = false;
  }

  // Ranks report their exit here; the supervisor (this thread)
  // decides whether an exited failure domain gets respawned.
  struct Completion {
    rank_t world_rank = -1;
  };
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::deque<Completion> completions;

  // Per-world-rank bookkeeping, touched only by the supervisor thread
  // (before the initial spawn and after a rank's completion event).
  std::vector<std::size_t> rank_exec(static_cast<std::size_t>(total), 0);
  std::vector<int> rank_incarnation(static_cast<std::size_t>(total), 0);
  std::vector<char> rank_exited(static_cast<std::size_t>(total), 0);

  // Each rank runs on a pooled thread.  Every RAII object of the rank
  // (its trace anchor, scheduler bracket, communicators, per-rank thread
  // state) ends inside `body`; `post` is the worker's last touch of this
  // frame, so the supervisor may return as soon as it has seen every
  // completion.
  const auto spawn_rank = [&](std::size_t e, rank_t world_rank,
                              int incarnation) {
    const auto body = [&, e, world_rank, incarnation] {
      const ExecSpec& my_spec = specs[e];
      mph::util::set_thread_label("rank " + std::to_string(world_rank) + " (" +
                                  my_spec.name + ")");
      job->set_rank_label(world_rank, my_spec.name);
      ExecEnv env;
      env.exec_index = static_cast<int>(e);
      env.exec_name = my_spec.name;
      env.args = my_spec.args;
      env.world_rank = world_rank;
      env.incarnation = incarnation;
      // The component attributed to this rank: the handshake layer may
      // relabel the rank with its component name (e.g. an ensemble member);
      // until then the executable name stands in.
      const auto component = [&]() -> std::string {
        std::string label = job->rank_label(world_rank);
        return label.empty() ? my_spec.name : label;
      };
      const auto push = [&](std::vector<RankFailure>& into, std::string op,
                            std::string what) {
        const std::lock_guard<std::mutex> lock(report_mutex);
        into.push_back(RankFailure{world_rank, static_cast<int>(e),
                                   component(), std::move(op),
                                   std::move(what)});
      };
      // Scheduler lifecycle brackets, RAII so a throwing entry point still
      // counts as finished — a finished rank can never send again, which
      // is what the verify scheduler's quiescence detection relies on.
      struct SchedScope {
        Scheduler* sched;
        rank_t rank;
        SchedScope(Scheduler* s, rank_t r) : sched(s), rank(r) {
          if (sched != nullptr) sched->rank_started(rank);
        }
        ~SchedScope() {
          if (sched != nullptr) sched->rank_finished(rank);
        }
      } sched_scope{job->scheduler(), world_rank};
      // Per-rank launch→exit anchor on the shared job clock: mph_prof uses
      // the rank_main span as the source/sink of the happens-before DAG.
      // RAII so a failing rank still closes its anchor.
      const TraceSpan main_span(job->tracer(), world_rank, TraceOp::phase,
                                "rank_main", kPhaseRankMain);
      try {
        const Comm world = Comm::world(job, world_rank);
        world.fault_point(KillPoint::entry);
        my_spec.entry(world, env);
        world.fault_point(KillPoint::finish);
      } catch (const AbortedError& ex) {
        // Collateral: some other rank failed first.  When the whole job
        // aborted this is ordinary unwinding; when only this rank's
        // failure domain aborted it is contained collateral.
        job->mark_rank_failed(world_rank);
        push(job->aborted() ? report.failures : report.contained,
             std::string{}, ex.what());
      } catch (const FaultInjectedError& ex) {
        job->mark_rank_failed(world_rank);
        AbortInfo info{world_rank, component(), kill_point_name(ex.point()),
                       ex.what()};
        const bool contained = record_failure(*job, info);
        push(contained ? report.contained : report.failures,
             kill_point_name(ex.point()), ex.what());
      } catch (const DeadlockError& ex) {
        // mpicheck upgraded a blocked receive into a cycle report; keep
        // it distinct from generic user-code failures.
        job->mark_rank_failed(world_rank);
        AbortInfo info{world_rank, component(), "deadlock", ex.what()};
        const bool contained = record_failure(*job, info);
        push(contained ? report.contained : report.failures, "deadlock",
             ex.what());
      } catch (const std::exception& ex) {
        MPH_DIAG_LOG(error) << "rank " << world_rank
                            << " failed: " << ex.what();
        job->mark_rank_failed(world_rank);
        AbortInfo info{world_rank, component(), "user code", ex.what()};
        const bool contained = record_failure(*job, info);
        push(contained ? report.contained : report.failures, "user code",
             ex.what());
      }
      run_rank_exit_hooks();
    };
    const auto post = [&, world_rank] {
      const std::lock_guard<std::mutex> lock(done_mutex);
      completions.push_back(Completion{world_rank});
      done_cv.notify_one();
    };
    rank_pool().launch(body, post);
  };

  rank_t base = 0;
  for (std::size_t e = 0; e < specs.size(); ++e) {
    for (int p = 0; p < specs[e].nprocs; ++p) {
      const rank_t world_rank = base + p;
      rank_exec[static_cast<std::size_t>(world_rank)] = e;
      spawn_rank(e, world_rank, 0);
    }
    base += specs[e].nprocs;
  }

  // Supervision loop: wait until every live rank has exited.  When
  // respawn is enabled and ALL ranks of an aborted failure domain have
  // exited, heal the domain (after the configured backoff) and relaunch its
  // ranks at the next incarnation, up to the per-domain budget.
  std::map<int, int> respawns_used;
  int remaining = total;
  while (remaining > 0) {
    Completion done;
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&] { return !completions.empty(); });
      done = completions.front();
      completions.pop_front();
    }
    --remaining;
    rank_exited[static_cast<std::size_t>(done.world_rank)] = 1;
    if (!respawn_enabled) continue;

    const int domain = job->domain_of(done.world_rank);
    if (domain < 0 || !job->domain_aborted(domain)) continue;
    std::vector<rank_t> members = job->domain_ranks(domain);
    // Domain membership is recorded in rank-arrival order; sort so the
    // respawn event (and the incarnation bookkeeping keyed off the first
    // member) is deterministic.
    std::sort(members.begin(), members.end());
    const bool all_exited =
        std::all_of(members.begin(), members.end(), [&](rank_t r) {
          return rank_exited[static_cast<std::size_t>(r)] != 0;
        });
    if (!all_exited) continue;
    int& used = respawns_used[domain];
    if (used >= options.respawn.max_respawns) continue;
    ++used;

    // Exponential backoff per domain: first respawn waits `backoff`, each
    // further respawn of the same domain multiplies by `backoff_factor`.
    auto backoff = options.respawn.backoff;
    for (int i = 1; i < used; ++i) {
      backoff = std::chrono::milliseconds(static_cast<long long>(
          static_cast<double>(backoff.count()) *
          options.respawn.backoff_factor));
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);

    const std::optional<AbortInfo> cause = job->domain_abort_info(domain);
    const std::string label = job->domain_label(domain);
    job->heal_domain(domain);

    RespawnEvent event;
    event.domain_id = domain;
    event.label = label;
    event.ranks = members;
    event.cause = cause.has_value() ? cause->to_string() : std::string{};
    event.backoff = backoff;
    event.incarnation =
        rank_incarnation[static_cast<std::size_t>(members.front())] + 1;
    MPH_DIAG_LOG(info) << "respawning failure domain '" << label << "' ("
                       << members.size() << " ranks, incarnation "
                       << event.incarnation << ")";
    {
      const std::lock_guard<std::mutex> lock(report_mutex);
      report.recovery.respawns.push_back(event);
    }
    for (const rank_t r : members) {
      const auto slot = static_cast<std::size_t>(r);
      rank_exited[slot] = 0;
      const int incarnation = ++rank_incarnation[slot];
      ++remaining;
      spawn_rank(rank_exec[slot], r, incarnation);
    }
  }

  // Every rank finished: park the scheduler's monitor before reporting (the
  // job object may outlive this call inside a verify run's engine loop).
  if (Scheduler* sched = job->scheduler()) sched->stop();

  report.ok = report.failures.empty() && !job->aborted();
  report.stats = job->stats();
  // Drain the trace rings while the mailboxes still hold their counters
  // (drain_all below clears queues, not counters, but keep the order
  // obvious): every rank has posted its exit, so the rings are quiescent.
  if (job->tracer() != nullptr) report.trace = job->trace_report();
  // Stop the monitor thread before taking the report snapshot: with every
  // rank exited and the publisher parked, this final read is exact (the
  // live snapshots tolerate torn reads; JobReport::metrics must not).
  if (job->metrics() != nullptr) {
    job->stop_monitor();
    report.metrics = job->metrics_snapshot();
    if (watch::Watcher* watcher = job->watcher()) {
      // One last judgement on the exact snapshot, then the full event log.
      watcher->observe(*report.metrics);
      report.health = watcher->events();
    }
  }
  if (job->aborted()) report.abort_reason = job->abort_reason();
  report.abort = job->abort_info();
  const JobDrain leaked = job->drain_all();
  report.leaked_envelopes = leaked.envelopes;
  report.leaked_posted_recvs = leaked.posted_recvs;
  if (Checker* checker = job->checker()) {
    checker->stop();  // quiesce the watcher before snapshotting
    report.check = checker->report();
    if (!report.check->clean()) {
      MPH_DIAG_LOG(info) << "mpicheck " << report.check->to_string();
    }
  }
  // Put the root-cause failure first: collateral entries (empty operation,
  // "... aborted: ..." text) are other ranks unwinding.
  const auto is_root_cause = [](const RankFailure& f) {
    return !f.operation.empty();
  };
  std::stable_partition(report.failures.begin(), report.failures.end(),
                        is_root_cause);
  std::stable_partition(report.contained.begin(), report.contained.end(),
                        is_root_cause);
  return report;
}

void at_rank_exit(void (*hook)()) {
  if (std::find(t_rank_exit_hooks.begin(), t_rank_exit_hooks.end(), hook) ==
      t_rank_exit_hooks.end()) {
    t_rank_exit_hooks.push_back(hook);
  }
}

JobReport run_spmd(
    int nprocs, std::function<void(const Comm& world, const ExecEnv& env)> entry,
    JobOptions options) {
  return run_mpmd({ExecSpec{"spmd", nprocs, std::move(entry), {}}}, options);
}

}  // namespace minimpi
