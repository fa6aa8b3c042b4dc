// The traced run.  Every rung times one module's public entry points from
// outside, on the workload's own inputs where the workload has them:
//
//   floor       bare mutex+condvar ping-pong, warm 1 MiB memcpy
//   launcher    run_mpmd with empty rank bodies
//   registry    Registry::parse
//   handshake   phase spans of traced jobs + exact JobReport::stats counts
//   collectives allgather / allreduce / bcast / split at 4 ranks
//   p2p ladder  L0 Mailbox::deliver/recv, L1 Comm::send/recv,
//               L2 Mph::send/recv by name — interleaved on one thread pair
//   climate     Atmosphere::step, Ocean::step, Regrid2D::apply
//   ccsm        exact messages/bytes per interval, the serial reference's
//               interval time, per-component receive wait (TraceReport)
//               and critical-path share (mph_prof)
//   overhead    the workload's headline metric traced vs untraced, A/B
#include "ladder.hpp"

#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "src/coupler/regrid.hpp"
#include "src/minimpi/collectives.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using minimpi::Comm;
using minimpi::JobOptions;

double us_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

JobOptions traced(std::size_t ring_capacity = 8192) {
  JobOptions o;
  o.trace.enabled = true;
  o.trace.ring_capacity = ring_capacity;
  return o;
}

void check(Tally& t, bool ok, std::uint64_t ops = 1) {
  t.attempted += ops;
  if (!ok) t.failed += ops;
}

// ---- floors ----------------------------------------------------------------

double condvar_rtt_us(int rounds) {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // guarded by mu: 1 = the echo thread's move
  std::thread echo([&] {
    for (int i = 0; i < rounds; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_all();
    }
  });
  Samples s;
  s.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_lock<std::mutex> lock(mu);
    turn = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return turn == 0; });
    lock.unlock();
    s.add(us_since(t0));
  }
  echo.join();
  return s.median();
}

double memcpy_1mib_us(int reps, Tally& t) {
  std::vector<unsigned char> src(kLargeBytes);
  std::vector<unsigned char> dst(kLargeBytes);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<unsigned char>(i * 31);
  }
  Samples s;
  for (int i = 0; i < reps + 4; ++i) {
    src[0] = static_cast<unsigned char>(i);
    const Clock::time_point t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), src.size());
    const double us = us_since(t0);
    if (i >= 4) s.add(us);  // the first copies warm the caches
    check(t, dst[0] == src[0] && dst.back() == src.back());
  }
  return s.median();
}

// ---- launcher, registry, handshake -----------------------------------------

double launch_us(int ranks, int reps, Tally& t) {
  std::vector<minimpi::ExecSpec> specs;
  for (int r = 0; r < ranks; ++r) {
    specs.push_back(minimpi::ExecSpec{
        "exe" + std::to_string(r), 1,
        [](const Comm&, const minimpi::ExecEnv&) {}, {}});
  }
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const minimpi::JobReport report = minimpi::run_mpmd(specs);
    s.add(us_since(t0));
    check(t, report.ok);
  }
  return s.median();
}

double parse_us(const std::vector<Layout>& layouts, int samples, Tally& t) {
  Samples s;
  for (int i = 0; i < samples; ++i) {
    const Layout& l = layouts[static_cast<std::size_t>(i) % layouts.size()];
    const Clock::time_point t0 = Clock::now();
    const mph::Registry registry = mph::Registry::parse(l.registry);
    s.add(us_since(t0));
    check(t, registry.blocks().size() == l.execs.size());
  }
  return s.median();
}

/// Longest span of phase `id` on any rank of a traced job, microseconds.
double phase_us(const minimpi::TraceReport& trace, minimpi::tag_t id) {
  double longest = 0.0;
  for (const minimpi::RankTrace& rank : trace.ranks) {
    for (const minimpi::TraceEvent& e : rank.events) {
      if (e.op == minimpi::TraceOp::phase && e.tag == id) {
        longest = std::max(
            longest, static_cast<double>(e.t_end_ns - e.t_start_ns) / 1e3);
      }
    }
  }
  return longest;
}

void handshake_rung(const std::vector<Layout>& layouts, int traced_jobs,
                    Metrics& m, Tally& t) {
  Samples sig, layout_us, comm;
  for (int i = 0; i < traced_jobs; ++i) {
    const Layout& l = layouts[static_cast<std::size_t>(i) % layouts.size()];
    const LayoutJob job = run_layout_job(l, traced());
    check(t, job.correct && job.report.trace.has_value());
    if (!job.report.trace) continue;
    sig.add(phase_us(*job.report.trace, minimpi::kPhaseSignatures));
    layout_us.add(phase_us(*job.report.trace, minimpi::kPhaseLayout));
    comm.add(phase_us(*job.report.trace, minimpi::kPhaseCommSetup));
  }
  m.add("handshake.signature_allgather_us", sig.median(), "us");
  m.add("handshake.layout_resolve_us", layout_us.median(), "us");
  m.add("handshake.comm_setup_us", comm.median(), "us");

  // Exact counts: mean per handshake over the workload's layouts.
  double messages = 0, bytes = 0, contexts = 0;
  for (const Layout& l : layouts) {
    const LayoutJob job = run_layout_job(l, {});
    check(t, job.correct);
    messages += static_cast<double>(job.report.stats.messages);
    bytes += static_cast<double>(job.report.stats.payload_bytes);
    contexts += static_cast<double>(job.report.stats.contexts_allocated);
  }
  const auto n = static_cast<double>(layouts.size());
  m.add("handshake.messages", messages / n, "count");
  m.add("handshake.bytes", bytes / n, "B");
  m.add("handshake.contexts", contexts / n, "count");
}

// ---- collectives -------------------------------------------------------------

void collectives_rung(int reps, Metrics& m, Tally& t) {
  constexpr int kRanks = 4;
  Samples allgather, allreduce, bcast, split;
  std::mutex mu;
  Tally job_tally;  // guarded by mu
  const minimpi::JobReport report = minimpi::run_spmd(
      kRanks, [&](const Comm& world, const minimpi::ExecEnv&) {
        const int me = world.rank();
        Tally mine;
        Samples ag, ar, bc, sp;
        std::vector<double> contribution(8, static_cast<double>(me));
        std::vector<std::byte> payload(kBurstBytes);
        for (int i = 0; i < reps; ++i) {
          Clock::time_point t0 = Clock::now();
          const std::vector<double> all = minimpi::allgather(
              world, std::span<const double>(contribution));
          ag.add(us_since(t0));
          check(mine, all.size() == 8 * kRanks && all.back() == kRanks - 1);

          t0 = Clock::now();
          const std::vector<double> sum = minimpi::allreduce(
              world, std::span<const double>(contribution), minimpi::op::Sum{});
          ar.add(us_since(t0));
          check(mine, sum.front() == 6.0);  // 0 + 1 + 2 + 3

          // Rotating root, so no rank can run ahead of the others.
          const int root = i % kRanks;
          const auto stamp = static_cast<std::byte>(i + root);
          payload.assign(payload.size(),
                         me == root ? stamp : std::byte{0});
          t0 = Clock::now();
          minimpi::bcast(world, std::span<std::byte>(payload), root);
          bc.add(us_since(t0));
          check(mine, payload.front() == stamp && payload.back() == stamp);

          t0 = Clock::now();
          const Comm half = world.split(me % 2, me);
          sp.add(us_since(t0));
          check(mine, half.size() == kRanks / 2);
        }
        const std::lock_guard<std::mutex> lock(mu);
        job_tally.add(mine);
        allgather.append(ag);
        allreduce.append(ar);
        bcast.append(bc);
        split.append(sp);
      });
  check(t, report.ok);
  t.add(job_tally);
  m.add("collectives.allgather_us", allgather.median(), "us");
  m.add("collectives.allreduce_us", allreduce.median(), "us");
  m.add("collectives.bcast_us", bcast.median(), "us");
  m.add("collectives.split_us", split.median(), "us");
}

// ---- the p2p ladder ----------------------------------------------------------

/// One rung of the ladder: how a message leaves one rank and arrives at the
/// other.  Both threads call it with the same payload size.
enum class Rung { mailbox, comm, mph };

constexpr minimpi::tag_t kLadderTag = 40;
constexpr minimpi::tag_t kTokenTag = 41;

struct Pair {
  std::shared_ptr<minimpi::Job> job;
  mph::Mph* handle[2] = {nullptr, nullptr};
};

void send_on(Rung rung, const Pair& p, int me, std::span<const std::byte> data,
             minimpi::tag_t tag) {
  const int peer = 1 - me;
  switch (rung) {
    case Rung::mailbox: {
      minimpi::Envelope env;
      env.src = me;
      env.tag = tag;
      env.payload.assign(data.begin(), data.end());
      p.job->mailbox(peer).deliver(std::move(env));
      break;
    }
    case Rung::comm: p.handle[me]->world().send(data, peer, tag); break;
    case Rung::mph:
      p.handle[me]->send(data, me == 0 ? "pong" : "ping", 0, tag);
      break;
  }
}

void recv_on(Rung rung, const Pair& p, int me, std::span<std::byte> data,
             minimpi::tag_t tag) {
  const int peer = 1 - me;
  switch (rung) {
    case Rung::mailbox:
      p.job->mailbox(me).recv(minimpi::kWorldContext, peer, tag, data,
                              p.job->deadline());
      break;
    case Rung::comm: p.handle[me]->world().recv(data, peer, tag); break;
    case Rung::mph:
      p.handle[me]->recv(data, me == 0 ? "pong" : "ping", 0, tag);
      break;
  }
}

struct LadderResult {
  Samples rtt[3][2];  ///< [rung][small, large], microseconds
  Throughput burst;   ///< mailbox burst
  std::uint64_t allocs = 0;
  std::uint64_t counted_msgs = 0;
  Tally tally;
};

/// One fresh thread pair of one fresh job, like one p2p_named job: every
/// rung at 8 B, then every rung at 1 MiB, then an L0 burst.  `first` rotates
/// which rung goes first, so every rung meets the same conditions.
void ladder_pair(const P2pInputs& in, int first, LadderResult& out) {
  const Layout layout = p2p_layout();
  Pair pair;
  pair.job = std::make_shared<minimpi::Job>(2);
  std::barrier sync(2);
  constexpr int kSmallBlock = 500;
  constexpr int kLargeBlock = 8;
  std::uint64_t bad = 0;  // written by rank 0 only

  // `timed` false: one untimed round trip, so no rung pays the first-touch
  // cost of a fresh thread's heap.
  const auto block = [&](int me, Rung rung, bool large, bool timed) {
    const std::vector<std::byte>& payload = large ? in.large : in.small;
    const int n = timed ? (large ? kLargeBlock : kSmallBlock) : 1;
    std::vector<std::byte> buf(payload.size());
    Samples& s = out.rtt[static_cast<int>(rung)][large ? 1 : 0];
    if (me == 0) s.reserve(s.size() + static_cast<std::size_t>(n));
    const bool count = timed && rung == Rung::mph;
    const std::uint64_t before = alloc_count();
    sync.arrive_and_wait();  // both ranks' buffers exist before counting
    if (count && me == 0) set_alloc_counting(true);
    sync.arrive_and_wait();
    for (int i = 0; i < n; ++i) {
      if (me == 0) {
        const Clock::time_point t0 = Clock::now();
        send_on(rung, pair, 0, payload, kLadderTag);
        recv_on(rung, pair, 0, buf, kLadderTag);
        if (timed) s.add(us_since(t0));
        if (buf != payload) ++bad;
      } else {
        recv_on(rung, pair, 1, buf, kLadderTag);
        send_on(rung, pair, 1, buf, kLadderTag);
      }
    }
    sync.arrive_and_wait();
    if (count && me == 0) {
      set_alloc_counting(false);
      out.allocs += alloc_count() - before;
      out.counted_msgs += 2 * static_cast<std::uint64_t>(n);
    }
    if (me == 0) {
      out.tally.attempted += static_cast<std::uint64_t>(n);
    }
  };

  const auto burst = [&](int me) {
    std::vector<std::vector<std::byte>> slots(
        kBurstWindow, std::vector<std::byte>(kBurstBytes));
    std::byte token[1] = {};
    sync.arrive_and_wait();
    if (me == 0) {
      const Clock::time_point t0 = Clock::now();
      for (const auto& msg : in.burst) {
        send_on(Rung::mailbox, pair, 0, msg, kLadderTag);
      }
      send_on(Rung::mailbox, pair, 0, token, kTokenTag);
      recv_on(Rung::mailbox, pair, 0, token, kTokenTag);
      out.burst.add(kBurstWindow, seconds_between(t0, Clock::now()));
    } else {
      recv_on(Rung::mailbox, pair, 1, token, kTokenTag);
      for (auto& slot : slots) recv_on(Rung::mailbox, pair, 1, slot, kLadderTag);
      send_on(Rung::mailbox, pair, 1, token, kTokenTag);
    }
    sync.arrive_and_wait();
    if (me == 1) {
      out.tally.attempted += kBurstWindow;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i] != in.burst[i]) ++out.tally.failed;
      }
    }
  };

  std::exception_ptr failure[2];
  const auto rank = [&](int me) {
    try {
      mph::Mph h = mph::Mph::components_setup(
          Comm::world(pair.job, me),
          mph::RegistrySource::from_text(layout.registry),
          layout.execs[static_cast<std::size_t>(me)].names);
      pair.handle[me] = &h;
      block(me, Rung::mph, false, false);
      block(me, Rung::mph, true, false);
      for (const bool large : {false, true}) {
        for (int k = 0; k < 3; ++k) {
          block(me, static_cast<Rung>((first + k) % 3), large, true);
        }
      }
      burst(me);
    } catch (...) {
      failure[me] = std::current_exception();
      pair.job->abort("p2p ladder rank failed");
      sync.arrive_and_drop();  // release the other rank's barrier waits
    }
  };
  std::thread other(rank, 1);
  rank(0);
  other.join();
  for (const auto& f : failure) {
    if (f) std::rethrow_exception(f);
  }
  out.tally.failed += bad;
}

void ladder_rung(const P2pInputs& in, Metrics& m, Tally& t) {
  LadderResult r;
  for (int pair = 0; pair < 24; ++pair) ladder_pair(in, pair % 3, r);
  t.add(r.tally);
  const auto rtt = [&](Rung rung, bool large) {
    return r.rtt[static_cast<int>(rung)][large ? 1 : 0].median();
  };
  m.add("mailbox.rtt_small_us", rtt(Rung::mailbox, false), "us");
  m.add("mailbox.rtt_large_us", rtt(Rung::mailbox, true), "us");
  m.add("mailbox.burst_msgs_per_s", r.burst.per_second(), "1/s");
  m.add("comm.rtt_small_us", rtt(Rung::comm, false), "us");
  m.add("comm.rtt_large_us", rtt(Rung::comm, true), "us");
  m.add("mph.rtt_small_us", rtt(Rung::mph, false), "us");
  m.add("mph.rtt_large_us", rtt(Rung::mph, true), "us");
  m.add("mph.naming_ratio_small",
        rtt(Rung::mph, false) / rtt(Rung::comm, false), "ratio");
  m.add("mph.naming_ratio_large",
        rtt(Rung::mph, true) / rtt(Rung::comm, true), "ratio");
  m.add("p2p.allocs_per_msg",
        static_cast<double>(r.allocs) / static_cast<double>(r.counted_msgs),
        "count");
}

// ---- climate and coupler -----------------------------------------------------

void climate_rung(const mph::climate::ClimateConfig& cfg, int reps, Metrics& m,
                  Tally& t) {
  Samples atm, ocn;
  bool finite = false;
  const minimpi::JobReport report = minimpi::run_spmd(
      1, [&](const Comm& world, const minimpi::ExecEnv&) {
        mph::climate::Atmosphere a(cfg, world);
        mph::climate::Ocean o(cfg, world);
        for (int i = 0; i < reps; ++i) {
          Clock::time_point t0 = Clock::now();
          a.step();
          atm.add(us_since(t0));
          t0 = Clock::now();
          o.step();
          ocn.add(us_since(t0));
        }
        finite = std::isfinite(a.global_mean()) && std::isfinite(o.global_mean());
      });
  check(t, report.ok && finite, 2 * static_cast<std::uint64_t>(reps));
  m.add("climate.atm_step_us", atm.median(), "us");
  m.add("climate.ocn_step_us", ocn.median(), "us");

  const auto regrid = [&](std::int64_t nx0, std::int64_t ny0, std::int64_t nx1,
                          std::int64_t ny1) {
    const mph::coupler::Regrid2D map(nx0, ny0, nx1, ny1);
    // A constant field must come out constant: the check on every apply.
    const std::vector<double> src(static_cast<std::size_t>(map.src_size()), 3.5);
    std::vector<double> dst(static_cast<std::size_t>(map.dst_size()));
    Samples s;
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point t0 = Clock::now();
      map.apply(src, dst);
      s.add(us_since(t0));
      check(t, std::abs(dst.front() - 3.5) < 1e-9 &&
                   std::abs(dst.back() - 3.5) < 1e-9);
    }
    return s.median();
  };
  m.add("coupler.regrid_atm_to_ocn_us",
        regrid(cfg.atm_nlon, cfg.atm_nlat, cfg.ocn_nlon, cfg.ocn_nlat), "us");
  m.add("coupler.regrid_ocn_to_atm_us",
        regrid(cfg.ocn_nlon, cfg.ocn_nlat, cfg.atm_nlon, cfg.atm_nlat), "us");
}

// ---- the coupled model: counts and traced waits --------------------------------

void ccsm_rung(std::uint64_t seed, int traced_jobs, Metrics& m, Tally& t) {
  // Exact per-interval traffic: the difference of two runs whose only
  // difference is the interval count cancels the handshake and teardown.
  const CcsmInputs one = make_ccsm_inputs(seed, 4);
  const CcsmInputs two = make_ccsm_inputs(seed, 8);
  const CcsmJob a = run_ccsm_job(one, {});
  const CcsmJob b = run_ccsm_job(two, {});
  check(t, a.correct, 4);
  check(t, b.correct, 8);
  const auto per_interval = [](std::uint64_t x, std::uint64_t y) {
    return (static_cast<double>(y) - static_cast<double>(x)) / 4.0;
  };
  m.add("ccsm.messages_per_interval",
        per_interval(a.job.report.stats.messages, b.job.report.stats.messages),
        "count");
  m.add("ccsm.bytes_per_interval",
        per_interval(a.job.report.stats.payload_bytes,
                     b.job.report.stats.payload_bytes),
        "B");

  // The plain single-threaded baseline: the same physics and exchange
  // schedule composed by direct calls in one rank (run_serial_reference).
  Samples serial_ms;
  for (int i = 0; i < 5; ++i) {
    const minimpi::JobReport report = minimpi::run_spmd(
        1, [&](const Comm& world, const minimpi::ExecEnv&) {
          const Clock::time_point t0 = Clock::now();
          const mph::climate::CouplerDiagnostics d =
              mph::climate::run_serial_reference(world, two.cfg);
          serial_ms.add(seconds_between(t0, Clock::now()) * 1e3 /
                        two.cfg.intervals);
          check(t, d.mean_sst == two.reference.mean_sst);
        });
    check(t, report.ok);
  }
  m.add("ccsm.serial_interval_ms", serial_ms.median(), "ms");

  std::map<std::string, Samples> wait_ms, share;
  for (int i = 0; i < traced_jobs; ++i) {
    const CcsmJob job = run_ccsm_job(two, traced(1 << 16));
    check(t, job.correct, 8);
    if (!job.job.report.trace) continue;
    const minimpi::TraceReport& trace = *job.job.report.trace;
    for (const auto& rank : trace.blocked_breakdown()) {
      wait_ms[minimpi::TraceReport::component_of(rank.track)].add(
          static_cast<double>(rank.recv_wait_ns) / 1e6 / two.cfg.intervals);
    }
    const minimpi::prof::Profile profile =
        minimpi::prof::Graph::build(trace).profile();
    std::map<std::string, double> job_share;
    for (const auto& blame : profile.components()) {
      job_share[blame.component] = blame.share;
    }
    for (const char* c : {"atmosphere", "ocean", "land", "ice", "coupler"}) {
      share[c].add(job_share[c]);
    }
  }
  for (const char* c : {"atmosphere", "ocean", "land", "ice", "coupler"}) {
    m.add(std::string("ccsm.") + c + ".recv_wait_ms", wait_ms[c].median(), "ms");
    m.add(std::string("ccsm.") + c + ".critical_share", share[c].median(),
          "frac");
  }
}

// ---- tracing overhead ----------------------------------------------------------

/// The workload's headline end-to-end value, traced (B) against untraced
/// (A), alternating which runs first, until `until`.
double overhead_ratio(const LayerRun& run, const CcsmInputs& ccsm,
                      P2pInputs& p2p, const std::vector<Layout>& layouts,
                      Clock::time_point until, Tally& t) {
  Samples plain, with_trace;
  const auto one = [&](bool trace, std::size_t i) {
    const JobOptions options = trace ? traced() : JobOptions{};
    if (run.workload == "ccsm_coupled") {
      const CcsmJob job = run_ccsm_job(ccsm, options);
      check(t, job.correct, static_cast<std::uint64_t>(ccsm.cfg.intervals));
      return job.interval_ms;
    }
    if (run.workload == "p2p_named") {
      P2pResult r;
      run_p2p_job(p2p, options, r);
      t.add(r.tally);
      return r.rtt_small_us.median();
    }
    const LayoutJob job = run_layout_job(layouts[i % layouts.size()], options);
    check(t, job.correct);
    return job.setup_s;
  };
  std::size_t i = 0;
  do {
    const bool traced_first = i % 2 == 1;
    const double first = one(traced_first, i);
    const double second = one(!traced_first, i);
    plain.add(traced_first ? second : first);
    with_trace.add(traced_first ? first : second);
    ++i;
  } while (Clock::now() < until || i < 4);
  return with_trace.median() / plain.median();
}

}  // namespace

void run_layers(const LayerRun& run, Metrics& m, Tally& t) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(run.seconds));
  const ScopedSpan root("perfbench.layers");
  const bool ccsm_w = run.workload == "ccsm_coupled";
  const bool p2p_w = run.workload == "p2p_named";
  const bool churn_w = run.workload == "handshake_churn";
  const CcsmInputs ccsm = make_ccsm_inputs(run.seed);
  P2pInputs p2p = make_p2p_inputs(run.seed);
  const std::vector<Layout> layouts =
      ccsm_w  ? std::vector<Layout>{ccsm_layout()}
      : p2p_w ? std::vector<Layout>{p2p_layout()}
              : churn_layouts(run.seed, 64);

  {
    const ScopedSpan s("ladder.floor", root.id());
    m.add("floor.condvar_rtt_us", condvar_rtt_us(20000), "us");
    m.add("floor.memcpy_1mib_us", memcpy_1mib_us(200, t), "us");
  }
  {
    const ScopedSpan s("ladder.launcher", root.id());
    m.add("launcher.launch_us", launch_us(layouts.front().ranks(), 300, t),
          "us");
  }
  {
    const ScopedSpan s("ladder.registry", root.id());
    m.add("registry.parse_us", parse_us(layouts, 2000, t), "us");
  }
  {
    const ScopedSpan s("ladder.handshake", root.id());
    handshake_rung(layouts, churn_w ? 128 : 64, m, t);
  }
  {
    const ScopedSpan s("ladder.collectives", root.id());
    collectives_rung(500, m, t);
  }
  {
    const ScopedSpan s("ladder.p2p", root.id());
    ladder_rung(p2p, m, t);
  }
  {
    const ScopedSpan s("ladder.climate", root.id());
    climate_rung(ccsm.cfg, 100, m, t);
  }
  {
    const ScopedSpan s("ladder.ccsm", root.id());
    ccsm_rung(run.seed, 8, m, t);
  }
  {
    // One span for the whole A/B loop: spans inside it would put the
    // benchmark's own recording cost on both sides of the ratio.
    const ScopedSpan s("ladder.trace_overhead", root.id());
    spans().set_enabled(false);
    m.add("trace.overhead_ratio",
          overhead_ratio(run, ccsm, p2p, layouts, until, t), "ratio");
    spans().set_enabled(true);
  }
}

}  // namespace perfbench
