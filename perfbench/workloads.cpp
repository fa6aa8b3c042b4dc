#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/minimpi/collectives.hpp"

namespace perfbench {

namespace {

using mph::climate::ClimateConfig;
using mph::climate::CouplerDiagnostics;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const CouplerDiagnostics& a, const CouplerDiagnostics& b) {
  return same_bits(a.mean_t_atm, b.mean_t_atm) &&
         same_bits(a.mean_sst, b.mean_sst) &&
         same_bits(a.mean_evap, b.mean_evap) &&
         same_bits(a.mean_icefrac, b.mean_icefrac);
}

/// Registry line(s) plus expected directory entries of one executable.
struct BlockText {
  std::string text;
  std::string expected;
};

/// Fingerprint entry for one component (same format as
/// directory_fingerprint).
std::string entry(const std::string& name, int low, int high) {
  return name + ":" + std::to_string(low) + "-" + std::to_string(high) + ";";
}

/// Layout of single-rank executables, one component each, registry in
/// launch order.
Layout single_rank_layout(const std::vector<std::string>& names) {
  Layout layout;
  layout.registry = "BEGIN\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    layout.registry += names[i] + "\n";
    layout.execs.push_back(ExecDecl{{names[i]}, 1});
    layout.expected +=
        entry(names[i], static_cast<int>(i), static_cast<int>(i));
  }
  layout.registry += "END\n";
  return layout;
}

/// Random composition of `total` into `parts` positive sizes.
std::vector<int> composition(mph::util::Rng& rng, int total, int parts) {
  std::vector<int> cuts;
  for (int c = 1; c < total; ++c) cuts.push_back(c);
  for (std::size_t i = cuts.size(); i > 1; --i) {
    std::swap(cuts[i - 1], cuts[rng.below(i)]);
  }
  cuts.resize(static_cast<std::size_t>(parts - 1));
  std::sort(cuts.begin(), cuts.end());
  std::vector<int> sizes;
  int prev = 0;
  for (const int c : cuts) {
    sizes.push_back(c - prev);
    prev = c;
  }
  sizes.push_back(total - prev);
  return sizes;
}

/// A Multi_Component block over `size` ranks starting at world rank `base`.
/// Components are disjoint (a contiguous split) when there are no more of
/// them than ranks and the coin says so; otherwise each gets a random range
/// and the first spans the whole executable, so they overlap.
BlockText multi_block(mph::util::Rng& rng, int size, int base,
                      std::vector<std::string>& names, int& next_name) {
  const int k = static_cast<int>(rng.range(1, 10));
  std::vector<std::pair<int, int>> ranges;
  if (k <= size && rng.below(2) == 0) {
    int low = 0;
    for (const int s : composition(rng, size, k)) {
      ranges.emplace_back(low, low + s - 1);
      low += s;
    }
  } else {
    for (int c = 0; c < k; ++c) {
      const int low = c == 0 ? 0 : static_cast<int>(rng.range(0, size - 1));
      const int high =
          c == 0 ? size - 1 : static_cast<int>(rng.range(low, size - 1));
      ranges.emplace_back(low, high);
    }
  }
  BlockText block;
  block.text = "Multi_Component_Begin\n";
  for (const auto& [low, high] : ranges) {
    const std::string name = "comp" + std::to_string(next_name++);
    names.push_back(name);
    block.text += name + " " + std::to_string(low) + " " +
                  std::to_string(high) + "\n";
    block.expected += entry(name, base + low, base + high);
  }
  block.text += "Multi_Component_End\n";
  return block;
}

Layout churn_layout(mph::util::Rng& rng, int index) {
  constexpr int kRanks = 4;
  enum Kind { scme_fast, scme_general, mcse, mcme };
  const auto kind = static_cast<Kind>(index % 4);
  std::vector<int> sizes;
  switch (kind) {
    case scme_fast:
    case scme_general:
      sizes = composition(rng, kRanks, static_cast<int>(rng.range(2, 4)));
      break;
    case mcse: sizes = {kRanks}; break;
    case mcme:
      sizes = composition(rng, kRanks, static_cast<int>(rng.range(2, 3)));
      break;
  }
  Layout layout;
  layout.options.single_split_fast_path = kind != scme_general;
  std::vector<BlockText> blocks;
  int base = 0;
  int next_name = 0;
  for (std::size_t e = 0; e < sizes.size(); ++e) {
    const int size = sizes[e];
    ExecDecl decl;
    decl.nprocs = size;
    const bool single = kind == scme_fast || kind == scme_general ||
                        (kind == mcme && e > 0 && rng.below(2) == 0);
    if (single) {
      const std::string name = "comp" + std::to_string(next_name++);
      decl.names.push_back(name);
      blocks.push_back(BlockText{name + "\n", entry(name, base, base + size - 1)});
    } else {
      blocks.push_back(multi_block(rng, size, base, decl.names, next_name));
    }
    layout.execs.push_back(std::move(decl));
    base += size;
  }
  // Registry block order is independent of launch order: the handshake
  // matches executables to blocks by name, and component ids follow the
  // registry.
  for (std::size_t i = blocks.size(); i > 1; --i) {
    std::swap(blocks[i - 1], blocks[rng.below(i)]);
  }
  layout.registry = "BEGIN\n";
  for (const BlockText& b : blocks) {
    layout.registry += b.text;
    layout.expected += b.expected;
  }
  layout.registry += "END\n";
  return layout;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream;
}

void fill_bytes(mph::util::Rng& rng, std::vector<std::byte>& bytes) {
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.below(256));
}

/// A buffer at a seeded cache-line offset within one page of slack.  Every
/// p2p job places its buffers afresh, so over a run the copies into and out
/// of the runtime meet every relative alignment, not just the one the heap
/// happened to produce.  With fixed buffers, relinking the binary after an
/// unrelated edit moved the burst rate by 30%.
class Shifted {
 public:
  Shifted(std::size_t bytes, mph::util::Rng& rng)
      : storage_(bytes + kPage), offset_(64 * rng.below(kPage / 64)),
        bytes_(bytes) {}
  Shifted(std::span<const std::byte> init, mph::util::Rng& rng)
      : Shifted(init.size(), rng) {
    std::copy(init.begin(), init.end(), span().begin());
  }
  [[nodiscard]] std::span<std::byte> span() {
    return {storage_.data() + offset_, bytes_};
  }
  /// Read-only view: what a send takes (a mutable span would be sent as a
  /// single span object by the one-value overload).
  [[nodiscard]] std::span<const std::byte> cspan() const {
    return {storage_.data() + offset_, bytes_};
  }
  /// Write `payload` stamped with `k` (see stamp_ends).
  void fill(const std::vector<std::byte>& payload, std::uint64_t k) {
    std::copy(payload.begin(), payload.end(), span().begin());
    stamp_ends(k, payload);
  }
  /// Stamp the first and last 8 bytes with the payload's bytes XOR `k`
  /// (payloads of 8 bytes, where the two coincide, or of 16 and more).
  /// Each iteration sends a new `k`, so a receive that leaves data from an
  /// earlier iteration in place never passes holds().
  void stamp_ends(std::uint64_t k, const std::vector<std::byte>& payload) {
    const std::size_t last = bytes_ - sizeof k;
    put(span().data(), word(payload.data()) ^ k);
    put(span().data() + last, word(payload.data() + last) ^ k);
  }
  /// True when a receive of `got` bytes left exactly `payload` stamped
  /// with `k` here.
  [[nodiscard]] bool holds(const std::vector<std::byte>& payload,
                           std::uint64_t k, std::size_t got) const {
    const std::size_t last = bytes_ - sizeof k;
    const std::byte* p = cspan().data();
    return got == bytes_ && word(p) == (word(payload.data()) ^ k) &&
           word(p + last) == (word(payload.data() + last) ^ k) &&
           (bytes_ <= 2 * sizeof k ||
            std::equal(payload.begin() + sizeof k, payload.end() - sizeof k,
                       p + sizeof k));
  }

 private:
  static constexpr std::size_t kPage = 4096;
  static std::uint64_t word(const std::byte* p) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
  }
  static void put(std::byte* p, std::uint64_t w) {
    std::memcpy(p, &w, sizeof w);
  }
  std::vector<std::byte> storage_;
  std::size_t offset_;
  std::size_t bytes_;
};

constexpr minimpi::tag_t kTagSmall = 1;
constexpr minimpi::tag_t kTagLarge = 2;
constexpr minimpi::tag_t kTagBurst = 3;
constexpr minimpi::tag_t kTagToken = 4;
constexpr minimpi::tag_t kTagAck = 5;

}  // namespace

int Layout::ranks() const {
  int n = 0;
  for (const ExecDecl& e : execs) n += e.nprocs;
  return n;
}

std::string directory_fingerprint(const mph::Directory& dir) {
  std::string out;
  for (const mph::ComponentRecord& c : dir.components()) {
    out += entry(c.name, c.global_low, c.global_high);
  }
  return out;
}

Layout ccsm_layout() {
  return single_rank_layout({"atmosphere", "ocean", "land", "ice", "coupler"});
}

Layout p2p_layout() { return single_rank_layout({"ping", "pong"}); }

std::vector<Layout> churn_layouts(std::uint64_t seed, int count) {
  mph::util::Rng rng(mix(seed, 3));
  std::vector<Layout> layouts;
  for (int i = 0; i < count; ++i) layouts.push_back(churn_layout(rng, i));
  return layouts;
}

LayoutJob run_layout_job(const Layout& layout,
                         const minimpi::JobOptions& options,
                         const RankBody& body) {
  // Parent of the rank threads' spans (their own span stacks are empty).
  const ScopedSpan job_span("minimpi.run_mpmd");
  const std::uint64_t parent_span = job_span.id();
  const auto n = static_cast<std::size_t>(layout.ranks());
  std::vector<Clock::time_point> setup_done(n);
  std::vector<Clock::time_point> body_done(n);
  std::vector<std::string> prints(n);
  std::vector<minimpi::ExecSpec> specs;
  for (std::size_t e = 0; e < layout.execs.size(); ++e) {
    specs.push_back(minimpi::ExecSpec{
        "exe" + std::to_string(e), layout.execs[e].nprocs,
        [&, e](const minimpi::Comm& world, const minimpi::ExecEnv& env) {
          const auto r = static_cast<std::size_t>(env.world_rank);
          const std::uint64_t setup_span =
              spans().begin("mph.components_setup", parent_span);
          mph::Mph handle = mph::Mph::components_setup(
              world, mph::RegistrySource::from_text(layout.registry),
              layout.execs[e].names, layout.options);
          setup_done[r] = Clock::now();
          spans().end(setup_span);
          if (body) {
            // All rank threads share one CPU (main.cpp), so without this a
            // rank still in setup would wait for the bodies of the ranks
            // done before it, and setup_s would time their work.
            minimpi::barrier(world);
            const ScopedSpan body_span("workload.body", parent_span);
            body(handle, env);
          }
          body_done[r] = Clock::now();
          prints[r] = directory_fingerprint(handle.directory());
        },
        {}});
  }
  LayoutJob out;
  const Clock::time_point start = Clock::now();
  out.report = minimpi::run_mpmd(specs, options);
  const Clock::time_point last_setup =
      *std::max_element(setup_done.begin(), setup_done.end());
  const Clock::time_point last_body =
      *std::max_element(body_done.begin(), body_done.end());
  out.setup_s = seconds_between(start, last_setup);
  out.body_s = seconds_between(last_setup, last_body);
  out.correct = out.report.ok && out.report.leaked_envelopes == 0 &&
                out.report.leaked_posted_recvs == 0 &&
                std::all_of(prints.begin(), prints.end(),
                            [&](const std::string& p) {
                              return p == layout.expected;
                            });
  return out;
}

// --------------------------------------------------------------------------
// ccsm_coupled
// --------------------------------------------------------------------------

CcsmInputs make_ccsm_inputs(std::uint64_t seed, int intervals) {
  mph::util::Rng rng(mix(seed, 1));
  const auto jitter = [&rng](double& v) { v *= 0.95 + 0.1 * rng.uniform(); };
  CcsmInputs in;
  ClimateConfig& cfg = in.cfg;
  cfg.atm_nlon = 96;
  cfg.atm_nlat = 48;
  cfg.ocn_nlon = 144;
  cfg.ocn_nlat = 72;
  cfg.steps_per_interval = 4;
  cfg.intervals = intervals;
  jitter(cfg.solar_equator);
  jitter(cfg.atm_relax);
  jitter(cfg.atm_diffusion);
  jitter(cfg.ocn_diffusion);
  jitter(cfg.ocn_heat_capacity);
  jitter(cfg.air_sea_coupling);
  jitter(cfg.land_beta);
  jitter(cfg.ice_growth);
  jitter(cfg.ice_melt);
  const minimpi::JobReport report = minimpi::run_spmd(
      1, [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
        in.reference = mph::climate::run_serial_reference(world, cfg);
      });
  if (!report.ok) {
    throw std::runtime_error("serial reference failed: " + report.abort_reason);
  }
  return in;
}

CcsmJob run_ccsm_job(const CcsmInputs& in,
                     const minimpi::JobOptions& options) {
  static const Layout layout = ccsm_layout();
  const ScopedSpan job_span("ccsm.job");
  CouplerDiagnostics diag;
  CcsmJob out;
  out.job = run_layout_job(
      layout, options,
      [&](mph::Mph& handle, const minimpi::ExecEnv&) {
        mph::climate::ComponentResult r =
            mph::climate::run_coupled_component(handle, in.cfg);
        if (handle.comp_name() == "coupler") diag = std::move(r.coupler);
      });
  out.interval_ms = out.job.body_s * 1e3 / in.cfg.intervals;
  out.correct = out.job.correct && same_bits(diag, in.reference);
  return out;
}

void ccsm_loop(const CcsmInputs& in, Clock::time_point until,
               CcsmResult& out) {
  do {
    const CcsmJob job = run_ccsm_job(in, {});
    out.setup_s.add(job.job.setup_s);
    out.interval_ms.add(job.interval_ms);
    out.tally.attempted += static_cast<std::uint64_t>(in.cfg.intervals);
    if (!job.correct) {
      out.tally.failed += static_cast<std::uint64_t>(in.cfg.intervals);
    }
  } while (Clock::now() < until);
}

// --------------------------------------------------------------------------
// p2p_named
// --------------------------------------------------------------------------

P2pInputs make_p2p_inputs(std::uint64_t seed) {
  mph::util::Rng rng(mix(seed, 2));
  P2pInputs in;
  in.small.resize(kSmallBytes);
  in.large.resize(kLargeBytes);
  fill_bytes(rng, in.small);
  fill_bytes(rng, in.large);
  in.burst.resize(kBurstWindow);
  for (auto& msg : in.burst) {
    msg.resize(kBurstBytes);
    fill_bytes(rng, msg);
  }
  in.placement = mph::util::Rng(mix(seed, 4));
  return in;
}

void run_p2p_job(P2pInputs& in, const minimpi::JobOptions& options,
                 P2pResult& out) {
  static const Layout layout = p2p_layout();
  const ScopedSpan job_span("p2p.job");
  P2pResult mine;
  std::uint64_t echo_bad = 0;   // written by ping only
  std::uint64_t burst_bad = 0;  // written by pong only
  const int corrupt = std::exchange(in.corrupt_echoes, 0);
  const int short_echoes = std::exchange(in.short_echoes, 0);
  // Every buffer either side sends from or receives into (see Shifted).
  mph::util::Rng& rng = in.placement;
  Shifted small_src(kSmallBytes, rng), large_src(kLargeBytes, rng);
  Shifted small_ping(kSmallBytes, rng), large_ping(kLargeBytes, rng);
  Shifted small_pong(kSmallBytes, rng), large_pong(kLargeBytes, rng);
  small_src.fill(in.small, 0);
  large_src.fill(in.large, 0);
  std::vector<Shifted> burst_src, slots;
  for (const auto& msg : in.burst) {
    burst_src.emplace_back(msg, rng);
    slots.emplace_back(kBurstBytes, rng);
  }

  // Iteration i sends its payload stamped with i + 1 (Shifted::stamp_ends),
  // and every receive is checked for its byte count and its stamp, outside
  // the timed region.
  const auto ping = [&](const mph::Mph& h) {
    mine.rtt_small_us.reserve(static_cast<std::size_t>(kSmallRtts));
    mine.rtt_large_us.reserve(static_cast<std::size_t>(kLargeRtts));
    // Iteration 0 of every phase is an untimed warm-up (see kSmallRtts).
    for (int i = 0; i <= kSmallRtts; ++i) {
      const auto k = static_cast<std::uint64_t>(i) + 1;
      small_src.stamp_ends(k, in.small);
      const Clock::time_point t0 = Clock::now();
      h.send(small_src.cspan(), "pong", 0, kTagSmall);
      const minimpi::Status st =
          h.recv(small_ping.span(), "pong", 0, kTagSmall);
      const double us = seconds_between(t0, Clock::now()) * 1e6;
      if (i > 0) mine.rtt_small_us.add(us);
      if (!small_ping.holds(in.small, k, st.bytes)) ++echo_bad;
    }
    for (int i = 0; i <= kLargeRtts; ++i) {
      const auto k = static_cast<std::uint64_t>(i) + 1;
      large_src.stamp_ends(k, in.large);
      const Clock::time_point t0 = Clock::now();
      h.send(large_src.cspan(), "pong", 0, kTagLarge);
      const minimpi::Status st =
          h.recv(large_ping.span(), "pong", 0, kTagLarge);
      const double us = seconds_between(t0, Clock::now()) * 1e6;
      if (i > 0) mine.rtt_large_us.add(us);
      if (!large_ping.holds(in.large, k, st.bytes)) ++echo_bad;
    }
    for (int b = 0; b <= kBursts; ++b) {
      for (std::size_t m = 0; m < burst_src.size(); ++m) {
        burst_src[m].stamp_ends(static_cast<std::uint64_t>(b) + 1,
                                in.burst[m]);
      }
      int ack = 0;
      const Clock::time_point t0 = Clock::now();
      for (const Shifted& msg : burst_src) {
        h.send(msg.cspan(), "pong", 0, kTagBurst);
      }
      h.send(b, "pong", 0, kTagToken);
      h.recv(ack, "pong", 0, kTagAck);
      const double s = seconds_between(t0, Clock::now());
      if (b > 0) mine.burst.add(kBurstWindow, s);
    }
  };

  // The echo side returns exactly the bytes it received: a short or stale
  // receive here shows up in ping's check.
  const auto pong = [&](const mph::Mph& h) {
    for (int i = 0; i <= kSmallRtts; ++i) {
      const minimpi::Status st =
          h.recv(small_pong.span(), "ping", 0, kTagSmall);
      std::size_t bytes = st.bytes;
      if (i < corrupt) {
        small_pong.span()[0] = ~small_pong.span()[0];
      } else if (i < corrupt + short_echoes) {
        bytes /= 2;
      }
      h.send(small_pong.cspan().first(bytes), "ping", 0, kTagSmall);
    }
    for (int i = 0; i <= kLargeRtts; ++i) {
      const minimpi::Status st =
          h.recv(large_pong.span(), "ping", 0, kTagLarge);
      h.send(large_pong.cspan().first(st.bytes), "ping", 0, kTagLarge);
    }
    std::vector<std::size_t> got(slots.size());
    for (int b = 0; b <= kBursts; ++b) {
      // The token is sent after the window, so by the time it matches every
      // window message is already queued: each receive below takes the
      // unexpected path.
      int token = 0;
      h.recv(token, "ping", 0, kTagToken);
      for (std::size_t m = 0; m < slots.size(); ++m) {
        got[m] = h.recv(slots[m].span(), "ping", 0, kTagBurst).bytes;
      }
      h.send(token, "ping", 0, kTagAck);
      for (std::size_t m = 0; m < slots.size(); ++m) {
        if (!slots[m].holds(in.burst[m], static_cast<std::uint64_t>(b) + 1,
                            got[m])) {
          ++burst_bad;
        }
      }
    }
  };

  const LayoutJob job = run_layout_job(
      layout, options,
      [&](mph::Mph& handle, const minimpi::ExecEnv&) {
        if (handle.comp_name() == "ping") {
          ping(handle);
        } else {
          pong(handle);
        }
      });

  const auto ops = static_cast<std::uint64_t>(kSmallRtts + 1) +
                   static_cast<std::uint64_t>(kLargeRtts + 1) +
                   static_cast<std::uint64_t>(kBursts + 1) * kBurstWindow;
  out.tally.attempted += ops;
  out.tally.failed += job.correct ? echo_bad + burst_bad : ops;
  out.setup_s.add(job.setup_s);
  out.rtt_small_us.append(mine.rtt_small_us);
  out.rtt_large_us.append(mine.rtt_large_us);
  out.burst.add(mine.burst);
}

void p2p_loop(P2pInputs& in, Clock::time_point until, P2pResult& out) {
  do {
    run_p2p_job(in, {}, out);
  } while (Clock::now() < until);
}

// --------------------------------------------------------------------------
// handshake_churn
// --------------------------------------------------------------------------

void churn_loop(const std::vector<Layout>& layouts, Clock::time_point until,
                ChurnResult& out) {
  std::size_t next = 0;
  do {
    const LayoutJob job =
        run_layout_job(layouts[next++ % layouts.size()], {});
    out.setup_s.add(job.setup_s);
    out.tally.attempted += 1;
    if (!job.correct) out.tally.failed += 1;
  } while (Clock::now() < until);
}

}  // namespace perfbench
