// workloads.hpp — the three closed-loop workloads of the MPH benchmark.
// Each drives whole MPMD jobs through the public API (run_mpmd,
// Mph::components_setup, run_coupled_component, Mph::send/recv) from one
// process, and checks every output it times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/climate/scenario.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/mph/mph.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

// --------------------------------------------------------------------------
// Layouts: one registration file plus the launch that matches it.
// --------------------------------------------------------------------------

struct ExecDecl {
  std::vector<std::string> names;  ///< components this executable declares
  int nprocs = 1;
};

struct Layout {
  std::string registry;        ///< registration-file text
  std::vector<ExecDecl> execs; ///< launch order (contiguous world ranks)
  mph::HandshakeOptions options;
  /// directory_fingerprint() every rank must produce after the handshake.
  std::string expected;
  [[nodiscard]] int ranks() const;
};

/// "name:low-high;" per component in component-id order.
[[nodiscard]] std::string directory_fingerprint(const mph::Directory& dir);

/// Five single-rank components wired as in the paper's SCME example (§2.3).
[[nodiscard]] Layout ccsm_layout();
/// Two single-rank components, "ping" and "pong".
[[nodiscard]] Layout p2p_layout();
/// `count` 4-rank layouts from `seed`: a balanced mix of SCME on the §6.1
/// fast path, SCME forced onto the general path, MCSE and MCME, with
/// disjoint and overlapping components, up to 10 per executable.
[[nodiscard]] std::vector<Layout> churn_layouts(std::uint64_t seed, int count);

/// Outcome of one job on a layout.
struct LayoutJob {
  minimpi::JobReport report;
  double setup_s = 0.0;  ///< run_mpmd call -> last rank out of setup
  double body_s = 0.0;   ///< last setup return -> last rank out of the body
  /// report.ok, no leaked envelopes or posted receives, and every rank's
  /// directory equals the layout's expected one.
  bool correct = false;
};

using RankBody =
    std::function<void(mph::Mph& handle, const minimpi::ExecEnv& env)>;

/// Launch `layout`, run components_setup on every rank, then, when there is
/// a `body`, a world barrier and `body`.
LayoutJob run_layout_job(const Layout& layout,
                         const minimpi::JobOptions& options,
                         const RankBody& body = {});

// --------------------------------------------------------------------------
// ccsm_coupled
// --------------------------------------------------------------------------

struct CcsmInputs {
  mph::climate::ClimateConfig cfg;
  /// run_serial_reference on cfg: every coupled job must match it bit for
  /// bit.
  mph::climate::CouplerDiagnostics reference;
};

/// Grids are fixed; the seed picks physics constants within +-5% of the
/// defaults.
[[nodiscard]] CcsmInputs make_ccsm_inputs(std::uint64_t seed,
                                          int intervals = 8);

struct CcsmJob {
  LayoutJob job;
  double interval_ms = 0.0;  ///< body time / intervals
  bool correct = false;      ///< job correct and diagnostics bit-identical
};

CcsmJob run_ccsm_job(const CcsmInputs& in, const minimpi::JobOptions& options);

struct CcsmResult {
  Samples setup_s;
  Samples interval_ms;  ///< one sample per job
  Tally tally;          ///< coupling intervals
};

void ccsm_loop(const CcsmInputs& in, Clock::time_point until, CcsmResult& out);

// --------------------------------------------------------------------------
// p2p_named
// --------------------------------------------------------------------------

inline constexpr std::size_t kSmallBytes = 8;
inline constexpr std::size_t kLargeBytes = 1 << 20;
inline constexpr std::size_t kBurstBytes = 4096;
inline constexpr int kBurstWindow = 64;

struct P2pInputs {
  std::vector<std::byte> small;               ///< kSmallBytes
  std::vector<std::byte> large;               ///< kLargeBytes
  std::vector<std::vector<std::byte>> burst;  ///< kBurstWindow x kBurstBytes
  /// Benchmark self-test: the echo side corrupts this many small echoes of
  /// the first job, and then sends this many short ones (half the bytes);
  /// the checks must count each as a failure.
  int corrupt_echoes = 0;
  int short_echoes = 0;
  /// Draws each job's buffer offsets (see run_p2p_job).
  mph::util::Rng placement;
};

/// The seed picks every payload byte.
[[nodiscard]] P2pInputs make_p2p_inputs(std::uint64_t seed);

/// Timed iterations per phase of one job.  Each phase also runs one untimed
/// warm-up iteration first: the first 1 MiB message of a fresh rank thread
/// pays page faults for a fresh heap (about 1.9x the warm round trip), a
/// once-per-thread cost that would otherwise set the tail by itself.  Small
/// jobs mean many jobs per run, which averages over thread placement.
inline constexpr int kSmallRtts = 500;
inline constexpr int kLargeRtts = 8;
inline constexpr int kBursts = 2;

struct P2pResult {
  Samples setup_s;
  Samples rtt_small_us;
  Samples rtt_large_us;
  Throughput burst;  ///< timed burst windows
  Tally tally;       ///< round trips and burst messages
};

/// One job: components_setup, then the 8 B ping-pong, the 1 MiB ping-pong
/// and the burst phase; samples and tallies are appended to `out`.
void run_p2p_job(P2pInputs& in, const minimpi::JobOptions& options,
                 P2pResult& out);

void p2p_loop(P2pInputs& in, Clock::time_point until, P2pResult& out);

// --------------------------------------------------------------------------
// handshake_churn
// --------------------------------------------------------------------------

struct ChurnResult {
  Samples setup_s;
  Tally tally;  ///< handshakes
};

void churn_loop(const std::vector<Layout>& layouts, Clock::time_point until,
                ChurnResult& out);

}  // namespace perfbench
