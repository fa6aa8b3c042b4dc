// ladder.hpp — the traced run: per-layer metrics timed from outside each
// module's public entry points, plus the tracing overhead of the workload.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct LayerRun {
  std::string workload;  ///< ccsm_coupled | p2p_named | handshake_churn
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Measure every per-layer metric for `run` into `metrics`; operations
/// whose output was checked land in `tally`.
void run_layers(const LayerRun& run, Metrics& metrics, Tally& tally);

}  // namespace perfbench
