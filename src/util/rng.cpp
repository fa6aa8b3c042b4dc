#include "src/util/rng.hpp"

#include <atomic>
#include <random>
#include <stdexcept>

namespace mph::util {

namespace {
std::atomic<bool> g_forbid_fresh_entropy{false};
}  // namespace

void forbid_fresh_entropy(bool forbid) noexcept {
  g_forbid_fresh_entropy.store(forbid, std::memory_order_release);
}

bool fresh_entropy_forbidden() noexcept {
  return g_forbid_fresh_entropy.load(std::memory_order_acquire);
}

std::uint64_t fresh_entropy_seed() {
  if (fresh_entropy_forbidden()) {
    throw std::runtime_error(
        "fresh_entropy_seed: unseeded entropy requested while schedule "
        "verification is active; route randomness through the job seed "
        "(JobOptions::seed / mph_verify --seed) instead");
  }
  // std::random_device is drawn once per process (constructing one costs
  // microseconds); each call then takes the next value of the SplitMix64
  // stream seeded by that draw.  The mix is a bijection, so no two calls
  // return the same seed.
  static const std::uint64_t base = [] {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  static std::atomic<std::uint64_t> calls{0};
  const std::uint64_t n = calls.fetch_add(1, std::memory_order_relaxed) + 1;
  return splitmix64(base + n * 0x9e3779b97f4a7c15ULL);
}

}  // namespace mph::util
