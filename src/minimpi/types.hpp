// types.hpp — fundamental identifiers and constants of the minimpi
// message-passing substrate.
//
// minimpi reproduces the MPI execution environment MPH relies on (one
// COMM_WORLD shared by several executables, communicator split, typed
// point-to-point with tag/source matching, collectives) with each MPI
// process realised as one thread of a single OS process.  Identifiers
// follow MPI conventions: ranks are dense 0..size-1 integers, tags are
// non-negative ints, and a *context id* isolates communicators from one
// another exactly like MPI contexts do.
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace minimpi {

/// Rank within a communicator (dense, 0-based).
using rank_t = int;

/// Message tag.  User tags must lie in [0, kMaxUserTag]; the range above is
/// reserved for collective algorithms and internal protocols.
using tag_t = int;

/// Communicator context id.  Context 0 is COMM_WORLD of a job; every
/// split/dup/create allocates a fresh context so that traffic on different
/// communicators can never match.
using context_t = std::uint32_t;

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr rank_t any_source = -1;
inline constexpr tag_t any_tag = -1;

/// Color value excluding a rank from a split, mirroring MPI_UNDEFINED.
inline constexpr int undefined = -32766;

/// Largest tag a user may pass; everything above is reserved.
inline constexpr tag_t kMaxUserTag = (1 << 28) - 1;

/// Base of the tag range used by collective algorithms.
inline constexpr tag_t kCollectiveTagBase = 1 << 28;

/// Base of the tag range used by internal control protocols (communicator
/// creation outside a parent collective, e.g. MPH_comm_join).
inline constexpr tag_t kControlTagBase = 1 << 29;

/// Context of COMM_WORLD.
inline constexpr context_t kWorldContext = 0;

/// Types eligible for typed send/recv/collectives: trivially copyable and
/// with unique object representations is the safe, explicit subset.
template <class T>
concept Transferable = std::is_trivially_copyable_v<T>;

/// Outcome of a completed receive, mirroring MPI_Status.
struct Status {
  rank_t source = any_source;  ///< source rank *in the receiving communicator*
  tag_t tag = any_tag;         ///< matched tag
  std::size_t bytes = 0;       ///< payload size in bytes

  /// Element count for a given type, mirroring MPI_Get_count.
  template <Transferable T>
  [[nodiscard]] std::size_t count() const noexcept {
    return bytes / sizeof(T);
  }
};

/// The one steady-clock epoch of a job, owned by the Job: trace timestamps
/// and metrics latencies are both nanoseconds since it, so a stamp taken
/// through either layer is valid in the other.
class JobClock {
 public:
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Clock of a registry built outside any Job (unit tests, benchmarks).
  static const JobClock& process() noexcept {
    static const JobClock clock;
    return clock;
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace minimpi
