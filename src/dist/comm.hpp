/// \file comm.hpp
/// \brief In-process message-passing world (MPI stand-in).
///
/// The production solver distributes observations over MPI ranks; each
/// rank runs the LSQR recurrences on its row slice and the ranks combine
/// partial results with allreduce (paper SIV). The paper's P runs use a
/// single GPU (= one rank), but the solver keeps the distributed
/// structure, so we reproduce it: a `World` spawns N ranks as threads,
/// and `Comm` gives each rank the rank/size/allreduce/gather/barrier
/// primitives the solver uses, over shared memory.
///
/// Every collective is traced as a span on the rank's comm track, split
/// into a *wait* child (time at the entry barrier until the last rank
/// arrives — pure skew) and an *exchange* child (the transfer/reduce
/// work after everyone is present). The same split is accumulated in
/// per-rank `CommStats` (always on), from the same clock reads: one pair
/// per collective plus the entry barrier's release — the raw material
/// for the comm-exposure rows the distributed solver publishes and the
/// critical-path analyzer cross-checks.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace gaia::dist {

/// Thrown by collectives on surviving ranks once the world is poisoned
/// (another rank failed mid-collective-epoch). Survivors unwind cleanly
/// instead of deadlocking on a barrier the dead rank will never reach;
/// `World::run` suppresses this marker and rethrows the original error.
class WorldPoisoned : public Error {
 public:
  WorldPoisoned()
      : Error("world poisoned: a peer rank failed; collective aborted") {}
};

enum class ReduceOp : std::uint8_t { kSum, kMax, kMin };

class World;

/// Per-rank accounting of collective time, split the way the tracing
/// spans are: `wait_seconds` is time spent at entry barriers waiting for
/// the slowest peer, the rest of `seconds` is transfer/reduce work.
struct CommStats {
  std::uint64_t collectives = 0;  ///< allreduce + gather + barrier calls
  std::uint64_t bytes = 0;        ///< allreduce/gather payload bytes
  double seconds = 0;             ///< total wall time inside collectives
  double wait_seconds = 0;        ///< entry-barrier (skew) share of seconds

  CommStats operator-(const CommStats& other) const {
    return {collectives - other.collectives, bytes - other.bytes,
            seconds - other.seconds, wait_seconds - other.wait_seconds};
  }
};

/// Per-rank communicator handle. Methods are collective: every rank of
/// the world must call them in the same order (like MPI).
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  /// Collective barrier.
  void barrier();

  /// In-place allreduce over doubles.
  void allreduce(std::span<real> data, ReduceOp op);

  /// Allreduce of one scalar (returns the reduced value on every rank).
  real allreduce(real value, ReduceOp op);

  /// What rank 0 runs in a gather: the ranks' spans, in rank order.
  using GatherRoot =
      std::function<void(std::span<const std::span<const real>>)>;
  /// Gather to rank 0: every rank publishes `local` (no copy is made),
  /// rank 0 runs `at_root` on the published spans while the others
  /// wait, and every rank returns once `at_root` has. Two barrier
  /// crossings. An `at_root` that throws fails rank 0 like any other
  /// rank failure: the world is poisoned and the others unwind.
  void gather(std::span<const real> local, const GatherRoot& at_root);

  /// This rank's accumulated collective timing (monotonic over the
  /// Comm's lifetime; snapshot-and-diff to scope a region).
  [[nodiscard]] const CommStats& stats() const { return stats_; }

 private:
  friend class World;
  Comm(World* world, int rank, int size)
      : world_(world), rank_(rank), size_(size) {}

  /// Shared trace/metrics/stats bookkeeping around one collective.
  /// `body` runs the collective and returns the time its entry barrier
  /// released (every rank present). Returns this call's {1, bytes,
  /// total, wait} delta so the wrappers can record per-collective metric
  /// series.
  CommStats timed_collective(
      const char* name, std::uint64_t bytes,
      const std::function<std::chrono::steady_clock::time_point()>& body);

  World* world_;
  int rank_;
  int size_;
  CommStats stats_;
};

/// Launches `size` ranks, each running `body(comm)` on its own thread,
/// and joins them. When a rank throws, the world is *poisoned*: every
/// surviving rank's next collective throws WorldPoisoned (so nobody
/// blocks on a barrier the dead rank will never reach), and run()
/// rethrows the first real error. The world stays usable for another
/// run() afterwards — the restart path of the distributed solver relies
/// on both properties.
class World {
 public:
  explicit World(int size);

  /// Collective run. May be called multiple times sequentially.
  void run(const std::function<void(Comm&)>& body);

  [[nodiscard]] int size() const { return size_; }

  /// The shared clock epoch every rank aligns its trace against — the
  /// in-process stand-in for the epoch exchange a real MPI launcher
  /// would perform at startup.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }

 private:
  friend class Comm;

  // Returns when the *entry* barrier released: the end of the skew
  // share the comm spans and stats split out.
  std::chrono::steady_clock::time_point collective_reduce(
      int rank, std::span<real> data, ReduceOp op);
  std::chrono::steady_clock::time_point collective_gather(
      int rank, std::span<const real> local, const Comm::GatherRoot& at_root);
  void arrive_barrier();
  /// Records `error` (first wins) and flips the poison flag that every
  /// barrier crossing checks.
  void poison(std::exception_ptr error);

  int size_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::unique_ptr<std::barrier<>> barrier_;
  /// Each rank's allreduce or gather operand, published in its own slot.
  std::vector<std::span<const real>> published_;
  std::atomic<bool> poisoned_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace gaia::dist
