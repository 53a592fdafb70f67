/// \file fault_injector.hpp
/// \brief Deterministic, seeded fault injection for resilience testing.
///
/// A production AVU-GSR solve occupies a large machine for hours; the
/// follow-up exascale papers (arXiv:2308.00778, arXiv:2503.22863) name
/// fault tolerance and checkpointing as prerequisites. This injector
/// makes failure a first-class, reproducible scenario: armed by the
/// `--faults` CLI flag (`configure(spec)`), it can
/// fail kernel launches, fail or corrupt simulated H2D/D2H transfers,
/// kill a rank at a chosen iteration, truncate or bit-flip checkpoint
/// files, and — the silent-data-corruption scenario — flip a single bit
/// in a kernel's output vector with no CRC or exception to announce it.
///
/// Spec grammar (clauses separated by ';', fields by ','):
///
///   kernel:p=0.01                 fail 1% of kernel launches
///   kernel:p=1,backend=gpusim     every gpusim launch fails (failover test)
///   h2d:p=0.005                   fail 0.5% of host-to-device copies
///   d2h:p=0.01,mode=corrupt       bit-flip 1% of device-to-host copies
///   rank:iter=200,rank=1          rank 1 dies entering iteration 200
///   ckpt:truncate,nth=2           truncate the 2nd checkpoint written
///   ckpt:bitflip                  bit-flip every checkpoint written
///   sdc:kernel=aprod2,iter=12     silently flip one bit of the aprod2
///                                 output vector at iteration 12 (rank 0)
///   sdc:kernel=aprod1,iter=30,rank=1,bit=62,index=17
///                                 full form: victim rank, bit position
///                                 (0-63, default 51 = top mantissa bit),
///                                 element index (default: seeded draw)
///   seed=42                       injector RNG seed (default 1746)
///
/// Optional fields: `count=N` caps how many times a clause fires
/// (rank and sdc clauses default to 1, probabilistic clauses to
/// unlimited).
///
/// Malformed specs fail loudly: unknown sites, unknown field keys,
/// out-of-range probabilities/bits and trailing garbage in numeric
/// values all raise a gaia::Error carrying the byte offset of the
/// offending clause within the spec (a typo in a fault campaign must
/// never silently run the healthy configuration).
///
/// Determinism: each clause owns a monotonically increasing event
/// counter; the decision for event k is a pure function of
/// (seed, site, k). For single-threaded launch sequences the faulted
/// events are bit-reproducible; under stream/rank concurrency the
/// *number* of injections over N events is reproducible while the
/// thread interleaving decides which concurrent event draws which
/// counter value.
///
/// Cost contract: while disarmed (default), every query site pays one
/// relaxed atomic load.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace gaia::resilience {

/// Where a fault can be injected.
enum class FaultSite : std::uint8_t {
  kKernel = 0,   ///< kernel launch failure
  kH2D,          ///< host-to-device transfer
  kD2H,          ///< device-to-host transfer
  kRank,         ///< rank death inside a distributed solve
  kCheckpoint,   ///< checkpoint file corruption
  kSdc,          ///< silent bit flip in a kernel output vector
};
inline constexpr std::size_t kNumFaultSites = 6;

[[nodiscard]] std::string to_string(FaultSite site);

/// A retryable injected failure (transfer hiccup, spurious launch
/// failure). `with_retry` absorbs these up to the backoff budget.
class TransientFault : public Error {
 public:
  using Error::Error;
};

/// A fault that survived the retry budget (or is inherently fatal).
class PersistentFault : public Error {
 public:
  using Error::Error;
};

/// Injected rank death. `World` poisons the collectives so every
/// surviving rank rethrows this cleanly instead of deadlocking.
class RankDeath : public Error {
 public:
  RankDeath(int rank, std::int64_t iteration)
      : Error("injected rank death: rank " + std::to_string(rank) +
              " at iteration " + std::to_string(iteration)),
        rank_(rank),
        iteration_(iteration) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::int64_t iteration() const { return iteration_; }

 private:
  int rank_;
  std::int64_t iteration_;
};

/// How an armed transfer clause affects one copy.
enum class TransferFault : std::uint8_t {
  kNone = 0,
  kFail,     ///< the copy throws TransientFault before moving bytes
  kCorrupt,  ///< the copy completes but a bit is flipped (CRC catches it)
};

/// How an armed checkpoint clause corrupts one written file.
enum class CheckpointFault : std::uint8_t { kTruncate, kBitflip };

/// One silent bit flip the caller applies to a kernel output vector.
struct SdcFlip {
  std::size_t index = 0;  ///< element whose bit is flipped
  int bit = 51;           ///< bit position within the IEEE-754 double
};

/// Applies the flip in place — silent by construction: no exception, no
/// CRC, no retry path sees it. Only the health monitor can.
inline void apply_bitflip(std::span<real> v, const SdcFlip& flip) {
  auto bits = std::bit_cast<std::uint64_t>(v[flip.index]);
  bits ^= std::uint64_t{1} << flip.bit;
  v[flip.index] = std::bit_cast<real>(bits);
}

/// One parsed clause of the fault spec.
struct FaultClause {
  FaultSite site = FaultSite::kKernel;
  double probability = 0;            ///< kernel/h2d/d2h clauses
  std::string backend;               ///< optional kernel backend filter
  TransferFault transfer_mode = TransferFault::kFail;
  CheckpointFault ckpt_mode = CheckpointFault::kTruncate;
  std::int64_t nth = -1;             ///< ckpt: corrupt only the nth write
  std::int64_t rank = -1;            ///< rank/sdc clause: victim rank
  std::int64_t iteration = -1;       ///< rank/sdc clause: trigger iteration
  std::string kernel;                ///< sdc clause: kernel-output site
  int bit = 51;                      ///< sdc clause: bit to flip
  std::int64_t index = -1;           ///< sdc clause: element (-1 = seeded)
  std::int64_t max_count = -1;       ///< -1 = unlimited
};

/// Parses the spec grammar above; throws gaia::Error naming the
/// offending clause and its byte offset on malformed input. The returned
/// seed defaults to `default_seed` unless the spec carries a `seed=`
/// clause.
struct FaultSpec {
  std::vector<FaultClause> clauses;
  std::uint64_t seed = 1746;
};
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view spec,
                                         std::uint64_t default_seed = 1746);

/// Process-wide injector. All query methods are thread-safe.
class FaultInjector {
 public:
  /// Arms the injector with a parsed spec. Resets all event counters.
  void configure(const FaultSpec& spec);
  void configure(const std::string& spec, std::uint64_t seed = 1746);
  /// Disarms and clears all clauses and counters.
  void disarm();

  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// True when launch `kernel` on `backend` should fail this time.
  /// Records the injection in the trace/metrics when it fires.
  [[nodiscard]] bool should_fail_kernel(std::string_view kernel,
                                        std::string_view backend);

  /// Decision for one transfer (`site` is kH2D or kD2H).
  [[nodiscard]] TransferFault on_transfer(FaultSite site);

  /// Throws RankDeath when a `rank:` clause matches (rank, iteration).
  void maybe_kill_rank(int rank, std::int64_t iteration);

  /// Decision for the checkpoint file just written (call once per
  /// write; advances the write counter).
  [[nodiscard]] std::optional<CheckpointFault> on_checkpoint_write();

  /// Decision for one kernel-output vector of `size` elements: when an
  /// `sdc:` clause matches (`kernel` name or its prefix group, e.g. a
  /// clause naming `aprod2_att` matches the combined `aprod2` output
  /// pass; iteration; rank), returns the bit flip the caller must apply
  /// via `apply_bitflip`. The flip is recorded in the injector's own
  /// counters/trace but nothing on the data path is told — that is the
  /// point.
  [[nodiscard]] std::optional<SdcFlip> on_kernel_output(
      std::string_view kernel, std::int64_t iteration, int rank,
      std::size_t size);

  /// Total faults injected at a site since configure().
  [[nodiscard]] std::uint64_t injected(FaultSite site) const;
  [[nodiscard]] std::uint64_t injected_total() const;

  /// Process-wide injector used by the library's hooks.
  static FaultInjector& global();

 private:
  struct ClauseState {
    FaultClause clause;
    std::atomic<std::int64_t> events{0};   ///< queries seen
    std::atomic<std::int64_t> fired{0};    ///< faults injected
  };

  /// Deterministic per-event Bernoulli draw and count bookkeeping;
  /// returns true when the clause fires for this event.
  bool draw(ClauseState& state);
  void record_injection(FaultSite site, const std::string& detail);

  std::atomic<bool> armed_{false};
  std::uint64_t seed_ = 1746;
  std::vector<std::unique_ptr<ClauseState>> clauses_;
  std::atomic<std::uint64_t> injected_by_site_[kNumFaultSites] = {};
};

}  // namespace gaia::resilience
