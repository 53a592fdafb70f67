/// \file autotuner.hpp
/// \brief Online (blocks, threads) search over live kernel launches.
///
/// The paper finds the winning launch shapes empirically — nsys sweeps
/// per GPU, with *small* thread counts winning the atomic-heavy aprod2
/// kernels — and its exascale follow-up (Cesare et al. 2023) shows the
/// optimum moves with both the device and the problem size. So the
/// search has to happen at runtime, on the user's actual system: during
/// warm-up launches the `Aprod` driver asks this class to `propose()` a
/// candidate shape, times the launch, and `report()`s the measurement
/// back; the tuner walks a pow-2 grid by greedy coordinate descent and
/// keeps the shape with the lowest *median* launch time (medians resist
/// the scheduler noise of a shared host).
///
/// Atomic kernels (`kernel_uses_atomics`) start the descent at a narrow
/// shape — the paper's core tuning insight is that fewer concurrent
/// threads mean fewer atomic collisions — while gather kernels start
/// wide. Backends whose launch shape is a no-op (serial, PSTL) are
/// never searched: `active()` is false and the solver runs as if no
/// tuner were attached.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "backends/backend.hpp"
#include "util/types.hpp"

namespace gaia::tuning {

struct AutotuneOptions {
  /// Launches timed per candidate shape; the median is the score.
  int samples_per_config = 3;
  /// Budget: candidate shapes evaluated per kernel *per strategy arm*
  /// before that arm is cut off (the greedy descent usually converges
  /// well under this).
  int max_configs_per_kernel = 12;
  /// The pow-2 axes of the search grid.
  std::vector<std::int32_t> block_grid{8, 16, 32, 64, 128, 256};
  std::vector<std::int32_t> thread_grid{32, 64, 128, 256, 512};
  /// The scatter-strategy axis for the atomic aprod2 kernels. Pinned to
  /// kAtomic (the default) the search varies only (blocks, threads) —
  /// today's behaviour. Pinned to kPrivatized every atomic kernel
  /// searches the privatized path only. nullopt searches *both*: the
  /// atomic arm seeds narrow (collision avoidance) and the privatized
  /// arm seeds wide (collisions are gone, bandwidth wants occupancy),
  /// and the lower measured median wins. Gather kernels ignore this.
  std::optional<backends::ScatterStrategy> scatter =
      backends::ScatterStrategy::kAtomic;
  /// The storage-layout axis — every kernel has one, gathers included.
  /// Pinned to kSeedAos (the default) nothing changes; pinned to a
  /// derived layout every kernel searches that layout's bodies only;
  /// nullopt opens the axis: each layout is its own descent arm (the
  /// launch-shape optimum moves with the addressing pattern, so a
  /// layout cannot reuse another's winning shape) and the lowest
  /// measured median across arms wins.
  std::optional<backends::StorageLayout> layout =
      backends::StorageLayout::kSeedAos;
  /// The storage-precision axis. Pinned to kFp64 (the default) nothing
  /// changes; pinned to a reduced precision every kernel searches that
  /// precision's bodies only; nullopt opens the axis: each precision is
  /// its own descent arm (halving the coefficient bytes moves the
  /// bandwidth/occupancy balance, so the winning shape moves with it)
  /// and the lowest measured median across arms wins. Reduced-precision
  /// arms time the reduced *storage* bodies — accumulation stays FP64,
  /// so the arms are numerically comparable.
  std::optional<backends::Precision> precision = backends::Precision::kFp64;
};

/// Per-(backend) search state over all eight kernel identities.
/// Thread-safe: propose/report lock, so concurrent launchers cannot
/// corrupt a search.
class Autotuner {
 public:
  explicit Autotuner(backends::BackendKind backend,
                     AutotuneOptions options = {});

  [[nodiscard]] backends::BackendKind backend() const { return backend_; }

  /// True while the search of an identity the solve launches
  /// (kAprodPasses) is still open. A KernelId the Aprod driver never
  /// launches never scores, so it does not hold warm-up open; it can
  /// still be searched by driving propose/report directly. Permanently
  /// false on backends that ignore launch shapes.
  [[nodiscard]] bool active() const;
  /// True while `id`'s search is still open.
  [[nodiscard]] bool searching(backends::KernelId id) const;

  /// Candidate shape the next launch of `id` should use. Returns the
  /// best-known shape once the search is closed.
  [[nodiscard]] backends::KernelConfig propose(backends::KernelId id);

  /// Feed back one timed launch of `id` at shape `cfg`. Measurements for
  /// a shape other than the current candidate (failover ran the launch
  /// elsewhere, or the caller used the installed table) are ignored.
  /// Returns true exactly when this report *closes* `id`'s search.
  bool report(backends::KernelId id, backends::KernelConfig cfg,
              double seconds);

  /// Best shape found so far ({0,0} until the first candidate scored).
  /// For atomic kernels the config's `strategy` field records which
  /// scatter strategy won.
  [[nodiscard]] backends::KernelConfig best(backends::KernelId id) const;
  /// Median launch seconds of the best shape (inf until scored).
  [[nodiscard]] double best_median_s(backends::KernelId id) const;

  /// Best shape / median measured *within one strategy arm* — the
  /// atomic-vs-privatized comparison the tuner report and the
  /// experiments table are built from. ({0,0} / inf until that arm
  /// scored a candidate.)
  [[nodiscard]] backends::KernelConfig best_for(
      backends::KernelId id, backends::ScatterStrategy strategy) const;
  [[nodiscard]] double best_median_for(
      backends::KernelId id, backends::ScatterStrategy strategy) const;

  /// Best shape / median measured *within one layout arm* — the
  /// seed-vs-derived-layout comparison the experiments tables and the
  /// layout-smoke CI assertion are built from.
  [[nodiscard]] backends::KernelConfig best_for_layout(
      backends::KernelId id, backends::StorageLayout layout) const;
  [[nodiscard]] double best_median_for_layout(
      backends::KernelId id, backends::StorageLayout layout) const;

  /// Best shape / median measured *within one precision arm* — the
  /// fp64-vs-reduced comparison the experiments tables and the
  /// precision-smoke CI assertion are built from.
  [[nodiscard]] backends::KernelConfig best_for_precision(
      backends::KernelId id, backends::Precision precision) const;
  [[nodiscard]] double best_median_for_precision(
      backends::KernelId id, backends::Precision precision) const;

  /// Timed launches consumed so far (all kernels).
  [[nodiscard]] std::uint64_t trials() const;
  /// Kernels whose search closed with a measured winner.
  [[nodiscard]] int kernels_tuned() const;

  /// `base` with every measured winner installed.
  [[nodiscard]] backends::TuningTable apply_winners(
      backends::TuningTable base) const;

  /// Close every kernel's search (keeps the winners found so far).
  void finish();

 private:
  struct Candidate {
    int bi = 0;  ///< index into options_.block_grid
    int ti = 0;  ///< index into options_.thread_grid
    int si = 0;  ///< strategy arm: 0 = atomic, 1 = privatized
    int li = 0;  ///< layout arm: StorageLayout enum value
    int pi = 0;  ///< precision arm: Precision enum value
  };
  struct KernelSearch {
    bool started = false;
    bool finished = false;
    Candidate current{};
    std::vector<double> samples;   ///< of the current candidate
    std::vector<Candidate> pending;
    std::set<std::tuple<int, int, int, int, int>> visited;
    /// Seeds of (strategy, layout, precision) arms not yet descended (an
    /// arm runs to convergence or budget before the next seed starts, so
    /// every arm is guaranteed its descent).
    std::vector<Candidate> arm_seeds;
    int arm_evaluated = 0;  ///< candidates scored in the current arm
    Candidate best{};
    double best_median = 0;  ///< valid iff scored
    bool scored = false;
    /// Per-(strategy, layout, precision) arm best — the descent
    /// criterion, and the base of the atomic-vs-privatized,
    /// seed-vs-derived and fp64-vs-reduced reports (each a minimum over
    /// the other two axes). Indexed
    /// (si * kNumStorageLayouts + li) * kNumPrecisions + pi.
    static constexpr int kNumArms = backends::kNumScatterStrategies *
                                    backends::kNumStorageLayouts *
                                    backends::kNumPrecisions;
    std::array<Candidate, kNumArms> arm_best{};
    std::array<double, kNumArms> arm_median{};
    std::array<bool, kNumArms> arm_scored{};
    int evaluated = 0;
  };

  [[nodiscard]] backends::KernelConfig config_of(Candidate c) const;
  void seed_locked(backends::KernelId id, KernelSearch& s);
  void push_neighbors_locked(KernelSearch& s, Candidate c);
  [[nodiscard]] int nearest_index(const std::vector<std::int32_t>& grid,
                                  std::int32_t value) const;

  backends::BackendKind backend_;
  AutotuneOptions options_;
  bool enabled_;  ///< honors_kernel_config(backend_)
  mutable std::mutex mutex_;
  std::array<KernelSearch, backends::kNumKernels> search_{};
  std::uint64_t trials_ = 0;
};

/// Flat encoding of a TuningTable as 5*kNumKernels reals (blocks,
/// threads, scatter strategy, storage layout, storage precision per
/// kernel in enum order) — the dist layer broadcasts rank 0's winners to
/// all ranks through the existing Comm::bcast(span<real>) so every rank
/// runs identical shapes, strategies, layouts and precisions.
inline constexpr std::size_t kEncodedTableSize =
    5 * static_cast<std::size_t>(backends::kNumKernels);
[[nodiscard]] std::vector<real> encode_table(
    const backends::TuningTable& table);
[[nodiscard]] backends::TuningTable decode_table(std::span<const real> data);

}  // namespace gaia::tuning
