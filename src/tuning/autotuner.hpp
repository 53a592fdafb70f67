/// \file autotuner.hpp
/// \brief (blocks, threads) search per kernel against a caller-supplied
/// measurement.
///
/// The paper finds the winning launch shapes empirically — nsys sweeps
/// per GPU, with *small* thread counts winning the atomic-heavy aprod2
/// kernels — and its exascale follow-up (Cesare et al. 2023) shows the
/// optimum moves with both the device and the problem size. The caller
/// asks this class to `propose()` a candidate shape, measures it, and
/// `report()`s the measurement back; the tuner walks a pow-2 grid by
/// greedy coordinate descent and keeps the shape with the lowest
/// *median* score (medians resist the noise of a timed measurement).
/// `bench/ablation_tuning` scores candidates with the calibrated cost
/// model of each GPU. The solver itself runs a fixed TuningTable: on the
/// host no shape beat the tuned default (DESIGN §8).
///
/// Atomic kernels (`kernel_uses_atomics`) start the descent at a narrow
/// shape — the paper's core tuning insight is that fewer concurrent
/// threads mean fewer atomic collisions — while gather kernels start
/// wide. Backends whose launch shape is a no-op (serial, PSTL) are never
/// searched: `active()` is false.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "backends/backend.hpp"

namespace gaia::tuning {

struct AutotuneOptions {
  /// Measurements per candidate shape; the median is the score.
  int samples_per_config = 3;
  /// Budget: candidate shapes evaluated per kernel before its search is
  /// cut off (the greedy descent usually converges well under this).
  int max_configs_per_kernel = 12;
  /// The pow-2 axes of the search grid.
  std::vector<std::int32_t> block_grid{8, 16, 32, 64, 128, 256};
  std::vector<std::int32_t> thread_grid{32, 64, 128, 256, 512};
};

/// Per-(backend) search state over all eight kernel identities.
/// Thread-safe: propose/report lock, so concurrent callers cannot
/// corrupt a search.
class Autotuner {
 public:
  explicit Autotuner(backends::BackendKind backend,
                     AutotuneOptions options = {});

  /// True while the search of an identity the engine's passes run under
  /// (kAprodPasses) is still open; the other KernelIds are searched by
  /// driving propose/report while this holds. Permanently false on
  /// backends that ignore launch shapes.
  [[nodiscard]] bool active() const;
  /// True while `id`'s search is still open.
  [[nodiscard]] bool searching(backends::KernelId id) const;

  /// Candidate shape the next launch of `id` should use. Returns the
  /// best-known shape once the search is closed.
  [[nodiscard]] backends::KernelConfig propose(backends::KernelId id);

  /// Feed back one measurement of `id` at shape `cfg`. Measurements for
  /// a shape other than the current candidate are ignored. Returns true
  /// exactly when this report *closes* `id`'s search.
  bool report(backends::KernelId id, backends::KernelConfig cfg,
              double seconds);

  /// Best shape found so far ({0,0} until the first candidate scored).
  [[nodiscard]] backends::KernelConfig best(backends::KernelId id) const;
  /// Median launch seconds of the best shape (inf until scored).
  [[nodiscard]] double best_median_s(backends::KernelId id) const;

  /// Measurements consumed so far (all kernels).
  [[nodiscard]] std::uint64_t trials() const;

  /// `base` with every measured winner installed.
  [[nodiscard]] backends::TuningTable apply_winners(
      backends::TuningTable base) const;

  /// Close every kernel's search (keeps the winners found so far).
  void finish();

 private:
  struct Candidate {
    int bi = 0;  ///< index into options_.block_grid
    int ti = 0;  ///< index into options_.thread_grid
  };
  struct KernelSearch {
    bool started = false;
    bool finished = false;
    Candidate current{};
    std::vector<double> samples;   ///< of the current candidate
    std::vector<Candidate> pending;
    std::set<std::pair<int, int>> visited;
    Candidate best{};
    double best_median = 0;  ///< valid iff scored
    bool scored = false;
    int evaluated = 0;
  };

  [[nodiscard]] backends::KernelConfig config_of(Candidate c) const;
  void seed_locked(backends::KernelId id, KernelSearch& s);
  void push_neighbors_locked(KernelSearch& s, Candidate c);
  [[nodiscard]] int nearest_index(const std::vector<std::int32_t>& grid,
                                  std::int32_t value) const;

  AutotuneOptions options_;
  bool enabled_;  ///< honors_kernel_config(backend_)
  mutable std::mutex mutex_;
  std::array<KernelSearch, backends::kNumKernels> search_{};
  std::uint64_t trials_ = 0;
};

}  // namespace gaia::tuning
