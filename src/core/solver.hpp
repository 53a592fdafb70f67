/// \file solver.hpp
/// \brief High-level AVU-GSR solver run — the `solvergaiaSim` analog.
///
/// The paper's artifact is a single binary that (i) generates a synthetic
/// system of a requested size in GB from a seed, (ii) runs the LSQR for
/// a fixed number of iterations on the selected framework, and (iii)
/// reports the average iteration time. This facade packages that flow
/// for the examples and benchmark harnesses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "metrics/roofline.hpp"
#include "resilience/checkpoint.hpp"

namespace gaia::core {

/// The retired scatter policies, kept for SolverRunConfig::scatter: every
/// scatter runs the one commit whatever the field says. Stays until
/// ROADMAP item 8, for the end-to-end benchmark's workloads.
enum class ScatterMode : std::uint8_t {
  kAtomic = 0,
  kPrivatized,
};

struct SolverRunConfig {
  /// Either an explicit generator configuration...
  std::optional<matrix::GeneratorConfig> generator;
  /// ...or a target memory footprint the generator is sized for.
  byte_size footprint_bytes = 16 * kMiB;
  std::uint64_t seed = 0x6761696173696dull;

  LsqrOptions lsqr{};

  /// Checkpoint orchestration (off unless `every > 0` and a directory is
  /// set): the solve periodically seals its state to disk and, when the
  /// directory already holds checkpoints of the same run, auto-resumes
  /// from the newest one that verifies.
  resilience::CheckpointConfig checkpoint{};

  /// Ignored (see ScatterMode). Stays until ROADMAP item 8.
  ScatterMode scatter = ScatterMode::kAtomic;
};

struct SolverRunReport {
  LsqrResult result;
  matrix::ParameterLayout layout;
  row_index n_obs = 0;
  row_index n_constraints = 0;
  byte_size system_bytes = 0;
  double generation_seconds = 0;
  double solve_seconds = 0;
  /// Iteration the solve resumed from (-1 = fresh start) and checkpoints
  /// sealed during this run.
  std::int64_t resumed_from_iteration = -1;
  std::uint64_t checkpoints_written = 0;

  /// Launch shapes the solve ran with: config.lsqr.aprod.tuning.
  backends::TuningTable tuning_used{};

  /// Pennycook-P digest over the kernels that recorded timing samples
  /// (0 when metrics were off or no kernel timed): per-kernel efficiency
  /// is model-predicted time over measured p50, normalized to the best
  /// kernel, folded with the harmonic mean of paper Eq. 1.
  double pennycook_p = 0;
  int pennycook_kernels = 0;
  /// Path of the sealed metrics snapshot, when one is armed.
  std::string metrics_snapshot_path;

  /// Roofline placement of every kernel series that recorded production
  /// traffic + timing (empty when metrics were off). The machine is the
  /// same representative A100 spec the cost-model crossovers use, so
  /// the %-of-ceiling column is consistent with the derived-bandwidth
  /// table; also published as `gaia_kernel_roofline_*` gauges.
  std::vector<metrics::RooflinePoint> roofline;
  metrics::RooflineMachine roofline_machine{};

  /// Events the bounded trace buffer dropped during this run (0 when
  /// tracing was off or the capacity was never hit); a nonzero value
  /// means the trace file is a sliding window, not the whole run.
  std::uint64_t trace_dropped_events = 0;

  /// One-paragraph human summary (examples print it verbatim).
  [[nodiscard]] std::string summary() const;
};

/// Generates the system and solves it per the configuration.
SolverRunReport run_solver(const SolverRunConfig& config);

}  // namespace gaia::core
