/// \file lsqr_engine.hpp
/// \brief Stateful, steppable LSQR with checkpoint/restart — the one
/// LSQR recurrence, single-process and distributed.
///
/// `lsqr_solve()`, `run_solver()` and `dist::dist_lsqr_solve()` all run
/// this engine. The engine form exists for the production needs a batch
/// call cannot serve:
///  * **checkpoint/restart** — a full AVU-GSR solve occupies a large
///    allocation on a shared machine for hours; the production solver
///    persists its state and resumes across job boundaries. The engine
///    serializes the complete Golub-Kahan state (vectors + recurrence
///    scalars) and resumes bit-exactly;
///  * **outer-loop integration** — re-weighting and monitoring schemes
///    interleave with the iteration (paper Fig. 1 pipeline), which needs
///    per-step control;
///  * **ranks** — with a `RankReducer` the engine runs on one rank's row
///    slice and reduces across ranks only where the recurrence needs it
///    (core/rank_reducer.hpp).
#pragma once

#include <iosfwd>

#include "core/lsqr.hpp"

namespace gaia::resilience {
class CheckpointManager;
}

namespace gaia::core {

class RankReducer;

class LsqrEngine {
 public:
  /// Prepares the solve: preconditions (if configured), copies the
  /// system to the device, and runs the bidiagonalization start. The
  /// engine keeps no pointer into `A` or `b`: it solves on its device
  /// copy, so the caller may free or change them once it is built.
  ///
  /// Distributed, `A` and `b` are this rank's row slice, `reducer` (not
  /// owned, outlives the engine) performs the cross-rank reductions, and
  /// `col_scale` carries the global column norms every rank scales its
  /// device copy by; empty means the norms of `A`. Construction is then
  /// collective.
  LsqrEngine(const matrix::SystemMatrix& A, std::span<const real> b,
             const LsqrOptions& options, RankReducer* reducer = nullptr,
             std::span<const real> col_scale = {});
  /// b defaults to A.known_terms().
  explicit LsqrEngine(const matrix::SystemMatrix& A,
                      const LsqrOptions& options = {});
  /// The same solve on a system the engine takes over: its row records
  /// become the device buffers in place (Aprod's adopting constructor),
  /// so the solve holds one copy of the system instead of two. b is
  /// A.known_terms(), copied as on the borrowing path; A keeps its known
  /// terms and dimensions, no longer its records. A device too small for
  /// the records throws before A is touched.
  LsqrEngine(matrix::SystemMatrix&& A, const LsqrOptions& options,
             RankReducer* reducer = nullptr,
             std::span<const real> col_scale = {});
  ~LsqrEngine();

  LsqrEngine(const LsqrEngine&) = delete;
  LsqrEngine& operator=(const LsqrEngine&) = delete;

  /// Runs one LSQR iteration. Returns false once finished (stopping
  /// test hit or iteration limit reached); further calls are no-ops.
  bool step();

  /// Runs until finished; returns the number of iterations executed by
  /// this call.
  std::int64_t run_to_completion();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::int64_t iteration() const { return itn_; }
  [[nodiscard]] LsqrStop stop_reason() const { return istop_; }
  /// Current residual-norm estimate (updates every step).
  [[nodiscard]] real rnorm() const { return rnorm_; }
  [[nodiscard]] real arnorm() const { return arnorm_; }

  /// Snapshot of the current solution and statistics (unscaled — valid
  /// at any point, not only at completion).
  [[nodiscard]] LsqrResult result() const;

  /// The Aprod the engine runs its products through.
  [[nodiscard]] const Aprod& aprod() const;

  /// Serializes the complete solver state (versioned binary). The
  /// checkpoint embeds the problem fingerprint; `restore` validates it.
  /// Distributed, the stream holds the globally assembled u, so it
  /// restores on any rank count; writing it is then collective.
  void checkpoint(std::ostream& os) const;
  void checkpoint(const std::string& path) const;

  /// Restores a checkpoint into an engine constructed over the *same*
  /// system, rhs and options; throws gaia::Error on fingerprint
  /// mismatch or corrupt data. Resumed runs are bit-identical to
  /// uninterrupted ones.
  void restore(std::istream& is);
  void restore(const std::string& path);

  /// Checkpoints through `manager` (not owned; outlives the engine):
  /// resumes from the newest checkpoint in its rotation that verifies
  /// and restores, then seals one at every due iteration a step does
  /// not finish on — inside that iteration's trace span. Distributed,
  /// rank 0 writes and reports. Returns the iteration resumed from, or
  /// -1 for a fresh start.
  std::int64_t use_checkpoints(resilience::CheckpointManager& manager);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  // Mirrors of hot state for the inline accessors.
  bool finished_ = false;
  std::int64_t itn_ = 0;
  LsqrStop istop_ = LsqrStop::kIterationLimit;
  real rnorm_ = 0;
  real arnorm_ = 0;

  void sync_mirrors();
};

}  // namespace gaia::core
