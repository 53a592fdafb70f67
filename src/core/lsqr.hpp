/// \file lsqr.hpp
/// \brief Preconditioned LSQR (Paige & Saunders 1982) for the AVU-GSR
/// system.
///
/// Faithful implementation of the reference algorithm (ACM TOMS 583)
/// including damping, the incremental estimates of ||A||, cond(A),
/// ||r||, ||A^T r|| and ||x||, the three-way stopping tests, and the
/// standard-error estimation the production pipeline publishes with the
/// astrometric catalogue (paper SV-C validates solutions *and* standard
/// errors).
///
/// Structure mirrors the production solver: the system is copied to the
/// device once, every per-iteration product runs through the selected
/// backend's aprod kernels, and the iteration wall time is recorded —
/// the paper's figure of merit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aprod.hpp"
#include "matrix/system_matrix.hpp"
#include "resilience/health_monitor.hpp"
#include "util/types.hpp"

namespace gaia::core {

/// Reason LSQR stopped (numbering follows the reference code).
enum class LsqrStop : int {
  kXZero = 0,          ///< b = 0; the solution is x = 0
  kAtolBtol = 1,       ///< Ax=b solved to atol/btol
  kLeastSquares = 2,   ///< least-squares solution within atol
  kConlim = 3,         ///< cond(A) exceeded conlim
  kAtolBtolEps = 4,    ///< as 1, at machine-precision limits
  kLeastSquaresEps = 5,///< as 2, at machine-precision limits
  kConlimEps = 6,      ///< as 3, at machine-precision limits
  kIterationLimit = 7, ///< max_iterations reached (the paper's P runs)
  // Extensions beyond the reference code (resilience):
  kNonFinite = 8,      ///< rnorm/arnorm went non-finite — the solve is
                       ///< poisoned and iterating further is pointless.
                       ///< Always active, even with --health=off: this
                       ///< is the detection floor.
  kSdcDetected = 9,    ///< health monitor diagnosed corruption in
                       ///< detect mode (repair mode rolls back instead)
};

[[nodiscard]] std::string to_string(LsqrStop stop);

struct LsqrOptions {
  AprodOptions aprod{};
  std::int64_t max_iterations = 100;
  /// Relative tolerances of the reference algorithm; 0 disables the
  /// corresponding test (the paper's timing runs use a fixed iteration
  /// count and never stop early).
  real atol = 0;
  real btol = 0;
  real conlim = 0;
  /// Tikhonov damping (the regularized problem min ||Ax-b||^2 +
  /// damp^2 ||x||^2).
  real damp = 0;
  /// Column-equilibrate the system before solving (production default).
  bool precondition = true;
  /// Accumulate the per-unknown standard errors.
  bool compute_std_errors = true;
  /// Record the per-iteration convergence history (rnorm, arnorm, xnorm)
  /// in the result — the data behind convergence plots and monitoring.
  bool record_history = false;
  /// Capacity of the simulated accelerator the system must fit on.
  byte_size device_capacity = 64 * kGiB;
  /// Silent-data-corruption monitoring (off by default; see
  /// resilience/health_monitor.hpp for the invariants and cost model).
  /// In repair mode the engine keeps an in-memory validated snapshot
  /// and rolls back/replays on detection, bounded by
  /// `health.max_repairs`; exhausting the budget throws
  /// resilience::SdcError with the diagnosis.
  resilience::HealthConfig health{};
};

struct LsqrResult {
  std::vector<real> x;           ///< solution, size n_cols
  std::vector<real> std_errors;  ///< per-unknown standard error (may be
                                 ///< empty if not requested)
  LsqrStop istop = LsqrStop::kIterationLimit;
  std::int64_t iterations = 0;

  // Incremental estimates at exit (reference-code semantics).
  real anorm = 0;   ///< Frobenius-norm estimate of [A; damp I]
  real acond = 0;   ///< condition estimate
  real rnorm = 0;   ///< ||r|| of the damped system
  real arnorm = 0;  ///< ||A^T r||
  real xnorm = 0;   ///< ||x||

  /// Wall time of each iteration (the paper's measurement unit) and its
  /// mean — "we report the average iteration time over 100 iterations".
  std::vector<double> iteration_seconds;
  double mean_iteration_s = 0;

  /// Per-iteration convergence history (empty unless
  /// LsqrOptions::record_history).
  std::vector<real> rnorm_history;
  std::vector<real> arnorm_history;
  std::vector<real> xnorm_history;

  /// Device accounting: all H2D traffic must happen before iteration 1
  /// (checked by tests via these counters).
  byte_size device_allocated_bytes = 0;
  byte_size h2d_bytes = 0;

  /// Resilience: backend the run finished on (differs from
  /// options.aprod.backend after failover) and how many degradation
  /// steps were taken. All backends compute identical results, so a
  /// failed-over run is still numerically valid.
  backends::BackendKind final_backend = backends::BackendKind::kSerial;
  std::uint64_t failovers = 0;
  /// Iteration a resumed run restarted from (-1 = fresh start); filled
  /// by the checkpoint-orchestrating callers (run_solver, dist).
  std::int64_t resumed_from_iteration = -1;

  /// Health-monitor outcome (mode kOff with all-zero counters unless
  /// LsqrOptions::health enabled it).
  resilience::HealthReport health{};
};

/// The reference code's stopping tests on one iteration's estimates.
/// Later tests override earlier ones, as in the reference code, so codes
/// 1/2/3 win over 4/5/6. Returns kIterationLimit when none holds, and
/// always when every tolerance is 0 — the paper's fixed-iteration timing
/// mode runs no test, not even the machine-precision ones.
[[nodiscard]] LsqrStop stop_test(const LsqrOptions& options, real bnorm,
                                 real anorm, real acond, real rnorm,
                                 real arnorm, real xnorm);

/// Solves A x ~= b where b = A.known_terms(). Throws gaia::Error if the
/// system does not fit the configured device capacity.
LsqrResult lsqr_solve(const matrix::SystemMatrix& A,
                      const LsqrOptions& options = {});

/// As above with an explicit right-hand side (size n_rows).
LsqrResult lsqr_solve(const matrix::SystemMatrix& A,
                      std::span<const real> b, const LsqrOptions& options);

}  // namespace gaia::core
