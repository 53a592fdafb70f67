/// \file rank_reducer.hpp
/// \brief The cross-rank reductions of the LSQR recurrence.
///
/// The production solver runs one LSQR iteration on every MPI rank: the
/// rows of A and the vector u are distributed by observation, x/v/w are
/// replicated, and the recurrence needs a cross-rank result at exactly
/// a handful of points (paper SIII; Cesare et al., arXiv 2308.00778):
///  * the LSQR step's q = A^T p column partials, with ||p||^2 (beta^2)
///    riding as one extra slot of the same sum;
///  * row-space norms and sums — the u unit-norm deep check, the ABFT
///    `row_check . p` term and the true-residual sum of squares;
///  * the replicated-state hash agreement and the worst-verdict
///    agreement of the health monitor;
///  * the per-iteration time maximum (paper App. B);
///  * gathering u to rank 0 for checkpoints (and re-slicing a restored
///    one), so one checkpoint format serves every rank count.
///
/// `LsqrEngine` takes a reducer as an optional constructor argument and
/// calls it only at those points; without one the engine is the
/// single-process solver. The reductions, `max_iteration_seconds`,
/// `agree` and `gather_rows` are collective: all ranks call them in the
/// same order. The accessors and `slice_rows` are local.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "resilience/health_monitor.hpp"
#include "util/types.hpp"

namespace gaia::core {

class RankReducer {
 public:
  RankReducer() = default;
  RankReducer(const RankReducer&) = delete;
  RankReducer& operator=(const RankReducer&) = delete;
  virtual ~RankReducer() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int ranks() const = 0;

  /// Sum / minimum / maximum of one per-rank scalar over all ranks.
  virtual real sum(real local) = 0;
  virtual real min(real local) = 0;
  virtual real max(real local) = 0;
  /// In-place elementwise sum over all ranks.
  virtual void sum(std::span<real> partials) = 0;

  /// The iteration time the solve reports: the maximum of this rank's
  /// `local_seconds` over all ranks.
  virtual double max_iteration_seconds(double local_seconds) = 0;

  /// The verdict every rank acts on: the first unhealthy one in rank
  /// order, or this rank's (healthy) verdict when no rank tripped.
  virtual resilience::HealthVerdict agree(
      const resilience::HealthVerdict& local) = 0;

  /// Rows of the global system (the length of an assembled u).
  [[nodiscard]] virtual std::size_t global_rows() const = 0;

  /// The global rows as consecutive segments, in global row order.
  using RowSegments = std::span<const std::span<const real>>;
  /// Gathers u to rank 0 without assembling it: every rank publishes
  /// its row slice `local`, rank 0 runs `at_root` on the ranks' slices
  /// as RowSegments while the others wait, and all ranks return once
  /// it is done. `at_root` never runs on the other ranks, and no rank
  /// copies a slice.
  virtual void gather_rows(
      std::span<const real> local,
      const std::function<void(RowSegments)>& at_root) = 0;
  /// Copies this rank's slice of the assembled `global` into `local`
  /// (local, not collective).
  virtual void slice_rows(std::span<const real> global,
                          std::span<real> local) const = 0;
};

}  // namespace gaia::core
