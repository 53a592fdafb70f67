#include "core/refinement.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gaia::core {

namespace {

real norm2(std::span<const real> v) {
  real sum = 0;
  for (real e : v) sum += e * e;
  return std::sqrt(sum);
}

real norm_inf(std::span<const real> v) {
  real m = 0;
  for (real e : v) m = std::max(m, std::abs(e));
  return m;
}

/// Every kernel pinned to fp64 storage, shapes and strategies kept —
/// the residual passes should run the production-tuned bodies, just at
/// full precision.
backends::TuningTable fp64_table(backends::TuningTable table) {
  for (backends::KernelId id : backends::all_kernels()) {
    backends::KernelConfig cfg = table.get(id);
    cfg.precision = backends::Precision::kFp64;
    table.set(id, cfg);
  }
  return table;
}

void note_refinement(const RefinementReport& report) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("refine.corrections").add(
        static_cast<std::uint64_t>(report.corrections));
    if (!report.converged) reg.counter("refine.stalls").add(1);
    reg.gauge("refine.true_rnorm").set(report.true_rnorm);
    reg.gauge("refine.true_arnorm").set(report.true_arnorm);
  }
}

}  // namespace

TrueResidual true_residual(Aprod& aprod, std::span<const real> b,
                           std::span<const real> x, std::span<real> r) {
  obs::ScopedTrace span("refine_residual", "refine");
  // r = b - A x. apply1 accumulates (y += A x), so start from zero and
  // subtract from b afterwards — one pass, no extra vector.
  std::fill(r.begin(), r.end(), real{0});
  aprod.apply1(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  TrueResidual res;
  res.rnorm = norm2(r);
  // ||A^T r|| via apply2 into a scratch gradient vector.
  std::vector<real> g(static_cast<std::size_t>(aprod.n_cols()), real{0});
  aprod.apply2(r, g);
  res.arnorm = norm2(g);
  return res;
}

RefinementReport refine_corrections(const matrix::SystemMatrix& A,
                                    std::span<const real> b,
                                    std::vector<real>& x,
                                    const LsqrOptions& reduced,
                                    const RefinementOptions& options) {
  RefinementReport report;
  obs::ScopedTrace span("refine", "refine");

  // FP64 residual driver: same backend and tuned shapes as the solve,
  // precision clamped to the seed planes. No autotuner — the shapes are
  // already resolved.
  backends::DeviceContext device(reduced.device_capacity, "refine");
  AprodOptions residual_opts = reduced.aprod;
  residual_opts.autotuner = nullptr;
  residual_opts.tuning = fp64_table(reduced.aprod.tuning);
  Aprod aprod(A, device, residual_opts);

  // Correction solves reuse the reduced configuration (same precision
  // and shape winners) but never checkpoint/monitor — they are short
  // inner solves against a small right-hand side.
  LsqrOptions correction = reduced;
  correction.aprod.autotuner = nullptr;
  correction.compute_std_errors = false;
  correction.record_history = false;
  if (options.correction_iterations > 0)
    correction.max_iterations = options.correction_iterations;

  std::vector<real> r(b.size());
  TrueResidual res = true_residual(aprod, b, x, r);
  report.true_rnorm = res.rnorm;
  report.true_arnorm = res.arnorm;
  // Nothing verified yet: a zero correction budget reports a stall so
  // the caller's fp64 fallback engages instead of trusting the
  // unrefined reduced-precision solution.
  report.converged = false;

  for (int k = 0; k < options.max_corrections; ++k) {
    // d = argmin ||A~ d - r|| in reduced precision, then x += d.
    const LsqrResult corr = lsqr_solve(A, r, correction);
    const real update = norm_inf(corr.x);
    report.update_norms.push_back(update);
    report.corrections++;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += corr.x[i];
    res = true_residual(aprod, b, x, r);
    report.true_rnorm = res.rnorm;
    report.true_arnorm = res.arnorm;
    if (update <= options.tolerance) {
      report.converged = true;
      note_refinement(report);
      return report;
    }
    report.converged = false;
  }
  note_refinement(report);
  return report;
}

}  // namespace gaia::core
