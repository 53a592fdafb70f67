#include "core/lsqr_engine.hpp"

#include <algorithm>
#include <cmath>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/preconditioner.hpp"
#include "core/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "util/profiler.hpp"
#include "util/stopwatch.hpp"

namespace gaia::core {

namespace {
constexpr char kCheckpointMagic[8] = {'G', 'A', 'I', 'A', 'C', 'K', 'P',
                                      '2'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  GAIA_CHECK(is.good(), "truncated checkpoint");
  return v;
}
void write_vec(std::ostream& os, std::span<const real> v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size_bytes()));
}
void read_vec(std::istream& is, std::span<real> v) {
  const auto n = read_pod<std::uint64_t>(is);
  GAIA_CHECK(n == v.size(), "checkpoint vector size mismatch");
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size_bytes()));
  GAIA_CHECK(is.good(), "truncated checkpoint");
}
}  // namespace

struct LsqrEngine::Impl {
  LsqrOptions options;
  /// Column norms when preconditioning (empty otherwise). The scaling
  /// is applied to the Aprod's device-resident coefficient copy only —
  /// no second host copy of the system lives through the solve.
  std::vector<real> col_scale;
  std::size_t m = 0, n = 0;

  backends::DeviceContext device;
  std::unique_ptr<Aprod> aprod;
  backends::DeviceBuffer<real> d_u, d_v, d_w, d_x, d_var;

  // Recurrence scalars.
  real alpha = 0, beta = 0, bnorm = 0;
  real rhobar = 0, phibar = 0;
  real rnorm = 0, arnorm = 0;
  real anorm = 0, acond = 0, ddnorm = 0, res2 = 0;
  real xnorm = 0, xxnorm = 0, z = 0, cs2 = -1, sn2 = 0;

  std::int64_t itn = 0;
  bool finished = false;
  LsqrStop istop = LsqrStop::kIterationLimit;
  std::vector<double> iteration_seconds;
  std::vector<real> rnorm_history, arnorm_history, xnorm_history;

  // Silent-corruption defense (engaged when options.health is not off):
  // the monitor runs the invariant checks; b_host/resid_scratch feed the
  // true-residual recompute; good_state is the in-memory rollback target
  // of repair mode — refreshed only *after* a deep check passed, so a
  // restore never lands inside the corruption it is escaping.
  std::unique_ptr<resilience::HealthMonitor> health;
  std::vector<real> b_host, resid_scratch;
  std::string good_state;
  std::int64_t good_itn = 0;
  // ABFT checksum-vector state: col_check = A^T 1_m and row_check =
  // A 1_n, precomputed once on a clean system; per iteration the summed
  // kernel outputs are verified against sum(A v) = col_check . v and
  // sum(A^T u) = row_check . u. sum_u/sum_v track the sums of the
  // current normalized basis vectors (rescaled, never re-summed).
  std::vector<real> col_check, row_check;
  real col_check_norm = 0, row_check_norm = 0;
  real sum_u = 0, sum_v = 0;

  Impl(const matrix::SystemMatrix& A_in, std::span<const real> b,
       const LsqrOptions& opts)
      : options(opts),
        device(opts.device_capacity,
               backends::to_string(opts.aprod.backend) + "-device") {
    GAIA_CHECK(static_cast<row_index>(b.size()) == A_in.n_rows(),
               "rhs size mismatch");
    GAIA_CHECK(options.max_iterations > 0,
               "need a positive iteration limit");
    if (options.precondition) col_scale = column_norms(A_in);
    m = static_cast<std::size_t>(A_in.n_rows());
    n = static_cast<std::size_t>(A_in.n_cols());

    aprod = std::make_unique<Aprod>(A_in, device, options.aprod, col_scale);
    d_u = backends::DeviceBuffer<real>(device, b);
    d_v = backends::DeviceBuffer<real>(device, n);
    d_w = backends::DeviceBuffer<real>(device, n);
    d_x = backends::DeviceBuffer<real>(device, n);
    d_var = backends::DeviceBuffer<real>(
        device, options.compute_std_errors ? n : std::size_t{0});
    d_v.fill(real{0});
    d_w.fill(real{0});
    d_x.fill(real{0});
    if (options.compute_std_errors) d_var.fill(real{0});

    // Golub-Kahan start.
    const auto backend = aprod->active_backend();
    beta = vnorm(d_u.span());
    if (beta > 0) {
      vscale(backend, d_u.span(), real{1} / beta);
      aprod->apply2(d_u.span(), d_v.span());
      alpha = vnorm(d_v.span());
    }
    if (alpha > 0) {
      vscale(backend, d_v.span(), real{1} / alpha);
      std::copy(d_v.span().begin(), d_v.span().end(), d_w.span().begin());
    }
    bnorm = beta;
    rhobar = alpha;
    phibar = beta;
    rnorm = beta;
    arnorm = alpha * beta;
    if (arnorm == 0) {
      finished = true;
      istop = LsqrStop::kXZero;
    }

    if (options.health.enabled()) {
      health = std::make_unique<resilience::HealthMonitor>(options.health);
      // The recompute checks need b on the host (b is the *unchanged*
      // rhs — preconditioning only scales columns).
      b_host.assign(b.begin(), b.end());
      resid_scratch.assign(m, real{0});
      // ABFT checksum vectors, via the kernels themselves so every
      // backend's product is checked against its own arithmetic.
      std::vector<real> ones(std::max(m, n), real{1});
      col_check.assign(n, real{0});
      aprod->apply2(std::span<const real>(ones.data(), m), col_check);
      row_check.assign(m, real{0});
      aprod->apply1(std::span<const real>(ones.data(), n), row_check);
      col_check_norm = vnorm(col_check);
      row_check_norm = vnorm(row_check);
      sum_u = vsum(d_u.span());
      sum_v = vsum(d_v.span());
      if (options.health.mode == resilience::HealthMode::kRepair)
        refresh_good_state();  // iteration-0 rollback target
    }
  }

  /// Fingerprint binding a checkpoint to (problem, options).
  std::uint64_t fingerprint() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(m));
    mix(static_cast<std::uint64_t>(n));
    // max_iterations is deliberately NOT part of the fingerprint: the
  // iteration budget does not change the trajectory, so a resumed run
  // may extend it (rerun with a larger --iterations). Launch-shape
  // tuning (AprodOptions::tuning, the autotuner) is excluded for the
  // same reason: shapes change kernel timing, never the numerics, so a
  // checkpoint taken untuned may be resumed autotuned and vice versa.
    mix(static_cast<std::uint64_t>(options.precondition));
    mix(static_cast<std::uint64_t>(options.compute_std_errors));
    mix(std::bit_cast<std::uint64_t>(options.damp));
    // First and last coefficient of the (scaled) device-resident copy.
    const real* values = aprod->view().values;
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(values[0])));
    mix(std::bit_cast<std::uint64_t>(
        static_cast<double>(values[m * kNnzPerRow - 1])));
    return h;
  }

  /// Raw checkpoint stream (no file framing): the on-disk format of
  /// LsqrEngine::checkpoint *and* the in-memory rollback snapshot of
  /// repair mode.
  void save_state(std::ostream& os) const {
    os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
    write_pod(os, fingerprint());
    write_pod(os, itn);
    write_pod(os, static_cast<std::uint8_t>(finished ? 1 : 0));
    write_pod(os, static_cast<std::int32_t>(istop));
    for (real v : {alpha, beta, bnorm, rhobar, phibar, rnorm, arnorm,
                   anorm, acond, ddnorm, res2, xnorm, xxnorm, z, cs2, sn2})
      write_pod(os, v);
    write_vec(os, d_u.span());
    write_vec(os, d_v.span());
    write_vec(os, d_w.span());
    write_vec(os, d_x.span());
    write_vec(os, d_var.span());
    write_pod(os, static_cast<std::uint64_t>(iteration_seconds.size()));
    os.write(reinterpret_cast<const char*>(iteration_seconds.data()),
             static_cast<std::streamsize>(iteration_seconds.size() *
                                          sizeof(double)));
    for (const auto* hist :
         {&rnorm_history, &arnorm_history, &xnorm_history})
      write_vec(os, std::span<const real>(hist->data(), hist->size()));
    GAIA_CHECK(os.good(), "checkpoint write failed");
  }

  void load_state(std::istream& is) {
    char magic[8];
    is.read(magic, sizeof(magic));
    GAIA_CHECK(is.good() &&
                   std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0,
               "not a gaia LSQR checkpoint");
    GAIA_CHECK(read_pod<std::uint64_t>(is) == fingerprint(),
               "checkpoint does not match this system/options");
    itn = read_pod<std::int64_t>(is);
    finished = read_pod<std::uint8_t>(is) != 0;
    istop = static_cast<LsqrStop>(read_pod<std::int32_t>(is));
    for (real* v : {&alpha, &beta, &bnorm, &rhobar, &phibar, &rnorm,
                    &arnorm, &anorm, &acond, &ddnorm, &res2, &xnorm,
                    &xxnorm, &z, &cs2, &sn2})
      *v = read_pod<real>(is);
    read_vec(is, d_u.span());
    read_vec(is, d_v.span());
    read_vec(is, d_w.span());
    read_vec(is, d_x.span());
    read_vec(is, d_var.span());
    const auto n_times = read_pod<std::uint64_t>(is);
    iteration_seconds.resize(n_times);
    is.read(reinterpret_cast<char*>(iteration_seconds.data()),
            static_cast<std::streamsize>(n_times * sizeof(double)));
    GAIA_CHECK(is.good(), "truncated checkpoint");
    for (auto* hist : {&rnorm_history, &arnorm_history, &xnorm_history}) {
      const auto n_hist = read_pod<std::uint64_t>(is);
      hist->resize(n_hist);
      is.read(reinterpret_cast<char*>(hist->data()),
              static_cast<std::streamsize>(n_hist * sizeof(real)));
      GAIA_CHECK(is.good(), "truncated checkpoint");
    }
    if (health) {
      sum_u = vsum(d_u.span());
      sum_v = vsum(d_v.span());
    }
  }

  void refresh_good_state() {
    std::ostringstream os(std::ios::binary);
    save_state(os);
    good_state = std::move(os).str();
    good_itn = itn;
  }

  /// `sdc:` clause hook: silently flips a bit in the combined output
  /// vector of the named aprod pass. Disarmed cost: one relaxed load.
  void maybe_inject_sdc(std::string_view pass, std::span<real> out) {
    auto& injector = resilience::FaultInjector::global();
    if (!injector.armed()) return;
    if (const auto flip = injector.on_kernel_output(pass, itn, 0, out.size()))
      resilience::apply_bitflip(out, *flip);
  }

  /// The every-K deep pass: segment checksums + the two ABFT agreement
  /// cross-checks (||x|| vs the xnorm recurrence, recomputed ||b - Ax||
  /// vs the rnorm estimate). Returns the first tripped invariant.
  resilience::HealthVerdict run_deep_checks() {
    using resilience::HealthInvariant;
    health->note_deep_check();
    obs::ScopedTrace span("health.deep_check", "resilience");
    const auto& cfg = options.health;
    auto verdict = health->check_vector(
        itn, "u", d_u.span(), beta > 0 ? real{1} : real{-1},
        cfg.unit_norm_tol, HealthInvariant::kUnitNorm);
    if (!verdict.healthy()) return verdict;
    verdict = health->check_vector(
        itn, "v", d_v.span(), alpha > 0 ? real{1} : real{-1},
        cfg.unit_norm_tol, HealthInvariant::kUnitNorm);
    if (!verdict.healthy()) return verdict;
    verdict = health->check_vector(itn, "x", d_x.span(), xnorm,
                                   cfg.xnorm_rel_tol,
                                   HealthInvariant::kXnormAgreement);
    if (!verdict.healthy()) return verdict;

    // True-residual recompute (one extra apply1 — the overhead term):
    // r = b - A x, plus the damping contribution when damp != 0, against
    // the recurrence's rnorm. Skipped deep in the convergence plateau,
    // where the difference is dominated by cancellation, not corruption.
    if (rnorm > bnorm * real{1e-9}) {
      std::fill(resid_scratch.begin(), resid_scratch.end(), real{0});
      aprod->apply1(d_x.span(), resid_scratch);  // resid = A x
      real sum = 0, comp = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const real d = b_host[i] - resid_scratch[i];
        const real term = d * d - comp;
        const real next = sum + term;
        comp = (next - sum) - term;
        sum = next;
      }
      if (options.damp != 0) {
        const real xn = vnorm(d_x.span());
        sum += options.damp * options.damp * xn * xn;
      }
      verdict = health->check_agreement(
          itn, "rnorm", std::sqrt(sum), rnorm, cfg.residual_rel_tol,
          HealthInvariant::kResidualAgreement);
    }
    return verdict;
  }

  /// Rollback of repair mode: restore the last validated snapshot and
  /// replay. Injector clause counters are *not* rolled back (a count=1
  /// sdc clause stays spent), so the replay runs clean.
  void repair(const resilience::HealthVerdict& verdict) {
    const std::int64_t detected_at = itn;
    std::istringstream is(good_state, std::ios::binary);
    load_state(is);
    health->record_repair(detected_at, itn);
    health->reset_window();
    (void)verdict;
  }

  /// Convergence telemetry for the iteration that just finished: span
  /// args for the timeline, counter tracks for Perfetto's counter view,
  /// and registry metrics for the CSV export.
  void record_iteration_telemetry(obs::ScopedTrace& span, double seconds) {
    span.add_arg({"rnorm", static_cast<double>(rnorm)});
    span.add_arg({"arnorm", static_cast<double>(arnorm)});
    auto& rec = obs::TraceRecorder::current();
    if (rec.enabled()) {
      const double now = rec.now_us();
      rec.counter("lsqr.rnorm", now, rnorm);
      rec.counter("lsqr.arnorm", now, arnorm);
    }
    auto& reg = obs::MetricsRegistry::global();
    if (reg.enabled()) {
      static obs::Counter& iters = reg.counter("lsqr.iterations");
      static obs::Histogram& times = reg.histogram("lsqr.iteration_seconds");
      static obs::Gauge& g_rnorm = reg.gauge("lsqr.rnorm");
      static obs::Gauge& g_arnorm = reg.gauge("lsqr.arnorm");
      static obs::Gauge& g_xnorm = reg.gauge("lsqr.xnorm");
      iters.add(1);
      times.record(seconds);
      g_rnorm.set(rnorm);
      g_arnorm.set(arnorm);
      g_xnorm.set(xnorm);
    }
    // Live progress row for the telemetry sampler (rank-attributed via
    // the thread-local set by dist rank bodies; -1 single-process).
    auto& board = obs::ProgressBoard::global();
    if (board.enabled())
      board.update(obs::ProgressBoard::thread_rank(), itn, rnorm, arnorm);
  }

  bool step() {
    if (finished) return false;
    // Vector ops follow the aprod driver's backend so a failed-over run
    // stays coherent (aprod kernels and BLAS1 on the same executor).
    const auto backend = aprod->active_backend();
    const real damp = options.damp;
    util::Stopwatch watch;
    ++itn;
    obs::ScopedTrace iter_span("lsqr.iteration", "lsqr");
    iter_span.add_arg({"itn", static_cast<std::int64_t>(itn)});

    auto u = d_u.span();
    auto v = d_v.span();
    auto w = d_w.span();
    auto x = d_x.span();

    // ABFT bookkeeping: sums of the basis vectors entering this
    // iteration, and the first checksum verdict (if any) to surface.
    const real s_u_old = sum_u, s_v_old = sum_v;
    resilience::HealthVerdict abft;

    {
      util::ScopedRegion region("blas1_scale");
      vscale(backend, u, -alpha);
    }
    aprod->apply1(v, u);
    maybe_inject_sdc("aprod1", u);
    if (health) {
      // u now holds A v - alpha u_old; its sum must equal
      // col_check . v - alpha sum(u_old) to rounding.
      const real actual = vsum(u);
      const real expected = vdot(col_check, v) - alpha * s_u_old;
      const real scale =
          col_check_norm +
          std::abs(alpha) * std::sqrt(static_cast<real>(m)) +
          std::abs(actual);
      abft = health->check_kernel_checksum(itn, "aprod1", actual,
                                           expected, scale);
      sum_u = actual;
    }
    {
      util::ScopedRegion region("reduction_norm");
      beta = vnorm(u);
    }
    if (beta > 0) {
      {
        util::ScopedRegion region("blas1_scale");
        vscale(backend, u, real{1} / beta);
        anorm = std::sqrt(anorm * anorm + alpha * alpha + beta * beta +
                          damp * damp);
        vscale(backend, v, -beta);
      }
      if (health) sum_u /= beta;
      aprod->apply2(u, v);
      maybe_inject_sdc("aprod2", v);
      if (health) {
        // v now holds A^T u - beta v_old (u freshly normalized).
        const real actual = vsum(v);
        const real expected = vdot(row_check, u) - beta * s_v_old;
        const real scale =
            row_check_norm +
            std::abs(beta) * std::sqrt(static_cast<real>(n)) +
            std::abs(actual);
        if (abft.healthy())
          abft = health->check_kernel_checksum(itn, "aprod2", actual,
                                               expected, scale);
        sum_v = actual;
      }
      {
        util::ScopedRegion region("reduction_norm");
        alpha = vnorm(v);
      }
      if (alpha > 0) {
        util::ScopedRegion region("blas1_scale");
        vscale(backend, v, real{1} / alpha);
        if (health) sum_v /= alpha;
      }
    }

    const real rhobar1 = std::sqrt(rhobar * rhobar + damp * damp);
    const real cs1 = rhobar / rhobar1;
    const real psi = (damp / rhobar1) * phibar;
    phibar = cs1 * phibar;

    const real rho = std::sqrt(rhobar1 * rhobar1 + beta * beta);
    const real cs = rhobar1 / rho;
    const real sn = beta / rho;
    const real theta = sn * alpha;
    rhobar = -cs * alpha;
    const real phi = cs * phibar;
    phibar = sn * phibar;
    const real tau = sn * phi;

    {
      util::ScopedRegion region("blas1_updates");
      if (options.compute_std_errors)
        vaccumulate_sq(backend, d_var.span(), real{1} / rho, w);
      ddnorm += (real{1} / rho) * (real{1} / rho) * vdot(w, w);
      vaxpy(backend, x, phi / rho, w);
      vxpby(backend, w, v, -theta / rho);
    }

    const real delta = sn2 * rho;
    const real gambar = -cs2 * rho;
    const real rhs = phi - delta * z;
    xnorm = std::sqrt(xxnorm + (rhs / gambar) * (rhs / gambar));
    const real gamma = std::sqrt(gambar * gambar + theta * theta);
    cs2 = gambar / gamma;
    sn2 = theta / gamma;
    z = rhs / gamma;
    xxnorm += z * z;

    acond = anorm * std::sqrt(ddnorm);
    res2 += psi * psi;
    rnorm = std::sqrt(phibar * phibar + res2);
    arnorm = alpha * std::abs(tau);

    if (options.record_history) {
      rnorm_history.push_back(rnorm);
      arnorm_history.push_back(arnorm);
      xnorm_history.push_back(xnorm);
    }
    const double iteration_s = watch.elapsed_s();
    iteration_seconds.push_back(iteration_s);
    record_iteration_telemetry(iter_span, iteration_s);

    // --- silent-corruption defense -----------------------------------
    if (health) {
      auto verdict = abft;  // the same-iteration detector reports first
      if (verdict.healthy())
        verdict =
            health->check_scalars(itn, alpha, beta, rnorm, arnorm, xnorm);
      if (verdict.healthy()) verdict = health->check_rnorm_window(itn, rnorm);
      if (verdict.healthy() && options.health.due(itn)) {
        verdict = run_deep_checks();
        // Seal the rollback target only after the full pass came back
        // clean: a snapshot is a *validated* state, never a hopeful one.
        if (verdict.healthy() &&
            options.health.mode == resilience::HealthMode::kRepair)
          refresh_good_state();
      }
      if (!verdict.healthy()) {
        health->record_detection(verdict);
        if (options.health.mode == resilience::HealthMode::kRepair) {
          if (health->repairs() >=
              static_cast<std::uint64_t>(options.health.max_repairs)) {
            health->record_unrepaired(verdict);
            throw resilience::SdcError(verdict);
          }
          repair(verdict);
          return true;  // replay resumes from the validated snapshot
        }
        finished = true;
        istop = verdict.invariant ==
                        resilience::HealthInvariant::kScalarFinite
                    ? LsqrStop::kNonFinite
                    : LsqrStop::kSdcDetected;
        return false;
      }
    } else if (!std::isfinite(rnorm) || !std::isfinite(arnorm)) {
      // Detection floor, active even with --health=off: a non-finite
      // residual estimate satisfies no stop test and would otherwise
      // burn the whole iteration budget on a poisoned solve.
      finished = true;
      istop = LsqrStop::kNonFinite;
      return false;
    }

    // Stopping tests (reference-code numbering; skipped when all
    // tolerances are zero, the paper's fixed-iteration timing mode).
    if (options.atol > 0 || options.btol > 0 || options.conlim > 0) {
      const real ctol =
          options.conlim > 0 ? real{1} / options.conlim : real{0};
      const real test1 = rnorm / bnorm;
      const real test2 =
          anorm * rnorm > 0 ? arnorm / (anorm * rnorm) : real{0};
      const real test3 = acond > 0 ? real{1} / acond : real{0};
      const real t1s = test1 / (real{1} + anorm * xnorm / bnorm);
      const real rtol = options.btol + options.atol * anorm * xnorm / bnorm;
      if (real{1} + test3 <= real{1}) {
        istop = LsqrStop::kConlimEps;
      } else if (real{1} + test2 <= real{1}) {
        istop = LsqrStop::kLeastSquaresEps;
      } else if (real{1} + t1s <= real{1}) {
        istop = LsqrStop::kAtolBtolEps;
      } else if (ctol > 0 && test3 <= ctol) {
        istop = LsqrStop::kConlim;
      } else if (options.atol > 0 && test2 <= options.atol) {
        istop = LsqrStop::kLeastSquares;
      } else if ((options.atol > 0 || options.btol > 0) && test1 <= rtol) {
        istop = LsqrStop::kAtolBtol;
      }
      if (istop != LsqrStop::kIterationLimit) finished = true;
    }
    if (itn >= options.max_iterations) finished = true;
    return !finished;
  }

  LsqrResult make_result() const {
    LsqrResult result;
    result.x.assign(n, real{0});
    d_x.copy_to_host(result.x);
    if (options.precondition) unscale_solution(result.x, col_scale);
    if (options.compute_std_errors) {
      result.std_errors.assign(n, real{0});
      d_var.copy_to_host(result.std_errors);
      const real dof = m > n ? static_cast<real>(m - n) : real{1};
      const real s = rnorm / std::sqrt(dof);
      for (auto& se : result.std_errors) se = s * std::sqrt(se);
      if (options.precondition)
        unscale_solution(result.std_errors, col_scale);
    }
    result.istop = istop;
    result.iterations = itn;
    result.anorm = anorm;
    result.acond = acond;
    result.rnorm = rnorm;
    result.arnorm = arnorm;
    result.xnorm = xnorm;
    result.iteration_seconds = iteration_seconds;
    result.rnorm_history = rnorm_history;
    result.arnorm_history = arnorm_history;
    result.xnorm_history = xnorm_history;
    if (!iteration_seconds.empty()) {
      double total = 0;
      for (double t : iteration_seconds) total += t;
      result.mean_iteration_s =
          total / static_cast<double>(iteration_seconds.size());
    }
    result.device_allocated_bytes = device.allocated();
    result.h2d_bytes = device.h2d_bytes();
    result.final_backend = aprod->active_backend();
    result.failovers = aprod->failovers();
    if (health) result.health = health->report();
    return result;
  }
};

LsqrEngine::LsqrEngine(const matrix::SystemMatrix& A,
                       std::span<const real> b, const LsqrOptions& options)
    : impl_(std::make_unique<Impl>(A, b, options)) {
  sync_mirrors();
}

LsqrEngine::LsqrEngine(const matrix::SystemMatrix& A,
                       const LsqrOptions& options)
    : LsqrEngine(A, A.known_terms(), options) {}

LsqrEngine::~LsqrEngine() = default;

void LsqrEngine::sync_mirrors() {
  finished_ = impl_->finished;
  itn_ = impl_->itn;
  istop_ = impl_->istop;
  rnorm_ = impl_->rnorm;
  arnorm_ = impl_->arnorm;
}

bool LsqrEngine::step() {
  const bool more = impl_->step();
  sync_mirrors();
  return more;
}

std::int64_t LsqrEngine::run_to_completion() {
  std::int64_t steps = 0;
  while (!impl_->finished) {
    impl_->step();
    ++steps;
  }
  sync_mirrors();
  return steps;
}

LsqrResult LsqrEngine::result() const { return impl_->make_result(); }

void LsqrEngine::checkpoint(std::ostream& os) const {
  impl_->save_state(os);
}

void LsqrEngine::checkpoint(const std::string& path) const {
  // File checkpoints get the durable framing on top of the raw stream
  // format: write-temp-then-rename plus a CRC32 footer, so a crash
  // mid-write can never leave a half-checkpoint under the final name.
  std::ostringstream payload(std::ios::binary);
  checkpoint(payload);
  resilience::write_framed_file(path, payload.view());
}

void LsqrEngine::restore(std::istream& is) {
  impl_->load_state(is);
  // A restored state becomes the rollback target of repair mode: it
  // came from a CRC-validated checkpoint the caller chose to trust.
  if (impl_->health &&
      impl_->options.health.mode == resilience::HealthMode::kRepair)
    impl_->refresh_good_state();
  sync_mirrors();
}

void LsqrEngine::restore(const std::string& path) {
  // Validates the CRC32 footer before parsing: truncated or bit-flipped
  // files are rejected with an error naming the path and the reason.
  std::istringstream payload(resilience::read_framed_file(path),
                             std::ios::binary);
  restore(payload);
}

}  // namespace gaia::core
