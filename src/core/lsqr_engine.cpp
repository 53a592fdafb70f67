#include "core/lsqr_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <bit>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/preconditioner.hpp"
#include "core/rank_reducer.hpp"
#include "core/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "util/stopwatch.hpp"

namespace gaia::core {

namespace {
constexpr char kCheckpointMagic[8] = {'G', 'A', 'I', 'A', 'C', 'K', 'P',
                                      '2'};

/// The byte sinks of the one checkpoint serializer (`write_state`):
/// `into(x)` is a callable `put(data, bytes)` that appends to a stream,
/// a sealed file or the repair snapshot's string.
auto into(std::ostream& os) {
  return [&os](const void* data, std::size_t bytes) {
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  };
}
auto into(util::FramedFileWriter& out) {
  return [&out](const void* data, std::size_t bytes) {
    out.append(data, bytes);
  };
}
auto into(std::string& s) {
  return [&s](const void* data, std::size_t bytes) {
    s.append(static_cast<const char*>(data), bytes);
  };
}
template <typename Put, typename T>
void put_pod(Put& put, const T& v) {
  put(&v, sizeof(T));
}
template <typename Put>
void put_vec(Put& put, std::span<const real> v) {
  put_pod(put, static_cast<std::uint64_t>(v.size()));
  put(v.data(), v.size_bytes());
}
/// put_vec of scale * u, where u is given as consecutive row segments,
/// converted block by block (no second copy).
template <typename Put>
void put_scaled_rows(Put& put, RankReducer::RowSegments u, real scale) {
  std::uint64_t size = 0;
  for (const std::span<const real> segment : u) size += segment.size();
  put_pod(put, size);
  std::array<real, 512> block;
  for (const std::span<const real> segment : u) {
    if (scale == real{1}) {
      put(segment.data(), segment.size_bytes());
      continue;
    }
    for (std::size_t i = 0; i < segment.size(); i += block.size()) {
      const std::size_t len = std::min(block.size(), segment.size() - i);
      for (std::size_t k = 0; k < len; ++k) block[k] = scale * segment[i + k];
      put(block.data(), len * sizeof(real));
    }
  }
}
template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  GAIA_CHECK(is.good(), "truncated checkpoint");
  return v;
}
void read_values(std::istream& is, std::span<real> v) {
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size_bytes()));
  GAIA_CHECK(is.good(), "truncated checkpoint");
}
void read_vec(std::istream& is, std::span<real> v) {
  GAIA_CHECK(read_pod<std::uint64_t>(is) == v.size(),
             "checkpoint vector size mismatch");
  read_values(is, v);
}

/// Indices into kLayerRows.
enum LayerRow : std::size_t {
  kLayerStep,
  kLayerTail,
  kLayerHealth,
  kLayerComm,
  kLayerCheckpoint,
  kLayerUnattributed,
};
static_assert(kLayerRows.size() == kLayerUnattributed + 1 &&
              kLayerRows[kLayerStep] == "step" &&
              kLayerRows[kLayerTail] == "tail" &&
              kLayerRows[kLayerHealth] == "health" &&
              kLayerRows[kLayerComm] == "comm" &&
              kLayerRows[kLayerCheckpoint] == "checkpoint" &&
              kLayerRows[kLayerUnattributed] == "unattributed");

/// One step() call's layer record. Armed only while the registry is
/// enabled: it then reads the clock where the call starts and ends and
/// where each timed phase starts and ends, and records one sample per
/// row when the call leaves, on every path. Time outside every phase is
/// the unattributed row, so the rows sum to the call's wall time.
class LayerRecord {
 public:
  using Clock = std::chrono::steady_clock;

  /// Charges the time until its scope ends to one row.
  class Phase {
   public:
    Phase(LayerRecord& record, LayerRow row)
        : spent_(record.armed_ ? &record.spent_[row] : nullptr),
          start_(spent_ ? Clock::now() : Clock::time_point{}) {}
    ~Phase() {
      if (spent_) *spent_ += Clock::now() - start_;
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Clock::duration* spent_;
    Clock::time_point start_;
  };

  LayerRecord()
      : armed_(obs::MetricsRegistry::global().enabled()),
        start_(armed_ ? Clock::now() : Clock::time_point{}) {}
  ~LayerRecord() {
    if (!armed_) return;
    Clock::duration& rest = spent_[kLayerUnattributed];
    rest = Clock::now() - start_;
    for (std::size_t r = 0; r < kLayerUnattributed; ++r) rest -= spent_[r];
    static const auto rows = [] {
      std::array<obs::Histogram*, kLayerRows.size()> out{};
      for (std::size_t r = 0; r < out.size(); ++r)
        out[r] = &obs::MetricsRegistry::global().histogram(
            layer_metric_name(kLayerRows[r]));
      return out;
    }();
    for (std::size_t r = 0; r < rows.size(); ++r)
      rows[r]->record(std::chrono::duration<double>(spent_[r]).count());
  }
  LayerRecord(const LayerRecord&) = delete;
  LayerRecord& operator=(const LayerRecord&) = delete;

 private:
  bool armed_;
  Clock::time_point start_;
  std::array<Clock::duration, kLayerRows.size()> spent_{};
};
}  // namespace

std::string layer_metric_name(std::string_view row) {
  return "lsqr.layer." + std::string(row) + "_seconds";
}

struct LsqrEngine::Impl {
  LsqrOptions options;
  /// Cross-rank reductions of a distributed solve (not owned); null for
  /// the single-process solver, where every branch on it is taken once
  /// per call site and the step issues no extra work.
  RankReducer* reducer = nullptr;
  int rank = 0;
  /// Column norms when preconditioning (empty otherwise). The scaling
  /// is applied to the Aprod's device-resident coefficients only (the
  /// uploaded copy, or the adopted records) — no scaled host copy of the
  /// system lives beside them.
  std::vector<real> col_scale;
  /// Rows/columns of this engine's system: a rank's slice when
  /// distributed.
  std::size_t m = 0, n = 0;
  std::uint64_t fingerprint = 0;
  /// Rotation step() seals checkpoints into (not owned; null = none).
  resilience::CheckpointManager* checkpoints = nullptr;

  backends::DeviceContext device;
  std::unique_ptr<Aprod> aprod;
  /// u holds p, the step pass's unnormalized output: the basis vector
  /// the recurrence means is sigma * u (`sigma`, the pending scale).
  backends::DeviceBuffer<real> d_u, d_v, d_w, d_x, d_var;
  /// q = A^T p of the step pass, plus one slot for ||p||^2, so that a
  /// distributed step sums both across ranks in one collective.
  backends::DeviceBuffer<real> d_q;

  // Recurrence scalars.
  real sigma = 1;
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
  // step outputs are verified against sum(p) = col_check . v -
  // alpha sum(u) and sum(q) = row_check . p. sum_u tracks the sum of
  // the current normalized u (rescaled, never re-summed).
  std::vector<real> col_check, row_check;
  real col_check_norm = 0, row_check_norm = 0;
  real sum_u = 0;

  /// The one construction path. `System` is `const SystemMatrix&`
  /// (Aprod uploads A) or `SystemMatrix` (Aprod adopts A's records, and
  /// nothing below the Aprod reads A).
  template <typename System>
  Impl(System&& A_in, std::span<const real> b, const LsqrOptions& opts,
       RankReducer* reducer_in, std::span<const real> given_col_scale)
      : options(opts),
        reducer(reducer_in),
        rank(reducer_in ? reducer_in->rank() : 0),
        device(opts.device_capacity,
               backends::to_string(opts.aprod.backend) + "-device") {
    GAIA_CHECK(static_cast<row_index>(b.size()) == A_in.n_rows(),
               "rhs size mismatch");
    GAIA_CHECK(options.max_iterations > 0,
               "need a positive iteration limit");
    if (options.precondition)
      col_scale = given_col_scale.empty()
                      ? column_norms(A_in)
                      : std::vector<real>(given_col_scale.begin(),
                                          given_col_scale.end());
    m = static_cast<std::size_t>(A_in.n_rows());
    n = static_cast<std::size_t>(A_in.n_cols());

    aprod = std::make_unique<Aprod>(std::forward<System>(A_in), device,
                                    options.aprod, col_scale);
    d_u = backends::DeviceBuffer<real>(device, b);
    d_v = backends::DeviceBuffer<real>(device, n);
    d_w = backends::DeviceBuffer<real>(device, n);
    d_x = backends::DeviceBuffer<real>(device, n);
    d_var = backends::DeviceBuffer<real>(
        device, options.compute_std_errors ? n : std::size_t{0});
    d_q = backends::DeviceBuffer<real>(device, n + 1);
    d_v.fill(real{0});
    d_w.fill(real{0});
    d_x.fill(real{0});
    if (options.compute_std_errors) d_var.fill(real{0});
    fingerprint = compute_fingerprint();

    // Golub-Kahan start: the step pass with v = 0 and alpha = -1 leaves
    // p = b in u and q = A^T b, so beta u = b and alpha v = A^T u follow
    // on n-length vectors alone.
    run_step_pass(real{-1});
    if (reducer) reducer->sum(d_q.span());
    beta = std::sqrt(d_q.span()[n]);
    if (beta > 0) update_v();
    if (alpha > 0)
      std::copy(d_v.span().begin(), d_v.span().end(), d_w.span().begin());
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
      health =
          std::make_unique<resilience::HealthMonitor>(options.health, rank);
      // The recompute checks need b on the host (b is the *unchanged*
      // rhs — preconditioning only scales columns).
      b_host.assign(b.begin(), b.end());
      resid_scratch.assign(m, real{0});
      // ABFT checksum vectors, via the kernels themselves so every
      // backend's product is checked against its own arithmetic. Both
      // are rank-local: the aprod1 identity holds per slice, and the
      // aprod2 one sums its row_check . u term across ranks.
      std::vector<real> ones(std::max(m, n), real{1});
      col_check.assign(n, real{0});
      aprod->apply2(std::span<const real>(ones.data(), m), col_check);
      row_check.assign(m, real{0});
      aprod->apply1(std::span<const real>(ones.data(), n), row_check);
      col_check_norm = vnorm(aprod->active_backend(), col_check);
      row_check_norm = row_norm(row_check);
      materialize_u();
      sum_u = vsum(aprod->active_backend(), d_u.span());
      if (options.health.mode == resilience::HealthMode::kRepair)
        refresh_good_state();  // iteration-0 rollback target
    }
  }

  /// ||y|| over the global row space (y is this rank's slice when
  /// distributed).
  real row_norm(std::span<const real> y) const {
    const real local = vnorm(aprod->active_backend(), y);
    return reducer ? std::sqrt(reducer->sum(local * local)) : local;
  }

  /// a . b over the global row space.
  real row_dot(std::span<const real> a, std::span<const real> b) const {
    const real local = vdot(aprod->active_backend(), a, b);
    return reducer ? reducer->sum(local) : local;
  }

  /// The step pass (Aprod::step) at the current v, u and pending scale:
  /// u <- p = A v - alpha_in (sigma u), q <- A^T p, and ||p||^2 into q's
  /// last slot. Distributed, q and ||p||^2 are this rank's partials
  /// until one allreduce of d_q sums both.
  void run_step_pass(real alpha_in) {
    auto q = d_q.span();
    q[n] = aprod->step(d_v.span(), d_u.span(), q.first(n), sigma, alpha_in);
  }

  /// The n-length end of a step once beta > 0: u = p / beta becomes the
  /// pending scale sigma, v <- sigma q - beta v, alpha = ||v||, and
  /// v <- v / alpha.
  void update_v() {
    const auto backend = aprod->active_backend();
    auto v = d_v.span();
    sigma = real{1} / beta;
    vaxpby(backend, v, sigma, d_q.span().first(n), -beta);
    alpha = vnorm(backend, v);
    if (alpha > 0) vscale(backend, v, real{1} / alpha);
  }

  /// u <- sigma u, sigma <- 1. The step pass multiplies u by sigma
  /// before alpha, so this never changes the trajectory.
  void materialize_u() {
    if (sigma == real{1}) return;
    vscale(aprod->active_backend(), d_u.span(), sigma);
    sigma = 1;
  }

  /// Fingerprint binding a checkpoint to (problem, options) — never to
  /// the rank count. Distributed, the global row count and the global
  /// first and last coefficients (rank 0's first row, the last rank's
  /// constraint tail) stand in for this rank's slice.
  std::uint64_t compute_fingerprint() const {
    const real* values = aprod->view().values;
    std::array<real, 2> edges = {
        m > 0 ? values[0] : real{0},
        m > 0 ? values[m * kNnzPerRow - 1] : real{0}};
    std::size_t rows = m;
    if (reducer) {
      if (rank != 0) edges[0] = 0;
      if (rank != reducer->ranks() - 1) edges[1] = 0;
      reducer->sum(edges);
      rows = reducer->global_rows();
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(rows));
    mix(static_cast<std::uint64_t>(n));
    // max_iterations is deliberately NOT part of the fingerprint: the
    // iteration budget does not change the trajectory, so a resumed run
    // may extend it (rerun with a larger --iterations). The launch-shape
    // table (AprodOptions::tuning) is excluded too: a shape changes only
    // the scatter's fold order, which moves results by rounding (ROADMAP
    // item 9), so a checkpoint taken under one table may resume under
    // another.
    mix(static_cast<std::uint64_t>(options.precondition));
    mix(static_cast<std::uint64_t>(options.compute_std_errors));
    mix(std::bit_cast<std::uint64_t>(options.damp));
    // First and last coefficient of the (scaled) device-resident copy.
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(edges[0])));
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(edges[1])));
    return h;
  }

  /// The one checkpoint serializer (GAIACKP2, no file framing), into
  /// any byte sink `put` (see `into`): it holds `sigma * u` as the basis
  /// vector, so the format is free of the pending scale. `u` is this
  /// engine's u (single-process, and the in-memory rollback snapshot of
  /// repair mode) or the ranks' slices in global row order (a
  /// distributed checkpoint, on rank 0).
  template <typename Put>
  void write_state(Put&& put, RankReducer::RowSegments u) const {
    put(kCheckpointMagic, sizeof(kCheckpointMagic));
    put_pod(put, fingerprint);
    put_pod(put, itn);
    put_pod(put, static_cast<std::uint8_t>(finished ? 1 : 0));
    put_pod(put, static_cast<std::int32_t>(istop));
    for (real v : {alpha, beta, bnorm, rhobar, phibar, rnorm, arnorm,
                   anorm, acond, ddnorm, res2, xnorm, xxnorm, z, cs2, sn2})
      put_pod(put, v);
    put_scaled_rows(put, u, sigma);
    put_vec(put, d_v.span());
    put_vec(put, d_w.span());
    put_vec(put, d_x.span());
    put_vec(put, d_var.span());
    put_vec(put, std::span<const double>(iteration_seconds));
    for (const auto* hist :
         {&rnorm_history, &arnorm_history, &xnorm_history})
      put_vec(put, std::span<const real>(*hist));
  }

  /// Runs `seal(u)` on the global u as RowSegments: single-process, on
  /// this engine's u; distributed, on rank 0 with the ranks' slices
  /// gathered to it (collective: the other ranks wait and never run
  /// `seal`).
  void with_global_u(const std::function<void(RankReducer::RowSegments)>& seal)
      const {
    if (reducer) return reducer->gather_rows(d_u.span(), seal);
    const std::span<const real> u = d_u.span();
    seal(RankReducer::RowSegments(&u, 1));
  }

  /// Reads u: this rank's slice as a rollback snapshot stores it or —
  /// distributed — the globally assembled u of a checkpoint, re-sliced.
  void read_u(std::istream& is) {
    const auto size = read_pod<std::uint64_t>(is);
    auto u = d_u.span();
    if (reducer && size != u.size()) {
      GAIA_CHECK(size == reducer->global_rows(),
                 "checkpoint vector size mismatch");
      std::vector<real> u_global(size);
      read_values(is, u_global);
      reducer->slice_rows(u_global, u);
      return;
    }
    GAIA_CHECK(size == u.size(), "checkpoint vector size mismatch");
    read_values(is, u);
  }

  void load_state(std::istream& is) {
    char magic[8];
    is.read(magic, sizeof(magic));
    GAIA_CHECK(is.good() &&
                   std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0,
               "not a gaia LSQR checkpoint");
    GAIA_CHECK(read_pod<std::uint64_t>(is) == fingerprint,
               "checkpoint does not match this system/options");
    itn = read_pod<std::int64_t>(is);
    finished = read_pod<std::uint8_t>(is) != 0;
    istop = static_cast<LsqrStop>(read_pod<std::int32_t>(is));
    for (real* v : {&alpha, &beta, &bnorm, &rhobar, &phibar, &rnorm,
                    &arnorm, &anorm, &acond, &ddnorm, &res2, &xnorm,
                    &xxnorm, &z, &cs2, &sn2})
      *v = read_pod<real>(is);
    read_u(is);
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
    // The stored u is normalized: nothing is pending.
    sigma = 1;
    if (health) sum_u = vsum(aprod->active_backend(), d_u.span());
  }

  /// Refreshes the rollback snapshot in the capacity it already has.
  void refresh_good_state() {
    good_state.clear();
    const std::span<const real> u = d_u.span();
    write_state(into(good_state), RankReducer::RowSegments(&u, 1));
    good_itn = itn;
  }

  /// `sdc:` clause hook: silently flips a bit in the combined output
  /// vector of the named aprod pass. Disarmed cost: one relaxed load.
  void maybe_inject_sdc(std::string_view pass, std::span<real> out) {
    auto& injector = resilience::FaultInjector::global();
    if (!injector.armed()) return;
    if (const auto flip =
            injector.on_kernel_output(pass, itn, rank, out.size()))
      resilience::apply_bitflip(out, *flip);
  }

  /// sum (b - A x)^2 over this engine's rows (a reduce_sum, like
  /// vnorm): the true residual the deep pass checks rnorm against. One
  /// extra apply1 — the overhead term of the health monitor.
  real residual_sum_sq() {
    std::fill(resid_scratch.begin(), resid_scratch.end(), real{0});
    aprod->apply1(d_x.span(), resid_scratch);  // resid = A x
    const real* b = b_host.data();
    const real* ax = resid_scratch.data();
    return reduce_sum(aprod->active_backend(), m, [=](std::size_t i) {
      const real d = b[i] - ax[i];
      return d * d;
    });
  }

  /// The every-K deep pass: segment checksums + the two ABFT agreement
  /// cross-checks (||x|| vs the xnorm recurrence, recomputed ||b - Ax||
  /// vs the rnorm estimate) and, distributed, the replicated-state hash
  /// agreement. Returns `verdict` if it already tripped, else the first
  /// tripped invariant.
  resilience::HealthVerdict run_deep_checks(
      resilience::HealthVerdict verdict) {
    using resilience::HealthInvariant;
    health->note_deep_check();
    obs::ScopedTrace span("health.deep_check", "resilience");
    const auto& cfg = options.health;
    // The u checks below read the normalized u.
    materialize_u();
    // Distributed, the cross-rank terms come first and unconditionally:
    // every rank reaches the same collectives, whatever its own checks
    // find. Single-process the residual is recomputed only when reached.
    real u_norm = 0, rss = 0, h_min = 0, h_max = 0;
    if (reducer) {
      u_norm = row_norm(d_u.span());
      rss = reducer->sum(residual_sum_sq());
      // v/w/x are replicated bit-identically: their hash must agree.
      const std::array<real, 16> scalars = {
          alpha, beta, bnorm, rhobar, phibar, rnorm, arnorm, anorm,
          acond, ddnorm, res2, xnorm, xxnorm, z, cs2, sn2};
      const real h = static_cast<real>(resilience::fold_hash_to_real(
          resilience::state_hash(scalars, {d_v.span(), d_w.span(),
                                           d_x.span()})));
      h_min = reducer->min(h);
      h_max = reducer->max(h);
    }
    // A rank's slice of u is not unit: distributed, its segments are
    // checked here and the global norm just below.
    const real unit = beta > 0 ? real{1} : real{-1};
    if (verdict.healthy())
      verdict = health->check_vector(itn, "u", d_u.span(),
                                     reducer ? real{-1} : unit,
                                     cfg.unit_norm_tol,
                                     HealthInvariant::kUnitNorm);
    if (verdict.healthy() && reducer && beta > 0)
      verdict = health->check_agreement(itn, "||u||", u_norm, unit,
                                        cfg.unit_norm_tol,
                                        HealthInvariant::kUnitNorm);
    if (verdict.healthy())
      verdict = health->check_vector(
          itn, "v", d_v.span(), alpha > 0 ? real{1} : real{-1},
          cfg.unit_norm_tol, HealthInvariant::kUnitNorm);
    if (verdict.healthy())
      verdict = health->check_vector(itn, "x", d_x.span(), xnorm,
                                     cfg.xnorm_rel_tol,
                                     HealthInvariant::kXnormAgreement);
    if (verdict.healthy() && h_min != h_max) {
      verdict.invariant = HealthInvariant::kStateHashDisagreement;
      std::ostringstream os;
      os << "replicated-state hash min " << h_min << " != max " << h_max
         << " across " << reducer->ranks() << " rank(s)";
      verdict.detail = os.str();
    }
    if (!verdict.healthy()) return verdict;

    // True residual r = b - A x, plus the damping contribution when
    // damp != 0, against the recurrence's rnorm. Skipped deep in the
    // convergence plateau, where the difference is dominated by
    // cancellation, not corruption.
    if (rnorm > bnorm * real{1e-9}) {
      real sum = reducer ? rss : residual_sum_sq();
      if (options.damp != 0) {
        const real xn = vnorm(aprod->active_backend(), d_x.span());
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
    LayerRecord layers;
    util::Stopwatch watch;
    ++itn;
    obs::ScopedTrace iter_span("lsqr.iteration", "lsqr");
    iter_span.add_arg({"itn", static_cast<std::int64_t>(itn)});

    auto u = d_u.span();
    auto v = d_v.span();
    auto w = d_w.span();
    auto x = d_x.span();
    auto q = d_q.span().first(n);

    // ABFT bookkeeping: the sum of the normalized u entering this
    // iteration, and the first checksum verdict (if any) to surface.
    const real s_u_old = sum_u;
    resilience::HealthVerdict abft;

    // One row pass: u <- p = A v - alpha u, q = A^T p, ||p||^2.
    {
      const LayerRecord::Phase timed(layers, kLayerStep);
      run_step_pass(alpha);
    }
    maybe_inject_sdc("aprod1", u);
    // One collective sums q and ||p||^2, so every replica of v is
    // updated from the same sum. A distributed flip lands after it: only
    // this rank's replica of q diverges, which its own checksum catches.
    if (reducer) {
      const LayerRecord::Phase timed(layers, kLayerComm);
      reducer->sum(d_q.span());
    }
    maybe_inject_sdc("aprod2", q);
    beta = std::sqrt(d_q.span()[n]);
    real s_p = 0;
    if (health) {
      const LayerRecord::Phase timed(layers, kLayerHealth);
      // The sum of p must equal col_check . v - alpha sum(u_old) to
      // rounding. Summed over the outputs, not inside the pass, so a
      // flip after the pass still shows.
      s_p = vsum(backend, u);
      const real expected_p = vdot(backend, col_check, v) - alpha * s_u_old;
      const real scale_p =
          col_check_norm +
          std::abs(alpha) * std::sqrt(static_cast<real>(m)) +
          std::abs(s_p);
      abft = health->check_kernel_checksum(itn, "aprod1", s_p, expected_p,
                                           scale_p);
      // q = A^T p; ||p|| = beta bounds row_check . p.
      const real s_q = vsum(backend, q);
      const real expected_q = row_dot(row_check, u);
      const real scale_q = beta * row_check_norm + std::abs(s_q);
      if (abft.healthy())
        abft = health->check_kernel_checksum(itn, "aprod2", s_q, expected_q,
                                             scale_q);
    }
    if (beta > 0) {
      anorm = std::sqrt(anorm * anorm + alpha * alpha + beta * beta +
                        damp * damp);
      const LayerRecord::Phase timed(layers, kLayerTail);
      update_v();
      if (health) sum_u = s_p / beta;
    } else {
      // p = 0: u is exactly the zero vector, nothing pends.
      sigma = 1;
      if (health) sum_u = s_p;
    }

    // Plane rotations, with the norms formed as the reference code's
    // d2norm forms them: hypot cannot underflow to 0 once rhobar has
    // decayed (sqrt(rhobar^2 + damp^2) did, and 0/0 poisoned the solve).
    // A norm is 0 only when both its inputs are; its rotation is then
    // the identity instead of a division by 0.
    const real rhobar1 = std::hypot(rhobar, damp);
    const real cs1 = rhobar1 > 0 ? rhobar / rhobar1 : real{1};
    const real psi = rhobar1 > 0 ? (damp / rhobar1) * phibar : real{0};
    phibar = cs1 * phibar;

    const real rho = std::hypot(rhobar1, beta);
    const real cs = rho > 0 ? rhobar1 / rho : real{1};
    const real sn = rho > 0 ? beta / rho : real{0};
    const real theta = sn * alpha;
    rhobar = -cs * alpha;
    const real phi = cs * phibar;
    phibar = sn * phibar;
    const real tau = sn * phi;

    if (rho > 0) {
      const LayerRecord::Phase timed(layers, kLayerTail);
      if (options.compute_std_errors)
        vaccumulate_sq(backend, d_var.span(), real{1} / rho, w);
      ddnorm += (real{1} / rho) * (real{1} / rho) * vdot(backend, w, w);
      vaxpy(backend, x, phi / rho, w);
      vxpby(backend, w, v, -theta / rho);
    }

    const real delta = sn2 * rho;
    const real gambar = -cs2 * rho;
    const real rhs = phi - delta * z;
    const real zbar = gambar != 0 ? rhs / gambar : real{0};
    xnorm = std::sqrt(xxnorm + zbar * zbar);
    const real gamma = std::hypot(gambar, theta);
    cs2 = gamma > 0 ? gambar / gamma : real{1};
    sn2 = gamma > 0 ? theta / gamma : real{0};
    z = gamma > 0 ? rhs / gamma : real{0};
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
    // Distributed, the reported time is the maximum over ranks (paper
    // App. B).
    if (reducer) {
      const LayerRecord::Phase timed(layers, kLayerComm);
      iteration_seconds.push_back(reducer->max_iteration_seconds(iteration_s));
    } else {
      iteration_seconds.push_back(iteration_s);
    }
    record_iteration_telemetry(iter_span, iteration_s);

    // --- silent-corruption defense -----------------------------------
    if (health) {
      const LayerRecord::Phase timed(layers, kLayerHealth);
      auto verdict = abft;  // the same-iteration detector reports first
      if (verdict.healthy())
        verdict =
            health->check_scalars(itn, alpha, beta, rnorm, arnorm, xnorm);
      if (verdict.healthy()) verdict = health->check_rnorm_window(itn, rnorm);
      // Distributed, every rank enters a due deep pass, even one whose
      // cheaper checks tripped, so the world stays in lockstep.
      const bool deep =
          options.health.due(itn) && (reducer || verdict.healthy());
      if (deep) verdict = run_deep_checks(std::move(verdict));
      // Distributed, every rank acts on the same verdict: all stop, or
      // all roll back to their own validated snapshots together.
      if (reducer) verdict = reducer->agree(verdict);
      // Seal the rollback target only after the full pass came back
      // clean: a snapshot is a *validated* state, never a hopeful one.
      if (deep && verdict.healthy() &&
          options.health.mode == resilience::HealthMode::kRepair)
        refresh_good_state();
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

    istop = stop_test(options, bnorm, anorm, acond, rnorm, arnorm, xnorm);
    if (istop != LsqrStop::kIterationLimit) finished = true;
    if (itn >= options.max_iterations) finished = true;
    if (!finished && checkpoints && checkpoints->due(itn)) {
      const LayerRecord::Phase timed(layers, kLayerCheckpoint);
      seal_checkpoint();
    }
    return !finished;
  }

  /// Seals the current state into the rotation in one pass: the
  /// serializer streams into the sealed file. Distributed, u is gathered
  /// to rank 0, which serializes and writes while the others wait.
  void seal_checkpoint() {
    with_global_u([this](RankReducer::RowSegments u) {
      checkpoints->write(itn, [&](util::FramedFileWriter& out) {
        write_state(into(out), u);
      });
    });
  }

  LsqrResult make_result() const {
    LsqrResult result;
    result.x.assign(n, real{0});
    d_x.copy_to_host(result.x);
    if (options.precondition) unscale_solution(result.x, col_scale);
    if (options.compute_std_errors) {
      result.std_errors.assign(n, real{0});
      d_var.copy_to_host(result.std_errors);
      // Degrees of freedom from the *global* row count.
      const std::size_t rows = reducer ? reducer->global_rows() : m;
      const real dof = rows > n ? static_cast<real>(rows - n) : real{1};
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
                       std::span<const real> b, const LsqrOptions& options,
                       RankReducer* reducer, std::span<const real> col_scale)
    : impl_(std::make_unique<Impl>(A, b, options, reducer, col_scale)) {
  sync_mirrors();
}

LsqrEngine::LsqrEngine(const matrix::SystemMatrix& A,
                       const LsqrOptions& options)
    : LsqrEngine(A, A.known_terms(), options) {}

// std::move only casts here: the records leave A inside the Aprod
// constructor, and the known terms b views stay in A.
LsqrEngine::LsqrEngine(matrix::SystemMatrix&& A, const LsqrOptions& options,
                       RankReducer* reducer, std::span<const real> col_scale)
    : impl_(std::make_unique<Impl>(std::move(A), A.known_terms(), options,
                                   reducer, col_scale)) {
  sync_mirrors();
}

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

const Aprod& LsqrEngine::aprod() const { return *impl_->aprod; }

void LsqrEngine::checkpoint(std::ostream& os) const {
  impl_->with_global_u([&](RankReducer::RowSegments u) {
    impl_->write_state(into(os), u);
    GAIA_CHECK(os.good(), "checkpoint write failed");
  });
}

void LsqrEngine::checkpoint(const std::string& path) const {
  // File checkpoints get the durable framing on top of the raw stream
  // format: write-temp-then-rename plus a CRC32 footer, so a crash
  // mid-write can never leave a half-checkpoint under the final name.
  impl_->with_global_u([&](RankReducer::RowSegments u) {
    util::FramedFileWriter out(path, "checkpoint");
    impl_->write_state(into(out), u);
    out.commit();
  });
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

std::int64_t LsqrEngine::use_checkpoints(
    resilience::CheckpointManager& manager) {
  impl_->checkpoints = &manager;
  const auto resumed = manager.resume(
      [this](const std::string& payload) {
        std::istringstream is(payload, std::ios::binary);
        restore(is);
      },
      /*report=*/impl_->rank == 0);
  return resumed ? resumed->iteration : -1;
}

}  // namespace gaia::core
