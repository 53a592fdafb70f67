#include "core/aprod.hpp"

#include "core/kernel_catalog.hpp"
#include "core/preconditioner.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"
#include "resilience/failover.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/retry.hpp"
#include "tuning/autotuner.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/profiler.hpp"
#include "util/stopwatch.hpp"

namespace gaia::core {

using backends::BackendKind;
using backends::KernelId;

namespace {

/// Span annotations of one launch: backend, launch shape (resolved to
/// the actual grid for the gpusim backend), bytes the pass moves, and
/// whether this launch was an autotuner trial.
std::vector<obs::TraceArg> pass_trace_args(
    BackendKind backend, backends::KernelConfig cfg,
    backends::AtomicMode atomic_mode, const SystemView& view,
    const tuning::AprodPass& pass, bool trial) {
  if (backend == BackendKind::kGpuSim)
    cfg = backends::GpuSimExec::resolve(cfg);
  std::vector<obs::TraceArg> args;
  args.reserve(8);
  args.emplace_back("backend", backends::to_string(backend));
  args.emplace_back("blocks", static_cast<std::int64_t>(cfg.blocks));
  args.emplace_back("threads", static_cast<std::int64_t>(cfg.threads));
  args.emplace_back("bytes", pass_traffic_bytes(view, pass, cfg.layout,
                                                cfg.precision));
  if (cfg.layout != backends::StorageLayout::kSeedAos)
    args.emplace_back("layout", backends::to_string(cfg.layout));
  if (cfg.precision != backends::Precision::kFp64)
    args.emplace_back("precision", backends::to_string(cfg.precision));
  if (backends::kernel_uses_atomics(pass.id)) {
    args.emplace_back("strategy", backends::to_string(cfg.strategy));
    if (cfg.strategy == backends::ScatterStrategy::kAtomic)
      args.emplace_back("atomic", backends::to_string(atomic_mode));
  }
  if (trial) args.emplace_back("tuning_trial", std::int64_t{1});
  return args;
}

/// Strategy label of a pass's series: the fused scatter carries
/// kAprod2Att's identity, so it is the one pass with a commit strategy.
std::string strategy_label(const tuning::AprodPass& pass,
                           const backends::KernelConfig& cfg) {
  return backends::kernel_uses_atomics(pass.id)
             ? backends::to_string(cfg.strategy)
             : "none";
}

/// Derived performance counters for one completed (non-trial) launch:
/// the pass-level cost shapes from the kernel catalog, the wall time from
/// the launch stopwatch.
void record_launch_sample(const SystemView& view,
                          const tuning::AprodPass& pass, BackendKind backend,
                          const backends::KernelConfig& cfg, double seconds) {
  if (!obs::MetricsRegistry::global().enabled()) return;
  const int workers =
      backends::atomic_scatter_workers(backend, view.n_rows, cfg);
  obs::KernelSample s;
  s.kernel = pass_region_name(pass);
  s.backend = backends::to_string(backend);
  s.strategy = strategy_label(pass, cfg);
  s.seconds = seconds;
  s.bytes = pass_traffic_bytes(view, pass, cfg.layout, cfg.precision);
  s.flops = pass_flops(view, pass);
  s.atomic_updates = pass_atomic_updates(view, pass, cfg.strategy, workers);
  obs::record_kernel_sample(s);
}

void note_failover(const char* kernel, BackendKind from, BackendKind to) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& failovers = reg.counter("resilience.failovers");
    failovers.add(1);
  }
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled()) {
    rec.instant("failover", "resilience", obs::TraceRecorder::kMainTrack,
                {{"kernel", std::string(kernel)},
                 {"from", backends::to_string(from)},
                 {"to", backends::to_string(to)}});
  }
  obs::flight_event("failover", kernel,
                    backends::to_string(from) + " -> " +
                        backends::to_string(to));
}

}  // namespace

Aprod::Aprod(const matrix::SystemMatrix& A, backends::DeviceContext& device,
             AprodOptions options, std::span<const real> col_scale)
    : options_(options),
      active_backend_(options.backend),
      matrix_(&A),
      device_(&device),
      d_values_(device, A.values(), options.coherence),
      d_idx_astro_(device, A.matrix_index_astro(), options.coherence),
      d_idx_att_(device, A.matrix_index_att(), options.coherence),
      d_instr_col_(device, A.instr_col(), options.coherence),
      d_star_row_start_(device, A.star_row_start(), options.coherence) {
  ensure_kernel_catalog();
  if (!col_scale.empty())
    apply_column_scaling(A, d_values_.span(), col_scale);
  // Same construction path as the host view, fed the device-resident
  // copies — scalar fields and layout descriptors can't drift.
  view_ = SystemView::from(
      A, {d_values_.data(), d_idx_astro_.data(), d_idx_att_.data(),
          d_instr_col_.data(), d_star_row_start_.data()});
}

void Aprod::ensure_layout(backends::StorageLayout layout) {
  if (layout == backends::StorageLayout::kSeedAos) return;
  std::lock_guard<std::mutex> lock(layout_mutex_);
  if (view_.has_layout(layout)) return;
  if (!layouts_)
    layouts_ = std::make_unique<matrix::LayoutedSystem>(
        *matrix_, d_values_.span());
  layouts_->build(layout);
  // Upload the derived arrays once (the "resident before the main loop"
  // contract of paper SIV-a applies to them like the seed arrays) and
  // point the view's descriptors at the device copies.
  const matrix::SoaStreams& soa = layouts_->soa();
  if (soa.built() && !d_soa_astro_) {
    d_soa_astro_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.astro), options_.coherence);
    d_soa_att_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.att), options_.coherence);
    d_soa_instr_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.instr), options_.coherence);
    d_soa_glob_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(soa.glob), options_.coherence);
    view_.soa_astro = d_soa_astro_->data();
    view_.soa_att = d_soa_att_->data();
    view_.soa_instr = d_soa_instr_->data();
    view_.soa_glob = d_soa_glob_->data();
    view_.soa_padded_rows = soa.padded_rows;
    view_.planes_f64.soa_astro = d_soa_astro_->data();
    view_.planes_f64.soa_att = d_soa_att_->data();
    view_.planes_f64.soa_instr = d_soa_instr_->data();
    view_.planes_f64.soa_glob = d_soa_glob_->data();
  }
  const matrix::SlicedInstr& sliced = layouts_->sliced();
  if (sliced.built() && !d_slice_values_) {
    d_slice_values_ = std::make_unique<backends::DeviceBuffer<real>>(
        *device_, std::span<const real>(sliced.slice_values),
        options_.coherence);
    d_slice_cols_ = std::make_unique<backends::DeviceBuffer<std::int32_t>>(
        *device_, std::span<const std::int32_t>(sliced.slice_cols),
        options_.coherence);
    d_slice_rows_ = std::make_unique<backends::DeviceBuffer<row_index>>(
        *device_, std::span<const row_index>(sliced.slice_rows),
        options_.coherence);
    d_slice_row_slot_ = std::make_unique<backends::DeviceBuffer<row_index>>(
        *device_, std::span<const row_index>(sliced.row_slot),
        options_.coherence);
    view_.slice_values = d_slice_values_->data();
    view_.slice_cols = d_slice_cols_->data();
    view_.slice_rows = d_slice_rows_->data();
    view_.slice_row_slot = d_slice_row_slot_->data();
    view_.n_slices = sliced.n_slices;
    view_.planes_f64.slice_values = d_slice_values_->data();
  }
}

template <typename T>
void Aprod::attach_precision_buffers(const matrix::PrecisionStore<T>& store,
                                     PrecisionBuffers<T>& bufs,
                                     SystemView::CoefPlanes<T>& planes) {
  // Upload each converted stream once; a later call after a new layout
  // build only uploads the streams that appeared since.
  if (store.built() && !bufs.values) {
    bufs.values = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.values), options_.coherence);
    planes.values = bufs.values->data();
  }
  if (!store.soa_astro.empty() && !bufs.soa_astro) {
    bufs.soa_astro = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_astro), options_.coherence);
    bufs.soa_att = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_att), options_.coherence);
    bufs.soa_instr = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_instr), options_.coherence);
    bufs.soa_glob = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.soa_glob), options_.coherence);
    planes.soa_astro = bufs.soa_astro->data();
    planes.soa_att = bufs.soa_att->data();
    planes.soa_instr = bufs.soa_instr->data();
    planes.soa_glob = bufs.soa_glob->data();
  }
  if (!store.slice_values.empty() && !bufs.slice_values) {
    bufs.slice_values = std::make_unique<backends::DeviceBuffer<T>>(
        *device_, std::span<const T>(store.slice_values),
        options_.coherence);
    planes.slice_values = bufs.slice_values->data();
  }
}

void Aprod::ensure_precision(backends::Precision precision) {
  if (precision == backends::Precision::kFp64) return;
  std::lock_guard<std::mutex> lock(layout_mutex_);
  if (!layouts_)
    layouts_ = std::make_unique<matrix::LayoutedSystem>(
        *matrix_, d_values_.span());
  // Converts the seed values plus every layout stream built so far;
  // streams converted on a previous call are skipped inside.
  layouts_->build_precision(precision);
  switch (precision) {
    case backends::Precision::kFp64:
      break;
    case backends::Precision::kFp32:
      attach_precision_buffers(layouts_->f32(), d_f32_, view_.planes_f32);
      break;
    case backends::Precision::kBf16s:
      attach_precision_buffers(layouts_->b16(), d_b16_, view_.planes_b16);
      break;
  }
}

Aprod::~Aprod() = default;

void Aprod::launch_pass(const tuning::AprodPass& pass,
                        tuning::LaunchArgs args) {
  const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
  auto& injector = resilience::FaultInjector::global();
  const KernelId id = pass.id;
  const char* name = pass_region_name(pass);
  for (;;) {
    const BackendKind backend = active_backend();
    // Trial launches only happen on the tuner's own backend: after a
    // failover the shapes being searched no longer describe the backend
    // actually executing, so the run falls back to the installed table.
    // The step inherits kAprod2Att's entry and is never a trial: the
    // search measures the apply passes.
    tuning::Autotuner* tuner = options_.autotuner;
    const bool trial = tuner && backend == tuner->backend() &&
                       pass.fused != tuning::FusedPass::kStep &&
                       tuner->searching(id);
    backends::KernelConfig cfg =
        trial ? tuner->propose(id) : options_.tuning.get(id);
    // Materialize the derived layout on first use; if the build cannot
    // fit the device, the launch clamps back to the always-present seed
    // layout instead of aborting the solve.
    if (cfg.layout != backends::StorageLayout::kSeedAos &&
        !view_.has_layout(cfg.layout)) {
      try {
        ensure_layout(cfg.layout);
      } catch (const Error&) {
        cfg.layout = backends::StorageLayout::kSeedAos;
      }
    }
    // Same lazy-materialize-or-clamp contract for the precision axis:
    // convert + upload the reduced-precision planes on first use, and
    // if the conversion cannot fit the device, run full precision.
    if (cfg.precision != backends::Precision::kFp64 &&
        !view_.has_precision(cfg.precision, cfg.layout)) {
      try {
        ensure_precision(cfg.precision);
      } catch (const Error&) {
        cfg.precision = backends::Precision::kFp64;
      }
    }
    try {
      resilience::with_retry(name, options_.retry, [&] {
        obs::ScopedTrace span(name, "kernel");
        if (span.armed())
          for (auto& a : pass_trace_args(backend, cfg, options_.atomic_mode,
                                         view_, pass, trial))
            span.add_arg(std::move(a));
        util::ScopedRegion region(name);
        if (injector.armed() &&
            injector.should_fail_kernel(name, backends::to_string(backend)))
          throw resilience::TransientFault(
              std::string("injected launch failure: ") + name);
        args.view = &view_;
        args.config = cfg;
        args.atomic_mode = options_.atomic_mode;
        args.arena = &scratch_arena_;
        util::Stopwatch watch;
        registry.launch(pass, backend, args);
        const double seconds = watch.elapsed_s();
        if (trial) {
          // A trial's shape is a search candidate, not the production
          // config: its time feeds the latency histogram only.
          obs::record_kernel_time(name, backends::to_string(backend),
                                  strategy_label(pass, cfg), seconds);
          // Closing a search installs its measured winner into the live
          // table, so the remaining iterations already run tuned.
          if (tuner->report(id, cfg, seconds))
            options_.tuning.set(id, tuner->best(id));
        } else {
          record_launch_sample(view_, pass, backend, cfg, seconds);
        }
      });
      return;
    } catch (const resilience::PersistentFault&) {
      const auto next = resilience::next_backend(backend);
      if (!options_.failover || !next) throw;
      active_backend_.store(*next, std::memory_order_relaxed);
      failover_count_.fetch_add(1, std::memory_order_relaxed);
      note_failover(name, backend, *next);
    }
  }
}

void Aprod::apply1(std::span<const real> x, std::span<real> y) {
  GAIA_CHECK(static_cast<col_index>(x.size()) == view_.n_cols,
             "aprod1 x size mismatch");
  GAIA_CHECK(static_cast<row_index>(y.size()) == view_.n_rows,
             "aprod1 y size mismatch");
  obs::ScopedTrace span("aprod1", "aprod");
  // One fused gather; an injected fault throws before the body runs, so
  // a retried launch never double-applies.
  launch_pass(tuning::kAprodPasses[0], {.in = x.data(), .out = y.data()});
  launches_ += 1;
}

void Aprod::apply2(std::span<const real> y, std::span<real> x) {
  GAIA_CHECK(static_cast<row_index>(y.size()) == view_.n_rows,
             "aprod2 y size mismatch");
  GAIA_CHECK(static_cast<col_index>(x.size()) == view_.n_cols,
             "aprod2 x size mismatch");
  obs::ScopedTrace span("aprod2", "aprod");
  // The star-parallel astrometric scatter, then the fused scatter over
  // the contiguous attitude/instrumental/global span.
  launch_pass(tuning::kAprodPasses[1], {.in = y.data(), .out = x.data()});
  launch_pass(tuning::kAprodPasses[2], {.in = y.data(), .out = x.data()});
  launches_ += 2;
}

real Aprod::step(std::span<const real> v, std::span<real> u,
                 std::span<real> q, real sigma, real alpha) {
  GAIA_CHECK(static_cast<col_index>(v.size()) == view_.n_cols &&
                 static_cast<col_index>(q.size()) == view_.n_cols,
             "step v/q size mismatch");
  GAIA_CHECK(static_cast<row_index>(u.size()) == view_.n_rows,
             "step u size mismatch");
  // p overwrites u inside the pass; an injected fault throws before the
  // body runs, so a retried launch still reads the old u.
  real pnorm_sq = 0;
  launch_pass(tuning::kStepPass, {.in = v.data(),
                                  .out = u.data(),
                                  .q = q.data(),
                                  .sigma = sigma,
                                  .alpha = alpha,
                                  .pnorm_sq = &pnorm_sq});
  launches_ += 1;
  return pnorm_sq;
}

}  // namespace gaia::core
