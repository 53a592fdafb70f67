#include "core/aprod.hpp"

#include <utility>

#include "core/kernel_catalog.hpp"
#include "core/preconditioner.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"
#include "resilience/failover.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/retry.hpp"
#include "tuning/kernel_registry.hpp"

namespace gaia::core {

using backends::BackendKind;

namespace {

/// Span annotations of one launch: backend, launch shape (resolved to
/// the actual grid for the gpusim backend) and bytes the pass moves.
std::vector<obs::TraceArg> pass_trace_args(BackendKind backend,
                                           backends::KernelConfig cfg,
                                           const SystemView& view,
                                           const tuning::AprodPass& pass) {
  if (backend == BackendKind::kGpuSim)
    cfg = backends::GpuSimExec::resolve(cfg);
  std::vector<obs::TraceArg> args;
  args.reserve(4);
  args.emplace_back("backend", backends::to_string(backend));
  args.emplace_back("blocks", static_cast<std::int64_t>(cfg.blocks));
  args.emplace_back("threads", static_cast<std::int64_t>(cfg.threads));
  args.emplace_back("bytes", pass_traffic_bytes(view, pass));
  return args;
}

/// Derived performance counters for one completed launch: the pass-level
/// cost shapes from the kernel catalog, the wall time from the launch's
/// span.
void record_launch_sample(const SystemView& view,
                          const tuning::AprodPass& pass, BackendKind backend,
                          double seconds) {
  obs::KernelSample s;
  s.kernel = pass_region_name(pass);
  s.backend = backends::to_string(backend);
  // "privatized" for the passes that commit private slices into shared
  // columns (kAprod2Att's identity: the fused scatter and the step).
  s.strategy = backends::kernel_uses_atomics(pass.id) ? "privatized" : "none";
  s.seconds = seconds;
  s.bytes = pass_traffic_bytes(view, pass);
  s.flops = pass_flops(view, pass);
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

Aprod::DeviceRecords Aprod::upload(const matrix::SystemMatrix& A,
                                   backends::DeviceContext& device,
                                   backends::CoherenceMode coherence,
                                   std::span<const real> col_scale) {
  DeviceRecords records{{device, A.values(), coherence},
                        {device, A.matrix_index_astro(), coherence},
                        {device, A.matrix_index_att(), coherence},
                        {device, A.instr_col(), coherence},
                        {device, A.star_row_start(), coherence}};
  if (!col_scale.empty())
    apply_column_scaling(A, records.values.span(), col_scale);
  return records;
}

Aprod::DeviceRecords Aprod::adopt(matrix::SystemMatrix&& A,
                                  backends::DeviceContext& device,
                                  backends::CoherenceMode coherence,
                                  std::span<const real> col_scale) {
  // Refuse the whole set before scaling or taking any array, so a device
  // too small leaves the caller's system as it was.
  device.require_room(A.footprint_bytes() - A.known_terms().size_bytes());
  // The scaling reads the index arrays, so it runs before the release.
  if (!col_scale.empty()) apply_column_scaling(A, col_scale);
  matrix::SystemMatrix::Records arrays = std::move(A).release_records();
  return {{device, std::move(arrays.values), coherence},
          {device, std::move(arrays.matrix_index_astro), coherence},
          {device, std::move(arrays.matrix_index_att), coherence},
          {device, std::move(arrays.instr_col), coherence},
          {device, std::move(arrays.star_row_start), coherence}};
}

Aprod::Aprod(const matrix::SystemMatrix& A, backends::DeviceContext& device,
             AprodOptions options, std::span<const real> col_scale)
    : Aprod(A, upload(A, device, options.coherence, col_scale), options) {}

// The first argument only binds A for its dimensions, which the release
// leaves in place; adopt() does the scaling and the release in order.
Aprod::Aprod(matrix::SystemMatrix&& A, backends::DeviceContext& device,
             AprodOptions options, std::span<const real> col_scale)
    : Aprod(A, adopt(std::move(A), device, options.coherence, col_scale),
            options) {}

Aprod::Aprod(const matrix::SystemMatrix& A, DeviceRecords records,
             AprodOptions options)
    : options_(options),
      active_backend_(options.backend),
      records_(std::move(records)) {
  ensure_kernel_catalog();
  // Same construction path as the host view, fed the device-resident
  // arrays — the scalar fields can't drift.
  view_ = SystemView::from(
      A, {records_.values.data(), records_.idx_astro.data(),
          records_.idx_att.data(), records_.instr_col.data(),
          records_.star_row_start.data()});
}

void Aprod::launch_pass(const tuning::AprodPass& pass,
                        tuning::LaunchArgs args) {
  const tuning::KernelRegistry& registry = tuning::KernelRegistry::global();
  auto& injector = resilience::FaultInjector::global();
  const char* name = pass_region_name(pass);
  const backends::KernelConfig cfg = options_.tuning.get(pass.id);
  for (;;) {
    const BackendKind backend = active_backend();
    try {
      resilience::with_retry(name, options_.retry, [&] {
        // One clock pair per attempt, read only when the trace or the
        // registry is armed: the span's duration is the sample's seconds.
        // A failed attempt leaves its span and records no sample.
        const bool metered = obs::MetricsRegistry::global().enabled();
        obs::ScopedTrace span(name, "kernel", obs::TraceRecorder::kMainTrack,
                              metered);
        if (span.armed())
          for (auto& a : pass_trace_args(backend, cfg, view_, pass))
            span.add_arg(std::move(a));
        if (injector.armed() &&
            injector.should_fail_kernel(name, backends::to_string(backend)))
          throw resilience::TransientFault(
              std::string("injected launch failure: ") + name);
        args.view = &view_;
        args.config = cfg;
        args.arena = &scratch_arena_;
        registry.launch(pass, backend, args);
        const double seconds = span.stop();
        if (metered) record_launch_sample(view_, pass, backend, seconds);
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
