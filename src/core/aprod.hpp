/// \file aprod.hpp
/// \brief Runtime driver for the aprod products: backend selection,
/// device residency, kernel tuning, failover.
///
/// Owns the device-resident copy of the system (made once, at
/// construction — the "matrices are copied to the GPU before the main
/// loop and remain there until the end" contract of paper SIV-a).
///
/// One row pass per product: apply1 launches the fused gather, apply2
/// launches aprod2_astro and then the fused shared-section scatter
/// (tuning::kAprodPasses), and step launches the LSQR step, which forms
/// both products of a bidiagonalization step in one pass — all on the
/// calling thread. The paper's four-kernel split with stream-overlapped
/// aprod2 scatters stays a modeled GPU effect (perfmodel); on the host
/// every extra kernel streams the row records and y again.
///
/// Every launch — normal, failover re-dispatch, and autotuner trial —
/// goes through one path (`launch_pass`) that dispatches via
/// `tuning::KernelRegistry`. When an `Autotuner` is attached, launches
/// whose identity is still under search run the tuner's candidate shape,
/// are timed, and feed the measurement back; the winner is installed
/// into the live TuningTable the moment a search closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "backends/atomic.hpp"
#include "backends/backend.hpp"
#include "backends/device_buffer.hpp"
#include "backends/kernel_config.hpp"
#include "backends/scratch_arena.hpp"
#include "core/system_view.hpp"
#include "matrix/layouted_system.hpp"
#include "matrix/system_matrix.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/backoff.hpp"

namespace gaia::tuning {
class Autotuner;
}

namespace gaia::core {

/// How the driver executes kernels.
struct AprodOptions {
  backends::BackendKind backend = backends::BackendKind::kGpuSim;
  backends::TuningTable tuning = backends::TuningTable::tuned_default();
  backends::AtomicMode atomic_mode = backends::AtomicMode::kNativeRmw;
  /// Ignored: Aprod runs one row pass per aprod product on the calling
  /// thread and overlaps nothing. Still a field only because existing
  /// callers set it.
  bool use_streams = true;
  backends::CoherenceMode coherence = backends::CoherenceMode::kCoarseGrain;
  /// Retry budget for transient kernel-launch faults (injected via
  /// GAIA_FAULTS or real): bounded exponential backoff per launch.
  util::BackoffPolicy retry{};
  /// When a launch fault survives the retry budget, step down the
  /// degradation chain (gpusim -> openmp -> serial) for the remainder
  /// of the run instead of aborting.
  bool failover = true;
  /// Online launch-shape search: when set (and its backend matches the
  /// active one), kernels still under search launch trial shapes and
  /// report their timings. Not owned; must outlive the Aprod.
  tuning::Autotuner* autotuner = nullptr;
};

class Aprod {
 public:
  /// Copies the system onto `device` (throws if it does not fit) and
  /// keeps it resident for the driver's lifetime. A non-empty
  /// `col_scale` column-scales the device copy right after the upload
  /// (apply_column_scaling), so a preconditioned solve needs no second
  /// host copy of the system; every derived layout and precision is
  /// built from the scaled copy.
  Aprod(const matrix::SystemMatrix& A, backends::DeviceContext& device,
        AprodOptions options, std::span<const real> col_scale = {});
  ~Aprod();

  Aprod(const Aprod&) = delete;
  Aprod& operator=(const Aprod&) = delete;

  [[nodiscard]] const AprodOptions& options() const { return options_; }
  [[nodiscard]] const SystemView& view() const { return view_; }
  [[nodiscard]] row_index n_rows() const { return view_.n_rows; }
  [[nodiscard]] col_index n_cols() const { return view_.n_cols; }

  /// Live launch shapes (updated by the autotuner as searches close).
  [[nodiscard]] const backends::TuningTable& tuning() const {
    return options_.tuning;
  }
  void set_tuning(const backends::TuningTable& table) {
    options_.tuning = table;
  }

  /// Backend currently executing kernels. Equals options().backend until
  /// a persistent launch fault triggers failover down the chain.
  [[nodiscard]] backends::BackendKind active_backend() const {
    return active_backend_.load(std::memory_order_relaxed);
  }
  /// Failover steps taken so far (0 on a healthy run).
  [[nodiscard]] std::uint64_t failovers() const {
    return failover_count_.load(std::memory_order_relaxed);
  }

  /// aprod mode 1: y += A x. x has n_cols elements, y has n_rows.
  void apply1(std::span<const real> x, std::span<real> y);

  /// aprod mode 2: x += A^T y. y has n_rows elements, x has n_cols.
  void apply2(std::span<const real> y, std::span<real> x);

  /// The LSQR step pass (core::aprod_step): with p = A v - alpha (sigma u),
  /// overwrites u with p and q with A^T p, and returns ||p||^2 (summed in
  /// a fixed order per launch shape). Sizes: v and q n_cols, u n_rows.
  /// v = 0, alpha = -1, sigma = 1 gives p = u and q = A^T u: the
  /// Golub-Kahan start.
  real step(std::span<const real> v, std::span<real> u, std::span<real> q,
            real sigma, real alpha);

  /// Launches so far: 1 per apply1, 2 per apply2 and 1 per step — lets
  /// tests pin the one-pass-per-product structure.
  [[nodiscard]] std::uint64_t launches() const { return launches_; }

  /// Scratch pool backing this driver's aprod2 scatters. Exposed so
  /// tests can assert the allocator-silent-after-warm-up contract (the
  /// miss counter stops moving after the first iteration).
  [[nodiscard]] backends::ScratchArena& scratch_arena() {
    return scratch_arena_;
  }

  /// Builds and uploads the derived arrays `layout` needs and attaches
  /// them to the view (idempotent; kSeedAos is a no-op). Called lazily
  /// by the launch path the first time a config carries the layout, so
  /// seed-pinned runs allocate nothing; callable eagerly to move the
  /// build cost out of the first timed iteration.
  void ensure_layout(backends::StorageLayout layout);

  /// Down-converts the coefficient planes of every currently-built
  /// layout to `precision`, uploads the converted streams, and attaches
  /// them to the view (idempotent; kFp64 is a no-op — the seed arrays
  /// *are* the fp64 planes). Like ensure_layout this is called lazily by
  /// the launch path, so fp64-pinned runs convert and allocate nothing.
  /// Call it again after ensure_layout() of a new layout to convert that
  /// layout's streams too.
  void ensure_precision(backends::Precision precision);

 private:
  /// The single launch path: resolves the shape (tuner candidate or
  /// installed table entry of `pass.id`), dispatches through the
  /// KernelRegistry under the retry budget with fault injection, and on a
  /// persistent fault fails over to the next backend in the chain and
  /// re-dispatches — through the same registry. A fused pass shares
  /// `pass.id`'s tuning and fault identity but is traced and counted
  /// under its own name (pass_region_name). `args` carries the operands;
  /// the view, shape, atomic mode and arena are filled in here.
  void launch_pass(const tuning::AprodPass& pass, tuning::LaunchArgs args);

  AprodOptions options_;
  std::atomic<backends::BackendKind> active_backend_;
  std::atomic<std::uint64_t> failover_count_{0};
  /// Source matrix (not owned; outlives the driver — it backs the
  /// derived-layout builds, which are lazy).
  const matrix::SystemMatrix* matrix_;
  backends::DeviceContext* device_;
  backends::DeviceBuffer<real> d_values_;
  backends::DeviceBuffer<col_index> d_idx_astro_;
  backends::DeviceBuffer<col_index> d_idx_att_;
  backends::DeviceBuffer<std::int32_t> d_instr_col_;
  backends::DeviceBuffer<row_index> d_star_row_start_;
  SystemView view_{};
  /// Lazily-built derived layouts + their device-resident copies.
  /// Guarded by layout_mutex_ (ensure_layout/ensure_precision are public
  /// and may be called from any thread); the view's descriptor pointers
  /// are only ever written under the mutex, and a launch needing them
  /// re-checks has_layout() under it too.
  std::mutex layout_mutex_;
  std::unique_ptr<matrix::LayoutedSystem> layouts_;
  std::unique_ptr<backends::DeviceBuffer<real>> d_soa_astro_;
  std::unique_ptr<backends::DeviceBuffer<real>> d_soa_att_;
  std::unique_ptr<backends::DeviceBuffer<real>> d_soa_instr_;
  std::unique_ptr<backends::DeviceBuffer<real>> d_soa_glob_;
  std::unique_ptr<backends::DeviceBuffer<real>> d_slice_values_;
  std::unique_ptr<backends::DeviceBuffer<std::int32_t>> d_slice_cols_;
  std::unique_ptr<backends::DeviceBuffer<row_index>> d_slice_rows_;
  std::unique_ptr<backends::DeviceBuffer<row_index>> d_slice_row_slot_;
  /// Device-resident reduced-precision coefficient planes, one bundle
  /// per storage scalar (indices stay shared with the fp64 buffers
  /// above). Uploaded stream-by-stream as layouts get converted; guarded
  /// by layout_mutex_ like the layout buffers.
  template <typename T>
  struct PrecisionBuffers {
    std::unique_ptr<backends::DeviceBuffer<T>> values;
    std::unique_ptr<backends::DeviceBuffer<T>> soa_astro;
    std::unique_ptr<backends::DeviceBuffer<T>> soa_att;
    std::unique_ptr<backends::DeviceBuffer<T>> soa_instr;
    std::unique_ptr<backends::DeviceBuffer<T>> soa_glob;
    std::unique_ptr<backends::DeviceBuffer<T>> slice_values;
  };
  template <typename T>
  void attach_precision_buffers(const matrix::PrecisionStore<T>& store,
                                PrecisionBuffers<T>& bufs,
                                SystemView::CoefPlanes<T>& planes);
  PrecisionBuffers<float> d_f32_;
  PrecisionBuffers<matrix::bf16s> d_b16_;
  /// Pooled scratch for the aprod2 scatters' private slices; owned per
  /// driver so its hit/miss accounting tracks this solve alone.
  backends::ScratchArena scratch_arena_;
  std::uint64_t launches_ = 0;
};

}  // namespace gaia::core
