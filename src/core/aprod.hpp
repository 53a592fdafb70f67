/// \file aprod.hpp
/// \brief Runtime driver for the aprod products: backend selection,
/// device residency, kernel tuning, stream overlap.
///
/// Owns the device-resident copy of the system (made once, at
/// construction — the "matrices are copied to the GPU before the main
/// loop and remain there until the end" contract of paper SIV-a) and the
/// four streams used to overlap the aprod2 scatter kernels.
///
/// Every kernel launch — normal, failover re-dispatch, and autotuner
/// trial — goes through one path (`launch_kernel`) that dispatches via
/// `tuning::KernelRegistry`. When an `Autotuner` is attached, launches
/// of kernels still under search run the tuner's candidate shape, are
/// timed, and feed the measurement back; the winner is installed into
/// the live TuningTable the moment a kernel's search closes.
#pragma once

#include <array>
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
#include "backends/stream.hpp"
#include "core/system_view.hpp"
#include "matrix/layouted_system.hpp"
#include "matrix/system_matrix.hpp"
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
  /// Overlap the four aprod2 kernels in streams (safe: they scatter into
  /// disjoint sections of x). The serial reference runs without streams
  /// to stay deterministic.
  bool use_streams = true;
  /// Fuse the attitude/instrumental/global scatters into one row-pass —
  /// the shape a real C++ PSTL port takes (stdpar has no streams, and
  /// fusing reads each row record once). Overrides use_streams for
  /// aprod2.
  bool fuse_aprod2 = false;
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

  /// Kernel launches issued so far (8 per apply pair unless the global
  /// block is disabled) — lets tests pin the stream/launch structure.
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
  /// installed table), dispatches through the KernelRegistry under the
  /// retry budget with fault injection, and on a persistent fault fails
  /// over to the next backend in the chain (atomically, first thread
  /// wins) and re-dispatches — through the same registry. `fused` routes
  /// to the fused aprod2 scatter, which shares `id`'s (= kAprod2Att's)
  /// tuning and fault identity but is traced under its own name.
  /// `track` is the trace-timeline lane: 0 for the calling thread,
  /// Stream::id() when the kernel was enqueued on a stream.
  void launch_kernel(backends::KernelId id, bool fused, const real* in,
                     real* out, std::int32_t track);

  /// True while trial launches may still happen on the active backend —
  /// apply2 then keeps kernels on the calling thread (no stream overlap)
  /// so trial timings measure one kernel, not four.
  [[nodiscard]] bool tuning_in_progress() const;

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
  /// Guarded by layout_mutex_ (stream threads may race to build); the
  /// view's descriptor pointers are only ever written under the mutex,
  /// and a launch needing them re-checks has_layout() under it too.
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
  /// One stream per aprod2 kernel, created lazily when streams are on.
  std::array<std::unique_ptr<backends::Stream>, 4> streams_;
  /// Pooled scratch for the aprod2 scatters' private slices; owned per
  /// driver so its hit/miss accounting tracks this solve alone.
  backends::ScratchArena scratch_arena_;
  std::uint64_t launches_ = 0;
  /// Sum of per-kernel wall times within the current streamed aprod2
  /// pass (accumulated from stream threads, hence atomic). Together with
  /// the pass wall time this yields the stream-overlap ratio exported to
  /// the metrics registry.
  std::atomic<double> pass_kernel_seconds_{0};
};

}  // namespace gaia::core
