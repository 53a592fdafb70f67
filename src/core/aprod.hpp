/// \file aprod.hpp
/// \brief Runtime driver for the aprod products: backend selection,
/// device residency, kernel tuning, failover.
///
/// Owns the device-resident row records of the system, set up once, at
/// construction — the "matrices are copied to the GPU before the main
/// loop and remain there until the end" contract of paper SIV-a. A
/// borrowed system is uploaded; an owned one (passed by rvalue) is
/// adopted, since on the host backends the device is host RAM and a
/// second copy would only double the memory a solve needs.
///
/// One row pass per product: apply1 launches the fused gather, apply2
/// launches aprod2_astro and then the fused shared-section scatter
/// (tuning::kAprodPasses), and step launches the LSQR step, which forms
/// both products of a bidiagonalization step in one pass — all on the
/// calling thread. The paper's four-kernel split with stream-overlapped
/// aprod2 scatters stays a modeled GPU effect (perfmodel); on the host
/// every extra kernel streams the row records and y again.
///
/// Every launch — normal and failover re-dispatch — goes through one
/// path (`launch_pass`) that dispatches via `tuning::KernelRegistry` at
/// the shape the TuningTable fixed at construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "backends/backend.hpp"
#include "backends/device_buffer.hpp"
#include "backends/kernel_config.hpp"
#include "backends/scratch_arena.hpp"
#include "core/system_view.hpp"
#include "matrix/system_matrix.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/backoff.hpp"

namespace gaia::core {

/// How the driver executes kernels.
struct AprodOptions {
  backends::BackendKind backend = backends::BackendKind::kGpuSim;
  backends::TuningTable tuning = backends::TuningTable::tuned_default();
  /// Ignored: Aprod runs one row pass per aprod product on the calling
  /// thread and overlaps nothing. Still a field only because existing
  /// callers set it.
  bool use_streams = true;
  backends::CoherenceMode coherence = backends::CoherenceMode::kCoarseGrain;
  /// Retry budget for transient kernel-launch faults (injected via
  /// --faults or real): bounded exponential backoff per launch.
  util::BackoffPolicy retry{};
  /// When a launch fault survives the retry budget, step down the
  /// degradation chain (gpusim -> openmp -> serial) for the remainder
  /// of the run instead of aborting.
  bool failover = true;
};

class Aprod {
 public:
  /// Copies the system onto `device` (throws if it does not fit) and
  /// keeps it resident for the driver's lifetime. A non-empty
  /// `col_scale` column-scales the device copy right after the upload
  /// (apply_column_scaling), so a preconditioned solve needs no second
  /// host copy of the system.
  Aprod(const matrix::SystemMatrix& A, backends::DeviceContext& device,
        AprodOptions options, std::span<const real> col_scale = {});

  /// Takes the system's five row-record arrays as the device buffers
  /// (SystemMatrix::release_records): no copy and no H2D traffic. A
  /// non-empty `col_scale` scales A's coefficients in place first, with
  /// the same per-entry divisions as the upload path, so both give the
  /// same bits. A device too small for the records throws before A is
  /// touched; otherwise A keeps only its known terms and dimensions.
  Aprod(matrix::SystemMatrix&& A, backends::DeviceContext& device,
        AprodOptions options, std::span<const real> col_scale = {});

  Aprod(const Aprod&) = delete;
  Aprod& operator=(const Aprod&) = delete;

  [[nodiscard]] const AprodOptions& options() const { return options_; }
  [[nodiscard]] const SystemView& view() const { return view_; }
  [[nodiscard]] row_index n_rows() const { return view_.n_rows; }
  [[nodiscard]] col_index n_cols() const { return view_.n_cols; }

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
  /// an order the system fixes). Sizes: v and q n_cols, u n_rows.
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

 private:
  /// The single launch path: takes the table entry of `pass.id` as the
  /// shape, dispatches through the KernelRegistry under the retry budget
  /// with fault injection, and on a persistent fault fails over to the
  /// next backend in the chain and re-dispatches — through the same
  /// registry. A fused pass shares `pass.id`'s tuning and fault
  /// identity but is traced and counted under its own name
  /// (pass_region_name). `args` carries the operands; the view, shape and
  /// arena are filled in here.
  void launch_pass(const tuning::AprodPass& pass, tuning::LaunchArgs args);

  /// The device-resident row records, column-scaled when preconditioned.
  struct DeviceRecords {
    backends::DeviceBuffer<real> values;
    backends::DeviceBuffer<col_index> idx_astro;
    backends::DeviceBuffer<col_index> idx_att;
    backends::DeviceBuffer<std::int32_t> instr_col;
    backends::DeviceBuffer<row_index> star_row_start;
  };
  static DeviceRecords upload(const matrix::SystemMatrix& A,
                              backends::DeviceContext& device,
                              backends::CoherenceMode coherence,
                              std::span<const real> col_scale);
  static DeviceRecords adopt(matrix::SystemMatrix&& A,
                             backends::DeviceContext& device,
                             backends::CoherenceMode coherence,
                             std::span<const real> col_scale);

  /// The one construction path both public constructors end in: `A`
  /// supplies the view's dimensions only, `records` its arrays.
  Aprod(const matrix::SystemMatrix& A, DeviceRecords records,
        AprodOptions options);

  AprodOptions options_;
  std::atomic<backends::BackendKind> active_backend_;
  std::atomic<std::uint64_t> failover_count_{0};
  DeviceRecords records_;
  SystemView view_{};
  /// Pooled scratch for the aprod2 scatters' private slices; owned per
  /// driver so its hit/miss accounting tracks this solve alone.
  backends::ScratchArena scratch_arena_;
  std::uint64_t launches_ = 0;
};

}  // namespace gaia::core
