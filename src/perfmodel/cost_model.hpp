/// \file cost_model.hpp
/// \brief Roofline-style cost model of one LSQR iteration on a GPU.
///
/// The solver is memory-bandwidth-bound sparse matrix-vector work (paper
/// SVI), so the model prices each of the eight kernels as
///
///   time = max(traffic / effective_bandwidth, flops / peak_fp64)
///        + atomic_serialization + launch_overhead
///
/// with three structural effects the paper's results hinge on:
///  * kernel shape: threads-per-block away from the platform's sweet
///    spot costs bandwidth (the PSTL fixed-256 penalty on T4/V100, and
///    the "up to 40 %" tuning gain, SV-B);
///  * atomics: the aprod2 scatter kernels serialize on shared columns;
///    the CAS-loop lowering pays a retry penalty that grows with the
///    conflict ratio (the MI250X `-munsafe-fp-atomics` story, SV-B);
///  * streams: overlapping the aprod2 kernels hides the shorter ones
///    behind the longest (paper SIV).
///
/// All constants are either datasheet values (GpuSpec) or calibration
/// documented inline; the model reproduces shapes, not testbed numbers.
#pragma once

#include "backends/atomic.hpp"
#include "backends/device_buffer.hpp"
#include "backends/kernel_config.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "perfmodel/problem_shape.hpp"

namespace gaia::perfmodel {

using backends::AtomicMode;
using backends::KernelConfig;
using backends::KernelId;
using backends::TuningTable;

/// How a port executes the iteration on a platform.
struct ExecutionPlan {
  TuningTable tuning;  ///< launch shapes (resolved; {0,0} = model default)
  AtomicMode atomic_mode = AtomicMode::kNativeRmw;
  bool use_streams = true;
  /// Solve the global (PPN gamma) block. Production has not activated it
  /// (paper SV-C), so the default timing model excludes it.
  bool solve_global = false;
  /// Host-visible allocation coherence. The paper forces coarse grain
  /// via hipMemAdvise because "fine-grain coherence led to performance
  /// degradations due to the atomic operations" (SIV-b): fine grain
  /// makes every atomic a cache-bypassing coherent transaction.
  backends::CoherenceMode coherence = backends::CoherenceMode::kCoarseGrain;
};

class KernelCostModel {
 public:
  explicit KernelCostModel(const GpuSpec& spec) : spec_(spec) {}

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }

  /// Bytes a kernel moves through HBM for the given problem.
  [[nodiscard]] double kernel_traffic_bytes(KernelId id,
                                            const ProblemShape& p) const;

  /// Bytes a kernel moves under a given *storage layout*. Unlike
  /// `kernel_traffic_bytes` (which charges exact coefficient bytes),
  /// this charges what the memory system actually fetches: the seed AoS
  /// record is 3 cache lines, so a kernel reading one block of it pays
  /// line-granular overfetch (64 B for a 40 B astro block, the full
  /// 192 B record for the straddling attitude block); SoA streams pay
  /// exact bytes plus the zero-padded tile tail; the sliced instrumental
  /// format pays its lane padding and the int32 column payload but
  /// halves the gather miss factor (slice sorting clusters rows that
  /// touch nearby instrumental columns).
  [[nodiscard]] double layout_traffic_bytes(
      KernelId id, const ProblemShape& p,
      backends::StorageLayout layout) const;

  /// The overfetch-vs-padding crossover: which storage layout the model
  /// predicts fastest for `id` on this problem. All eight kernels are
  /// bandwidth-bound, so the lowest fetched-bytes layout wins; ties go
  /// to the earlier enum value (seed).
  [[nodiscard]] backends::StorageLayout preferred_layout(
      KernelId id, const ProblemShape& p) const;

  /// Bytes a kernel moves under a given *storage precision* on top of a
  /// layout: the coefficient stream (AoS record lines / SoA planes /
  /// sliced payload) shrinks with the storage scalar while the index
  /// arrays and the FP64 x/y vector traffic stay unchanged — reduced
  /// precision is a coefficient-bandwidth lever only. Seed AoS records
  /// stay line-granular: a shrunken record still fetches whole 64 B
  /// lines.
  [[nodiscard]] double precision_traffic_bytes(
      KernelId id, const ProblemShape& p, backends::StorageLayout layout,
      backends::Precision precision) const;

  /// The bandwidth-vs-refinement crossover: which storage precision the
  /// model predicts fastest for `id` on this problem *per converged
  /// solve*. Reduced precision cuts the coefficient traffic of every
  /// iteration but buys outer iterative-refinement corrections (extra
  /// FP64 residual passes plus correction solves); the model charges an
  /// amortized surcharge per precision (calibration documented in the
  /// implementation) and picks the lowest effective bytes, ties to the
  /// earlier enum value (fp64).
  [[nodiscard]] backends::Precision preferred_precision(
      KernelId id, const ProblemShape& p,
      backends::StorageLayout layout) const;

  /// FP operations of a kernel.
  [[nodiscard]] double kernel_flops(KernelId id, const ProblemShape& p) const;

  /// Atomic-update serialization time (non-zero only for the aprod2
  /// att/instr/glob kernels). Zero when `cfg` selects the privatized
  /// scatter strategy — that path executes no atomics at all; its cost
  /// shows up in `privatized_seconds` instead.
  [[nodiscard]] double atomic_seconds(
      KernelId id, const ProblemShape& p, KernelConfig cfg, AtomicMode mode,
      backends::CoherenceMode coherence =
          backends::CoherenceMode::kCoarseGrain) const;

  /// Scratch-reduction overhead of the privatized scatter path (zero for
  /// atomic-free kernels): W private copies of the kernel's column
  /// section cost ~3 streaming passes over W*section doubles (zero-fill,
  /// tree-fold read+write) plus a log2(W)-deep ladder of extra launches.
  [[nodiscard]] double privatized_seconds(KernelId id, const ProblemShape& p,
                                          KernelConfig cfg) const;

  /// The contention-vs-bandwidth crossover: which scatter strategy the
  /// model predicts faster for `id` at shape `cfg`. Atomics win while
  /// the conflict ratio lanes/columns is low; privatization wins when
  /// serialization (or CAS retries) dominates the modest scratch
  /// traffic. Always kAtomic for atomic-free kernels.
  [[nodiscard]] backends::ScatterStrategy preferred_strategy(
      KernelId id, const ProblemShape& p, KernelConfig cfg, AtomicMode mode,
      backends::CoherenceMode coherence =
          backends::CoherenceMode::kCoarseGrain) const;

  /// Wall time of one kernel launch.
  [[nodiscard]] double kernel_seconds(
      KernelId id, const ProblemShape& p, KernelConfig cfg, AtomicMode mode,
      backends::CoherenceMode coherence =
          backends::CoherenceMode::kCoarseGrain) const;

  /// Wall time of one full LSQR iteration (aprod1 pass, aprod2 pass,
  /// BLAS-1 vector work, launch and synchronization overheads).
  [[nodiscard]] double iteration_seconds(const ProblemShape& p,
                                         const ExecutionPlan& plan) const;

  /// Wall time of one LSQR iteration run as the library's one-pass step
  /// (core::aprod_step) instead of the paper's eight kernels: one launch
  /// at the aprod2_att shape that reads each coefficient and index once,
  /// u once per row, and adds only the scatters' x traffic and commits of
  /// the aprod2 half; the BLAS-1 work shrinks to the n-length vectors.
  /// The eight-kernel iteration reads A twice.
  [[nodiscard]] double step_iteration_seconds(
      const ProblemShape& p, const ExecutionPlan& plan) const;

  /// Bandwidth efficiency multiplier of a launch shape on this platform
  /// (1 at the preferred threads-per-block; exposed for tests/ablations).
  [[nodiscard]] double shape_efficiency(KernelConfig cfg) const;

  /// Occupancy multiplier: narrow grids cannot saturate HBM.
  [[nodiscard]] double lane_utilization(KernelConfig cfg) const;

  /// The launch shapes a hand-tuned native port uses on this platform
  /// (wide gather kernels, narrow atomic kernels — paper SIV).
  [[nodiscard]] TuningTable tuned_table() const;

  /// Resolve a {0,0} config to the model's default launch shape.
  [[nodiscard]] KernelConfig resolve(KernelId id, KernelConfig cfg) const;

 private:
  GpuSpec spec_;
};

}  // namespace gaia::perfmodel
