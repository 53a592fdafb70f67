#include "perfmodel/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace gaia::perfmodel {

namespace {

// Cache-miss factor of the x-vector gathers / scatters per block type:
// astrometric accesses are contiguous (block diagonal), attitude hits a
// slowly drifting spline window, instrumental is irregular.
constexpr double kAstroMiss = 0.05;
constexpr double kAttMiss = 0.35;
constexpr double kInstrMiss = 0.90;

// Streaming (non-SpMV) bandwidth efficiency for the BLAS-1 vector work.
constexpr double kStreamEff = 0.90;

// Per-iteration host-side overhead: scalar reductions, stream sync, MPI
// allreduce of the solver scalars.
constexpr double kIterationOverheadS = 30e-6;

// Atomic behaviour calibration (see DESIGN.md):
// native FP64 atomics are warp/wave-aggregated by hardware; a CAS retry
// loop is not, and pays ~4x the uncontended cost (extra load + compare).
constexpr double kRmwAggregation = 32.0;
constexpr double kCasBaseFactor = 4.0;
constexpr double kRmwConflictCoef = 0.02;
constexpr double kRmwConflictCap = 32.0;
constexpr double kCasConflictCap = 64.0;

// Fine-grain coherence penalty: every atomic becomes a coherent,
// cache-bypassing transaction (the paper's hipMemAdvise observation,
// SIV-b), and streaming traffic loses some caching too.
constexpr double kFineGrainAtomicFactor = 6.0;
constexpr double kFineGrainBwFactor = 0.92;

// Lanes needed to saturate HBM (model constant; narrower grids get
// proportionally less bandwidth).
constexpr double kSaturationLanes = 2048.0;

struct KernelShapeInfo {
  double per_row_bytes;    ///< coefficients + indexes + y traffic
  double gather_bytes;     ///< x gathers/scatters before the miss factor
  double miss;             ///< cache-miss factor on the gather traffic
  double flops_per_row;
  double atomic_updates_per_row;  ///< 0 = atomic-free kernel
};

KernelShapeInfo shape_info(KernelId id) {
  using enum KernelId;
  // Sizes: coefficient block + index payload + y read/modify/write for
  // aprod1 (16 B) or y read for aprod2 (8 B).
  switch (id) {
    case kAprod1Astro:
      return {40 + 8 + 16, 40, kAstroMiss, 10, 0};
    case kAprod1Att:
      return {96 + 8 + 16, 96, kAttMiss, 24, 0};
    case kAprod1Instr:
      return {48 + 24 + 16, 48, kInstrMiss, 12, 0};
    case kAprod1Glob:
      return {8 + 16, 0, 0, 2, 0};
    case kAprod2Astro:
      // Star-parallel: x is written once per star (80 B per star folded
      // into gather_bytes via the miss factor approximation).
      return {40 + 8 + 8, 80, kAstroMiss, 10, 0};
    case kAprod2Att:
      return {96 + 8 + 8, 12 * 16, kAttMiss, 24, 12};
    case kAprod2Instr:
      return {48 + 24 + 8, 6 * 16, kInstrMiss, 12, 6};
    case kAprod2Glob:
      return {8 + 8, 0, 0, 2, 1};
  }
  throw Error("unknown kernel id");
}

/// Distinct target columns of an atomic kernel.
double distinct_columns(KernelId id, const ProblemShape& p) {
  switch (id) {
    case KernelId::kAprod2Att:
      return static_cast<double>(std::max<col_index>(1, p.n_att_params));
    case KernelId::kAprod2Instr:
      return static_cast<double>(std::max<col_index>(1, p.n_instr_params));
    case KernelId::kAprod2Glob:
      return 1.0;
    default:
      return 1.0;
  }
}

bool kernel_active(KernelId id, const ProblemShape& p,
                   const ExecutionPlan& plan) {
  if (id == KernelId::kAprod1Glob || id == KernelId::kAprod2Glob)
    return plan.solve_global && p.n_glob_params > 0;
  return true;
}

}  // namespace

double KernelCostModel::kernel_traffic_bytes(KernelId id,
                                             const ProblemShape& p) const {
  const KernelShapeInfo info = shape_info(id);
  const double rows = static_cast<double>(p.n_rows);
  return rows * (info.per_row_bytes + info.gather_bytes * info.miss);
}

double KernelCostModel::kernel_flops(KernelId id,
                                     const ProblemShape& p) const {
  return static_cast<double>(p.n_rows) * shape_info(id).flops_per_row;
}

double KernelCostModel::shape_efficiency(KernelConfig cfg) const {
  const KernelConfig c = resolve(KernelId::kAprod1Astro, cfg);
  const double t = std::max(1, c.threads);
  const double pref = std::max(1, spec_.preferred_threads);
  const double ratio = std::abs(std::log2(t / pref));
  // Calibrated so 256 threads on a 32-preferring platform gives ~0.67,
  // matching the PSTL efficiency the paper reports on T4/V100.
  return 1.0 / (1.0 + 0.055 * ratio * ratio);
}

double KernelCostModel::lane_utilization(KernelConfig cfg) const {
  const KernelConfig c = resolve(KernelId::kAprod1Astro, cfg);
  const double lanes = static_cast<double>(c.total_threads());
  return std::min(1.0, std::sqrt(lanes / kSaturationLanes));
}

KernelConfig KernelCostModel::resolve(KernelId id, KernelConfig cfg) const {
  if (!cfg.is_default()) return cfg;
  return tuned_table().get(id);
}

TuningTable KernelCostModel::tuned_table() const {
  TuningTable t;
  // Wide gather kernels: enough lanes to saturate HBM at the platform's
  // preferred block size.
  const std::int32_t threads = spec_.preferred_threads;
  const std::int32_t wide_blocks = static_cast<std::int32_t>(
      std::max<std::int64_t>(64, spec_.max_concurrent_lanes / threads));
  const KernelConfig wide{wide_blocks, threads};
  t.set(KernelId::kAprod1Astro, wide);
  t.set(KernelId::kAprod1Att, wide);
  t.set(KernelId::kAprod1Instr, wide);
  t.set(KernelId::kAprod1Glob, wide);
  t.set(KernelId::kAprod2Astro, wide);
  // Atomic kernels run narrower (paper SIV: fewer blocks/threads where
  // atomics collide) but still wide enough to saturate HBM — the tuned
  // sweet spot between bandwidth and collision pressure.
  const std::int32_t narrow_blocks = static_cast<std::int32_t>(
      std::max<std::int64_t>(
          8, static_cast<std::int64_t>(kSaturationLanes) / threads));
  const KernelConfig narrow{narrow_blocks, threads};
  t.set(KernelId::kAprod2Att, narrow);
  t.set(KernelId::kAprod2Instr, narrow);
  // The (inactive in production) global scatter hits a single column:
  // minimal lanes.
  t.set(KernelId::kAprod2Glob, {8, 32});
  return t;
}

double KernelCostModel::atomic_seconds(KernelId id, const ProblemShape& p,
                                       KernelConfig cfg, AtomicMode mode,
                                       backends::CoherenceMode coherence)
    const {
  const KernelShapeInfo info = shape_info(id);
  if (info.atomic_updates_per_row == 0) return 0.0;

  const KernelConfig c = resolve(id, cfg);
  const double lanes = static_cast<double>(std::max<std::int64_t>(
      1, std::min<std::int64_t>(c.total_threads(),
                                spec_.max_concurrent_lanes)));
  const double cols = distinct_columns(id, p);
  const double updates =
      static_cast<double>(p.n_rows) * info.atomic_updates_per_row;
  const double conflict = lanes / cols;

  double cost_ns;
  double effective_updates = updates;
  if (mode == AtomicMode::kNativeRmw) {
    cost_ns = spec_.atomic_rmw_ns *
              (1.0 + kRmwConflictCoef * std::min(conflict, kRmwConflictCap));
    effective_updates /= kRmwAggregation;
  } else {
    cost_ns = kCasBaseFactor * spec_.atomic_rmw_ns *
              (1.0 + spec_.atomic_cas_retry *
                         std::min(conflict, kCasConflictCap));
  }
  if (coherence == backends::CoherenceMode::kFineGrain)
    cost_ns *= kFineGrainAtomicFactor;
  const double commit_parallelism = std::max(1.0, std::min(lanes, cols));
  return effective_updates * cost_ns * 1e-9 / commit_parallelism;
}

double KernelCostModel::kernel_seconds(KernelId id, const ProblemShape& p,
                                       KernelConfig cfg, AtomicMode mode,
                                       backends::CoherenceMode coherence)
    const {
  const KernelConfig c = resolve(id, cfg);
  const double coherence_bw =
      coherence == backends::CoherenceMode::kFineGrain ? kFineGrainBwFactor
                                                       : 1.0;
  const double bw = spec_.peak_bw_gbs * 1e9 * spec_.spmv_bw_efficiency *
                    shape_efficiency(c) * lane_utilization(c) * coherence_bw;
  const double mem_s = kernel_traffic_bytes(id, p) / bw;
  const double flop_s = kernel_flops(id, p) / (spec_.fp64_tflops * 1e12);
  return std::max(mem_s, flop_s) +
         atomic_seconds(id, p, c, mode, coherence) +
         spec_.launch_overhead_us * 1e-6;
}

double KernelCostModel::iteration_seconds(const ProblemShape& p,
                                          const ExecutionPlan& plan) const {
  using enum KernelId;
  const double launch_s = spec_.launch_overhead_us * 1e-6;

  // aprod1: the four gathers share y and run back to back. They are all
  // bandwidth-bound on the same HBM, so their memory times add.
  double aprod1 = 0.0;
  for (KernelId id : {kAprod1Astro, kAprod1Att, kAprod1Instr, kAprod1Glob}) {
    if (!kernel_active(id, p, plan)) continue;
    aprod1 += kernel_seconds(id, p, plan.tuning.get(id), plan.atomic_mode,
                             plan.coherence);
  }

  // aprod2: the scatters target disjoint sections, so streams may
  // overlap them — but overlapping bandwidth-bound kernels does not buy
  // bandwidth. What streams actually hide is (a) the latency-bound
  // atomic serialization phases, which overlap with the other kernels'
  // memory traffic, and (b) all but one launch gap.
  double mem_sum = 0.0, atomic_sum = 0.0, atomic_max = 0.0;
  int active = 0;
  for (KernelId id : {kAprod2Astro, kAprod2Att, kAprod2Instr, kAprod2Glob}) {
    if (!kernel_active(id, p, plan)) continue;
    ++active;
    const KernelConfig c = resolve(id, plan.tuning.get(id));
    const double coherence_bw =
        plan.coherence == backends::CoherenceMode::kFineGrain
            ? kFineGrainBwFactor
            : 1.0;
    const double bw = spec_.peak_bw_gbs * 1e9 * spec_.spmv_bw_efficiency *
                      shape_efficiency(c) * lane_utilization(c) *
                      coherence_bw;
    const double mem_s = std::max(
        kernel_traffic_bytes(id, p) / bw,
        kernel_flops(id, p) / (spec_.fp64_tflops * 1e12));
    const double atm_s =
        atomic_seconds(id, p, c, plan.atomic_mode, plan.coherence);
    mem_sum += mem_s;
    atomic_sum += atm_s;
    atomic_max = std::max(atomic_max, atm_s);
  }
  const double aprod2 =
      plan.use_streams
          ? std::max(mem_sum, atomic_max) + launch_s
          : mem_sum + atomic_sum + active * launch_s;

  // BLAS-1 vector work of the LSQR recurrences: u is touched ~4x per
  // iteration (scale, accumulate, norm, normalize), v/w/x ~6x.
  const double vec_bytes =
      4.0 * static_cast<double>(p.n_rows) * sizeof(real) +
      6.0 * 3.0 * static_cast<double>(p.n_unknowns()) * sizeof(real);
  const double vec_s =
      vec_bytes / (spec_.peak_bw_gbs * 1e9 * kStreamEff) +
      4.0 * spec_.launch_overhead_us * 1e-6;

  return aprod1 + aprod2 + vec_s + kIterationOverheadS;
}

double KernelCostModel::step_iteration_seconds(
    const ProblemShape& p, const ExecutionPlan& plan) const {
  using enum KernelId;
  const double rows = static_cast<double>(p.n_rows);
  const double launch_s = spec_.launch_overhead_us * 1e-6;
  const KernelConfig c = resolve(kAprod2Att, plan.tuning.get(kAprod2Att));
  double bytes = 0.0, flops = 0.0, atomic_s = 0.0;
  int gather_parts = 0;
  for (KernelId id : backends::all_kernels()) {
    if (!kernel_active(id, p, plan)) continue;
    flops += kernel_flops(id, p);
    if (id < kAprod2Astro) {
      bytes += kernel_traffic_bytes(id, p);
      ++gather_parts;
      continue;
    }
    const KernelShapeInfo info = shape_info(id);
    bytes += rows * info.gather_bytes * info.miss;
    atomic_s += atomic_seconds(id, p, c, plan.atomic_mode, plan.coherence);
  }
  // Each gather part charges a y read-modify-write per row; the pass
  // reads and writes u[r] once.
  bytes -= static_cast<double>(gather_parts - 1) * rows * 2 * sizeof(real);
  const double coherence_bw =
      plan.coherence == backends::CoherenceMode::kFineGrain
          ? kFineGrainBwFactor
          : 1.0;
  const double bw = spec_.peak_bw_gbs * 1e9 * spec_.spmv_bw_efficiency *
                    shape_efficiency(c) * lane_utilization(c) * coherence_bw;
  const double mem_s =
      std::max(bytes / bw, flops / (spec_.fp64_tflops * 1e12));
  // The atomics' serialization overlaps the pass's memory traffic, as
  // the streamed aprod2 scatters' does in iteration_seconds.
  const double pass_s = std::max(mem_s, atomic_s) + launch_s;

  // BLAS-1 on v/w/x only: u is never rescaled, its norm is the pass's.
  const double vec_bytes =
      6.0 * 3.0 * static_cast<double>(p.n_unknowns()) * sizeof(real);
  const double vec_s = vec_bytes / (spec_.peak_bw_gbs * 1e9 * kStreamEff) +
                       3.0 * launch_s;
  return pass_s + vec_s + kIterationOverheadS;
}

}  // namespace gaia::perfmodel
