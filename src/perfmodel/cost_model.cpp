#include "perfmodel/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "backends/backend.hpp"
#include "matrix/storage_layout.hpp"
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

// Gather miss factor of the instrumental kernels under the sliced
// layout: sigma-window sorting by first instrumental column clusters
// rows that scatter/gather nearby x entries, roughly halving the
// irregular-access miss rate (the SELL-C-sigma effect).
constexpr double kInstrMissSliced = 0.45;

/// Exact coefficient bytes of a kernel's block, and the cache lines the
/// seed AoS record fetch actually touches for it. The 24-double record
/// is 3 lines: [0,8) holds astro + the first att doubles, [8,16) att,
/// [16,24) the att tail + instr + glob. Astro reads line 0 (64 B for
/// 40 B of payload); attitude straddles all three (192 B for 96 B);
/// instrumental and global each sit inside line 2.
struct CoeffBlock {
  double exact;
  double seed_lines;
};

CoeffBlock coeff_block(KernelId id) {
  using enum KernelId;
  switch (id) {
    case kAprod1Astro:
    case kAprod2Astro:
      return {40, 64};
    case kAprod1Att:
    case kAprod2Att:
      return {96, 192};
    case kAprod1Instr:
    case kAprod2Instr:
      return {48, 64};
    case kAprod1Glob:
    case kAprod2Glob:
      return {8, 64};
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

namespace {

/// Shared body of layout_traffic_bytes / precision_traffic_bytes:
/// `coef_scale` is the storage-scalar size over sizeof(real) (1 for
/// fp64, 1/2 fp32, 1/4 bf16s). Only the coefficient stream scales —
/// indices, permutations and the FP64 x/y gathers are precision-
/// invariant.
double traffic_bytes_impl(KernelId id, const ProblemShape& p,
                          backends::StorageLayout layout,
                          double coef_scale) {
  using backends::StorageLayout;
  const KernelShapeInfo info = shape_info(id);
  const double rows = static_cast<double>(std::max<row_index>(1, p.n_rows));
  const CoeffBlock cb = coeff_block(id);
  // Index payload + y traffic: everything in per_row_bytes that is not
  // the coefficient block itself.
  double idx_y = info.per_row_bytes - cb.exact;
  const bool instr =
      id == KernelId::kAprod1Instr || id == KernelId::kAprod2Instr;
  const auto padded_to = [rows](double granule) {
    return std::ceil(rows / granule) * granule;
  };

  double coeff_total = 0.0;
  double miss = info.miss;
  switch (layout) {
    case StorageLayout::kSeedAos:
      // The shrunken record still fetches line-granular: scale the line
      // coverage but never below one 64 B line per row touched.
      coeff_total = rows * std::max(64.0, cb.seed_lines * coef_scale);
      break;
    case StorageLayout::kSoaTiled:
      coeff_total = padded_to(static_cast<double>(matrix::kSoaTileRows)) *
                    cb.exact * coef_scale;
      break;
    case StorageLayout::kSlicedInstr:
      if (instr) {
        // Lane-major slices: 6 coefficients + 6 int32 columns + the row
        // index per lane, padded lanes included. The int32 payload
        // replaces the seed's 24 B instr_col read, so drop it from
        // idx_y.
        const double lanes =
            padded_to(static_cast<double>(matrix::kSliceHeight));
        coeff_total =
            lanes * (6.0 * (sizeof(real) * coef_scale +
                            sizeof(std::int32_t)) +
                     sizeof(row_index));
        idx_y -= 6.0 * sizeof(std::int32_t);
        miss = kInstrMissSliced;
      } else {
        // Non-instrumental kernels run the SoA streams under this
        // layout (kSlicedInstr implies SoA for the regular blocks).
        coeff_total = padded_to(static_cast<double>(matrix::kSoaTileRows)) *
                      cb.exact * coef_scale;
      }
      break;
  }
  return coeff_total + rows * (idx_y + info.gather_bytes * miss);
}

/// Amortized refinement surcharge of a storage precision: reduced
/// precision perturbs A, so the solve needs outer FP64 residual
/// corrections (each a pair of full-precision aprod passes plus a short
/// correction solve). Spread over the ~100-iteration production solve,
/// fp32's typical 1–2 corrections cost ~5 % extra traffic and bf16s's
/// 3–5 corrections ~15 % — the crossover constants, not testbed
/// numbers.
double refinement_surcharge(backends::Precision precision) {
  switch (precision) {
    case backends::Precision::kFp64:
      return 0.0;
    case backends::Precision::kFp32:
      return 0.05;
    case backends::Precision::kBf16s:
      return 0.15;
  }
  return 0.0;
}

}  // namespace

double KernelCostModel::layout_traffic_bytes(
    KernelId id, const ProblemShape& p,
    backends::StorageLayout layout) const {
  return traffic_bytes_impl(id, p, layout, 1.0);
}

double KernelCostModel::precision_traffic_bytes(
    KernelId id, const ProblemShape& p, backends::StorageLayout layout,
    backends::Precision precision) const {
  const double scale =
      static_cast<double>(matrix::precision_bytes(precision)) /
      static_cast<double>(sizeof(real));
  return traffic_bytes_impl(id, p, layout, scale);
}

backends::Precision KernelCostModel::preferred_precision(
    KernelId id, const ProblemShape& p,
    backends::StorageLayout layout) const {
  auto best = backends::Precision::kFp64;
  double best_bytes = precision_traffic_bytes(id, p, layout, best);
  for (int pr = 1; pr < backends::kNumPrecisions; ++pr) {
    const auto cand = static_cast<backends::Precision>(pr);
    const double bytes = precision_traffic_bytes(id, p, layout, cand) *
                         (1.0 + refinement_surcharge(cand));
    if (bytes < best_bytes) {
      best = cand;
      best_bytes = bytes;
    }
  }
  return best;
}

backends::StorageLayout KernelCostModel::preferred_layout(
    KernelId id, const ProblemShape& p) const {
  auto best = backends::StorageLayout::kSeedAos;
  double best_bytes = layout_traffic_bytes(id, p, best);
  for (int l = 1; l < backends::kNumStorageLayouts; ++l) {
    const auto cand = static_cast<backends::StorageLayout>(l);
    const double bytes = layout_traffic_bytes(id, p, cand);
    if (bytes < best_bytes) {
      best = cand;
      best_bytes = bytes;
    }
  }
  return best;
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
  // The privatized path executes no atomics; its scratch-reduction cost
  // is priced by privatized_seconds instead.
  if (c.strategy == backends::ScatterStrategy::kPrivatized) return 0.0;
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

double KernelCostModel::privatized_seconds(KernelId id, const ProblemShape& p,
                                           KernelConfig cfg) const {
  const KernelShapeInfo info = shape_info(id);
  if (info.atomic_updates_per_row == 0) return 0.0;

  const KernelConfig c = resolve(id, cfg);
  // Worker count mirrors Exec::scatter_workers: one private slice per
  // block, capped so scratch stays bounded.
  const double workers = static_cast<double>(std::clamp<std::int32_t>(
      std::max<std::int32_t>(1, c.blocks), 1, backends::kMaxScatterWorkers));
  const double section = distinct_columns(id, p);
  // Zero-fill (1 write pass) + pairwise tree fold (~1 read + ~1 write
  // pass over the slices in total): ~3 streaming passes over W*section
  // doubles. Contiguous slices stream at full (non-SpMV) efficiency.
  const double scratch_bytes = 3.0 * workers * section * sizeof(real);
  const double scratch_s =
      scratch_bytes / (spec_.peak_bw_gbs * 1e9 * kStreamEff);
  // One launch per fold level plus the final fold-into-x launch.
  const double levels = static_cast<double>(
      std::bit_width(static_cast<std::uint32_t>(workers)) );
  return scratch_s + (levels + 1.0) * spec_.launch_overhead_us * 1e-6;
}

backends::ScatterStrategy KernelCostModel::preferred_strategy(
    KernelId id, const ProblemShape& p, KernelConfig cfg, AtomicMode mode,
    backends::CoherenceMode coherence) const {
  if (!backends::kernel_uses_atomics(id))
    return backends::ScatterStrategy::kAtomic;
  KernelConfig atomic_cfg = resolve(id, cfg);
  atomic_cfg.strategy = backends::ScatterStrategy::kAtomic;
  const double atomic_s = atomic_seconds(id, p, atomic_cfg, mode, coherence);
  const double priv_s = privatized_seconds(id, p, atomic_cfg);
  return priv_s < atomic_s ? backends::ScatterStrategy::kPrivatized
                           : backends::ScatterStrategy::kAtomic;
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
  const double scatter_s =
      c.strategy == backends::ScatterStrategy::kPrivatized
          ? privatized_seconds(id, p, c)
          : atomic_seconds(id, p, c, mode, coherence);
  return std::max(mem_s, flop_s) + scatter_s +
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
    // Privatized scratch traffic is bandwidth, not latency: streams
    // cannot hide it behind the other kernels' memory phases.
    const double priv_s =
        c.strategy == backends::ScatterStrategy::kPrivatized
            ? privatized_seconds(id, p, c)
            : 0.0;
    mem_sum += mem_s + priv_s;
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
  double bytes = 0.0, flops = 0.0, atomic_s = 0.0, priv_s = 0.0;
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
    if (c.strategy == backends::ScatterStrategy::kPrivatized)
      priv_s += privatized_seconds(id, p, c);
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
  // The commits' serialization overlaps the pass's memory traffic, as
  // the streamed aprod2 scatters' does in iteration_seconds.
  const double pass_s = std::max(mem_s, atomic_s) + priv_s + launch_s;

  // BLAS-1 on v/w/x only: u is never rescaled, its norm is the pass's.
  const double vec_bytes =
      6.0 * 3.0 * static_cast<double>(p.n_unknowns()) * sizeof(real);
  const double vec_s = vec_bytes / (spec_.peak_bw_gbs * 1e9 * kStreamEff) +
                       3.0 * launch_s;
  return pass_s + vec_s + kIterationOverheadS;
}

}  // namespace gaia::perfmodel
