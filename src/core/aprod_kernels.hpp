/// \file aprod_kernels.hpp
/// \brief The eight hot kernels of the solver and the three fused row
/// passes, templated on the backend.
///
/// aprod mode 1 (paper Eq. 3): y += A x — a gather per row; every kernel
/// accumulates its block's partial dot product into y[r]. The fused
/// gather adds all four partial sums in one row pass, in the kernels'
/// order, so it equals the four launches bit for bit.
///
/// aprod mode 2 (paper Eq. 4): x += A^T y — a scatter per row into x.
/// The astrometric part is block diagonal, so parallelizing over *stars*
/// gives each task exclusive ownership of its five columns: no atomics.
/// Attitude, instrumental and global columns are shared between rows:
/// those three kernels accumulate row chunks into per-worker private
/// slices and commit the slices to x, atomically or through a fixed-order
/// fold (`detail::section_scatter`). The sections are contiguous in x, so
/// the fused scatter runs all three in one row pass over one span.
///
/// The LSQR step (`aprod_step`) is the third fused pass: one row pass
/// over star-aligned chunks that forms p = A v - alpha (sigma u), writes
/// it over u, scatters q = A^T p and sums ||p||^2. It is the only pass
/// `LsqrEngine` launches. `Aprod::apply1/apply2` launch the fused gather,
/// aprod2_astro and the fused scatter (tuning::kAprodPasses). The
/// per-section kernels stay registry slots for the benches and the
/// per-kernel baseline; the cost model prices them as the paper's GPU
/// kernels.
///
/// Templating on the execution policy keeps the row loop body inlined in
/// every backend while the launch mechanics (grid-stride virtual threads,
/// OpenMP directives, parallel algorithms, plain loop) differ — this is
/// the library's equivalent of maintaining one kernel source per
/// programming model.
///
/// Every body additionally takes the coefficient storage scalar `CoefT`
/// (real | float | matrix::bf16s — the Precision axis). Coefficients
/// are converted on load (`matrix::load_real`) and all arithmetic and
/// accumulation stays FP64, whatever the storage precision: the solver
/// needs ~1e-11 rad in the solution and LSQR amplifies accumulator
/// rounding, while storage rounding only perturbs A — a nearby system
/// that outer iterative refinement corrects. The CoefT = real
/// instantiation reads the exact same arrays as the pre-precision code.
#pragma once

#include <algorithm>
#include <array>
#include <bit>

#include "backends/backend.hpp"
#include "backends/scratch_arena.hpp"
#include "core/system_view.hpp"
#include "util/types.hpp"

namespace gaia::core {

using backends::AtomicMode;
using backends::KernelConfig;
using matrix::load_real;

// ---------------------------------------------------------------------------
// aprod1: y += A x (row-parallel gathers; no atomics anywhere)
// ---------------------------------------------------------------------------
// Each layout has one row dot per section: `dot(r)` is row r's partial
// product of A x over the section. A separate gather adds one dot into
// y[r]; the fused gather adds all four in one row pass. The gather inner
// loops run over fixed, tiny trip counts through pointers that never
// alias (coefficients, index arrays and x come from distinct buffers):
// GAIA_RESTRICT + the simd reduction hint let the serial/pstl backends
// vectorize what CUDA gets from the hardware.

namespace detail {

/// One section's gather: y[r] += dot(r). Every y[r] is written by exactly
/// one virtual thread.
template <typename Exec, typename Dot>
void row_gather(std::int64_t n_rows, real* y, KernelConfig cfg, Dot dot) {
  Exec::launch(n_rows, cfg, [=](std::int64_t r) { y[r] += dot(r); });
}

/// Row r of the fused gather: `yr` plus the four section dots, added in
/// the order the separate kernels add them (astro, att, instr, glob).
template <typename AstroDot, typename AttDot, typename InstrDot,
          typename GlobDot>
auto gather_row(const SystemView& A, AstroDot astro, AttDot att,
                InstrDot instr, GlobDot glob) {
  const bool has_global = A.has_global;
  return [=](real yr, std::int64_t r) {
    yr += astro(r);
    yr += att(r);
    yr += instr(r);
    if (has_global) yr += glob(r);
    return yr;
  };
}

/// The fused gather: one row pass of a layout's gather row. Same dots,
/// same adds, same order: it equals the four separate launches bit for
/// bit, and reads each row's record and y[r] once.
template <typename Exec, typename GatherRow>
void fused_gather(std::int64_t n_rows, real* y, KernelConfig cfg,
                  GatherRow row) {
  Exec::launch(n_rows, cfg, [=](std::int64_t r) { y[r] = row(y[r], r); });
}

// Row dots of the seed layout.

template <typename CoefT>
auto astro_dot(const SystemView& A, const real* x) {
  const CoefT* vals = A.coefs<CoefT>().values;
  const col_index* idx_astro = A.idx_astro;
  return [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
    const real* GAIA_RESTRICT xs = x + idx_astro[r];
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kAstroNnzPerRow; ++i) sum += load_real(rv[i]) * xs[i];
    return sum;
  };
}

template <typename CoefT>
auto att_dot(const SystemView& A, const real* x) {
  const CoefT* vals = A.coefs<CoefT>().values;
  const col_index* idx_att = A.idx_att;
  const real* xa = x + A.att_offset;
  const col_index stride = A.att_stride;
  return [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
    const col_index base = idx_att[r];
    real sum = 0;
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const real* GAIA_RESTRICT xb = xa + base + blk * stride;
      const CoefT* GAIA_RESTRICT rb = rv + blk * kAttBlockSize;
      GAIA_OMP_SIMD_REDUCTION(sum)
      for (int i = 0; i < kAttBlockSize; ++i)
        sum += load_real(rb[i]) * xb[i];
    }
    return sum;
  };
}

template <typename CoefT>
auto instr_dot(const SystemView& A, const real* x) {
  const CoefT* vals = A.coefs<CoefT>().values;
  const std::int32_t* instr_col = A.instr_col;
  const real* xi = x + A.instr_offset;
  return [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
    const std::int32_t* GAIA_RESTRICT cols = instr_col + r * kInstrNnzPerRow;
    const real* GAIA_RESTRICT xs = xi;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      sum += load_real(rv[i]) * xs[cols[i]];
    return sum;
  };
}

/// Without a global block there is no x entry to read; the dot is never
/// called then (the glob kernel returns early, the fused gather skips it).
template <typename CoefT>
auto glob_dot(const SystemView& A, const real* x) {
  const CoefT* vals = A.coefs<CoefT>().values;
  const real xg = A.has_global ? x[A.glob_offset] : real{0};
  return [=](std::int64_t r) {
    return load_real(vals[r * kNnzPerRow + matrix::kGlobCoeffOffset]) * xg;
  };
}

template <typename CoefT>
auto seed_gather_row(const SystemView& A, const real* x) {
  return gather_row(A, astro_dot<CoefT>(A, x), att_dot<CoefT>(A, x),
                    instr_dot<CoefT>(A, x), glob_dot<CoefT>(A, x));
}

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod1_astro(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::astro_dot<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_att(const SystemView& A, const real* x, real* y,
                KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::att_dot<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_instr(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::instr_dot<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_glob(const SystemView& A, const real* x, real* y,
                 KernelConfig cfg) {
  if (!A.has_global) return;
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::glob_dot<CoefT>(A, x));
}

/// Fused single-pass aprod1: the whole row record is read once and y[r]
/// is read and written once, instead of once per section kernel.
template <typename Exec, typename CoefT = real>
void aprod1_fused(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  detail::fused_gather<Exec>(A.n_rows, y, cfg,
                             detail::seed_gather_row<CoefT>(A, x));
}

// ---------------------------------------------------------------------------
// aprod2: x += A^T y (column scatters)
// ---------------------------------------------------------------------------

namespace detail {

/// The star-parallel astrometric scatter: each star owns its 5 columns
/// and the rows touching them are exactly its contiguous row range, so
/// `rows(acc, r)` adds row r into the star's registers and no atomics are
/// needed. Requires the generator invariant that constraint rows carry
/// zero astrometric coefficients (they are not covered by the star
/// partition).
template <typename Exec, typename AstroRows>
void star_scatter(const SystemView& A, real* x, KernelConfig cfg,
                  AstroRows rows) {
  const row_index* starts = A.star_row_start;
  Exec::launch(A.n_stars, cfg, [=](std::int64_t s) {
    real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
    for (row_index r = starts[s]; r < starts[s + 1]; ++r) rows(acc, r);
    real* xs = x + s * kAstroParamsPerStar;
    for (int i = 0; i < kAstroNnzPerRow; ++i) xs[i] += acc[i];
  });
}

/// Astrometric row accumulator of the seed layout, shared by
/// aprod2_astro and the LSQR step.
template <typename CoefT>
auto astro_rows(const SystemView& A, const real* y) {
  const CoefT* vals = A.coefs<CoefT>().values;
  return [=](real* GAIA_RESTRICT acc, std::int64_t r) {
    const CoefT* rv = vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
    const real yr = y[r];
    for (int i = 0; i < kAstroNnzPerRow; ++i)
      acc[i] += load_real(rv[i]) * yr;
  };
}

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod2_astro(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg) {
  detail::star_scatter<Exec>(A, x, cfg, detail::astro_rows<CoefT>(A, y));
}

/// Column section [offset, offset + len) of x that an aprod2 scatter
/// kernel writes; empty for the other kernels and for the global kernel
/// of a system without a global block.
struct ScatterSection {
  col_index offset = 0;
  col_index len = 0;
};

inline ScatterSection scatter_section(const SystemView& A,
                                      backends::KernelId id) {
  switch (id) {
    case backends::KernelId::kAprod2Att:
      return {A.att_offset, A.instr_offset - A.att_offset};
    case backends::KernelId::kAprod2Instr:
      return {A.instr_offset, A.glob_offset - A.instr_offset};
    case backends::KernelId::kAprod2Glob:
      return {A.glob_offset, A.has_global ? 1 : 0};
    default:
      return {};
  }
}

/// The three shared sections are contiguous in x, so the fused scatter
/// writes one span: [att_offset, end of the global section).
inline ScatterSection fused_scatter_section(const SystemView& A) {
  return {A.att_offset,
          A.glob_offset + (A.has_global ? 1 : 0) - A.att_offset};
}

namespace detail {

/// Private slices a shared-section scatter over `n_rows` rows uses:
/// Exec::scatter_workers(cfg), or for the atomic commit
/// backends::atomic_scatter_workers.
template <typename Exec>
int section_workers(std::int64_t n_rows, KernelConfig cfg) {
  return cfg.strategy == backends::ScatterStrategy::kAtomic
             ? backends::atomic_scatter_workers<Exec>(n_rows, cfg)
             : Exec::scatter_workers(cfg);
}

/// The one commit skeleton of the shared sections, for both scatter
/// strategies and every pass that scatters into them. Each of `workers`
/// workers zeroes a private copy of the section in pooled scratch and
/// runs `body(w, slice)`, which adds its rows' contributions at
/// section-relative indices. Only the commit step depends on
/// cfg.strategy:
///
/// - kAtomic: each worker, right after its body, adds its slice into x
///   with one Exec::atomic_add per column (honouring `mode`). That is
///   W x section atomics in a nondeterministic order instead of one per
///   (row, column): the host analogue of the block-level shared-memory
///   aggregation GPU scatter kernels use. No fold, no second launch.
/// - kPrivatized: no atomics. The slices are folded pairwise — slice p +=
///   slice p+stride, stride halving from bit_ceil(W)/2 — a combine order
///   fixed by W alone, so a fixed launch shape reduces bit-identically
///   run to run regardless of thread scheduling. The folded slice 0 is
///   added into x in one column-parallel pass.
template <typename Exec, typename WorkerBody>
void section_scatter(int workers, real* x, ScatterSection sect,
                     KernelConfig cfg, AtomicMode mode,
                     backends::ScratchArena* arena, WorkerBody&& body) {
  const col_index sect_len = sect.len;
  const bool atomic = cfg.strategy == backends::ScatterStrategy::kAtomic;
  backends::ScratchArena& pool =
      arena ? *arena : backends::ScratchArena::for_backend(Exec::kKind);
  auto lease = pool.acquire(static_cast<std::size_t>(workers) *
                            static_cast<std::size_t>(sect_len));
  real* const scratch = lease.data();
  real* const xs = x + sect.offset;

  Exec::launch_workers(workers, cfg, [&](int w) {
    real* GAIA_RESTRICT slice =
        scratch + static_cast<std::int64_t>(w) * sect_len;
    std::fill(slice, slice + sect_len, real{0});
    body(w, slice);
    if (atomic)
      for (col_index c = 0; c < sect_len; ++c)
        Exec::atomic_add(xs[c], slice[c], mode);
  });
  if (atomic || sect_len <= 0) return;

  const int top =
      static_cast<int>(std::bit_ceil(static_cast<unsigned>(workers)) / 2);
  for (int stride = top; stride >= 1; stride /= 2) {
    const std::int64_t pairs = std::min(stride, workers - stride);
    if (pairs <= 0) continue;
    Exec::launch(pairs * sect_len, cfg, [=](std::int64_t i) {
      const std::int64_t p = i / sect_len;
      const std::int64_t c = i - p * sect_len;
      scratch[p * sect_len + c] += scratch[(p + stride) * sect_len + c];
    });
  }
  Exec::launch(sect_len, cfg, [=](std::int64_t c) { xs[c] += scratch[c]; });
}

/// The scatter kernels' worker body: worker w accumulates the w-th of W
/// equal contiguous row chunks, rows ascending, through
/// `accumulate_row(slice, r)`.
template <typename Exec, typename AccumRow>
void row_scatter(std::int64_t n_rows, real* x, ScatterSection sect,
                 KernelConfig cfg, AtomicMode mode,
                 backends::ScratchArena* arena, AccumRow&& accumulate_row) {
  if (sect.len <= 0) return;
  const int workers = section_workers<Exec>(n_rows, cfg);
  const std::int64_t chunk = (n_rows + workers - 1) / workers;
  section_scatter<Exec>(
      workers, x, sect, cfg, mode, arena, [&](int w, real* slice) {
        const std::int64_t begin = static_cast<std::int64_t>(w) * chunk;
        const std::int64_t end = std::min(n_rows, begin + chunk);
        for (std::int64_t r = begin; r < end; ++r) accumulate_row(slice, r);
      });
}

/// Row r of the fused scatter: a layout's three per-section row
/// accumulators over the contiguous shared span. Each column still
/// belongs to exactly one section and receives the same adds in the same
/// row order, so at a fixed launch shape the privatized fused scatter
/// equals the three separate privatized kernels bit for bit.
template <typename AttRows, typename InstrRows, typename GlobRows>
auto shared_rows(const SystemView& A, AttRows att, InstrRows instr,
                 GlobRows glob) {
  const col_index instr_at = A.instr_offset - A.att_offset;
  const col_index glob_at = A.glob_offset - A.att_offset;
  const bool has_global = A.has_global;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    att(slice, r);
    instr(slice + instr_at, r);
    if (has_global) glob(slice + glob_at, r);
  };
}

/// The fused scatter: one row pass of a layout's shared row accumulator.
template <typename Exec, typename SharedRows>
void fused_scatter(const SystemView& A, real* x, KernelConfig cfg,
                   AtomicMode mode, backends::ScratchArena* arena,
                   SharedRows rows) {
  row_scatter<Exec>(A.n_rows, x, fused_scatter_section(A), cfg, mode,
                    arena, rows);
}

// Row accumulators of the seed layout, one per shared-section kernel.

template <typename CoefT>
auto att_rows(const SystemView& A, const real* y) {
  const CoefT* vals = A.coefs<CoefT>().values;
  const col_index* idx_att = A.idx_att;
  const col_index stride = A.att_stride;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
    const real yr = y[r];
    const col_index base = idx_att[r];
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const col_index c0 = base + blk * stride;
      for (int i = 0; i < kAttBlockSize; ++i)
        slice[c0 + i] += load_real(rv[blk * kAttBlockSize + i]) * yr;
    }
  };
}

template <typename CoefT>
auto instr_rows(const SystemView& A, const real* y) {
  const CoefT* vals = A.coefs<CoefT>().values;
  const std::int32_t* instr_col = A.instr_col;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
    const std::int32_t* GAIA_RESTRICT cols = instr_col + r * kInstrNnzPerRow;
    const real yr = y[r];
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      slice[cols[i]] += load_real(rv[i]) * yr;
  };
}

template <typename CoefT>
auto glob_rows(const SystemView& A, const real* y) {
  const CoefT* vals = A.coefs<CoefT>().values;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    slice[0] +=
        load_real(vals[r * kNnzPerRow + matrix::kGlobCoeffOffset]) * y[r];
  };
}

template <typename CoefT>
auto seed_shared_rows(const SystemView& A, const real* y) {
  return shared_rows(A, att_rows<CoefT>(A, y), instr_rows<CoefT>(A, y),
                     glob_rows<CoefT>(A, y));
}

}  // namespace detail

/// Attitude scatter: neighbouring observations hit the same spline knots
/// (the collision hot spot the paper tunes thread counts down for); each
/// worker's slice spans the full attitude section.
template <typename Exec, typename CoefT = real>
void aprod2_att(const SystemView& A, const real* y, real* x,
                KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Att), cfg,
      mode, arena, detail::att_rows<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_instr(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                  backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Instr), cfg,
      mode, arena, detail::instr_rows<CoefT>(A, y));
}

/// Every row contributes to the single PPN-gamma unknown — the most
/// contended column of the system. Its section degenerates to one
/// partial sum per worker; without a global block it is empty (no-op).
template <typename Exec, typename CoefT = real>
void aprod2_glob(const SystemView& A, const real* y, real* x,
                 KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                 backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Glob), cfg,
      mode, arena, detail::glob_rows<CoefT>(A, y));
}

/// Fused single-pass aprod2 over the shared sections (attitude +
/// instrumental + global). This is the shape a real C++ PSTL port takes
/// — stdpar has no stream/queue concept, so splitting the scatter into
/// four kernels buys nothing, while fusing reads each row's record once.
/// The astrometric block still goes through the star-parallel kernel.
template <typename Exec, typename CoefT = real>
void aprod2_shared_fused(const SystemView& A, const real* y, real* x,
                         KernelConfig cfg,
                         AtomicMode mode = AtomicMode::kNativeRmw,
                         backends::ScratchArena* arena = nullptr) {
  detail::fused_scatter<Exec>(A, x, cfg, mode, arena,
                              detail::seed_shared_rows<CoefT>(A, y));
}

// ---------------------------------------------------------------------------
// The LSQR step: p = A v - alpha (sigma u), q = A^T p and ||p||^2 in one
// row pass
// ---------------------------------------------------------------------------
// The bidiagonalization step beta u' = A v - alpha u, alpha' v' =
// A^T u' - beta v depends on A only row by row: row r's p_r is final once
// its gather is done, so the same pass scatters a_r p_r into q and p_r^2
// into ||p||^2. The engine then finishes the step on n-length vectors
// (beta = ||p||, v' ∝ q / beta - beta v) and keeps u' = p / beta as a
// pending scale sigma instead of rescaling u.

/// Operands of one step launch.
struct StepOperands {
  const real* v = nullptr;  ///< n_cols, read
  real* u = nullptr;        ///< n_rows: the stored u in, p out
  real* q = nullptr;        ///< n_cols, overwritten with A^T p
  real sigma = 1;           ///< pending scale: the true u is sigma * u
  real alpha = 0;
  real* pnorm_sq = nullptr;  ///< receives ||p||^2
};

namespace detail {

/// First star of worker w's chunk of the step: the first star whose rows
/// begin at or after w * n_obs / W (n_stars for w = W).
inline std::int64_t step_first_star(const SystemView& A, int w,
                                    int workers) {
  if (w >= workers) return A.n_stars;
  const row_index target =
      (static_cast<row_index>(w) * A.n_obs + workers - 1) / workers;
  const row_index* starts = A.star_row_start;
  return std::lower_bound(starts, starts + A.n_stars + 1, target) - starts;
}

/// The step skeleton, composed from a layout's gather row, astrometric
/// row accumulator and shared row accumulator. W workers (the shared
/// scatter's count for cfg.strategy) each own a star-aligned row chunk;
/// the last one also takes the constraint rows. Per row, rows
/// ascending: p_r = gather((sigma u_r)(-alpha), r) is stored over u_r,
/// its square goes into the worker's compensated partial, and the row is
/// added into the star's astro registers and the worker's shared slice.
/// A worker writes the astro columns of every star in its range (0 for a
/// star without local rows), so the astro section needs no atomics and q
/// is overwritten whole; the shared sections commit through
/// section_scatter onto a zeroed span. The partials combine in worker
/// order, so ||p||^2 is fixed by the launch shape — and with the
/// privatized commit, so is q.
template <typename Exec, typename GatherRow, typename AstroRows,
          typename SharedRows>
void fused_step(const SystemView& A, const StepOperands& op,
                KernelConfig cfg, AtomicMode mode,
                backends::ScratchArena* arena, GatherRow gather,
                AstroRows astro, SharedRows shared) {
  const int workers = section_workers<Exec>(A.n_rows, cfg);
  const ScatterSection sect = fused_scatter_section(A);
  real* const u = op.u;
  real* const q = op.q;
  const real sigma = op.sigma;
  const real neg_alpha = -op.alpha;
  const row_index* starts = A.star_row_start;
  std::fill(q + sect.offset, q + sect.offset + sect.len, real{0});
  std::array<real, backends::kMaxScatterWorkers> partial{};
  section_scatter<Exec>(
      workers, q, sect, cfg, mode, arena, [&](int w, real* slice) {
        real sum = 0, comp = 0;
        const auto row = [&](std::int64_t r) {
          const real p = gather((sigma * u[r]) * neg_alpha, r);
          u[r] = p;
          const real term = p * p - comp;
          const real next = sum + term;
          comp = (next - sum) - term;
          sum = next;
          shared(slice, r);
        };
        const std::int64_t star_end = step_first_star(A, w + 1, workers);
        for (std::int64_t s = step_first_star(A, w, workers); s < star_end;
             ++s) {
          real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
          for (row_index r = starts[s]; r < starts[s + 1]; ++r) {
            row(r);
            astro(acc, r);
          }
          real* qs = q + s * kAstroParamsPerStar;
          for (int i = 0; i < kAstroNnzPerRow; ++i) qs[i] = acc[i];
        }
        if (w == workers - 1)
          for (std::int64_t r = A.n_obs; r < A.n_rows; ++r) row(r);
        partial[static_cast<std::size_t>(w)] = sum;
      });
  real sum = 0, comp = 0;
  for (int w = 0; w < workers; ++w) {
    const real term = partial[static_cast<std::size_t>(w)] - comp;
    const real next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
  *op.pnorm_sq = sum;
}

}  // namespace detail

/// The LSQR step over the seed layout: the fused gather's row, the
/// aprod2_astro accumulator and the fused scatter's row in one pass.
template <typename Exec, typename CoefT = real>
void aprod_step(const SystemView& A, const StepOperands& op,
                KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                backends::ScratchArena* arena = nullptr) {
  detail::fused_step<Exec>(A, op, cfg, mode, arena,
                           detail::seed_gather_row<CoefT>(A, op.v),
                           detail::astro_rows<CoefT>(A, op.u),
                           detail::seed_shared_rows<CoefT>(A, op.u));
}

// ---------------------------------------------------------------------------
// StorageLayout::kSoaTiled bodies: plane-major SoA streams in row tiles
// ---------------------------------------------------------------------------
// Same arithmetic, same per-row accumulation order as the seed bodies —
// only the coefficient addressing changes, so each row's contribution is
// bit-identical to the seed layout's. The win is pure traffic: a kernel
// streams exactly its own planes (40–96 B/row) instead of the full
// 192 B record. The plane-stride gathers are constant-stride
// (kSoaTileRows), so the simd reduction hint still applies — the
// compiler emits strided vector gathers instead of scalar loads.

namespace detail {

/// Address of coefficient plane 0 for row r in a `planes`-wide stream,
/// plus the in-tile lane; plane i then sits at `base[i * kSoaTileRows]`.
template <typename T>
inline const T* soa_row(const T* stream, int planes, std::int64_t r) {
  const std::int64_t t = r / matrix::kSoaTileRows;
  const std::int64_t w = r - t * matrix::kSoaTileRows;
  return stream + (t * planes) * matrix::kSoaTileRows + w;
}

}  // namespace detail

namespace detail {

// Row dots of the SoA-tiled layout.

template <typename CoefT>
auto astro_dot_soa(const SystemView& A, const real* x) {
  const CoefT* stream = A.coefs<CoefT>().soa_astro;
  const col_index* idx_astro = A.idx_astro;
  return [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv = soa_row(stream, kAstroNnzPerRow, r);
    const real* GAIA_RESTRICT xs = x + idx_astro[r];
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kAstroNnzPerRow; ++i)
      sum += load_real(rv[i * matrix::kSoaTileRows]) * xs[i];
    return sum;
  };
}

template <typename CoefT>
auto att_dot_soa(const SystemView& A, const real* x) {
  const CoefT* stream = A.coefs<CoefT>().soa_att;
  const col_index* idx_att = A.idx_att;
  const real* xa = x + A.att_offset;
  const col_index stride = A.att_stride;
  return [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv = soa_row(stream, kAttNnzPerRow, r);
    const col_index base = idx_att[r];
    real sum = 0;
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const real* GAIA_RESTRICT xb = xa + base + blk * stride;
      const CoefT* GAIA_RESTRICT rb =
          rv + blk * kAttBlockSize * matrix::kSoaTileRows;
      GAIA_OMP_SIMD_REDUCTION(sum)
      for (int i = 0; i < kAttBlockSize; ++i)
        sum += load_real(rb[i * matrix::kSoaTileRows]) * xb[i];
    }
    return sum;
  };
}

template <typename CoefT>
auto instr_dot_soa(const SystemView& A, const real* x) {
  const CoefT* stream = A.coefs<CoefT>().soa_instr;
  const std::int32_t* instr_col = A.instr_col;
  const real* xi = x + A.instr_offset;
  return [=](std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv = soa_row(stream, kInstrNnzPerRow, r);
    const std::int32_t* GAIA_RESTRICT cols = instr_col + r * kInstrNnzPerRow;
    const real* GAIA_RESTRICT xs = xi;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      sum += load_real(rv[i * matrix::kSoaTileRows]) * xs[cols[i]];
    return sum;
  };
}

template <typename CoefT>
auto glob_dot_soa(const SystemView& A, const real* x) {
  const CoefT* stream = A.coefs<CoefT>().soa_glob;
  const real xg = A.has_global ? x[A.glob_offset] : real{0};
  return [=](std::int64_t r) {
    return load_real(*soa_row(stream, 1, r)) * xg;
  };
}

template <typename CoefT>
auto soa_gather_row(const SystemView& A, const real* x) {
  return gather_row(A, astro_dot_soa<CoefT>(A, x), att_dot_soa<CoefT>(A, x),
                    instr_dot_soa<CoefT>(A, x), glob_dot_soa<CoefT>(A, x));
}

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod1_astro_soa(const SystemView& A, const real* x, real* y,
                      KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg,
                           detail::astro_dot_soa<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_att_soa(const SystemView& A, const real* x, real* y,
                    KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::att_dot_soa<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_instr_soa(const SystemView& A, const real* x, real* y,
                      KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg,
                           detail::instr_dot_soa<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_glob_soa(const SystemView& A, const real* x, real* y,
                     KernelConfig cfg) {
  if (!A.has_global) return;
  detail::row_gather<Exec>(A.n_rows, y, cfg,
                           detail::glob_dot_soa<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod1_fused_soa(const SystemView& A, const real* x, real* y,
                      KernelConfig cfg) {
  detail::fused_gather<Exec>(A.n_rows, y, cfg,
                             detail::soa_gather_row<CoefT>(A, x));
}

namespace detail {

// Row accumulators of the SoA-tiled layout.

template <typename CoefT>
auto astro_rows_soa(const SystemView& A, const real* y) {
  const CoefT* stream = A.coefs<CoefT>().soa_astro;
  return [=](real* GAIA_RESTRICT acc, std::int64_t r) {
    const CoefT* rv = soa_row(stream, kAstroNnzPerRow, r);
    const real yr = y[r];
    for (int i = 0; i < kAstroNnzPerRow; ++i)
      acc[i] += load_real(rv[i * matrix::kSoaTileRows]) * yr;
  };
}

template <typename CoefT>
auto att_rows_soa(const SystemView& A, const real* y) {
  const CoefT* stream = A.coefs<CoefT>().soa_att;
  const col_index* idx_att = A.idx_att;
  const col_index stride = A.att_stride;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv = soa_row(stream, kAttNnzPerRow, r);
    const real yr = y[r];
    const col_index base = idx_att[r];
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const col_index c0 = base + blk * stride;
      for (int i = 0; i < kAttBlockSize; ++i)
        slice[c0 + i] +=
            load_real(rv[(blk * kAttBlockSize + i) * matrix::kSoaTileRows]) *
            yr;
    }
  };
}

template <typename CoefT>
auto instr_rows_soa(const SystemView& A, const real* y) {
  const CoefT* stream = A.coefs<CoefT>().soa_instr;
  const std::int32_t* instr_col = A.instr_col;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    const CoefT* GAIA_RESTRICT rv = soa_row(stream, kInstrNnzPerRow, r);
    const std::int32_t* GAIA_RESTRICT cols = instr_col + r * kInstrNnzPerRow;
    const real yr = y[r];
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      slice[cols[i]] += load_real(rv[i * matrix::kSoaTileRows]) * yr;
  };
}

template <typename CoefT>
auto glob_rows_soa(const SystemView& A, const real* y) {
  const CoefT* stream = A.coefs<CoefT>().soa_glob;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    slice[0] += load_real(*soa_row(stream, 1, r)) * y[r];
  };
}

template <typename CoefT>
auto soa_shared_rows(const SystemView& A, const real* y) {
  return shared_rows(A, att_rows_soa<CoefT>(A, y),
                     instr_rows_soa<CoefT>(A, y), glob_rows_soa<CoefT>(A, y));
}

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod2_astro_soa(const SystemView& A, const real* y, real* x,
                      KernelConfig cfg) {
  detail::star_scatter<Exec>(A, x, cfg, detail::astro_rows_soa<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_att_soa(const SystemView& A, const real* y, real* x,
                    KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                    backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Att), cfg,
      mode, arena, detail::att_rows_soa<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_instr_soa(const SystemView& A, const real* y, real* x,
                      KernelConfig cfg,
                      AtomicMode mode = AtomicMode::kNativeRmw,
                      backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Instr), cfg,
      mode, arena, detail::instr_rows_soa<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_glob_soa(const SystemView& A, const real* y, real* x,
                     KernelConfig cfg,
                     AtomicMode mode = AtomicMode::kNativeRmw,
                     backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Glob), cfg,
      mode, arena, detail::glob_rows_soa<CoefT>(A, y));
}

/// Fused shared-section scatter over the SoA streams. Also serves the
/// kSlicedInstr layout: fusing the three sections into one row pass is
/// incompatible with slice-major storage order, and the sliced build
/// always carries the SoA streams.
template <typename Exec, typename CoefT = real>
void aprod2_shared_fused_soa(const SystemView& A, const real* y, real* x,
                             KernelConfig cfg,
                             AtomicMode mode = AtomicMode::kNativeRmw,
                             backends::ScratchArena* arena = nullptr) {
  detail::fused_scatter<Exec>(A, x, cfg, mode, arena,
                              detail::soa_shared_rows<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod_step_soa(const SystemView& A, const StepOperands& op,
                    KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                    backends::ScratchArena* arena = nullptr) {
  detail::fused_step<Exec>(A, op, cfg, mode, arena,
                           detail::soa_gather_row<CoefT>(A, op.v),
                           detail::astro_rows_soa<CoefT>(A, op.u),
                           detail::soa_shared_rows<CoefT>(A, op.u));
}

// ---------------------------------------------------------------------------
// StorageLayout::kSlicedInstr bodies: SELL-C-sigma slices for the
// irregular instrumental block (regular blocks run the SoA bodies)
// ---------------------------------------------------------------------------

namespace detail {

/// Offset of lane slot `slot`'s first entry in the lane-major slice
/// arrays; entry j then sits at `+ j * kSliceHeight`.
inline std::int64_t slice_base(std::int64_t slot) {
  const std::int64_t s = slot / matrix::kSliceHeight;
  const std::int64_t lane = slot - s * matrix::kSliceHeight;
  return s * kInstrNnzPerRow * matrix::kSliceHeight + lane;
}

/// Instrumental row dot over the sliced storage, addressed by lane slot:
/// the same products in the same column order as the seed row.
template <typename CoefT>
auto instr_slot_dot(const SystemView& A, const real* x) {
  const CoefT* svals = A.coefs<CoefT>().slice_values;
  const std::int32_t* scols = A.slice_cols;
  const real* xi = x + A.instr_offset;
  return [=](std::int64_t slot) {
    const std::int64_t base = slice_base(slot);
    const CoefT* GAIA_RESTRICT v = svals + base;
    const std::int32_t* GAIA_RESTRICT c = scols + base;
    const real* GAIA_RESTRICT xs = xi;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int j = 0; j < kInstrNnzPerRow; ++j)
      sum += load_real(v[j * matrix::kSliceHeight]) *
             xs[c[j * matrix::kSliceHeight]];
    return sum;
  };
}

}  // namespace detail

/// Slice-parallel instrumental gather: one virtual thread per lane slot.
/// Every row occupies exactly one slot, so y[r] is written by exactly
/// one worker; padded lanes carry row -1 and are skipped. The slice
/// sort means neighbouring lanes gather neighbouring x entries — the
/// cache reuse the seed layout's ~90 % miss rate leaves on the table.
template <typename Exec, typename CoefT = real>
void aprod1_instr_sliced(const SystemView& A, const real* x, real* y,
                         KernelConfig cfg) {
  const row_index* slice_rows = A.slice_rows;
  const auto dot = detail::instr_slot_dot<CoefT>(A, x);
  Exec::launch(A.n_slices * matrix::kSliceHeight, cfg,
               [=](std::int64_t slot) {
    const row_index r = slice_rows[slot];
    if (r < 0) return;
    y[r] += dot(slot);
  });
}

namespace detail {

/// Gather row of the sliced layout: the regular sections read the SoA
/// streams, the instrumental dot reaches each row's lane slot through
/// the row->slot inverse permutation.
template <typename CoefT>
auto sliced_gather_row(const SystemView& A, const real* x) {
  const row_index* row_slot = A.slice_row_slot;
  const auto slot_dot = instr_slot_dot<CoefT>(A, x);
  return gather_row(A, astro_dot_soa<CoefT>(A, x), att_dot_soa<CoefT>(A, x),
                    [=](std::int64_t r) { return slot_dot(row_slot[r]); },
                    glob_dot_soa<CoefT>(A, x));
}

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod1_fused_sliced(const SystemView& A, const real* x, real* y,
                         KernelConfig cfg) {
  detail::fused_gather<Exec>(A.n_rows, y, cfg,
                             detail::sliced_gather_row<CoefT>(A, x));
}

/// The step of the sliced layout: the sliced fused gather's row, then
/// the SoA scatter rows the sliced layout's aprod2 passes run.
template <typename Exec, typename CoefT = real>
void aprod_step_sliced(const SystemView& A, const StepOperands& op,
                       KernelConfig cfg,
                       AtomicMode mode = AtomicMode::kNativeRmw,
                       backends::ScratchArena* arena = nullptr) {
  detail::fused_step<Exec>(A, op, cfg, mode, arena,
                           detail::sliced_gather_row<CoefT>(A, op.v),
                           detail::astro_rows_soa<CoefT>(A, op.u),
                           detail::soa_shared_rows<CoefT>(A, op.u));
}

/// Instrumental scatter over the sliced storage: the skeleton keeps
/// iterating rows in ascending order (via the row->slot inverse
/// permutation), so worker partitioning, per-row accumulation order and
/// the privatized fold are exactly the seed layout's — bit-identical
/// results at a fixed launch shape, layout notwithstanding.
template <typename Exec, typename CoefT = real>
void aprod2_instr_sliced(const SystemView& A, const real* y, real* x,
                         KernelConfig cfg,
                         AtomicMode mode = AtomicMode::kNativeRmw,
                         backends::ScratchArena* arena = nullptr) {
  const CoefT* svals = A.coefs<CoefT>().slice_values;
  const std::int32_t* scols = A.slice_cols;
  const row_index* row_slot = A.slice_row_slot;
  detail::row_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Instr), cfg,
      mode, arena, [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        const std::int64_t base = detail::slice_base(row_slot[r]);
        const CoefT* GAIA_RESTRICT v = svals + base;
        const std::int32_t* GAIA_RESTRICT c = scols + base;
        const real yr = y[r];
        for (int j = 0; j < kInstrNnzPerRow; ++j)
          slice[c[j * matrix::kSliceHeight]] +=
              load_real(v[j * matrix::kSliceHeight]) * yr;
      });
}

}  // namespace gaia::core
