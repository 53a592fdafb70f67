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
/// those three kernels accumulate row blocks into per-block private
/// slices and commit the slices to x in one ordered fold
/// (`detail::section_scatter`), so no host atomics run anywhere. The
/// sections are contiguous in x, so the fused scatter runs all three in
/// one row pass over one span.
///
/// Every scatter and the step split the rows into the same star-aligned
/// blocks (`detail::RowBlocks`), fixed by the system's observation count
/// through `block_partition`, the rule of the blocked reductions. A block
/// sums its rows in row order and the blocks fold in block order, so the
/// backend, its thread count and the launch shape decide only which
/// thread runs which block: every product, and the whole solve, has the
/// same bits on every backend.
///
/// The LSQR step (`aprod_step`) is the third fused pass: one row pass
/// over the row blocks that forms p = A v - alpha (sigma u), writes
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
/// programming model. Every body reads the fp64 row records
/// (`SystemView::values`) and accumulates in fp64, as the production
/// solver does.
#pragma once

#include <algorithm>
#include <array>

#include "backends/backend.hpp"
#include "backends/scratch_arena.hpp"
#include "core/system_view.hpp"
#include "core/vector_ops.hpp"
#include "util/compensated_sum.hpp"
#include "util/types.hpp"

namespace gaia::core {

using backends::KernelConfig;

// ---------------------------------------------------------------------------
// aprod1: y += A x (row-parallel gathers; no atomics anywhere)
// ---------------------------------------------------------------------------
// Each section has one row dot: `dot(r)` is row r's partial product of
// A x over the section. A separate gather adds one dot into y[r]; the
// fused gather adds all four in one row pass. The gather inner
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

/// The fused gather: one row pass of the gather row. Same dots,
/// same adds, same order: it equals the four separate launches bit for
/// bit, and reads each row's record and y[r] once.
template <typename Exec, typename GatherRow>
void fused_gather(std::int64_t n_rows, real* y, KernelConfig cfg,
                  GatherRow row) {
  Exec::launch(n_rows, cfg, [=](std::int64_t r) { y[r] = row(y[r], r); });
}

// Row dots over the row records.

inline auto astro_dot(const SystemView& A, const real* x) {
  const real* vals = A.values;
  const col_index* idx_astro = A.idx_astro;
  return [=](std::int64_t r) {
    const real* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
    const real* GAIA_RESTRICT xs = x + idx_astro[r];
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kAstroNnzPerRow; ++i) sum += rv[i] * xs[i];
    return sum;
  };
}

inline auto att_dot(const SystemView& A, const real* x) {
  const real* vals = A.values;
  const col_index* idx_att = A.idx_att;
  const real* xa = x + A.att_offset;
  const col_index stride = A.att_stride;
  return [=](std::int64_t r) {
    const real* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
    const col_index base = idx_att[r];
    real sum = 0;
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const real* GAIA_RESTRICT xb = xa + base + blk * stride;
      const real* GAIA_RESTRICT rb = rv + blk * kAttBlockSize;
      GAIA_OMP_SIMD_REDUCTION(sum)
      for (int i = 0; i < kAttBlockSize; ++i)
        sum += rb[i] * xb[i];
    }
    return sum;
  };
}

inline auto instr_dot(const SystemView& A, const real* x) {
  const real* vals = A.values;
  const std::int32_t* instr_col = A.instr_col;
  const real* xi = x + A.instr_offset;
  return [=](std::int64_t r) {
    const real* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
    const std::int32_t* GAIA_RESTRICT cols = instr_col + r * kInstrNnzPerRow;
    const real* GAIA_RESTRICT xs = xi;
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      sum += rv[i] * xs[cols[i]];
    return sum;
  };
}

/// Without a global block there is no x entry to read; the dot is never
/// called then (the glob kernel returns early, the fused gather skips it).
inline auto glob_dot(const SystemView& A, const real* x) {
  const real* vals = A.values;
  const real xg = A.has_global ? x[A.glob_offset] : real{0};
  return [=](std::int64_t r) {
    return vals[r * kNnzPerRow + matrix::kGlobCoeffOffset] * xg;
  };
}

inline auto seed_gather_row(const SystemView& A, const real* x) {
  return gather_row(A, astro_dot(A, x), att_dot(A, x), instr_dot(A, x),
                    glob_dot(A, x));
}

}  // namespace detail

template <typename Exec>
void aprod1_astro(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::astro_dot(A, x));
}

template <typename Exec>
void aprod1_att(const SystemView& A, const real* x, real* y,
                KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::att_dot(A, x));
}

template <typename Exec>
void aprod1_instr(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::instr_dot(A, x));
}

template <typename Exec>
void aprod1_glob(const SystemView& A, const real* x, real* y,
                 KernelConfig cfg) {
  if (!A.has_global) return;
  detail::row_gather<Exec>(A.n_rows, y, cfg, detail::glob_dot(A, x));
}

/// Fused single-pass aprod1: the whole row record is read once and y[r]
/// is read and written once, instead of once per section kernel.
template <typename Exec>
void aprod1_fused(const SystemView& A, const real* x, real* y,
                  KernelConfig cfg) {
  detail::fused_gather<Exec>(A.n_rows, y, cfg,
                             detail::seed_gather_row(A, x));
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

/// Astrometric row accumulator, shared by aprod2_astro and the LSQR step.
inline auto astro_rows(const SystemView& A, const real* y) {
  const real* vals = A.values;
  return [=](real* GAIA_RESTRICT acc, std::int64_t r) {
    const real* rv = vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
    const real yr = y[r];
    for (int i = 0; i < kAstroNnzPerRow; ++i)
      acc[i] += rv[i] * yr;
  };
}

}  // namespace detail

template <typename Exec>
void aprod2_astro(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg) {
  detail::star_scatter<Exec>(A, x, cfg, detail::astro_rows(A, y));
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

/// The row blocks of every row pass: `block_partition(n_obs)`, each
/// boundary k * length rounded up to the next star start, so a star's
/// rows never straddle two blocks; the last block also takes the
/// constraint rows. Only the system decides them.
struct RowBlocks {
  const SystemView& A;
  BlockPartition part = block_partition(static_cast<std::size_t>(A.n_obs));

  /// First star of block k: the first star whose rows begin at or after
  /// k * length (n_stars from the last block on).
  [[nodiscard]] std::int64_t first_star(std::size_t k) const {
    if (k >= part.count) return A.n_stars;
    const auto target = static_cast<row_index>(k * part.length);
    const row_index* starts = A.star_row_start;
    return std::lower_bound(starts, starts + A.n_stars + 1, target) - starts;
  }
  [[nodiscard]] row_index first_row(std::size_t k) const {
    return k >= part.count ? A.n_rows : A.star_row_start[first_star(k)];
  }
};

/// The one commit of the shared sections, for every pass that scatters
/// into them. Each of the `count` row blocks of the system zeroes a
/// private copy of the section in pooled scratch and runs
/// `body(k, slice)`, which adds block k's rows at section-relative
/// indices; `Exec::launch_blocks` only picks the thread. One
/// column-parallel launch then sums slices 0..count-1 in ascending block
/// order and adds the sum into x: a combine order fixed by the system,
/// so every backend and launch shape reduces bit-identically, whatever
/// the thread scheduling. No atomics: the host analogue of the
/// block-level shared-memory aggregation GPU scatter kernels do before
/// their device atomics.
template <typename Exec, typename BlockBody>
void section_scatter(std::size_t count, real* x, ScatterSection sect,
                     KernelConfig cfg, backends::ScratchArena* arena,
                     BlockBody&& body) {
  const col_index sect_len = sect.len;
  backends::ScratchArena& pool =
      arena ? *arena : backends::ScratchArena::for_backend(Exec::kKind);
  auto lease = pool.acquire(count * static_cast<std::size_t>(sect_len));
  real* const scratch = lease.data();
  real* const xs = x + sect.offset;

  Exec::launch_blocks(count, cfg, [&](std::size_t k) {
    real* GAIA_RESTRICT slice =
        scratch + static_cast<std::int64_t>(k) * sect_len;
    std::fill(slice, slice + sect_len, real{0});
    body(k, slice);
  });
  if (sect_len <= 0) return;
  Exec::launch(sect_len, cfg, [=](std::int64_t c) {
    real sum = scratch[c];
    for (std::size_t k = 1; k < count; ++k)
      sum += scratch[static_cast<std::int64_t>(k) * sect_len + c];
    xs[c] += sum;
  });
}

/// The scatter kernels' block body: block k accumulates its rows,
/// ascending, through `accumulate_row(slice, r)`.
template <typename Exec, typename AccumRow>
void row_scatter(const SystemView& A, real* x, ScatterSection sect,
                 KernelConfig cfg, backends::ScratchArena* arena,
                 AccumRow&& accumulate_row) {
  if (sect.len <= 0) return;
  const RowBlocks blocks{A};
  section_scatter<Exec>(
      blocks.part.count, x, sect, cfg, arena, [&](std::size_t k,
                                                   real* slice) {
        const row_index end = blocks.first_row(k + 1);
        for (row_index r = blocks.first_row(k); r < end; ++r)
          accumulate_row(slice, r);
      });
}

/// Row r of the fused scatter: the three per-section row accumulators
/// over the contiguous shared span. Each column still
/// belongs to exactly one section and receives the same adds in the same
/// row order, so the fused scatter equals the three separate kernels bit
/// for bit.
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

/// The fused scatter: one row pass of the shared row accumulator.
template <typename Exec, typename SharedRows>
void fused_scatter(const SystemView& A, real* x, KernelConfig cfg,
                   backends::ScratchArena* arena, SharedRows rows) {
  row_scatter<Exec>(A, x, fused_scatter_section(A), cfg, arena, rows);
}

// Row accumulators, one per shared-section kernel.

inline auto att_rows(const SystemView& A, const real* y) {
  const real* vals = A.values;
  const col_index* idx_att = A.idx_att;
  const col_index stride = A.att_stride;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    const real* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kAttCoeffOffset;
    const real yr = y[r];
    const col_index base = idx_att[r];
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      const col_index c0 = base + blk * stride;
      for (int i = 0; i < kAttBlockSize; ++i)
        slice[c0 + i] += rv[blk * kAttBlockSize + i] * yr;
    }
  };
}

inline auto instr_rows(const SystemView& A, const real* y) {
  const real* vals = A.values;
  const std::int32_t* instr_col = A.instr_col;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    const real* GAIA_RESTRICT rv =
        vals + r * kNnzPerRow + matrix::kInstrCoeffOffset;
    const std::int32_t* GAIA_RESTRICT cols = instr_col + r * kInstrNnzPerRow;
    const real yr = y[r];
    for (int i = 0; i < kInstrNnzPerRow; ++i)
      slice[cols[i]] += rv[i] * yr;
  };
}

inline auto glob_rows(const SystemView& A, const real* y) {
  const real* vals = A.values;
  return [=](real* GAIA_RESTRICT slice, std::int64_t r) {
    slice[0] +=
        vals[r * kNnzPerRow + matrix::kGlobCoeffOffset] * y[r];
  };
}

inline auto seed_shared_rows(const SystemView& A, const real* y) {
  return shared_rows(A, att_rows(A, y), instr_rows(A, y), glob_rows(A, y));
}

}  // namespace detail

/// Attitude scatter: neighbouring observations hit the same spline knots
/// (the collision hot spot the paper tunes thread counts down for); each
/// block's slice spans the full attitude section.
template <typename Exec>
void aprod2_att(const SystemView& A, const real* y, real* x,
                KernelConfig cfg, backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A, x, scatter_section(A, backends::KernelId::kAprod2Att), cfg,
      arena, detail::att_rows(A, y));
}

template <typename Exec>
void aprod2_instr(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg, backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A, x, scatter_section(A, backends::KernelId::kAprod2Instr), cfg,
      arena, detail::instr_rows(A, y));
}

/// Every row contributes to the single PPN-gamma unknown — the most
/// contended column of the system. Its section degenerates to one
/// partial sum per block; without a global block it is empty (no-op).
template <typename Exec>
void aprod2_glob(const SystemView& A, const real* y, real* x,
                 KernelConfig cfg, backends::ScratchArena* arena = nullptr) {
  detail::row_scatter<Exec>(
      A, x, scatter_section(A, backends::KernelId::kAprod2Glob), cfg,
      arena, detail::glob_rows(A, y));
}

/// Fused single-pass aprod2 over the shared sections (attitude +
/// instrumental + global). This is the shape a real C++ PSTL port takes
/// — stdpar has no stream/queue concept, so splitting the scatter into
/// four kernels buys nothing, while fusing reads each row's record once.
/// The astrometric block still goes through the star-parallel kernel.
template <typename Exec>
void aprod2_shared_fused(const SystemView& A, const real* y, real* x,
                         KernelConfig cfg,
                         backends::ScratchArena* arena = nullptr) {
  detail::fused_scatter<Exec>(A, x, cfg, arena,
                              detail::seed_shared_rows(A, y));
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

/// The step skeleton, composed from a gather row, an astrometric row
/// accumulator and a shared row accumulator, on the row blocks of the
/// scatters. Per row, rows ascending within a block: p_r =
/// gather((sigma u_r)(-alpha), r) is stored over u_r, its square goes
/// into the block's compensated partial, and the row is added into the
/// star's astro registers and the block's shared slice. A block writes
/// the astro columns of every star in its range (0 for a star without
/// local rows), so the astro section needs no atomics and q is
/// overwritten whole; the shared sections commit through section_scatter
/// onto a zeroed span. The partials combine in block order, so ||p||^2,
/// like q, is fixed by the system alone.
template <typename Exec, typename GatherRow, typename AstroRows,
          typename SharedRows>
void fused_step(const SystemView& A, const StepOperands& op,
                KernelConfig cfg, backends::ScratchArena* arena,
                GatherRow gather, AstroRows astro, SharedRows shared) {
  const RowBlocks blocks{A};
  const ScatterSection sect = fused_scatter_section(A);
  real* const u = op.u;
  real* const q = op.q;
  const real sigma = op.sigma;
  const real neg_alpha = -op.alpha;
  const row_index* starts = A.star_row_start;
  std::fill(q + sect.offset, q + sect.offset + sect.len, real{0});
  std::array<real, kMaxBlocks> partial{};
  section_scatter<Exec>(
      blocks.part.count, q, sect, cfg, arena, [&](std::size_t k,
                                                   real* slice) {
        util::KahanSum pnorm_sq;
        const auto row = [&](std::int64_t r) {
          const real p = gather((sigma * u[r]) * neg_alpha, r);
          u[r] = p;
          pnorm_sq.add(p * p);
          shared(slice, r);
        };
        const std::int64_t star_end = blocks.first_star(k + 1);
        for (std::int64_t s = blocks.first_star(k); s < star_end; ++s) {
          real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
          for (row_index r = starts[s]; r < starts[s + 1]; ++r) {
            row(r);
            astro(acc, r);
          }
          real* qs = q + s * kAstroParamsPerStar;
          for (int i = 0; i < kAstroNnzPerRow; ++i) qs[i] = acc[i];
        }
        if (k + 1 == blocks.part.count)
          for (std::int64_t r = A.n_obs; r < A.n_rows; ++r) row(r);
        partial[k] = pnorm_sq.sum;
      });
  util::KahanSum pnorm_sq;
  for (std::size_t k = 0; k < blocks.part.count; ++k)
    pnorm_sq.add(partial[k]);
  *op.pnorm_sq = pnorm_sq.sum;
}

}  // namespace detail

/// The LSQR step: the fused gather's row, the
/// aprod2_astro accumulator and the fused scatter's row in one pass.
template <typename Exec>
void aprod_step(const SystemView& A, const StepOperands& op,
                KernelConfig cfg, backends::ScratchArena* arena = nullptr) {
  detail::fused_step<Exec>(A, op, cfg, arena,
                           detail::seed_gather_row(A, op.v),
                           detail::astro_rows(A, op.u),
                           detail::seed_shared_rows(A, op.u));
}

}  // namespace gaia::core
