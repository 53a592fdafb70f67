/// \file aprod_kernels.hpp
/// \brief The eight hot kernels of the solver and the two fused row
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
/// The solver launches the fused gather, aprod2_astro and the fused
/// scatter (tuning::kAprodPasses). The per-section kernels stay registry
/// slots for the benches and the per-kernel baseline; the cost model
/// prices them as the paper's GPU kernels.
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

/// The fused gather: one row pass that adds the four section dots into
/// y[r] in the order the separate kernels add them (astro, att, instr,
/// glob). Same dots, same adds, same order: it equals the four separate
/// launches bit for bit, and reads each row's record and y[r] once.
template <typename Exec, typename AstroDot, typename AttDot,
          typename InstrDot, typename GlobDot>
void fused_gather(const SystemView& A, real* y, KernelConfig cfg,
                  AstroDot astro, AttDot att, InstrDot instr, GlobDot glob) {
  const bool has_global = A.has_global;
  Exec::launch(A.n_rows, cfg, [=](std::int64_t r) {
    real yr = y[r];
    yr += astro(r);
    yr += att(r);
    yr += instr(r);
    if (has_global) yr += glob(r);
    y[r] = yr;
  });
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
  detail::fused_gather<Exec>(A, y, cfg, detail::astro_dot<CoefT>(A, x),
                             detail::att_dot<CoefT>(A, x),
                             detail::instr_dot<CoefT>(A, x),
                             detail::glob_dot<CoefT>(A, x));
}

// ---------------------------------------------------------------------------
// aprod2: x += A^T y (column scatters)
// ---------------------------------------------------------------------------

/// Star-parallel, atomic-free: each star owns its 5 columns and the rows
/// touching them are exactly its contiguous row range. Requires the
/// generator invariant that constraint rows carry zero astrometric
/// coefficients (they are not covered by the star partition).
template <typename Exec, typename CoefT = real>
void aprod2_astro(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg) {
  const CoefT* vals = A.coefs<CoefT>().values;
  Exec::launch(A.n_stars, cfg, [=](std::int64_t s) {
    const col_index c0 = s * kAstroParamsPerStar;
    real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
    for (row_index r = A.star_row_start[s]; r < A.star_row_start[s + 1];
         ++r) {
      const CoefT* rv = vals + r * kNnzPerRow + matrix::kAstroCoeffOffset;
      const real yr = y[r];
      for (int i = 0; i < kAstroNnzPerRow; ++i)
        acc[i] += load_real(rv[i]) * yr;
    }
    for (int i = 0; i < kAstroNnzPerRow; ++i) x[c0 + i] += acc[i];
  });
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

/// The one scatter skeleton of the shared sections, for both scatter
/// strategies. W workers (Exec::scatter_workers(cfg); for the atomic
/// commit backends::atomic_scatter_workers) each zero a private copy of
/// the section in pooled scratch and accumulate a contiguous row chunk
/// into it sequentially (ascending rows); `accumulate_row(slice, r)`
/// adds row r's contribution at section-relative indices. Only the
/// commit step depends on cfg.strategy:
///
/// - kAtomic: each worker, right after its chunk, adds its slice into x
///   with one Exec::atomic_add per column (honouring `mode`). That is
///   W x section atomics in a nondeterministic order instead of one per
///   (row, column): the host analogue of the block-level shared-memory
///   aggregation GPU scatter kernels use. No fold, no second launch.
/// - kPrivatized: no atomics. The slices are folded pairwise — slice p +=
///   slice p+stride, stride halving from bit_ceil(W)/2 — a combine order
///   fixed by W alone, so a fixed launch shape reduces bit-identically
///   run to run regardless of thread scheduling. The folded slice 0 is
///   added into x in one column-parallel pass.
template <typename Exec, typename AccumRow>
void section_scatter(std::int64_t n_rows, real* x, ScatterSection sect,
                     KernelConfig cfg, AtomicMode mode,
                     backends::ScratchArena* arena,
                     AccumRow&& accumulate_row) {
  const col_index sect_len = sect.len;
  if (sect_len <= 0) return;
  const bool atomic = cfg.strategy == backends::ScatterStrategy::kAtomic;
  const int workers =
      atomic ? backends::atomic_scatter_workers<Exec>(n_rows, cfg)
             : Exec::scatter_workers(cfg);
  backends::ScratchArena& pool =
      arena ? *arena : backends::ScratchArena::for_backend(Exec::kKind);
  auto lease = pool.acquire(static_cast<std::size_t>(workers) *
                            static_cast<std::size_t>(sect_len));
  real* const scratch = lease.data();
  real* const xs = x + sect.offset;
  const std::int64_t chunk = (n_rows + workers - 1) / workers;

  Exec::launch_workers(workers, cfg, [&](int w) {
    real* GAIA_RESTRICT slice =
        scratch + static_cast<std::int64_t>(w) * sect_len;
    std::fill(slice, slice + sect_len, real{0});
    const std::int64_t begin = static_cast<std::int64_t>(w) * chunk;
    const std::int64_t end = std::min(n_rows, begin + chunk);
    for (std::int64_t r = begin; r < end; ++r) accumulate_row(slice, r);
    if (atomic)
      for (col_index c = 0; c < sect_len; ++c)
        Exec::atomic_add(xs[c], slice[c], mode);
  });
  if (atomic) return;

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

/// The fused scatter: one row pass over the contiguous shared span,
/// composed from the three per-section row accumulators of a layout.
/// Each column still belongs to exactly one section and receives the
/// same adds in the same row order, so at a fixed launch shape the
/// privatized fused result equals the three separate privatized
/// kernels bit for bit.
template <typename Exec, typename AttRows, typename InstrRows,
          typename GlobRows>
void fused_scatter(const SystemView& A, real* x, KernelConfig cfg,
                   AtomicMode mode, backends::ScratchArena* arena,
                   AttRows att, InstrRows instr, GlobRows glob) {
  const col_index instr_at = A.instr_offset - A.att_offset;
  const col_index glob_at = A.glob_offset - A.att_offset;
  const bool has_global = A.has_global;
  section_scatter<Exec>(
      A.n_rows, x, fused_scatter_section(A), cfg, mode, arena,
      [=](real* GAIA_RESTRICT slice, std::int64_t r) {
        att(slice, r);
        instr(slice + instr_at, r);
        if (has_global) glob(slice + glob_at, r);
      });
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

}  // namespace detail

/// Attitude scatter: neighbouring observations hit the same spline knots
/// (the collision hot spot the paper tunes thread counts down for); each
/// worker's slice spans the full attitude section.
template <typename Exec, typename CoefT = real>
void aprod2_att(const SystemView& A, const real* y, real* x,
                KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                backends::ScratchArena* arena = nullptr) {
  detail::section_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Att), cfg,
      mode, arena, detail::att_rows<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_instr(const SystemView& A, const real* y, real* x,
                  KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                  backends::ScratchArena* arena = nullptr) {
  detail::section_scatter<Exec>(
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
  detail::section_scatter<Exec>(
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
                              detail::att_rows<CoefT>(A, y),
                              detail::instr_rows<CoefT>(A, y),
                              detail::glob_rows<CoefT>(A, y));
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
  detail::fused_gather<Exec>(A, y, cfg, detail::astro_dot_soa<CoefT>(A, x),
                             detail::att_dot_soa<CoefT>(A, x),
                             detail::instr_dot_soa<CoefT>(A, x),
                             detail::glob_dot_soa<CoefT>(A, x));
}

template <typename Exec, typename CoefT = real>
void aprod2_astro_soa(const SystemView& A, const real* y, real* x,
                      KernelConfig cfg) {
  const CoefT* stream = A.coefs<CoefT>().soa_astro;
  Exec::launch(A.n_stars, cfg, [=](std::int64_t s) {
    const col_index c0 = s * kAstroParamsPerStar;
    real acc[kAstroNnzPerRow] = {0, 0, 0, 0, 0};
    for (row_index r = A.star_row_start[s]; r < A.star_row_start[s + 1];
         ++r) {
      const CoefT* rv = detail::soa_row(stream, kAstroNnzPerRow, r);
      const real yr = y[r];
      for (int i = 0; i < kAstroNnzPerRow; ++i)
        acc[i] += load_real(rv[i * matrix::kSoaTileRows]) * yr;
    }
    for (int i = 0; i < kAstroNnzPerRow; ++i) x[c0 + i] += acc[i];
  });
}

namespace detail {

// Row accumulators of the SoA-tiled layout.

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

}  // namespace detail

template <typename Exec, typename CoefT = real>
void aprod2_att_soa(const SystemView& A, const real* y, real* x,
                    KernelConfig cfg, AtomicMode mode = AtomicMode::kNativeRmw,
                    backends::ScratchArena* arena = nullptr) {
  detail::section_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Att), cfg,
      mode, arena, detail::att_rows_soa<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_instr_soa(const SystemView& A, const real* y, real* x,
                      KernelConfig cfg,
                      AtomicMode mode = AtomicMode::kNativeRmw,
                      backends::ScratchArena* arena = nullptr) {
  detail::section_scatter<Exec>(
      A.n_rows, x, scatter_section(A, backends::KernelId::kAprod2Instr), cfg,
      mode, arena, detail::instr_rows_soa<CoefT>(A, y));
}

template <typename Exec, typename CoefT = real>
void aprod2_glob_soa(const SystemView& A, const real* y, real* x,
                     KernelConfig cfg,
                     AtomicMode mode = AtomicMode::kNativeRmw,
                     backends::ScratchArena* arena = nullptr) {
  detail::section_scatter<Exec>(
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
                              detail::att_rows_soa<CoefT>(A, y),
                              detail::instr_rows_soa<CoefT>(A, y),
                              detail::glob_rows_soa<CoefT>(A, y));
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

/// Fused gather of the sliced layout: the regular sections read the SoA
/// streams, the instrumental dot reaches each row's lane slot through
/// the row->slot inverse permutation.
template <typename Exec, typename CoefT = real>
void aprod1_fused_sliced(const SystemView& A, const real* x, real* y,
                         KernelConfig cfg) {
  const row_index* row_slot = A.slice_row_slot;
  const auto slot_dot = detail::instr_slot_dot<CoefT>(A, x);
  detail::fused_gather<Exec>(
      A, y, cfg, detail::astro_dot_soa<CoefT>(A, x),
      detail::att_dot_soa<CoefT>(A, x),
      [=](std::int64_t r) { return slot_dot(row_slot[r]); },
      detail::glob_dot_soa<CoefT>(A, x));
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
  detail::section_scatter<Exec>(
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
