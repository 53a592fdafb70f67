#include "matrix/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "backends/thread_pool.hpp"

namespace gaia::matrix {

namespace {

/// Observation rows fill in blocks of this many stars, and the rhs in
/// blocks of this many rows. Constants, so the blocks — and the bits —
/// do not depend on the pool size.
constexpr row_index kStarsPerBlock = 256;
constexpr row_index kRowsPerBlock = 16384;

/// Normals every observation row draws besides the global coefficient.
constexpr std::uint64_t kNormalsPerRow =
    kAstroNnzPerRow + kAttNnzPerRow + kInstrNnzPerRow;

/// Draws `kInstrNnzPerRow` distinct instrumental columns, in draw
/// order. The section is small relative to the draw count in tests, so
/// use rejection over a fixed-size set (cheap: at most 6 live values).
std::array<std::int32_t, kInstrNnzPerRow> draw_instr_columns(
    util::Xoshiro256& rng, col_index n_instr) {
  std::array<std::int32_t, kInstrNnzPerRow> picked{};
  int count = 0;
  while (count < kInstrNnzPerRow) {
    const auto c = static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(n_instr)));
    bool duplicate = false;
    for (int i = 0; i < count; ++i) duplicate |= (picked[i] == c);
    if (!duplicate) picked[count++] = c;
  }
  return picked;
}

/// Stores a row's instrumental columns sorted: sorted columns give the
/// kernels the (mostly) ascending access pattern real calibration
/// tables exhibit.
void store_instr_columns(std::array<std::int32_t, kInstrNnzPerRow> cols,
                         std::span<std::int32_t> out) {
  std::sort(cols.begin(), cols.end());
  std::copy(cols.begin(), cols.end(), out.begin());
}

/// What an observation row's draws depend on besides the stream.
struct RowShape {
  row_index n_obs = 0;
  /// Range of the attitude block start; 0 means no jitter draw.
  col_index att_span = 0;
  col_index n_instr = 0;
  bool has_global = false;
};

/// Draws observation row `row` of star `s`: attitude start, instrumental
/// columns and coefficients.
void fill_observation_row(util::Xoshiro256& rng, const RowShape& shape,
                          row_index s, row_index row, SystemMatrix& A) {
  const auto r = static_cast<std::size_t>(row);
  A.matrix_index_astro()[r] = s * kAstroParamsPerStar;

  // Attitude block starts drift along the spline as observation time
  // advances (the "stride stemming from the measurement campaign"): the
  // row's position in the global observation sequence selects the knot.
  const double phase =
      shape.n_obs > 1
          ? static_cast<double>(row) / static_cast<double>(shape.n_obs - 1)
          : 0.0;
  col_index t0 = shape.att_span > 0
                     ? static_cast<col_index>(std::llround(
                           phase * static_cast<double>(shape.att_span)))
                     : 0;
  // Small jitter keeps neighbouring rows from all hitting the same
  // knot (it is what makes the aprod2 attitude updates collide).
  if (shape.att_span > 0) {
    const auto j = static_cast<col_index>(rng.uniform_index(3)) - 1;
    t0 = std::clamp<col_index>(t0 + j, 0, shape.att_span);
  }
  A.matrix_index_att()[r] = t0;

  store_instr_columns(
      draw_instr_columns(rng, shape.n_instr),
      A.instr_col().subspan(r * kInstrNnzPerRow, kInstrNnzPerRow));

  auto rv = A.row_values(row);
  for (int i = 0; i < kAstroNnzPerRow; ++i)
    rv[kAstroCoeffOffset + i] = rng.normal();
  for (int i = 0; i < kAttNnzPerRow; ++i)
    rv[kAttCoeffOffset + i] = rng.normal(0.0, 0.5);
  for (int i = 0; i < kInstrNnzPerRow; ++i)
    rv[kInstrCoeffOffset + i] = rng.normal(0.0, 0.5);
  rv[kGlobCoeffOffset] = shape.has_global ? rng.normal(0.0, 0.1) : real{0};
}

/// Makes exactly the draws of fill_observation_row and keeps none.
void skip_observation_row(util::Xoshiro256& rng, const RowShape& shape) {
  if (shape.att_span > 0) (void)rng.uniform_index(3);
  (void)draw_instr_columns(rng, shape.n_instr);
  rng.discard_normals(kNormalsPerRow + (shape.has_global ? 1 : 0));
}

/// Fills blocks 0..n_blocks-1 on the shared pool with the result of one
/// serial pass over them. A serial replay walks the stream first: it
/// records the state at the start of each block, and `skip(rng, b)`
/// makes block b's draws without keeping them. The blocks then run
/// `fill(rng, b)` in parallel, each from its recorded state. Leaves
/// `rng` where the serial pass would.
template <typename Skip, typename Fill>
void fill_blocks(util::Xoshiro256& rng, std::int64_t n_blocks, Skip&& skip,
                 Fill&& fill) {
  std::vector<util::Xoshiro256> starts;
  starts.reserve(static_cast<std::size_t>(n_blocks));
  for (std::int64_t b = 0; b < n_blocks; ++b) {
    starts.push_back(rng);
    skip(rng, b);
  }
  backends::ThreadPool::global().parallel_for(
      n_blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; ++b) {
          // A local copy: neighbouring states share cache lines.
          util::Xoshiro256 block_rng = starts[static_cast<std::size_t>(b)];
          fill(block_rng, b);
        }
      });
}

std::int64_t block_count(row_index n, row_index per_block) {
  return (n + per_block - 1) / per_block;
}

/// Items [first, end) of block b of n items in blocks of `per_block`.
std::pair<row_index, row_index> block_range(std::int64_t b,
                                            row_index per_block,
                                            row_index n) {
  const row_index first = b * per_block;
  return {first, std::min(first + per_block, n)};
}

}  // namespace

GeneratedSystem generate_system(const GeneratorConfig& config) {
  GAIA_CHECK(config.n_stars > 0, "generator needs stars");
  GAIA_CHECK(config.obs_per_star_min >= 1, "stars need observations");
  GAIA_CHECK(config.obs_per_star_mean >=
                 static_cast<double>(config.obs_per_star_min),
             "mean observations below minimum");

  util::Xoshiro256 rng(config.seed);

  const ParameterLayout layout(config.n_stars, kAttBlocks,
                               config.att_dof_per_axis,
                               config.n_instr_params, config.has_global);

  // --- observation counts per star -------------------------------------
  std::vector<row_index> obs_per_star(
      static_cast<std::size_t>(config.n_stars));
  row_index n_obs = 0;
  for (auto& n : obs_per_star) {
    const double jitter = rng.normal(0.0, config.obs_per_star_mean * 0.25);
    n = std::max<row_index>(
        config.obs_per_star_min,
        static_cast<row_index>(
            std::llround(config.obs_per_star_mean + jitter)));
    n_obs += n;
  }

  const row_index n_constraints =
      config.constraints_per_axis * kAttBlocks;
  SystemMatrix A(layout, n_obs, n_constraints);

  // Star partition (contiguous rows per star).
  auto starts = A.star_row_start();
  starts[0] = 0;
  for (std::size_t s = 0; s < obs_per_star.size(); ++s)
    starts[s + 1] = starts[s] + obs_per_star[s];

  // --- observation rows, in blocks of stars -------------------------------
  const RowShape shape{n_obs, layout.att_stride() - kAttBlockSize,
                       layout.n_instr_params(), config.has_global};
  fill_blocks(
      rng, block_count(config.n_stars, kStarsPerBlock),
      [&](util::Xoshiro256& g, std::int64_t b) {
        const auto [s0, s1] = block_range(b, kStarsPerBlock, config.n_stars);
        for (row_index row = starts[static_cast<std::size_t>(s0)];
             row < starts[static_cast<std::size_t>(s1)]; ++row)
          skip_observation_row(g, shape);
      },
      [&](util::Xoshiro256& g, std::int64_t b) {
        const auto [s0, s1] = block_range(b, kStarsPerBlock, config.n_stars);
        for (row_index s = s0; s < s1; ++s)
          for (row_index row = starts[static_cast<std::size_t>(s)];
               row < starts[static_cast<std::size_t>(s) + 1]; ++row)
            fill_observation_row(g, shape, s, row, A);
      });

  // --- constraint rows ----------------------------------------------------
  // One (or more) per attitude axis: sum of that axis' spline coefficients
  // pinned to zero, removing the attitude nullspace. All other blocks are
  // structurally present but zero-valued, keeping the kernels uniform.
  auto idx_astro = A.matrix_index_astro();
  auto idx_att = A.matrix_index_att();
  auto instr = A.instr_col();
  auto rhs = A.known_terms();
  row_index row = n_obs;
  for (row_index c = 0; c < n_constraints; ++c, ++row) {
    const auto r = static_cast<std::size_t>(row);
    const int axis = static_cast<int>(c % kAttBlocks);
    idx_astro[r] = 0;
    idx_att[r] = 0;
    store_instr_columns(
        draw_instr_columns(rng, layout.n_instr_params()),
        instr.subspan(r * kInstrNnzPerRow, kInstrNnzPerRow));
    auto rv = A.row_values(row);
    for (int i = 0; i < kAttBlockSize; ++i)
      rv[kAttCoeffOffset + axis * kAttBlockSize + i] = real{1};
    rhs[r] = real{0};
  }

  // --- right-hand side, in blocks of rows ---------------------------------
  const std::int64_t n_row_blocks = block_count(n_obs, kRowsPerBlock);
  GeneratedSystem out{std::move(A), std::nullopt};
  auto kt = out.A.known_terms();
  if (config.rhs_mode == RhsMode::kRandomRhs) {
    fill_blocks(
        rng, n_row_blocks,
        [&](util::Xoshiro256& g, std::int64_t b) {
          const auto [r0, r1] = block_range(b, kRowsPerBlock, n_obs);
          g.discard_normals(static_cast<std::uint64_t>(r1 - r0));
        },
        [&](util::Xoshiro256& g, std::int64_t b) {
          const auto [r0, r1] = block_range(b, kRowsPerBlock, n_obs);
          for (row_index i = r0; i < r1; ++i)
            kt[static_cast<std::size_t>(i)] = g.normal();
        });
  } else {
    std::vector<real> x_true(static_cast<std::size_t>(layout.n_unknowns()));
    for (auto& x : x_true) x = rng.normal();
    // Make the truth consistent with the constraint rows (all pin the
    // first 4-wide window of each axis to zero sum): subtract the
    // offending constant per axis. Otherwise the constraints contradict
    // x* and inject structured residuals into every observation.
    if (n_constraints > 0) {
      for (int axis = 0; axis < kAttBlocks; ++axis) {
        real* xa = x_true.data() + layout.att_offset() +
                   axis * layout.att_stride();
        real sum = 0;
        for (int i = 0; i < kAttBlockSize; ++i) sum += xa[i];
        const real shift = sum / kAttBlockSize;
        for (col_index j = 0; j < layout.att_stride(); ++j) xa[j] -= shift;
      }
    }
    // b = A x* (+ noise) over observation rows; constraint rows keep
    // b = 0, now exactly satisfied by the adjusted truth.
    const bool noisy = config.noise_sigma > 0;
    const auto& M = out.A;
    const auto vals = M.values();
    const auto ia = M.matrix_index_astro();
    const auto it = M.matrix_index_att();
    const auto ic = M.instr_col();
    fill_blocks(
        rng, n_row_blocks,
        [&](util::Xoshiro256& g, std::int64_t b) {
          const auto [r0, r1] = block_range(b, kRowsPerBlock, n_obs);
          if (noisy) g.discard_normals(static_cast<std::uint64_t>(r1 - r0));
        },
        [&](util::Xoshiro256& g, std::int64_t b) {
          const auto [r0, r1] = block_range(b, kRowsPerBlock, n_obs);
          for (row_index rr = r0; rr < r1; ++rr) {
            const auto r = static_cast<std::size_t>(rr);
            real sum = 0;
            const real* rv = vals.data() + r * kNnzPerRow;
            for (int i = 0; i < kAstroNnzPerRow; ++i)
              sum += rv[kAstroCoeffOffset + i] *
                     x_true[static_cast<std::size_t>(ia[r] + i)];
            for (int blk = 0; blk < kAttBlocks; ++blk)
              for (int i = 0; i < kAttBlockSize; ++i)
                sum += rv[kAttCoeffOffset + blk * kAttBlockSize + i] *
                       x_true[static_cast<std::size_t>(
                           layout.att_offset() + it[r] +
                           blk * layout.att_stride() + i)];
            for (int i = 0; i < kInstrNnzPerRow; ++i)
              sum += rv[kInstrCoeffOffset + i] *
                     x_true[static_cast<std::size_t>(
                         layout.instr_offset() + ic[r * kInstrNnzPerRow + i])];
            if (layout.has_global())
              sum += rv[kGlobCoeffOffset] *
                     x_true[static_cast<std::size_t>(layout.glob_offset())];
            if (noisy) sum += g.normal(0.0, config.noise_sigma);
            kt[r] = sum;
          }
        });
    out.ground_truth = std::move(x_true);
  }
  return out;
}

GeneratorConfig config_for_footprint(byte_size bytes, std::uint64_t seed) {
  GAIA_CHECK(bytes >= 64 * kKiB, "footprint too small to shape a system");
  GeneratorConfig cfg;
  cfg.seed = seed;

  // Per-row storage cost (see SystemMatrix::footprint_bytes_for).
  constexpr double kBytesPerRow =
      kNnzPerRow * sizeof(real) + 2 * sizeof(col_index) +
      kInstrNnzPerRow * sizeof(std::int32_t) + sizeof(real);
  // Production-like row/unknown ratio: hundreds of observations per star
  // keep the unknown vector (and the solver's per-unknown work vectors)
  // small relative to the matrix, which is what lets the paper run a
  // 30 GB problem on the 32 GB V100.
  cfg.obs_per_star_mean = 50.0;

  const double rows =
      static_cast<double>(bytes) /
      (kBytesPerRow + sizeof(row_index) / cfg.obs_per_star_mean);
  cfg.n_stars = std::max<row_index>(
      8, static_cast<row_index>(rows / cfg.obs_per_star_mean));

  // Secondary sections scale sub-linearly (production: astro ~90 % of the
  // footprint, everything else ~10 %): grow them with rows^(1/3).
  const double scale = std::cbrt(rows / 1024.0);
  cfg.att_dof_per_axis = std::max<col_index>(
      32, static_cast<col_index>(32.0 * scale));
  cfg.n_instr_params = std::max<col_index>(
      24, static_cast<col_index>(24.0 * scale));
  cfg.has_global = true;
  cfg.constraints_per_axis = 1;
  return cfg;
}

}  // namespace gaia::matrix
