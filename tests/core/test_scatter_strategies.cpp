/// \file test_scatter_strategies.cpp
/// \brief Property suite for the aprod2 scatter commit: every row block
/// of the system accumulates its rows into a private slice, and one
/// launch folds the slices into x in block order. Covers bit-equality
/// with the serial backend and with a hand-built block fold on every
/// backend and launch shape, the fused slot, shape sweeps and degenerate
/// shapes, bit-reproducibility, the inert scatter-strategy field, the
/// adjoint identity through every registered launcher, the perf-counter
/// labels, and the scratch-arena reuse contract (allocator goes silent
/// after the first iteration).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "backends/scratch_arena.hpp"
#include "core/aprod.hpp"
#include "core/aprod_kernels.hpp"
#include "core/kernel_catalog.hpp"
#include "core/vector_ops.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "test_helpers.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;
using backends::ScatterStrategy;
using backends::StorageLayout;

constexpr std::array<KernelId, 3> kSharedScatters = {
    KernelId::kAprod2Att, KernelId::kAprod2Instr, KernelId::kAprod2Glob};

KernelConfig with_strategy(KernelConfig cfg, ScatterStrategy strategy) {
  cfg.strategy = strategy;
  return cfg;
}

std::vector<real> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<real> v(n);
  for (auto& e : v) e = rng.normal();
  return v;
}

/// The three shared-section scatters called directly.
template <typename Exec>
void run_scatters(const SystemView& view, const real* y, std::vector<real>& x,
                  KernelConfig cfg, backends::ScratchArena* arena = nullptr) {
  aprod2_att<Exec>(view, y, x.data(), cfg, arena);
  aprod2_instr<Exec>(view, y, x.data(), cfg, arena);
  aprod2_glob<Exec>(view, y, x.data(), cfg, arena);
}

/// The fused scatter built by hand: the rows split at the first star
/// start at or after each k * block_partition(n_obs).length, the last
/// block also takes the constraint rows, each block accumulates its rows
/// in row order into a zeroed slice, and every column adds the slices in
/// block order.
std::vector<real> block_fold(const SystemView& view,
                             const std::vector<real>& y) {
  const BlockPartition part =
      block_partition(static_cast<std::size_t>(view.n_obs));
  std::vector<row_index> first_row;
  for (std::size_t k = 0; k < part.count; ++k) {
    row_index s = 0;
    while (s < view.n_stars &&
           view.star_row_start[s] < static_cast<row_index>(k * part.length))
      ++s;
    first_row.push_back(view.star_row_start[s]);
  }
  first_row.push_back(view.n_rows);
  const ScatterSection sect = fused_scatter_section(view);
  const auto rows = detail::seed_shared_rows(view, y.data());
  std::vector<std::vector<real>> slices;
  for (std::size_t k = 0; k < part.count; ++k) {
    slices.emplace_back(static_cast<std::size_t>(sect.len), 0.0);
    for (row_index r = first_row[k]; r < first_row[k + 1]; ++r)
      rows(slices.back().data(), r);
  }
  std::vector<real> x(static_cast<std::size_t>(view.n_cols), 0.0);
  for (col_index c = 0; c < sect.len; ++c) {
    real sum = slices[0][static_cast<std::size_t>(c)];
    for (std::size_t k = 1; k < slices.size(); ++k)
      sum += slices[k][static_cast<std::size_t>(c)];
    x[static_cast<std::size_t>(sect.offset + c)] += sum;
  }
  return x;
}

/// The shared-section scatters through the registry at one (backend,
/// config): the three kernels, or the fused slot.
std::vector<real> registry_scatter(const SystemView& view,
                                   const std::vector<real>& y,
                                   BackendKind backend, KernelConfig cfg,
                                   bool fused) {
  const tuning::KernelRegistry& reg = tuning::KernelRegistry::global();
  std::vector<real> x(static_cast<std::size_t>(view.n_cols), 0.0);
  tuning::LaunchArgs args;
  args.view = &view;
  args.in = y.data();
  args.out = x.data();
  args.config = cfg;
  if (fused) {
    reg.launch_fused(tuning::FusedPass::kScatter, backend, args);
  } else {
    for (KernelId id : kSharedScatters) reg.launch(id, backend, args);
  }
  return x;
}

/// Fixture: a system with enough rows per column that scatters actually
/// collide, plus the serial result as the reference.
class ScatterStrategies : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    ensure_kernel_catalog();
    gen_ = matrix::generate_system(gaia::testing::medium_config(23));
    view_ = SystemView::from(gen_.A);
    // Several row blocks, so a commit that followed the launch would
    // show in the bits.
    ASSERT_GE(block_partition(static_cast<std::size_t>(gen_.A.n_obs())).count,
              3u);
    y_ = random_vector(static_cast<std::size_t>(gen_.A.n_rows()), 47);
    reference_.assign(static_cast<std::size_t>(gen_.A.n_cols()), 0.0);
    run_scatters<backends::SerialExec>(view_, y_.data(), reference_, {});
  }

  std::vector<real> result(KernelConfig cfg) const {
    std::vector<real> x(reference_.size(), 0.0);
    backends::dispatch(GetParam(), [&](auto exec) {
      run_scatters<decltype(exec)>(view_, y_.data(), x, cfg);
    });
    return x;
  }

  matrix::GeneratedSystem gen_;
  SystemView view_{};
  std::vector<real> y_;
  std::vector<real> reference_;
};

TEST_P(ScatterStrategies, PrivatizedMatchesSerialAtomicReference) {
  // The backend-default shape against the serial reference, bit for bit.
  EXPECT_EQ(result({}), reference_);
}

TEST_P(ScatterStrategies, PrivatizedMatchesAtomicOnSameBackend) {
  // KernelConfig::strategy is inert: a config carrying either retired
  // value runs the one commit, so both give the same bits.
  const KernelConfig cfg{64, 32};
  const auto atomic = result(with_strategy(cfg, ScatterStrategy::kAtomic));
  const auto priv = result(with_strategy(cfg, ScatterStrategy::kPrivatized));
  EXPECT_EQ(priv, atomic);
}

TEST_P(ScatterStrategies, WorkerCountSweepPreservesResults) {
  // The launch shape sets how many threads run the row blocks, never
  // the blocks or their fold: every shape (one thread, odd counts, more
  // threads than blocks) gives the serial reference bit for bit.
  for (const KernelConfig cfg :
       {KernelConfig{1, 1}, KernelConfig{2, 3}, KernelConfig{7, 5},
        KernelConfig{64, 32}, KernelConfig{300, 64},
        KernelConfig{1024, 256}}) {
    EXPECT_EQ(result(cfg), reference_)
        << "cfg " << cfg.blocks << "x" << cfg.threads;
  }
}

TEST_P(ScatterStrategies, BitIdenticalAcrossRepeatedRuns) {
  // The fold order is fixed by the system alone, and each block
  // accumulates its rows sequentially — repeated runs at the same
  // shape must agree to the last bit, on every backend.
  const KernelConfig cfg{64, 32};
  const auto first = result(cfg);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto again = result(cfg);
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first[i], again[i]) << "element " << i << " run " << repeat;
  }
}

TEST_P(ScatterStrategies, DegenerateSingleStarSystem) {
  // A dozen rows: one row block, so wide shapes ask for far more
  // threads than there are blocks and the result is still the serial
  // one bit for bit.
  auto cfg = gaia::testing::small_config(29);
  cfg.n_stars = 1;
  const auto gen = matrix::generate_system(cfg);
  const SystemView view = SystemView::from(gen.A);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 5);

  std::vector<real> ref(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  run_scatters<backends::SerialExec>(view, y.data(), ref, {});

  for (const KernelConfig shape :
       {KernelConfig{128, 64}, KernelConfig{300, 64}}) {
    std::vector<real> x(ref.size(), 0.0);
    backends::dispatch(GetParam(), [&](auto exec) {
      run_scatters<decltype(exec)>(view, y.data(), x, shape);
    });
    EXPECT_EQ(x, ref) << shape.blocks;
  }
}

TEST_P(ScatterStrategies, NoGlobalSectionIsANoop) {
  auto cfg = gaia::testing::small_config(31);
  cfg.has_global = false;
  const auto gen = matrix::generate_system(cfg);
  const SystemView view = SystemView::from(gen.A);
  EXPECT_EQ(scatter_section(view, KernelId::kAprod2Glob).len, 0);
  std::vector<real> ones(static_cast<std::size_t>(gen.A.n_rows()), 1.0);
  for (const KernelConfig shape : {KernelConfig{}, KernelConfig{16, 32}}) {
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
    backends::dispatch(GetParam(), [&](auto exec) {
      aprod2_glob<decltype(exec)>(view, ones.data(), x.data(), shape);
    });
    for (real v : x) ASSERT_EQ(v, 0.0);
  }
}

TEST_P(ScatterStrategies, FusedSlotWithoutGlobalSectionMatchesSeparate) {
  auto cfg = gaia::testing::small_config(37);
  cfg.has_global = false;
  const auto gen = matrix::generate_system(cfg);
  const SystemView view = SystemView::from(gen.A);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 3);
  const auto ref = registry_scatter(view, y, BackendKind::kSerial, {}, false);
  for (const KernelConfig shape : {KernelConfig{16, 32}, KernelConfig{3, 7}}) {
    const auto fused = registry_scatter(view, y, GetParam(), shape, true);
    EXPECT_EQ(fused, ref) << shape.blocks << "x" << shape.threads;
    const auto separate = registry_scatter(view, y, GetParam(), shape, false);
    EXPECT_EQ(fused, separate) << shape.blocks << "x" << shape.threads;
  }
}

TEST_P(ScatterStrategies, AtomicCommitMatchesSeedOnAllLayoutsAndPrecisions) {
  // The one commit against the hand-built block fold, on this backend at
  // the default shape and at one thread up to far more threads than
  // blocks: the separate kernels and the fused slot both equal it bit for
  // bit, since each column sees the same adds in the same order.
  const auto ref = block_fold(view_, y_);
  for (const KernelConfig cfg : {KernelConfig{}, KernelConfig{1, 1},
                                 KernelConfig{3, 7}, KernelConfig{16, 32},
                                 KernelConfig{256, 256}}) {
    const std::string label =
        std::to_string(cfg.blocks) + "x" + std::to_string(cfg.threads);
    EXPECT_EQ(registry_scatter(view_, y_, GetParam(), cfg, false), ref)
        << label;
    EXPECT_EQ(registry_scatter(view_, y_, GetParam(), cfg, true), ref)
        << label;
  }
}

TEST_P(ScatterStrategies, AdjointIdentityThroughEveryRegisteredScatter) {
  // <A x, y> = <x, A^T y> through the registry, with the three shared
  // scatters and with the fused slot. No dense expansion: the gap is
  // judged against the summed magnitude of the products.
  const tuning::KernelRegistry& reg = tuning::KernelRegistry::global();
  const auto x = random_vector(reference_.size(), 61);
  tuning::LaunchArgs args;
  args.view = &view_;
  args.config = {16, 32};
  std::vector<real> Ax(y_.size(), 0.0);
  args.in = x.data();
  args.out = Ax.data();
  for (KernelId id : {KernelId::kAprod1Astro, KernelId::kAprod1Att,
                      KernelId::kAprod1Instr, KernelId::kAprod1Glob})
    reg.launch(id, GetParam(), args);
  real lhs = 0, scale = 0;
  for (std::size_t i = 0; i < Ax.size(); ++i) {
    lhs += Ax[i] * y_[i];
    scale += std::abs(Ax[i] * y_[i]);
  }
  for (const bool fused : {false, true}) {
    std::vector<real> Aty(x.size(), 0.0);
    args.in = y_.data();
    args.out = Aty.data();
    reg.launch(KernelId::kAprod2Astro, GetParam(), args);
    if (fused) {
      reg.launch_fused(tuning::FusedPass::kScatter, GetParam(), args);
    } else {
      for (KernelId id : kSharedScatters) reg.launch(id, GetParam(), args);
    }
    real rhs = 0;
    for (std::size_t i = 0; i < Aty.size(); ++i) rhs += Aty[i] * x[i];
    EXPECT_LT(std::abs(lhs - rhs), 1e-12 * scale) << (fused ? "fused" : "");
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ScatterStrategies,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

TEST(ScatterStrategyCommit, SerialAtomicBitIdenticalToPrivatized) {
  // The serial commit folds the system's row blocks in block order, so
  // it equals the hand-built block fold bit for bit — the separate
  // kernels and the fused slot alike, whatever retired strategy value
  // the config carries.
  ensure_kernel_catalog();
  const auto gen = matrix::generate_system(gaia::testing::medium_config(71));
  const SystemView view = SystemView::from(gen.A);
  ASSERT_GE(block_partition(static_cast<std::size_t>(gen.A.n_obs())).count,
            3u);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 73);
  const auto expected = block_fold(view, y);
  for (const bool fused : {false, true}) {
    for (const ScatterStrategy strategy :
         {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
      const auto got = registry_scatter(view, y, BackendKind::kSerial,
                                        with_strategy({}, strategy), fused);
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], expected[i])
            << (fused ? "fused " : "") << "at " << i;
    }
  }
}

TEST(ScatterStrategyCommit, PstlAtomicUnderTheGrainCommitsInRowOrder) {
  // A system of a few hundred rows is one row block, so a pstl launch
  // under the grain commits a plain row-order accumulation bit for bit,
  // separate kernels and fused slot alike, whatever the pool size.
  ensure_kernel_catalog();
  auto small = gaia::testing::small_config(29);
  small.n_stars = 4;
  const auto gen = matrix::generate_system(small);
  ASSERT_LE(gen.A.n_rows(), 256);
  const SystemView view = SystemView::from(gen.A);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 7);
  std::vector<real> plain(static_cast<std::size_t>(view.n_cols), 0.0);
  const auto rows = detail::seed_shared_rows(view, y.data());
  real* shared = plain.data() + fused_scatter_section(view).offset;
  for (std::int64_t r = 0; r < view.n_rows; ++r) rows(shared, r);
  for (const bool fused : {false, true}) {
    const auto pstl = registry_scatter(view, y, BackendKind::kPstl, {}, fused);
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(pstl[i], plain[i])
          << (fused ? "fused" : "separate") << " at " << i;
  }
}

/// A tuned table carrying the inert `strategy` on the three scatter
/// kernels and the inert `layout` on every kernel.
backends::TuningTable strategy_table(
    ScatterStrategy strategy,
    StorageLayout layout = StorageLayout::kSeedAos) {
  backends::TuningTable table = backends::TuningTable::tuned_default();
  for (KernelId id : backends::all_kernels()) {
    KernelConfig cfg = table.get(id);
    if (backends::kernel_uses_atomics(id)) cfg.strategy = strategy;
    cfg.layout = layout;
    table.set(id, cfg);
  }
  return table;
}

TEST(ScatterStrategyCommit, AtomicUpdatesCountCommitsNotRowEntries) {
  // The commit issues no atomics at all, so no pass records an
  // atomic_updates series; the passes that fold private slices run under
  // the "privatized" label and the rest under "none".
  const auto gen = matrix::generate_system(gaia::testing::medium_config(79));
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    Aprod aprod(gen.A, device, opts);
    const auto x_in =
        random_vector(static_cast<std::size_t>(gen.A.n_cols()), 81);
    auto u = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 83);
    std::vector<real> y(u.size(), 0.0), x(x_in.size(), 0.0), q(x.size());
    for (int i = 0; i < 2; ++i) {
      aprod.apply1(x_in, y);
      aprod.apply2(u, x);
    }
    aprod.step(x_in, u, q, 1.0, 0.5);
  }
  for (const obs::MetricRow& row : reg.snapshot()) {
    obs::KernelSeriesName series;
    if (!obs::parse_kernel_series(row.name, series)) continue;
    EXPECT_NE(series.field, "atomic_updates") << row.name;
    EXPECT_NE(series.strategy, "atomic") << row.name;
  }
  const auto launches = [&](const char* kernel, const char* label) {
    return reg
        .counter(obs::kernel_series_name(kernel, "gpusim", label, "launches"))
        .value();
  };
  EXPECT_EQ(launches("aprod1_fused", "none"), 2u);
  EXPECT_EQ(launches("aprod2_astro", "none"), 2u);
  EXPECT_EQ(launches("aprod2_fused", "privatized"), 2u);
  EXPECT_EQ(launches("aprod_step", "privatized"), 1u);
  reg.set_enabled(false);
  reg.reset();
}

TEST(ScatterStrategyDriver, PrivatizedTableMatchesAtomicThroughAprod) {
  // KernelConfig::strategy is inert through the driver: tables carrying
  // either retired value run the same commit, so apply2 and the step
  // agree bit for bit on a multi-threaded backend.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(37));
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 11);
  const auto v = random_vector(static_cast<std::size_t>(gen.A.n_cols()), 12);

  struct Run {
    std::vector<real> x, u, q;
    real pnorm_sq = 0;
  };
  auto run_with = [&](ScatterStrategy strategy) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    opts.tuning = strategy_table(strategy);
    Aprod aprod(gen.A, device, opts);
    Run run;
    run.x.assign(v.size(), 0.0);
    aprod.apply2(y, run.x);
    run.u = y;
    run.q.assign(v.size(), 0.0);
    run.pnorm_sq = aprod.step(v, run.u, run.q, 1.0, 0.5);
    return run;
  };
  const Run atomic = run_with(ScatterStrategy::kAtomic);
  const Run priv = run_with(ScatterStrategy::kPrivatized);
  EXPECT_EQ(priv.x, atomic.x);
  EXPECT_EQ(priv.u, atomic.u);
  EXPECT_EQ(priv.q, atomic.q);
  EXPECT_EQ(priv.pnorm_sq, atomic.pnorm_sq);
}

TEST(ScatterStrategyDriver, DerivedLayoutsMatchSeedThroughAprod) {
  // KernelConfig::layout is inert: a table carrying a retired layout runs
  // the row-record bodies, so both aprod directions and the LSQR step
  // equal the seed-layout table's bit for bit, and the driver allocates
  // no device bytes beyond the seed run's.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(53));
  const auto x_in = random_vector(static_cast<std::size_t>(gen.A.n_cols()), 19);
  const auto y_in = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 20);

  struct Run {
    std::vector<real> y, x, u, q;
    real pnorm_sq = 0;
    byte_size device_bytes = 0;
  };
  auto run_with = [&](StorageLayout layout) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kSerial;
    opts.tuning = strategy_table(ScatterStrategy::kAtomic, layout);
    Aprod aprod(gen.A, device, opts);
    Run run;
    run.y.assign(y_in.size(), 0.0);
    run.x.assign(x_in.size(), 0.0);
    aprod.apply1(x_in, run.y);
    aprod.apply2(y_in, run.x);
    run.u = y_in;
    run.q.assign(x_in.size(), 0.0);
    run.pnorm_sq = aprod.step(x_in, run.u, run.q, 1.0, 0.5);
    run.device_bytes = device.allocated();
    return run;
  };

  const Run seed = run_with(StorageLayout::kSeedAos);
  for (const auto layout :
       {StorageLayout::kSoaTiled, StorageLayout::kSlicedInstr}) {
    const Run got = run_with(layout);
    const std::string label = backends::to_string(layout);
    EXPECT_EQ(got.y, seed.y) << label;
    EXPECT_EQ(got.x, seed.x) << label;
    EXPECT_EQ(got.u, seed.u) << label;
    EXPECT_EQ(got.q, seed.q) << label;
    EXPECT_EQ(got.pnorm_sq, seed.pnorm_sq) << label;
    EXPECT_EQ(got.device_bytes, seed.device_bytes) << label;
  }
}

TEST(ScatterStrategyDriver, ArenaAllocatorSilentAfterFirstIteration) {
  // The pool contract: every buffer the scatters need is allocated during
  // the first apply2; after that the miss counter must not move —
  // iterations run allocation-free, at either launch shape.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(41));
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 13);
  for (const backends::TuningTable& table :
       {backends::TuningTable::tuned_default(),
        backends::TuningTable::untuned({2, 2})}) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    opts.tuning = table;
    Aprod aprod(gen.A, device, opts);
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);

    aprod.apply2(y, x);  // warm-up: populates the pool
    const std::uint64_t misses_after_warmup = aprod.scratch_arena().misses();
    EXPECT_GT(misses_after_warmup, 0u);  // the skeleton really ran
    EXPECT_GT(aprod.scratch_arena().pooled_bytes(), 0u);

    for (int iter = 0; iter < 5; ++iter) aprod.apply2(y, x);
    EXPECT_EQ(aprod.scratch_arena().misses(), misses_after_warmup)
        << table.get(KernelId::kAprod2Att).blocks;
    EXPECT_GT(aprod.scratch_arena().hits(), 0u);
  }
}

TEST(ScatterStrategyDriver, ArenaBytesSurfaceInObsMetrics) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();

  const auto gen = matrix::generate_system(gaia::testing::small_config(43));
  backends::DeviceContext device;
  AprodOptions opts;
  opts.backend = BackendKind::kGpuSim;
  Aprod aprod(gen.A, device, opts);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 17);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  aprod.apply2(y, x);

  EXPECT_GT(reg.gauge("scratch.arena.pooled_bytes").value(), 0.0);
  EXPECT_GT(reg.counter("scratch.arena.misses").value(), 0u);

  reg.set_enabled(false);
  reg.reset();
}

}  // namespace
}  // namespace gaia::core
