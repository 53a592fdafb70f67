/// \file test_scatter_strategies.cpp
/// \brief Property suite for the aprod2 scatter skeleton and its two
/// commit steps: the atomic commit (each worker adds its private slice
/// into x with atomics) and the privatized commit (fixed-order fold).
/// Covers equivalence with the serial reference on every backend, layout
/// and precision, the fused slot on both strategies, worker-count sweeps
/// and degenerate shapes, bit-reproducibility of the fold, the adjoint
/// identity through every registered launcher, the atomic-update
/// accounting, and the scratch-arena reuse contract (allocator goes
/// silent after the first iteration).
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "backends/scratch_arena.hpp"
#include "core/aprod.hpp"
#include "core/aprod_kernels.hpp"
#include "core/kernel_catalog.hpp"
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
using backends::Precision;
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
  aprod2_att<Exec>(view, y, x.data(), cfg, backends::AtomicMode::kNativeRmw,
                   arena);
  aprod2_instr<Exec>(view, y, x.data(), cfg, backends::AtomicMode::kNativeRmw,
                     arena);
  aprod2_glob<Exec>(view, y, x.data(), cfg, backends::AtomicMode::kNativeRmw,
                    arena);
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
    y_ = random_vector(static_cast<std::size_t>(gen_.A.n_rows()), 47);
    reference_.assign(static_cast<std::size_t>(gen_.A.n_cols()), 0.0);
    run_scatters<backends::SerialExec>(view_, y_.data(), reference_, {});
  }

  std::vector<real> result(ScatterStrategy strategy, KernelConfig cfg) const {
    std::vector<real> x(reference_.size(), 0.0);
    backends::dispatch(GetParam(), [&](auto exec) {
      run_scatters<decltype(exec)>(view_, y_.data(), x,
                                   with_strategy(cfg, strategy));
    });
    return x;
  }

  std::vector<real> privatized_result(KernelConfig cfg) const {
    return result(ScatterStrategy::kPrivatized, cfg);
  }

  matrix::GeneratedSystem gen_;
  SystemView view_{};
  std::vector<real> y_;
  std::vector<real> reference_;
};

TEST_P(ScatterStrategies, PrivatizedMatchesSerialAtomicReference) {
  const auto x = privatized_result({});
  EXPECT_LT(gaia::testing::rel_l2_error(x, reference_), 1e-12);
}

TEST_P(ScatterStrategies, PrivatizedMatchesAtomicOnSameBackend) {
  const KernelConfig cfg{64, 32};
  const auto atomic = result(ScatterStrategy::kAtomic, cfg);
  const auto priv = privatized_result(cfg);
  EXPECT_LT(gaia::testing::rel_l2_error(priv, atomic), 1e-12);
}

TEST_P(ScatterStrategies, WorkerCountSweepPreservesResults) {
  // scatter_workers is a pure function of the launch shape; every shape
  // (1 worker, odd counts, the kMaxScatterWorkers cap) must agree with
  // the reference under both commit steps.
  for (const ScatterStrategy strategy :
       {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
    for (const KernelConfig cfg :
         {KernelConfig{1, 1}, KernelConfig{2, 3}, KernelConfig{7, 5},
          KernelConfig{64, 32}, KernelConfig{300, 64},
          KernelConfig{1024, 256}}) {
      const auto x = result(strategy, cfg);
      EXPECT_LT(gaia::testing::rel_l2_error(x, reference_), 1e-12)
          << backends::to_string(strategy) << " cfg " << cfg.blocks << "x"
          << cfg.threads;
    }
  }
}

TEST_P(ScatterStrategies, BitIdenticalAcrossRepeatedRuns) {
  // The fold order is fixed by the worker count alone, and each worker
  // accumulates its row chunk sequentially — repeated runs at the same
  // shape must agree to the last bit, on every backend.
  const KernelConfig cfg{64, 32};
  const auto first = privatized_result(cfg);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto again = privatized_result(cfg);
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first[i], again[i]) << "element " << i << " run " << repeat;
  }
}

TEST_P(ScatterStrategies, DegenerateSingleStarSystem) {
  // A dozen rows: wide shapes give more workers than rows on the
  // backends that honour the launch shape, so most workers accumulate
  // an empty chunk and commit a zero slice.
  auto cfg = gaia::testing::small_config(29);
  cfg.n_stars = 1;
  const auto gen = matrix::generate_system(cfg);
  const SystemView view = SystemView::from(gen.A);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 5);

  std::vector<real> ref(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  run_scatters<backends::SerialExec>(view, y.data(), ref, {});

  const KernelConfig wide{300, 64};
  if (GetParam() == BackendKind::kGpuSim) {
    ASSERT_GT(backends::scatter_workers(GetParam(), wide), gen.A.n_rows());
  }
  for (const ScatterStrategy strategy :
       {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
    for (const KernelConfig shape : {KernelConfig{128, 64}, wide}) {
      std::vector<real> x(ref.size(), 0.0);
      backends::dispatch(GetParam(), [&](auto exec) {
        run_scatters<decltype(exec)>(view, y.data(), x,
                                     with_strategy(shape, strategy));
      });
      EXPECT_LT(gaia::testing::rel_l2_error(x, ref), 1e-12)
          << backends::to_string(strategy) << " " << shape.blocks;
    }
  }
}

TEST_P(ScatterStrategies, NoGlobalSectionIsANoop) {
  auto cfg = gaia::testing::small_config(31);
  cfg.has_global = false;
  const auto gen = matrix::generate_system(cfg);
  const SystemView view = SystemView::from(gen.A);
  EXPECT_EQ(scatter_section(view, KernelId::kAprod2Glob).len, 0);
  std::vector<real> ones(static_cast<std::size_t>(gen.A.n_rows()), 1.0);
  for (const ScatterStrategy strategy :
       {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
    backends::dispatch(GetParam(), [&](auto exec) {
      aprod2_glob<decltype(exec)>(view, ones.data(), x.data(),
                                  with_strategy({}, strategy));
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
  for (const ScatterStrategy strategy :
       {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
    const auto fused = registry_scatter(
        view, y, GetParam(), with_strategy({16, 32}, strategy), true);
    EXPECT_LT(gaia::testing::rel_l2_error(fused, ref), 1e-12)
        << backends::to_string(strategy);
  }
}

/// A view of the fixture system with every derived layout and reduced
/// precision built and attached.
struct AttachedSystem {
  explicit AttachedSystem(const matrix::SystemMatrix& A)
      : layouts(A), view(SystemView::from(A)) {
    layouts.build(StorageLayout::kSlicedInstr);  // implies SoA
    layouts.build_precision(Precision::kFp32);
    layouts.build_precision(Precision::kBf16s);
    view.attach_layout(layouts);
    view.attach_precision(layouts);
  }
  matrix::LayoutedSystem layouts;
  SystemView view;
};

constexpr std::array<StorageLayout, 3> kLayouts = {
    StorageLayout::kSeedAos, StorageLayout::kSoaTiled,
    StorageLayout::kSlicedInstr};
constexpr std::array<Precision, 3> kPrecisions = {
    Precision::kFp64, Precision::kFp32, Precision::kBf16s};

TEST_P(ScatterStrategies, AtomicCommitMatchesSeedOnAllLayoutsAndPrecisions) {
  // Reference per precision: the serial backend on the seed layout at
  // the same storage precision (accumulation is FP64 everywhere, and
  // every layout rounds the same coefficients). The atomic scatters and
  // the fused slot on both strategies must all agree with it; the fused
  // privatized result equals the separate privatized kernels bit for
  // bit, since each column sees the same adds in the same order.
  const AttachedSystem sys(gen_.A);
  for (const Precision precision : kPrecisions) {
    KernelConfig seed_cfg;
    seed_cfg.precision = precision;
    const auto ref =
        registry_scatter(sys.view, y_, BackendKind::kSerial, seed_cfg, false);
    for (const StorageLayout layout : kLayouts) {
      KernelConfig cfg{16, 32};
      cfg.layout = layout;
      cfg.precision = precision;
      const std::string label = std::string(backends::to_string(layout)) +
                                "/" + backends::to_string(precision);
      const auto atomic = registry_scatter(
          sys.view, y_, GetParam(),
          with_strategy(cfg, ScatterStrategy::kAtomic), false);
      EXPECT_LT(gaia::testing::rel_l2_error(atomic, ref), 1e-12) << label;
      for (const ScatterStrategy strategy :
           {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
        const auto fused = registry_scatter(
            sys.view, y_, GetParam(), with_strategy(cfg, strategy), true);
        EXPECT_LT(gaia::testing::rel_l2_error(fused, ref), 1e-12)
            << label << " fused " << backends::to_string(strategy);
      }
      const auto priv = with_strategy(cfg, ScatterStrategy::kPrivatized);
      const auto separate =
          registry_scatter(sys.view, y_, GetParam(), priv, false);
      const auto fused = registry_scatter(sys.view, y_, GetParam(), priv, true);
      for (std::size_t i = 0; i < fused.size(); ++i)
        ASSERT_EQ(fused[i], separate[i]) << label << " at " << i;
    }
  }
}

TEST_P(ScatterStrategies, AdjointIdentityThroughEveryRegisteredScatter) {
  // <A x, y> = <x, A^T y> through the registry, for every (layout,
  // precision) slot of this backend, with the three atomic scatters and
  // with the fused slot. No dense expansion: the gap is judged against
  // the summed magnitude of the products.
  const AttachedSystem sys(gen_.A);
  const tuning::KernelRegistry& reg = tuning::KernelRegistry::global();
  const auto x = random_vector(reference_.size(), 61);
  for (const StorageLayout layout : kLayouts) {
    for (const Precision precision : kPrecisions) {
      KernelConfig cfg{16, 32};
      cfg.layout = layout;
      cfg.precision = precision;
      tuning::LaunchArgs args;
      args.view = &sys.view;
      args.config = cfg;
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
        EXPECT_LT(std::abs(lhs - rhs), 1e-12 * scale)
            << backends::to_string(layout) << "/"
            << backends::to_string(precision) << (fused ? " fused" : "");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ScatterStrategies,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

TEST(ScatterStrategyCommit, SerialAtomicBitIdenticalToPrivatized) {
  // One worker: the atomic commit adds the single slice into x, the
  // privatized fold has nothing to combine — the same adds in the same
  // order, for the separate kernels and the fused slot alike.
  ensure_kernel_catalog();
  const auto gen = matrix::generate_system(gaia::testing::medium_config(71));
  const AttachedSystem sys(gen.A);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 73);
  for (const StorageLayout layout : kLayouts) {
    for (const bool fused : {false, true}) {
      KernelConfig cfg;
      cfg.layout = layout;
      const auto atomic = registry_scatter(
          sys.view, y, BackendKind::kSerial,
          with_strategy(cfg, ScatterStrategy::kAtomic), fused);
      const auto priv = registry_scatter(
          sys.view, y, BackendKind::kSerial,
          with_strategy(cfg, ScatterStrategy::kPrivatized), fused);
      for (std::size_t i = 0; i < atomic.size(); ++i)
        ASSERT_EQ(atomic[i], priv[i])
            << backends::to_string(layout) << (fused ? " fused" : "")
            << " at " << i;
    }
  }
}

TEST(ScatterStrategyCommit, PstlAtomicUnderTheGrainCommitsInRowOrder) {
  // PSTL's worker count is the pool size whatever the launch; the atomic
  // commit caps it at the chunks a PSTL loop over the rows would form,
  // so a launch under the grain runs one worker and equals the serial
  // result bit for bit, while a large launch keeps every worker.
  ensure_kernel_catalog();
  const KernelConfig cfg = with_strategy({}, ScatterStrategy::kAtomic);
  EXPECT_EQ(backends::atomic_scatter_workers(BackendKind::kPstl, 200, cfg), 1);
  EXPECT_EQ(
      backends::atomic_scatter_workers(BackendKind::kPstl, 1 << 24, cfg),
      backends::scatter_workers(BackendKind::kPstl, cfg));
  EXPECT_EQ(
      backends::atomic_scatter_workers(BackendKind::kGpuSim, 10, {300, 64}),
      backends::scatter_workers(BackendKind::kGpuSim, {300, 64}));

  auto small = gaia::testing::small_config(29);
  small.n_stars = 4;
  const auto gen = matrix::generate_system(small);
  ASSERT_LE(gen.A.n_rows(), 256);
  const SystemView view = SystemView::from(gen.A);
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 7);
  for (const bool fused : {false, true}) {
    const auto serial =
        registry_scatter(view, y, BackendKind::kSerial, cfg, fused);
    const auto pstl = registry_scatter(view, y, BackendKind::kPstl, cfg, fused);
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(pstl[i], serial[i]) << (fused ? "fused" : "separate") << " at "
                                    << i;
  }
}

/// Installs `strategy` on the three atomic kernels of a tuned table,
/// and optionally `layout` on every kernel.
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
  // The atomic commit issues W x section-length atomics per launch.
  // kernel_atomic_updates and the kernel.*.atomic_updates counters must
  // report exactly that — not the rows x nnz of a per-row atomic body.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(79));
  const SystemView host = SystemView::from(gen.A);
  for (KernelId id : kSharedScatters) {
    const auto len = static_cast<std::uint64_t>(scatter_section(host, id).len);
    EXPECT_EQ(kernel_atomic_updates(host, id, ScatterStrategy::kAtomic, 7),
              7 * len);
    EXPECT_EQ(kernel_atomic_updates(host, id, ScatterStrategy::kPrivatized, 7),
              0u);
  }
  EXPECT_EQ(kernel_atomic_updates(host, KernelId::kAprod2Astro,
                                  ScatterStrategy::kAtomic, 7),
            0u);

  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 83);
  auto counter = [&](const std::string& kernel, const char* strategy) {
    return reg
        .counter(obs::kernel_series_name(kernel, "gpusim", strategy,
                                         "atomic_updates"))
        .value();
  };
  // Aprod's aprod2 runs the fused scatter, which commits the whole
  // shared span per worker.
  for (const ScatterStrategy strategy :
       {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    opts.tuning = strategy_table(strategy);
    Aprod aprod(gen.A, device, opts);
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
    aprod.apply2(y, x);
    aprod.apply2(y, x);
  }
  const backends::TuningTable table = backends::TuningTable::tuned_default();
  const auto workers = [&](KernelId id) {
    return static_cast<std::uint64_t>(backends::atomic_scatter_workers(
        BackendKind::kGpuSim, gen.A.n_rows(), table.get(id)));
  };
  // The fused slot follows the strategy and shares kAprod2Att's shape.
  const auto fused_len =
      static_cast<std::uint64_t>(fused_scatter_section(host).len);
  EXPECT_EQ(counter("aprod2_fused", "atomic"),
            2 * workers(KernelId::kAprod2Att) * fused_len);
  EXPECT_EQ(reg.counter(obs::kernel_series_name("aprod2_fused", "gpusim",
                                                "privatized", "launches"))
                .value(),
            2u);
  reg.set_enabled(false);
  reg.reset();
}

TEST(ScatterStrategyDriver, PrivatizedTableMatchesAtomicThroughAprod) {
  // End-to-end through the registry routing: an Aprod whose tuning table
  // selects kPrivatized must produce the same apply2 as the atomic one.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(37));
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 11);

  auto apply2_with = [&](ScatterStrategy strategy) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    opts.tuning = strategy_table(strategy);
    Aprod aprod(gen.A, device, opts);
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
    aprod.apply2(y, x);
    return x;
  };
  const auto atomic = apply2_with(ScatterStrategy::kAtomic);
  const auto priv = apply2_with(ScatterStrategy::kPrivatized);
  EXPECT_LT(gaia::testing::rel_l2_error(priv, atomic), 1e-12);
}

TEST(ScatterStrategyDriver, DerivedLayoutsMatchSeedThroughAprod) {
  // End-to-end through Aprod's lazy layout path: a tuning table that
  // selects a derived storage layout makes the driver build and attach
  // the LayoutedSystem on first launch, and both aprod directions must
  // agree with the seed layout for either scatter strategy.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(53));
  const auto x_in = random_vector(static_cast<std::size_t>(gen.A.n_cols()), 19);
  const auto y_in = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 20);

  auto run_with = [&](ScatterStrategy strategy, StorageLayout layout) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    opts.tuning = strategy_table(strategy, layout);
    Aprod aprod(gen.A, device, opts);
    std::vector<real> y(y_in.size(), 0.0);
    std::vector<real> x(x_in.size(), 0.0);
    aprod.apply1(x_in, y);
    aprod.apply2(y_in, x);
    return std::pair{y, x};
  };

  const auto seed = run_with(ScatterStrategy::kAtomic, StorageLayout::kSeedAos);
  for (const auto layout :
       {StorageLayout::kSoaTiled, StorageLayout::kSlicedInstr}) {
    for (const auto strategy :
         {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
      const auto [y, x] = run_with(strategy, layout);
      EXPECT_LT(gaia::testing::rel_l2_error(y, seed.first), 1e-12)
          << backends::to_string(layout);
      EXPECT_LT(gaia::testing::rel_l2_error(x, seed.second), 1e-12)
          << backends::to_string(layout);
    }
  }
}

TEST(ScatterStrategyDriver, ArenaAllocatorSilentAfterFirstIteration) {
  // The pool contract: every buffer the scatters need is allocated during
  // the first apply2; after that the miss counter must not move —
  // iterations run allocation-free, whichever commit step runs.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(41));
  const auto y = random_vector(static_cast<std::size_t>(gen.A.n_rows()), 13);
  for (const ScatterStrategy strategy :
       {ScatterStrategy::kPrivatized, ScatterStrategy::kAtomic}) {
    backends::DeviceContext device;
    AprodOptions opts;
    opts.backend = BackendKind::kGpuSim;
    opts.tuning = strategy_table(strategy);
    Aprod aprod(gen.A, device, opts);
    std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);

    aprod.apply2(y, x);  // warm-up: populates the pool
    const std::uint64_t misses_after_warmup = aprod.scratch_arena().misses();
    EXPECT_GT(misses_after_warmup, 0u);  // the skeleton really ran
    EXPECT_GT(aprod.scratch_arena().pooled_bytes(), 0u);

    for (int iter = 0; iter < 5; ++iter) aprod.apply2(y, x);
    EXPECT_EQ(aprod.scratch_arena().misses(), misses_after_warmup)
        << backends::to_string(strategy);
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
  opts.tuning = strategy_table(ScatterStrategy::kPrivatized);
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
