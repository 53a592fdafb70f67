/// \file test_layouts.cpp
/// \brief The retired storage-layout axis stays inert: building or
/// attaching a layout allocates nothing, every layout value launches the
/// row-record bodies through the registry, and a fixed config repeats
/// bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backends/scratch_arena.hpp"
#include "core/kernel_catalog.hpp"
#include "core/system_view.hpp"
#include "matrix/generator.hpp"
#include "matrix/layouted_system.hpp"
#include "matrix/storage_layout.hpp"
#include "test_helpers.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"

namespace gaia::matrix {
namespace {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;
using backends::ScatterStrategy;

/// Every data pointer and scalar of a view.
void expect_same_view(const core::SystemView& got,
                      const core::SystemView& want) {
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.idx_astro, want.idx_astro);
  EXPECT_EQ(got.idx_att, want.idx_att);
  EXPECT_EQ(got.instr_col, want.instr_col);
  EXPECT_EQ(got.star_row_start, want.star_row_start);
  EXPECT_EQ(got.n_rows, want.n_rows);
  EXPECT_EQ(got.n_cols, want.n_cols);
}

TEST(LayoutedSystem, SeedBuildIsANoop) {
  // Building any layout and attaching it leaves the view on the
  // matrix's own fp64 records: nothing is derived or converted.
  const auto gen = generate_system(gaia::testing::small_config(61));
  const core::SystemView seed = core::SystemView::from(gen.A);
  LayoutedSystem layouts(gen.A);
  for (int li = 0; li < kNumStorageLayouts; ++li)
    layouts.build(static_cast<StorageLayout>(li));
  core::SystemView view = seed;
  view.attach_layout(layouts);
  expect_same_view(view, seed);
  EXPECT_EQ(view.values, gen.A.values().data());
}

TEST(LayoutedSystem, BuildIsIdempotentAndDeterministic) {
  // Repeated builds and attaches, from one owner or two, keep every
  // launch on the same records: a fixed config gives the same bits.
  core::ensure_kernel_catalog();
  const auto gen = generate_system(gaia::testing::medium_config(64));
  const core::SystemView seed = core::SystemView::from(gen.A);
  LayoutedSystem a(gen.A);
  a.build(StorageLayout::kSlicedInstr);
  a.build(StorageLayout::kSlicedInstr);
  LayoutedSystem b(gen.A);
  b.build(StorageLayout::kSoaTiled);
  core::SystemView va = seed, vb = seed;
  va.attach_layout(a);
  vb.attach_layout(b);
  expect_same_view(va, seed);
  expect_same_view(vb, seed);

  util::Xoshiro256 rng(65);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  for (auto& v : x) v = rng.normal();
  const auto gather = [&](const core::SystemView& view) {
    std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()), 0.0);
    tuning::LaunchArgs args;
    args.view = &view;
    args.in = x.data();
    args.out = y.data();
    args.config = {16, 32};
    tuning::KernelRegistry::global().launch_fused(
        tuning::FusedPass::kGather, BackendKind::kSerial, args);
    return y;
  };
  EXPECT_EQ(gather(va), gather(seed));
  EXPECT_EQ(gather(vb), gather(seed));
}

/// Fixture for the registry sweep: one medium system and the serial
/// result at the default config as the reference for both aprod
/// directions. All launches go through the production registry.
class LayoutEquivalence : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    core::ensure_kernel_catalog();
    gen_ = generate_system(gaia::testing::medium_config(67));
    view_ = core::SystemView::from(gen_.A);

    util::Xoshiro256 rng(29);
    x_.resize(static_cast<std::size_t>(gen_.A.n_cols()));
    y_.resize(static_cast<std::size_t>(gen_.A.n_rows()));
    for (auto& v : x_) v = rng.normal();
    for (auto& v : y_) v = rng.normal();

    ref_y_ = run_aprod1(BackendKind::kSerial, {});
    ref_x_ = run_aprod2(BackendKind::kSerial, {});
  }

  std::vector<real> run_aprod1(BackendKind backend, KernelConfig cfg) {
    std::vector<real> y(y_.size(), 0.0);
    launch_group(backend, cfg, KernelId::kAprod1Astro, KernelId::kAprod1Glob,
                 x_.data(), y.data());
    return y;
  }

  std::vector<real> run_aprod2(BackendKind backend, KernelConfig cfg) {
    std::vector<real> x(x_.size(), 0.0);
    launch_group(backend, cfg, KernelId::kAprod2Astro, KernelId::kAprod2Glob,
                 y_.data(), x.data());
    return x;
  }

  matrix::GeneratedSystem gen_;
  core::SystemView view_{};
  std::vector<real> x_, y_;
  std::vector<real> ref_y_, ref_x_;

 private:
  void launch_group(BackendKind backend, KernelConfig cfg, KernelId first,
                    KernelId last, const real* in, real* out) {
    const auto& registry = tuning::KernelRegistry::global();
    backends::ScratchArena arena;
    for (int k = static_cast<int>(first); k <= static_cast<int>(last); ++k) {
      tuning::LaunchArgs args;
      args.view = &view_;
      args.in = in;
      args.out = out;
      args.config = cfg;
      args.arena = &arena;
      registry.launch(static_cast<KernelId>(k), backend, args);
    }
  }
};

/// `blocks x threads` (default {64, 32}), carrying `layout`.
KernelConfig shape(StorageLayout layout, std::int32_t blocks = 64,
                   std::int32_t threads = 32) {
  KernelConfig cfg{blocks, threads};
  cfg.layout = layout;
  return cfg;
}

TEST_P(LayoutEquivalence, AllLayoutsAndStrategiesMatchSerialSeed) {
  // Every retired layout and scatter-strategy value is inert: each
  // (layout, strategy) config matches the serial seed, at two launch
  // shapes (different thread counts over the same row blocks).
  for (int li = 0; li < kNumStorageLayouts; ++li) {
    for (const KernelConfig base :
         {shape(static_cast<StorageLayout>(li)),
          shape(static_cast<StorageLayout>(li), 2, 2)}) {
      for (const ScatterStrategy strategy :
           {ScatterStrategy::kAtomic, ScatterStrategy::kPrivatized}) {
        KernelConfig cfg = base;
        cfg.strategy = strategy;
        const auto y = run_aprod1(GetParam(), cfg);
        const auto x = run_aprod2(GetParam(), cfg);
        const std::string what =
            to_string(cfg.layout) + "/" + std::to_string(cfg.blocks) + "x" +
            std::to_string(cfg.threads) + "/" +
            std::to_string(static_cast<int>(strategy)) + "/" +
            backends::to_string(GetParam());
        EXPECT_LT(gaia::testing::rel_l2_error(y, ref_y_), 1e-12) << what;
        EXPECT_LT(gaia::testing::rel_l2_error(x, ref_x_), 1e-12) << what;
      }
    }
  }
}

TEST_P(LayoutEquivalence, FixedConfigRepeatsAreBitIdentical) {
  // A fixed launch shape is a reproducibility contract: repeats agree to
  // the last bit.
  for (int li = 0; li < kNumStorageLayouts; ++li) {
    const KernelConfig cfg = shape(static_cast<StorageLayout>(li));
    const auto y0 = run_aprod1(GetParam(), cfg);
    const auto x0 = run_aprod2(GetParam(), cfg);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto y = run_aprod1(GetParam(), cfg);
      const auto x = run_aprod2(GetParam(), cfg);
      for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], y0[i]) << "y[" << i << "] layout " << li;
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i], x0[i]) << "x[" << i << "] layout " << li;
    }
  }
}

TEST_P(LayoutEquivalence, UnattachedLayoutClampsToSeedSemantics) {
  // A config carrying a retired layout launches the row-record bodies:
  // both directions equal the seed-layout launch of the same shape bit
  // for bit (the system fixes the scatter's combine order).
  const auto seed_y = run_aprod1(GetParam(), shape(StorageLayout::kSeedAos));
  const auto seed_x = run_aprod2(GetParam(), shape(StorageLayout::kSeedAos));
  for (const StorageLayout layout :
       {StorageLayout::kSoaTiled, StorageLayout::kSlicedInstr}) {
    const KernelConfig cfg = shape(layout);
    const auto y = run_aprod1(GetParam(), cfg);
    const auto x = run_aprod2(GetParam(), cfg);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], seed_y[i]) << to_string(layout) << " y[" << i << "]";
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(x[i], seed_x[i]) << to_string(layout) << " x[" << i << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LayoutEquivalence,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

}  // namespace
}  // namespace gaia::matrix
