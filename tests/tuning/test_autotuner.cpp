/// The search contract: one greedy coordinate descent per kernel over
/// the pow-2 grid, medians as scores, atomic kernels seeded narrow,
/// shape-blind backends never searched, stale measurements ignored,
/// budget respected.
#include "tuning/autotuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace gaia::tuning {
namespace {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;

/// Synthetic oracle with a unique grid minimum: time grows with the
/// log-distance from (best_blocks, best_threads), so coordinate descent
/// must walk downhill to it from any seed.
double oracle_seconds(KernelConfig cfg, std::int32_t best_blocks,
                      std::int32_t best_threads) {
  const double db = std::log2(static_cast<double>(cfg.blocks)) -
                    std::log2(static_cast<double>(best_blocks));
  const double dt = std::log2(static_cast<double>(cfg.threads)) -
                    std::log2(static_cast<double>(best_threads));
  return 1e-3 * (1.0 + std::abs(db) + std::abs(dt));
}

/// Drives one kernel's search against the oracle to completion.
void search_kernel(Autotuner& tuner, KernelId id, std::int32_t best_blocks,
                   std::int32_t best_threads, int max_steps = 1000) {
  for (int step = 0; step < max_steps && tuner.searching(id); ++step) {
    const KernelConfig cfg = tuner.propose(id);
    tuner.report(id, cfg, oracle_seconds(cfg, best_blocks, best_threads));
  }
  ASSERT_FALSE(tuner.searching(id));
}

AutotuneOptions one_sample() {
  AutotuneOptions opts;
  opts.samples_per_config = 1;
  opts.max_configs_per_kernel = 64;  // let the descent run to its end
  return opts;
}

TEST(Autotuner, InactiveOnShapeBlindBackends) {
  for (BackendKind kind : {BackendKind::kSerial, BackendKind::kPstl}) {
    Autotuner tuner(kind);
    EXPECT_FALSE(tuner.active()) << to_string(kind);
    for (KernelId id : backends::all_kernels()) {
      EXPECT_FALSE(tuner.searching(id));
      EXPECT_TRUE(tuner.propose(id).is_default());
      EXPECT_FALSE(tuner.report(id, {32, 32}, 1e-3));
    }
    EXPECT_EQ(tuner.trials(), 0u);
    // apply_winners must leave the base table untouched.
    const auto base = backends::TuningTable::tuned_default();
    EXPECT_EQ(tuner.apply_winners(base), base);
  }
}

TEST(Autotuner, ActiveOnShapeHonoringBackends) {
  for (BackendKind kind : {BackendKind::kOpenMP, BackendKind::kGpuSim}) {
    Autotuner tuner(kind);
    EXPECT_TRUE(tuner.active()) << to_string(kind);
  }
}

TEST(Autotuner, AtomicKernelsSeedNarrowGathersSeedWide) {
  Autotuner tuner(BackendKind::kGpuSim);
  // First proposal == the seed of the descent (the paper's prior).
  EXPECT_EQ(tuner.propose(KernelId::kAprod2Att), (KernelConfig{32, 32}));
  EXPECT_EQ(tuner.propose(KernelId::kAprod2Glob), (KernelConfig{32, 32}));
  EXPECT_EQ(tuner.propose(KernelId::kAprod1Astro), (KernelConfig{128, 128}));
  EXPECT_EQ(tuner.propose(KernelId::kAprod2Astro), (KernelConfig{128, 128}));
}

TEST(Autotuner, DescentConvergesToTheOracleMinimum) {
  Autotuner tuner(BackendKind::kGpuSim, one_sample());
  // Minima chosen off-seed on both axes so the descent has to move.
  search_kernel(tuner, KernelId::kAprod1Astro, 256, 512);
  EXPECT_EQ(tuner.best(KernelId::kAprod1Astro), (KernelConfig{256, 512}));
  search_kernel(tuner, KernelId::kAprod2Att, 8, 128);
  EXPECT_EQ(tuner.best(KernelId::kAprod2Att), (KernelConfig{8, 128}));
  EXPECT_NEAR(tuner.best_median_s(KernelId::kAprod2Att), 1e-3, 1e-9);
}

TEST(Autotuner, MedianOfSamplesScoresACandidate) {
  AutotuneOptions opts;
  opts.samples_per_config = 3;
  Autotuner tuner(BackendKind::kGpuSim, opts);
  const KernelId id = KernelId::kAprod1Att;
  const KernelConfig seed = tuner.propose(id);
  // One wild outlier must not poison the score: median(1ms, 1ms, 1s).
  EXPECT_FALSE(tuner.report(id, seed, 1e-3));
  EXPECT_FALSE(tuner.report(id, seed, 1.0));
  tuner.report(id, seed, 1e-3);
  EXPECT_EQ(tuner.best(id), seed);
  EXPECT_NEAR(tuner.best_median_s(id), 1e-3, 1e-12);
}

TEST(Autotuner, StaleReportsAreIgnored) {
  Autotuner tuner(BackendKind::kGpuSim, one_sample());
  const KernelId id = KernelId::kAprod1Astro;
  const KernelConfig current = tuner.propose(id);
  const KernelConfig stale{current.blocks * 2, current.threads};
  // A failover launch ran elsewhere: its timing must not be scored.
  EXPECT_FALSE(tuner.report(id, stale, 1e-9));
  EXPECT_EQ(tuner.trials(), 0u);
  EXPECT_TRUE(tuner.best(id).is_default());  // nothing scored yet
  // The real candidate still scores normally afterwards.
  tuner.report(id, current, 1e-3);
  EXPECT_EQ(tuner.best(id), current);
}

TEST(Autotuner, BudgetCapsTheSearch) {
  AutotuneOptions opts = one_sample();
  opts.max_configs_per_kernel = 1;
  Autotuner tuner(BackendKind::kGpuSim, opts);
  const KernelId id = KernelId::kAprod2Instr;
  const KernelConfig seed = tuner.propose(id);
  // The very first scored candidate exhausts the budget and closes the
  // search — report() returns true exactly on the closing call.
  EXPECT_TRUE(tuner.report(id, seed, 1e-3));
  EXPECT_FALSE(tuner.searching(id));
  EXPECT_EQ(tuner.best(id), seed);
  EXPECT_EQ(tuner.trials(), 1u);
}

TEST(Autotuner, FinishClosesEverySearchKeepingWinners) {
  Autotuner tuner(BackendKind::kGpuSim, one_sample());
  const KernelId id = KernelId::kAprod1Glob;
  const KernelConfig seed = tuner.propose(id);
  tuner.report(id, seed, 1e-3);
  tuner.finish();
  EXPECT_FALSE(tuner.active());
  EXPECT_EQ(tuner.best(id), seed);
  // Unscored kernels stay at the base shape when winners are applied.
  const auto base = backends::TuningTable::untuned({64, 64});
  const auto tuned = tuner.apply_winners(base);
  EXPECT_EQ(tuned.get(id), seed);
  EXPECT_EQ(tuned.get(KernelId::kAprod2Att), (KernelConfig{64, 64}));
}

TEST(Autotuner, ProposeAfterCloseReturnsTheWinner) {
  AutotuneOptions opts = one_sample();
  opts.max_configs_per_kernel = 1;
  Autotuner tuner(BackendKind::kGpuSim, opts);
  const KernelId id = KernelId::kAprod1Instr;
  const KernelConfig seed = tuner.propose(id);
  tuner.report(id, seed, 1e-3);
  EXPECT_EQ(tuner.propose(id), seed);  // steady state: best known shape
}

TEST(Autotuner, InvalidSearchOptionsAreRejected) {
  AutotuneOptions bad_samples;
  bad_samples.samples_per_config = 0;
  EXPECT_THROW(Autotuner(BackendKind::kGpuSim, bad_samples), Error);

  AutotuneOptions bad_grid;
  bad_grid.block_grid = {-8, 16};
  EXPECT_THROW(Autotuner(BackendKind::kGpuSim, bad_grid), Error);

  AutotuneOptions empty_grid;
  empty_grid.thread_grid.clear();
  EXPECT_THROW(Autotuner(BackendKind::kGpuSim, empty_grid), Error);
}

TEST(Autotuner, PinnedPrivatizedSearchesOnlyThatArm) {
  // A scatter kernel has no strategy or precision arm left: it runs one
  // descent from its narrow seed, and every candidate carries the
  // default (inert) strategy and precision fields.
  Autotuner tuner(BackendKind::kGpuSim, one_sample());
  const KernelId id = KernelId::kAprod2Att;
  EXPECT_EQ(tuner.propose(id), (KernelConfig{32, 32}));
  for (int step = 0; step < 1000 && tuner.searching(id); ++step) {
    const KernelConfig cfg = tuner.propose(id);
    EXPECT_EQ(cfg.strategy, KernelConfig{}.strategy);
    EXPECT_EQ(cfg.precision, backends::Precision::kFp64);
    tuner.report(id, cfg, oracle_seconds(cfg, 64, 128));
  }
  ASSERT_FALSE(tuner.searching(id));
  EXPECT_EQ(tuner.best(id), (KernelConfig{64, 128}));
  // The grid holds 6 x 5 shapes; one descent scores each at most once.
  EXPECT_LE(tuner.trials(), 30u);
}

TEST(Autotuner, OpenStrategyAxisMeasuresBothArmsAndKeepsTheFaster) {
  // There is one arm per kernel: the descent measures the seed's
  // neighbours and keeps whichever shape measured faster, so the winner
  // and its median are the fastest shape scored. Oracle: a single
  // faster shape next to the seed, everything else uniformly slow.
  Autotuner tuner(BackendKind::kGpuSim, one_sample());
  const KernelId id = KernelId::kAprod2Att;
  const KernelConfig faster{64, 32};
  std::vector<KernelConfig> scored;
  for (int step = 0; step < 1000 && tuner.searching(id); ++step) {
    const KernelConfig cfg = tuner.propose(id);
    scored.push_back(cfg);
    tuner.report(id, cfg, cfg == faster ? 1e-3 / 3 : 1e-3);
  }
  ASSERT_FALSE(tuner.searching(id));
  EXPECT_EQ(tuner.best(id), faster);
  EXPECT_NEAR(tuner.best_median_s(id), 1e-3 / 3, 1e-12);
  // The seed, its three neighbours (it sits on the thread grid's
  // lower edge), then the faster shape's two unvisited neighbours: each
  // scored once, none twice.
  EXPECT_EQ(scored.size(), 6u);
  EXPECT_EQ(tuner.trials(), 6u);
}

TEST(Autotuner, OpenStrategyAxisKeepsAtomicWhenItWins) {
  // When the narrow seed of a scatter kernel is the fastest shape, the
  // search keeps it: its three neighbours are scored, none improves,
  // and the search closes on the seed.
  Autotuner tuner(BackendKind::kGpuSim, one_sample());
  const KernelId id = KernelId::kAprod2Glob;
  search_kernel(tuner, id, 32, 32);
  EXPECT_EQ(tuner.best(id), (KernelConfig{32, 32}));
  EXPECT_EQ(tuner.trials(), 4u);
}

}  // namespace
}  // namespace gaia::tuning
