/// End-to-end behavior of the autotuning pipeline through the solver
/// facade: a first run searches and seals the cache, a second run loads
/// it without searching, a different problem-shape bucket forces a
/// re-tune, shape-blind backends skip everything, checkpoints cross
/// tuning boundaries, and the dist solver broadcasts rank 0's winners.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "core/lsqr_engine.hpp"
#include "core/solver.hpp"
#include "dist/dist_lsqr.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gaia::core {
namespace {

namespace fs = std::filesystem;
using backends::BackendKind;

class AutotuneIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gaia_autotune_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string cache_path() const {
    return (dir_ / "tc.json").string();
  }

  /// Tiny problem + tight search budget: the whole search fits in a few
  /// warm-up rounds.
  [[nodiscard]] SolverRunConfig config(BackendKind backend) const {
    SolverRunConfig cfg;
    cfg.generator = gaia::testing::small_config(99);
    cfg.lsqr.aprod.backend = backend;
    cfg.lsqr.max_iterations = 3;
    cfg.autotune.enabled = true;
    cfg.autotune.cache_path = cache_path();
    cfg.autotune.search.samples_per_config = 1;
    cfg.autotune.search.max_configs_per_kernel = 3;
    return cfg;
  }

  fs::path dir_;
};

TEST_F(AutotuneIntegration, FirstRunSearchesAndSealsSecondRunLoads) {
  const SolverRunReport first = run_solver(config(BackendKind::kGpuSim));
  EXPECT_TRUE(first.autotune_enabled);
  EXPECT_FALSE(first.autotune_cache_hit);
  // The search covers the three identities the solve launches; the cache
  // seals the full table, so the second run loads every kernel's shape.
  EXPECT_EQ(first.kernels_tuned,
            static_cast<int>(tuning::kAprodPasses.size()));
  EXPECT_GT(first.tuning_trials, 0u);
  ASSERT_TRUE(fs::exists(cache_path()));

  const SolverRunReport second = run_solver(config(BackendKind::kGpuSim));
  EXPECT_TRUE(second.autotune_cache_hit);
  EXPECT_EQ(second.tuning_trials, 0u) << "cache hit must skip the search";
  EXPECT_EQ(second.kernels_tuned, backends::kNumKernels);
  // The cached winners are exactly what the first run settled on.
  EXPECT_EQ(second.tuning_used, first.tuning_used);
  // And both summaries name the outcome the operator greps for.
  EXPECT_NE(second.summary().find("search skipped"), std::string::npos);
  EXPECT_EQ(first.summary().find("search skipped"), std::string::npos);
}

TEST_F(AutotuneIntegration, DifferentShapeBucketForcesAFreshSearch) {
  run_solver(config(BackendKind::kGpuSim));
  ASSERT_TRUE(fs::exists(cache_path()));

  // An order-of-magnitude bigger system lands in another bucket: the
  // sealed winners do not apply and the search runs again.
  SolverRunConfig big = config(BackendKind::kGpuSim);
  big.generator = gaia::testing::medium_config(99);
  const SolverRunReport report = run_solver(big);
  EXPECT_FALSE(report.autotune_cache_hit);
  EXPECT_GT(report.tuning_trials, 0u);

  // The cache now holds both buckets; the small problem still hits.
  const SolverRunReport small_again = run_solver(config(BackendKind::kGpuSim));
  EXPECT_TRUE(small_again.autotune_cache_hit);
}

TEST_F(AutotuneIntegration, ShapeBlindBackendSkipsSearchAndCache) {
  for (BackendKind backend : {BackendKind::kSerial, BackendKind::kPstl}) {
    const SolverRunReport report = run_solver(config(backend));
    EXPECT_TRUE(report.autotune_enabled);
    EXPECT_FALSE(report.autotune_cache_hit);
    EXPECT_EQ(report.kernels_tuned, 0);
    EXPECT_EQ(report.tuning_trials, 0u);
    EXPECT_FALSE(fs::exists(cache_path()))
        << "nothing to seal for " << to_string(backend);
  }
}

TEST_F(AutotuneIntegration, AutotunedSolveMatchesUntunedNumerics) {
  SolverRunConfig untuned = config(BackendKind::kGpuSim);
  untuned.autotune.enabled = false;
  const SolverRunReport baseline = run_solver(untuned);
  const SolverRunReport tuned = run_solver(config(BackendKind::kGpuSim));
  EXPECT_EQ(tuned.result.iterations, baseline.result.iterations);
  // Launch shapes change scheduling, never the math.
  EXPECT_LT(gaia::testing::rel_l2_error(tuned.result.x, baseline.result.x),
            1e-10);
}

TEST_F(AutotuneIntegration, CheckpointsCrossTuningBoundaries) {
  // A checkpoint sealed by an untuned run must restore into an engine
  // running autotuned shapes (and vice versa): launch-shape tuning is
  // deliberately outside the problem fingerprint.
  auto gen = matrix::generate_system(gaia::testing::small_config(7));

  LsqrOptions untuned;
  untuned.aprod.backend = BackendKind::kGpuSim;
  untuned.aprod.tuning = backends::TuningTable::untuned({256, 256});
  untuned.max_iterations = 6;
  LsqrEngine writer(gen.A, untuned);
  writer.step();
  writer.step();
  std::ostringstream payload(std::ios::binary);
  writer.checkpoint(payload);

  LsqrOptions tuned = untuned;
  tuned.aprod.tuning = backends::TuningTable::tuned_default();
  LsqrEngine reader(gen.A, tuned);
  std::istringstream in(payload.str(), std::ios::binary);
  EXPECT_NO_THROW(reader.restore(in));
  EXPECT_EQ(reader.iteration(), 2);

  // The control: an actually different problem still refuses to load.
  auto other = matrix::generate_system(gaia::testing::small_config(8));
  LsqrEngine stranger(other.A, tuned);
  std::istringstream in2(payload.str(), std::ios::binary);
  EXPECT_THROW(stranger.restore(in2), Error);
}

TEST_F(AutotuneIntegration, DistAutotuneBroadcastKeepsRanksConsistent) {
  auto gen = matrix::generate_system(gaia::testing::medium_config(13));

  dist::DistLsqrOptions base;
  base.n_ranks = 3;
  base.lsqr.aprod.backend = BackendKind::kGpuSim;
  base.lsqr.max_iterations = 4;
  const dist::DistLsqrResult plain = dist::dist_lsqr_solve(gen.A, base);

  dist::DistLsqrOptions tuned = base;
  tuned.autotune = true;
  tuned.autotune_search.samples_per_config = 1;
  tuned.autotune_search.max_configs_per_kernel = 3;
  const dist::DistLsqrResult result = dist::dist_lsqr_solve(gen.A, tuned);

  // Rank 0 tuned and broadcast; every rank ran the same shapes, so the
  // collective trajectory is intact and matches the untuned solve.
  EXPECT_EQ(result.iterations, plain.iterations);
  EXPECT_TRUE(std::isfinite(result.rnorm));
  EXPECT_LT(gaia::testing::rel_l2_error(result.x, plain.x), 1e-8);
}

}  // namespace
}  // namespace gaia::core
