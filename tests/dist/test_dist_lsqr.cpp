#include "dist/dist_lsqr.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string_view>
#include <utility>

#include "core/lsqr_engine.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace gaia::dist {
namespace {

core::LsqrOptions solver_options() {
  core::LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 300;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  return opts;
}

class DistLsqr : public ::testing::TestWithParam<int> {};

TEST_P(DistLsqr, MatchesSingleProcessSolution) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(100));
  const auto reference = core::lsqr_solve(gen.A, solver_options());

  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = solver_options();
  const auto dist = dist_lsqr_solve(gen.A, opts);

  EXPECT_LT(gaia::testing::rel_l2_error(dist.x, reference.x), 1e-8)
      << "ranks=" << GetParam();
  // Rank 0's exit estimates, the ones the summary prints, are the
  // single-process solve's. They are compared over a fixed 20
  // iterations: other rank counts sum in another order, and once the
  // Lanczos vectors lose orthogonality the estimate trajectories drift
  // apart (anorm by ~1e-4 after 60 iterations, as between two
  // single-process launch shapes), and the converged stop can fire one
  // iteration apart.
  core::LsqrOptions fixed = solver_options();
  fixed.atol = 0;
  fixed.btol = 0;
  fixed.max_iterations = 20;
  const auto single = core::lsqr_solve(gen.A, fixed);
  opts.lsqr = fixed;
  const auto short_dist = dist_lsqr_solve(gen.A, opts);
  const std::pair<const char*, std::pair<real, real>> estimates[] = {
      {"anorm", {short_dist.anorm, single.anorm}},
      {"acond", {short_dist.acond, single.acond}},
      {"rnorm", {short_dist.rnorm, single.rnorm}},
      {"arnorm", {short_dist.arnorm, single.arnorm}},
      {"xnorm", {short_dist.xnorm, single.xnorm}}};
  for (const auto& [name, values] : estimates) {
    EXPECT_GT(values.second, 0.0) << name;
    EXPECT_NEAR(values.first, values.second, 1e-8 * values.second)
        << name << " ranks=" << GetParam();
  }
}

TEST_P(DistLsqr, MatchesDenseLeastSquares) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(101));
  const auto M = matrix::to_dense(gen.A);
  const auto x_ref = matrix::dense_least_squares(
      M, gen.A.n_rows(), gen.A.n_cols(), gen.A.known_terms());

  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = solver_options();
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_LT(gaia::testing::rel_l2_error(dist.x, x_ref), 1e-6);
}

TEST_P(DistLsqr, StdErrorsMatchSingleProcess) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(102));
  auto single_opts = solver_options();
  // Fixed iteration count: the serial solver has extra machine-precision
  // stopping tests, and the variance accumulator depends on the exact
  // iteration the solvers stop at.
  single_opts.atol = 0;
  single_opts.btol = 0;
  single_opts.max_iterations = 200;
  single_opts.compute_std_errors = true;
  const auto reference = core::lsqr_solve(gen.A, single_opts);

  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = single_opts;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  ASSERT_EQ(dist.std_errors.size(), reference.std_errors.size());
  // The variance accumulator is history-dependent: the Lanczos vectors'
  // trajectories diverge at roundoff level between the two reduction
  // orders and do not re-contract the way the solution does, so the
  // error *estimates* agree to ~1e-4, not 1e-8 (expected for LSQR).
  EXPECT_LT(gaia::testing::rel_l2_error(dist.std_errors,
                                        reference.std_errors),
            5e-3);
}

TEST_P(DistLsqr, IterationTimesAreMaxOverRanksAndPositive) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(103));
  DistLsqrOptions opts;
  opts.n_ranks = GetParam();
  opts.lsqr = solver_options();
  opts.lsqr.max_iterations = 10;
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_EQ(dist.iterations, 10);
  ASSERT_EQ(dist.iteration_seconds.size(), 10u);
  for (double t : dist.iteration_seconds) EXPECT_GT(t, 0.0);
  EXPECT_GT(dist.mean_iteration_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistLsqr, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(DistLsqrParallelBackend, GpuSimBackendAgreesAcrossRanks) {
  // Parallel backend inside each rank + multi-rank reduction.
  const auto gen = matrix::generate_system(gaia::testing::small_config(104));
  auto opts_core = solver_options();
  opts_core.aprod.backend = backends::BackendKind::kGpuSim;
  const auto reference = core::lsqr_solve(gen.A, opts_core);

  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = opts_core;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_LT(gaia::testing::rel_l2_error(dist.x, reference.x), 1e-7);
}

TEST(DistLsqrStopping, ConlimStopsLikeTheSingleProcessSolve) {
  // The reference stopping rules — conlim and the machine-precision
  // tests included — apply on every rank count, not only atol/btol.
  const auto gen = matrix::generate_system(gaia::testing::small_config(106));
  auto opts = solver_options();
  opts.atol = 0;
  opts.btol = 0;
  opts.conlim = 10;
  const auto single = core::lsqr_solve(gen.A, opts);
  const auto conlim_stop = [](core::LsqrStop stop) {
    return stop == core::LsqrStop::kConlim ||
           stop == core::LsqrStop::kConlimEps;
  };
  ASSERT_TRUE(conlim_stop(single.istop)) << core::to_string(single.istop);
  ASSERT_LT(single.iterations, opts.max_iterations);

  DistLsqrOptions dopts;
  dopts.n_ranks = 3;
  dopts.lsqr = opts;
  const auto dist = dist_lsqr_solve(gen.A, dopts);
  EXPECT_TRUE(conlim_stop(dist.istop)) << core::to_string(dist.istop);
  EXPECT_NEAR(static_cast<double>(dist.iterations),
              static_cast<double>(single.iterations), 1.0);
}

/// dist.rank.comm.collectives of every rank: collectives of the loop.
std::vector<std::uint64_t> loop_collectives(const DistLsqrResult& result) {
  std::vector<std::uint64_t> counts;
  for (const auto& rows : result.rank_metrics)
    for (const auto& row : rows)
      if (row.name == "dist.rank.comm.collectives") counts.push_back(row.count);
  return counts;
}

TEST(DistLsqrCollectives, HealthOffIssuesTwoPerIteration) {
  // The step's q partials with ||p||^2 in one extra slot, and the
  // iteration-time maximum: monitoring off adds no collective.
  const auto gen = matrix::generate_system(gaia::testing::small_config(107));
  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = solver_options();
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  opts.lsqr.max_iterations = 12;
  const auto result = dist_lsqr_solve(gen.A, opts);
  ASSERT_EQ(result.iterations, 12);
  const auto counts = loop_collectives(result);
  ASSERT_EQ(counts.size(), 3u);
  for (std::uint64_t c : counts) EXPECT_EQ(c, 2u * 12u);
}

TEST(DistLsqrCollectives, HealthAddsAtMostTheUnitNormCheckPerDeepPass) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(107));
  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = solver_options();
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  opts.lsqr.max_iterations = 12;
  opts.lsqr.health.mode = resilience::HealthMode::kDetect;
  opts.lsqr.health.check_every = 4;
  const auto result = dist_lsqr_solve(gen.A, opts);
  ASSERT_EQ(result.iterations, 12);
  ASSERT_EQ(result.health.checks, 3u);
  // Per iteration: the two above, the ABFT row_check . p term and the
  // worst-verdict agreement; per deep pass: the state-hash min and max,
  // the true-residual sum and the u unit-norm check.
  const std::uint64_t without_unit_norm = 4u * 12u + 3u * 3u;
  const auto counts = loop_collectives(result);
  ASSERT_EQ(counts.size(), 3u);
  for (std::uint64_t c : counts) {
    EXPECT_GE(c, without_unit_norm);
    EXPECT_LE(c, without_unit_norm + 3u);
  }
}

TEST(DistLayerRecord, ThreeRankEnginesRecordIntoOneRegistry) {
  // Each rank's engine publishes its layer record into the one
  // process-wide registry: every row gets a sample per rank and
  // iteration, and the step's own collectives fill the comm row.
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_all();
  reg.set_enabled(true);
  const auto gen = matrix::generate_system(gaia::testing::small_config(108));
  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = solver_options();
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  opts.lsqr.max_iterations = 8;
  const auto result = dist_lsqr_solve(gen.A, opts);
  reg.set_enabled(false);
  ASSERT_EQ(result.iterations, 8);
  const auto row = [&reg](std::string_view layer) {
    return reg.histogram(core::layer_metric_name(layer)).summary();
  };
  for (const std::string_view layer : core::kLayerRows)
    EXPECT_EQ(row(layer).count, 3u * 8u) << layer;
  EXPECT_GT(row("comm").sum, 0.0);
  EXPECT_GE(row("unattributed").min, 0.0);
  reg.reset_all();
}

TEST(DistLsqrCheckpoint, ThreeRankCheckpointResumesInOneProcess) {
  // One checkpoint format for every rank count: u is stored assembled
  // and the fingerprint binds the global system, so a single-process
  // engine picks up where three ranks left off.
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "gaia_dist_ckpt_one_process";
  std::filesystem::remove_all(dir);
  const auto gen = matrix::generate_system(gaia::testing::small_config(108));
  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = solver_options();
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  opts.lsqr.max_iterations = 10;
  opts.checkpoint.directory = dir.string();
  opts.checkpoint.every = 5;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  ASSERT_EQ(dist.checkpoints_written, 1u);

  resilience::CheckpointManager manager(opts.checkpoint);
  core::LsqrEngine engine(gen.A, opts.lsqr);
  EXPECT_EQ(engine.use_checkpoints(manager), 5);
  engine.run_to_completion();
  EXPECT_EQ(engine.iteration(), 10);
  EXPECT_LT(gaia::testing::rel_l2_error(engine.result().x, dist.x), 1e-10);
  std::filesystem::remove_all(dir);
}

TEST(DistLsqrValidation, PartitionRecordedInResult) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(105));
  DistLsqrOptions opts;
  opts.n_ranks = 2;
  opts.lsqr = solver_options();
  opts.lsqr.max_iterations = 5;
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  const auto dist = dist_lsqr_solve(gen.A, opts);
  EXPECT_EQ(dist.partition.n_ranks, 2);
  EXPECT_EQ(dist.partition.row_begin.back(), gen.A.n_obs());
}

}  // namespace
}  // namespace gaia::dist
