/// \file test_recovery.cpp
/// \brief End-to-end resilience properties: solves under injected faults
/// must converge to the fault-free answer, and the full acceptance
/// scenario (rank death + corrupt newest checkpoint) must auto-resume
/// from the newest *valid* checkpoint on the shrunk rank set.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/lsqr.hpp"
#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_injector.hpp"
#include "test_helpers.hpp"

namespace gaia::resilience {
namespace {

namespace fs = std::filesystem;
using backends::BackendKind;

core::LsqrOptions fast_retry_options(BackendKind backend) {
  core::LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.max_iterations = 60;
  opts.aprod.retry.base_delay = std::chrono::microseconds(1);
  opts.aprod.retry.max_delay = std::chrono::microseconds(4);
  return opts;
}

class RecoveryTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void TearDown() override {
    FaultInjector::global().disarm();
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }
};

/// Satellite 3: on every backend, a run peppered with transient kernel
/// and transfer faults retries its way through and lands on the same
/// solution as the fault-free run.
TEST_P(RecoveryTest, TransientFaultsRetryToTheFaultFreeSolution) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(160));
  const auto opts = fast_retry_options(GetParam());
  const auto healthy = core::lsqr_solve(gen.A, opts);

  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  FaultInjector::global().configure(
      "kernel:p=0.05;h2d:p=0.01;d2h:p=0.01,mode=corrupt", 9);
  const auto faulted = core::lsqr_solve(gen.A, opts);

  EXPECT_GT(FaultInjector::global().injected_total(), 0u);
  EXPECT_GT(reg.counter("resilience.retries").value(), 0u);
  ASSERT_EQ(faulted.iterations, healthy.iterations);
  // An injected fault fires *before* the kernel body runs, so a retried
  // launch repeats identical work, and every backend a failover may
  // reach sums in the order the system fixes: the trajectory is bitwise
  // unchanged on every backend.
  for (std::size_t i = 0; i < healthy.x.size(); ++i)
    ASSERT_EQ(faulted.x[i], healthy.x[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Backends, RecoveryTest,
                         ::testing::Values(BackendKind::kSerial,
                                           BackendKind::kOpenMP,
                                           BackendKind::kPstl,
                                           BackendKind::kGpuSim),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

/// The ISSUE acceptance scenario: rank 1 dies entering iteration 12 and
/// the newest checkpoint (sealed at iteration 10) was truncated on
/// disk. The solve must restart on the two survivors, resume from the
/// older iteration-5 checkpoint, and still converge to the fault-free
/// solution — with the whole recovery visible in the metrics.
TEST(RecoveryAcceptance, RankDeathWithCorruptNewestCheckpointAutoResumes) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gaia_recovery_acceptance";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto gen = matrix::generate_system(gaia::testing::small_config(161));
  dist::DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr = fast_retry_options(BackendKind::kSerial);
  opts.lsqr.max_iterations = 300;
  opts.lsqr.atol = 1e-12;
  opts.lsqr.btol = 1e-12;
  opts.checkpoint.directory = dir.string();
  opts.checkpoint.every = 5;
  opts.checkpoint.keep_last = 3;
  opts.max_restarts = 3;

  const auto healthy = dist::dist_lsqr_solve(gen.A, [&] {
    auto o = opts;
    o.checkpoint = {};  // reference run: no checkpoints, no faults
    return o;
  }());

  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  FaultInjector::global().configure("rank:iter=12,rank=1;ckpt:truncate,nth=2",
                                    1746);
  ::testing::internal::CaptureStderr();
  const auto recovered = dist::dist_lsqr_solve(gen.A, opts);
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  FaultInjector::global().disarm();
  reg.set_enabled(false);

  EXPECT_EQ(recovered.restarts, 1);
  EXPECT_EQ(recovered.final_ranks, 2);
  // Checkpoints were sealed at iterations 5 and 10 before the death at
  // 12, the second one truncated by the injector — so the resume must
  // skip it and fall back to iteration 5.
  EXPECT_EQ(recovered.resumed_from_iteration, 5);
  EXPECT_GE(recovered.checkpoints_written, 2u);
  EXPECT_NE(warnings.find("died at iteration"), std::string::npos) << warnings;

  // Recovery milestones surfaced through the metrics registry.
  EXPECT_EQ(reg.counter("resilience.rank_death.recovered").value(), 1u);
  EXPECT_GE(reg.counter("resilience.checkpoint.resumed").value(), 1u);
  EXPECT_GE(reg.counter("resilience.checkpoint.skipped").value(), 1u);

  // Both runs converge; the recovered one took a detour but lands on
  // the same least-squares solution.
  EXPECT_LT(gaia::testing::rel_l2_error(recovered.x, healthy.x), 1e-6);

  reg.reset();
  fs::remove_all(dir);
}

/// With checkpointing disabled a rank death still recovers — the solve
/// restarts from iteration 0 on the survivors.
TEST(RecoveryAcceptance, RankDeathWithoutCheckpointsRestartsFromScratch) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(162));
  dist::DistLsqrOptions opts;
  opts.n_ranks = 2;
  opts.lsqr = fast_retry_options(BackendKind::kSerial);
  opts.lsqr.max_iterations = 20;

  FaultInjector::global().configure("rank:iter=3,rank=0", 1);
  ::testing::internal::CaptureStderr();
  const auto recovered = dist::dist_lsqr_solve(gen.A, opts);
  (void)::testing::internal::GetCapturedStderr();
  FaultInjector::global().disarm();

  EXPECT_EQ(recovered.restarts, 1);
  EXPECT_EQ(recovered.final_ranks, 1);
  EXPECT_EQ(recovered.resumed_from_iteration, -1);  // no checkpoint to resume
  EXPECT_EQ(recovered.iterations, 20);
}

/// Exhausting the restart budget propagates the death as a clean error.
TEST(RecoveryAcceptance, RestartBudgetExhaustionPropagatesRankDeath) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(163));
  dist::DistLsqrOptions opts;
  opts.n_ranks = 2;
  opts.lsqr = fast_retry_options(BackendKind::kSerial);
  opts.lsqr.max_iterations = 20;
  opts.max_restarts = 0;

  FaultInjector::global().configure("rank:iter=3,rank=0", 1);
  EXPECT_THROW((void)dist::dist_lsqr_solve(gen.A, opts), RankDeath);
  FaultInjector::global().disarm();
}

}  // namespace
}  // namespace gaia::resilience
