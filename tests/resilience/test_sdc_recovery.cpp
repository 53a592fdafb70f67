/// End-to-end silent-data-corruption defense: a seeded bit flip in a
/// kernel output must be detected (same iteration, via the ABFT
/// checksums), contained (detect mode stops with a diagnosis; the
/// non-finite floor stops even with health off), and repaired (repair
/// mode rolls back and lands on the fault-free solution bit-for-bit) —
/// single-process and across simulated MPI ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lsqr.hpp"
#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/health_monitor.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

class SdcRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = matrix::generate_system(gaia::testing::small_config(17));
  }
  void TearDown() override {
    resilience::FaultInjector::global().disarm();
  }

  LsqrOptions options(resilience::HealthMode mode,
                      std::int64_t every = 5) const {
    LsqrOptions opts;
    // A deterministic solve, so "repaired == fault-free" can be
    // asserted bit-for-bit; serial keeps it cheap.
    opts.aprod.backend = backends::BackendKind::kSerial;
    opts.max_iterations = 24;
    opts.health.mode = mode;
    opts.health.check_every = every;
    return opts;
  }

  matrix::GeneratedSystem system_;
};

TEST_F(SdcRecoveryTest, DetectModeStopsAtTheFlipIteration) {
  // The flip lands pre-normalization and would be absorbed
  // self-consistently by the Golub-Kahan recurrence; the ABFT kernel
  // checksum is the detector with same-iteration latency.
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=51", 1746);
  const LsqrResult result =
      lsqr_solve(system_.A, options(resilience::HealthMode::kDetect));
  EXPECT_EQ(result.istop, LsqrStop::kSdcDetected);
  EXPECT_EQ(result.iterations, 8);
  EXPECT_EQ(result.health.detections, 1u);
  EXPECT_EQ(result.health.first_detection_iteration, 8);
  EXPECT_NE(result.health.last_diagnosis.find("kernel-checksum"),
            std::string::npos);
}

TEST_F(SdcRecoveryTest, RepairModeMatchesTheFaultFreeRunBitForBit) {
  const LsqrResult clean =
      lsqr_solve(system_.A, options(resilience::HealthMode::kOff));

  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=51", 1746);
  const LsqrResult repaired =
      lsqr_solve(system_.A, options(resilience::HealthMode::kRepair));
  EXPECT_EQ(repaired.istop, clean.istop);
  EXPECT_EQ(repaired.iterations, clean.iterations);
  EXPECT_EQ(repaired.health.detections, 1u);
  EXPECT_EQ(repaired.health.repairs, 1u);
  EXPECT_FALSE(repaired.health.unrepaired);
  // The injected clause fires once; the rollback/replay runs clean, so
  // the repaired trajectory IS the fault-free trajectory.
  ASSERT_EQ(repaired.x.size(), clean.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i)
    ASSERT_EQ(repaired.x[i], clean.x[i]) << "element " << i;
  EXPECT_EQ(repaired.rnorm, clean.rnorm);
}

TEST_F(SdcRecoveryTest, Aprod1FlipIsCaughtByItsOwnChecksum) {
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod1,iter=6,bit=55", 1746);
  const LsqrResult result =
      lsqr_solve(system_.A, options(resilience::HealthMode::kDetect));
  EXPECT_EQ(result.istop, LsqrStop::kSdcDetected);
  EXPECT_EQ(result.health.first_detection_iteration, 6);
  EXPECT_NE(result.health.last_diagnosis.find("aprod1"), std::string::npos);
}

TEST_F(SdcRecoveryTest, NonFiniteFloorStopsEvenWithHealthOff) {
  // Flipping the exponent's top bit drives the value to ~1e300 and the
  // norms overflow to inf within an iteration: even with monitoring off
  // the engine must refuse to iterate on a poisoned state.
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=62", 1746);
  const LsqrResult result =
      lsqr_solve(system_.A, options(resilience::HealthMode::kOff));
  EXPECT_EQ(result.istop, LsqrStop::kNonFinite);
  EXPECT_LT(result.iterations, 24);
  EXPECT_EQ(result.health.detections, 0u);  // floor, not the monitor
}

TEST_F(SdcRecoveryTest, ExhaustedRepairBudgetThrowsTheDiagnosis) {
  // count=10 > max_repairs: the flip re-fires on every replay, so the
  // rollback loop cannot win and must escalate to a diagnosed abort.
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=51,count=10", 1746);
  LsqrOptions opts = options(resilience::HealthMode::kRepair);
  opts.health.max_repairs = 2;
  try {
    (void)lsqr_solve(system_.A, opts);
    FAIL() << "expected SdcError";
  } catch (const resilience::SdcError& e) {
    EXPECT_EQ(e.verdict().invariant,
              resilience::HealthInvariant::kKernelChecksum);
    EXPECT_EQ(e.verdict().iteration, 8);
    EXPECT_NE(std::string(e.what()).find("unrepaired"), std::string::npos);
  }
}

TEST_F(SdcRecoveryTest, CleanRunNeverFalsePositives) {
  LsqrOptions opts = options(resilience::HealthMode::kDetect, 4);
  const LsqrResult result = lsqr_solve(system_.A, opts);
  EXPECT_EQ(result.health.detections, 0u);
  EXPECT_GT(result.health.checks, 0u);
  EXPECT_EQ(result.iterations, 24);
}

class DistSdcRecoveryTest : public SdcRecoveryTest {};

TEST_F(DistSdcRecoveryTest, MinorityRankFlipIsDetectedCollectively) {
  dist::DistLsqrOptions dopts;
  dopts.n_ranks = 3;
  dopts.lsqr = options(resilience::HealthMode::kDetect);
  // The flip lands on rank 1 *after* the allreduce, so only rank 1's
  // replica of v diverges — exactly the corruption a single-process
  // monitor can never see. Rank 1's local ABFT checksum catches it and
  // the verdict allreduce makes the stop collective.
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=51,rank=1", 1746);
  const dist::DistLsqrResult result = dist_lsqr_solve(system_.A, dopts);
  EXPECT_EQ(result.istop, LsqrStop::kSdcDetected);
  EXPECT_EQ(result.health.detections, 1u);
  EXPECT_EQ(result.health.first_detection_iteration, 8);
  EXPECT_NE(result.health.last_diagnosis.find("rank 1"), std::string::npos);
}

TEST_F(DistSdcRecoveryTest, RepairReplaysToTheFaultFreeSolution) {
  dist::DistLsqrOptions clean_opts;
  clean_opts.n_ranks = 3;
  clean_opts.lsqr = options(resilience::HealthMode::kOff);
  const dist::DistLsqrResult clean = dist_lsqr_solve(system_.A, clean_opts);

  dist::DistLsqrOptions dopts;
  dopts.n_ranks = 3;
  dopts.lsqr = options(resilience::HealthMode::kRepair);
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=51,rank=1", 1746);
  const dist::DistLsqrResult repaired = dist_lsqr_solve(system_.A, dopts);
  EXPECT_EQ(repaired.istop, clean.istop);
  EXPECT_EQ(repaired.iterations, clean.iterations);
  EXPECT_EQ(repaired.health.repairs, 1u);
  ASSERT_EQ(repaired.x.size(), clean.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i)
    ASSERT_EQ(repaired.x[i], clean.x[i]) << "element " << i;
}

TEST_F(DistSdcRecoveryTest, ExhaustedDistRepairBudgetThrows) {
  dist::DistLsqrOptions dopts;
  dopts.n_ranks = 2;
  dopts.lsqr = options(resilience::HealthMode::kRepair);
  dopts.lsqr.health.max_repairs = 1;
  resilience::FaultInjector::global().configure(
      "sdc:kernel=aprod2,iter=8,bit=51,count=10", 1746);
  EXPECT_THROW((void)dist_lsqr_solve(system_.A, dopts),
               resilience::SdcError);
}

}  // namespace
}  // namespace gaia::core
