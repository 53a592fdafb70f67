#include "resilience/failover.hpp"

#include <gtest/gtest.h>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_injector.hpp"
#include "test_helpers.hpp"

namespace gaia::resilience {
namespace {

using backends::BackendKind;

class FailoverTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::global().disarm();
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }

  static core::LsqrOptions options(BackendKind backend) {
    core::LsqrOptions opts;
    opts.aprod.backend = backend;
    opts.max_iterations = 40;
    // Keep injected-fault tests fast: the structure of the backoff is
    // under test elsewhere, not the wall-clock delays.
    opts.aprod.retry.base_delay = std::chrono::microseconds(1);
    opts.aprod.retry.max_delay = std::chrono::microseconds(4);
    return opts;
  }
};

TEST_F(FailoverTest, DegradationChainStepsDownToSerial) {
  EXPECT_EQ(next_backend(BackendKind::kGpuSim), BackendKind::kOpenMP);
  EXPECT_EQ(next_backend(BackendKind::kPstl), BackendKind::kOpenMP);
  EXPECT_EQ(next_backend(BackendKind::kOpenMP), BackendKind::kSerial);
  EXPECT_EQ(next_backend(BackendKind::kSerial), std::nullopt);
}

TEST_F(FailoverTest, PersistentGpusimFaultFailsOverAndStillConverges) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(150));
  const auto healthy = core::lsqr_solve(gen.A, options(BackendKind::kGpuSim));
  ASSERT_EQ(healthy.final_backend, BackendKind::kGpuSim);
  EXPECT_EQ(healthy.failovers, 0u);

  // Every gpusim launch fails; the retry budget escalates the fault to
  // persistent and the run steps down the chain.
  FaultInjector::global().configure("kernel:p=1,backend=gpusim", 7);
  const auto degraded = core::lsqr_solve(gen.A, options(BackendKind::kGpuSim));
  EXPECT_NE(degraded.final_backend, BackendKind::kGpuSim);
  EXPECT_GE(degraded.failovers, 1u);
  ASSERT_EQ(degraded.iterations, healthy.iterations);
  // Every backend computes the same answer (SV-C), so the failed-over
  // run agrees with the healthy one up to accumulation-order roundoff.
  EXPECT_LT(gaia::testing::rel_l2_error(degraded.x, healthy.x), 1e-2);
  EXPECT_NEAR(degraded.rnorm, healthy.rnorm,
              1e-3 * std::max<real>(1, healthy.rnorm));
}

TEST_F(FailoverTest, FailoverDisabledPropagatesThePersistentFault) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(151));
  FaultInjector::global().configure("kernel:p=1,backend=gpusim", 7);
  auto opts = options(BackendKind::kGpuSim);
  opts.aprod.failover = false;
  EXPECT_THROW((void)core::lsqr_solve(gen.A, opts), PersistentFault);
}

TEST_F(FailoverTest, ExhaustedChainPropagatesThePersistentFault) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(152));
  // No backend filter: serial fails too, so the chain runs out.
  FaultInjector::global().configure("kernel:p=1", 7);
  EXPECT_THROW((void)core::lsqr_solve(gen.A, options(BackendKind::kGpuSim)),
               PersistentFault);
}

TEST_F(FailoverTest, FailoverIsCountedInTheMetrics) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  const auto gen = matrix::generate_system(gaia::testing::small_config(153));
  FaultInjector::global().configure("kernel:p=1,backend=gpusim", 7);
  const auto result =
      core::lsqr_solve(gen.A, options(BackendKind::kGpuSim));
  EXPECT_GE(result.failovers, 1u);
  EXPECT_GE(reg.counter("resilience.failovers").value(), 1u);
  EXPECT_GE(reg.counter("resilience.retries").value(), 1u);
}

}  // namespace
}  // namespace gaia::resilience
