/// Integration test of the paper's SV-A profiling claim: "most of the
/// time of this code is spent computing the matrix-by-vector products of
/// aprod1 and aprod2".
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"
#include "util/profiler.hpp"

namespace gaia::core {
namespace {

class SolverProfile : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Profiler::global().reset();
    util::Profiler::global().set_enabled(true);
  }
  void TearDown() override {
    util::Profiler::global().set_enabled(false);
    util::Profiler::global().reset();
  }
};

TEST_F(SolverProfile, AprodKernelsDominateTheIteration) {
  // Large-ish system so per-element work dwarfs instrumentation noise.
  auto cfg = gaia::testing::medium_config(150);
  cfg.n_stars = 1200;
  cfg.obs_per_star_mean = 30.0;
  const auto gen = matrix::generate_system(cfg);

  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 10;
  const auto result = lsqr_solve(gen.A, opts);
  ASSERT_EQ(result.iterations, 10);

  auto& p = util::Profiler::global();
  // The paper's profiler observation (SV-A): aprod dominates.
  EXPECT_GT(p.fraction_of("aprod"), 0.5) << p.report();
  // Every pass ran 10 (aprod1) / 10-11 (aprod2, including the
  // bidiagonalization start) times.
  for (const auto& region : p.snapshot()) {
    if (region.name.rfind("aprod", 0) == 0) {
      EXPECT_GE(region.calls, 10u) << region.name;
      EXPECT_LE(region.calls, 11u) << region.name;
    }
  }
}

TEST_F(SolverProfile, AllEightKernelRegionsAppear) {
  // The eight paper kernels run as one pass per LSQR step: the step
  // pass interleaves all eight, under one region.
  const auto gen = matrix::generate_system(gaia::testing::small_config(151));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kGpuSim;
  opts.max_iterations = 3;
  (void)lsqr_solve(gen.A, opts);
  const auto stats = util::Profiler::global().snapshot();
  std::set<std::string> kernel_regions;
  for (const auto& s : stats)
    if (s.name.rfind("aprod", 0) == 0) kernel_regions.insert(s.name);
  EXPECT_EQ(kernel_regions, (std::set<std::string>{"aprod_step"}));
}

TEST_F(SolverProfile, BlasAndReductionRegionsTracked) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(152));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 5;
  (void)lsqr_solve(gen.A, opts);
  auto& p = util::Profiler::global();
  EXPECT_GT(p.fraction_of("blas1"), 0.0);
  EXPECT_GT(p.fraction_of("reduction"), 0.0);
}

TEST_F(SolverProfile, DisabledProfilerLeavesNoTrace) {
  util::Profiler::global().set_enabled(false);
  const auto gen = matrix::generate_system(gaia::testing::small_config(153));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 2;
  (void)lsqr_solve(gen.A, opts);
  EXPECT_TRUE(util::Profiler::global().snapshot().empty());
}

}  // namespace
}  // namespace gaia::core
