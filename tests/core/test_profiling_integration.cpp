/// Integration test of the paper's SV-A profiling claim: "most of the
/// time of this code is spent computing the matrix-by-vector products of
/// aprod1 and aprod2". The profile is the registry's layer record
/// (`lsqr.layer.*`, published by every iteration-running LsqrEngine::step)
/// and the per-launch `kernel.*` time rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/lsqr.hpp"
#include "core/lsqr_engine.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "test_helpers.hpp"
#include "util/stopwatch.hpp"

namespace gaia::core {
namespace {

namespace fs = std::filesystem;

class SolverProfile : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset_all();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  void TearDown() override {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset_all();
  }
};

/// The snapshot row named `name`; a zero row when it does not exist.
obs::MetricRow metric(const std::string& name) {
  for (const obs::MetricRow& r : obs::MetricsRegistry::global().snapshot())
    if (r.name == name) return r;
  return {};
}

obs::MetricRow layer(std::string_view row) {
  return metric(layer_metric_name(row));
}

/// The summed step time: all six rows, unattributed included.
double layers_total() {
  double total = 0;
  for (const std::string_view row : kLayerRows) total += layer(row).sum;
  return total;
}

/// Every `kernel.*.time_seconds` row with at least one sample.
std::set<std::string> timed_kernel_rows() {
  std::set<std::string> names;
  for (const obs::MetricRow& r : obs::MetricsRegistry::global().snapshot())
    if (r.name.starts_with("kernel.") && r.name.ends_with(".time_seconds") &&
        r.count > 0)
      names.insert(r.name);
  return names;
}

LsqrOptions serial_options(std::int64_t iterations) {
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = iterations;
  return opts;
}

TEST_F(SolverProfile, AprodKernelsDominateTheIteration) {
  // Large-ish system so per-element work dwarfs instrumentation noise.
  auto cfg = gaia::testing::medium_config(150);
  cfg.n_stars = 1200;
  cfg.obs_per_star_mean = 30.0;
  const auto gen = matrix::generate_system(cfg);
  const auto result = lsqr_solve(gen.A, serial_options(10));
  ASSERT_EQ(result.iterations, 10);

  // The paper's profiler observation (SV-A): the step pass, which runs
  // both products, takes most of the summed step time — a sum that
  // includes the unattributed row.
  const double total = layers_total();
  EXPECT_GT(layer("step").sum, 0.5 * total)
      << "step " << layer("step").sum << " s of " << total << " s";
}

TEST_F(SolverProfile, AllEightKernelRegionsAppear) {
  // The eight paper kernels run as one pass per LSQR step: the step
  // pass interleaves all eight, under one kernel row.
  const auto gen = matrix::generate_system(gaia::testing::small_config(151));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kGpuSim;
  opts.max_iterations = 3;
  (void)lsqr_solve(gen.A, opts);
  EXPECT_EQ(timed_kernel_rows(),
            (std::set<std::string>{
                "kernel.aprod_step.gpusim.privatized.time_seconds"}));
}

TEST_F(SolverProfile, BlasAndReductionRegionsTracked) {
  // The n-length tail (the v update, its norm and the x/w updates) is
  // its own row, with one sample per iteration.
  const auto gen = matrix::generate_system(gaia::testing::small_config(152));
  (void)lsqr_solve(gen.A, serial_options(5));
  const obs::MetricRow tail = layer("tail");
  EXPECT_EQ(tail.count, 5u);
  EXPECT_GT(tail.sum, 0.0);
}

TEST_F(SolverProfile, HealthChecksumsRegionOncePerIteration) {
  // The ABFT checksums and the health checks are attributed time: zero
  // with health off, above zero with it on, one sample per iteration.
  const auto gen = matrix::generate_system(gaia::testing::small_config(154));
  LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kPstl;
  opts.max_iterations = 6;
  (void)lsqr_solve(gen.A, opts);
  EXPECT_EQ(layer("health").count, 6u);
  EXPECT_EQ(layer("health").sum, 0.0);

  obs::MetricsRegistry::global().reset_all();
  opts.health.mode = resilience::HealthMode::kDetect;
  const auto result = lsqr_solve(gen.A, opts);
  ASSERT_EQ(result.iterations, 6);
  EXPECT_EQ(layer("health").count, 6u);
  EXPECT_GT(layer("health").sum, 0.0);
}

TEST_F(SolverProfile, EveryRowHasOneSamplePerIterationRunningStep) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(155));
  LsqrEngine engine(gen.A, serial_options(7));
  std::uint64_t iterations = 0;
  double outside_s = 0;  // the same calls, timed by the caller
  while (!engine.finished()) {
    util::Stopwatch watch;
    engine.step();
    outside_s += watch.elapsed_s();
    ++iterations;
  }
  EXPECT_FALSE(engine.step());  // a finished engine runs no iteration
  ASSERT_EQ(iterations, 7u);

  for (const std::string_view row : kLayerRows)
    EXPECT_EQ(layer(row).count, iterations) << row;
  EXPECT_GE(layer("unattributed").min, 0.0);
  // Single-process there are no collectives, and without a rotation no
  // seal; both rows still carry their zero samples.
  EXPECT_EQ(layer("comm").sum, 0.0);
  EXPECT_EQ(layer("checkpoint").sum, 0.0);
  // The rows split each call's wall time, which the caller's clock
  // brackets.
  EXPECT_GT(layers_total(), 0.0);
  EXPECT_LE(layers_total(), outside_s);
}

TEST_F(SolverProfile, CheckpointRowOnlyWithARotation) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gaia_profile_ckpt";
  fs::remove_all(dir);
  const auto gen = matrix::generate_system(gaia::testing::small_config(156));
  {
    resilience::CheckpointManager manager({dir.string(), "gaia", 2, 2});
    LsqrEngine engine(gen.A, serial_options(6));
    ASSERT_EQ(engine.use_checkpoints(manager), -1);
    engine.run_to_completion();
    EXPECT_GT(manager.written(), 0u);
  }
  fs::remove_all(dir);
  EXPECT_EQ(layer("checkpoint").count, 6u);
  EXPECT_GT(layer("checkpoint").sum, 0.0);
}

TEST_F(SolverProfile, DisabledProfilerLeavesNoTrace) {
  obs::MetricsRegistry::global().set_enabled(false);
  const auto gen = matrix::generate_system(gaia::testing::small_config(153));
  (void)lsqr_solve(gen.A, serial_options(2));
  // Rows made by earlier tests of this process survive a reset, zeroed
  // (a gauge row always reads as one sample); a disabled registry must
  // record nothing into them.
  for (const obs::MetricRow& r : obs::MetricsRegistry::global().snapshot())
    if (r.name.starts_with("lsqr.layer.") || r.name.starts_with("kernel.")) {
      EXPECT_EQ(r.sum, 0.0) << r.name;
      if (r.type != "gauge") {
        EXPECT_EQ(r.count, 0u) << r.name;
      }
    }
}

TEST_F(SolverProfile, LaunchSpanAndSampleAreOneMeasurement) {
  // With the trace and the registry armed, each launch's span and its
  // time sample come from one clock pair, so their sums agree to
  // rounding.
  auto& rec = obs::TraceRecorder::global();
  rec.reset();
  rec.set_enabled(true);
  const auto gen = matrix::generate_system(gaia::testing::small_config(157));
  (void)lsqr_solve(gen.A, serial_options(5));
  rec.set_enabled(false);

  double span_s = 0;
  std::uint64_t spans = 0;
  for (const obs::TraceEvent& e : rec.events())
    if (e.phase == 'X' && e.name == "aprod_step") {
      span_s += e.dur_us * 1e-6;
      ++spans;
    }
  rec.reset();
  const obs::MetricRow sample =
      metric("kernel.aprod_step.serial.privatized.time_seconds");
  ASSERT_GT(spans, 0u);
  EXPECT_EQ(sample.count, spans);
  EXPECT_NEAR(span_s, sample.sum, 1e-9 * sample.sum);
}

}  // namespace
}  // namespace gaia::core
