#include "metrics/roofline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"

namespace gaia::metrics {
namespace {

/// HBM2e-ish machine: 1555 GB/s * 0.8 efficiency, 9700 GFLOP/s fp64 —
/// the values perfmodel's kA100 spec carries, hardcoded here so the
/// arithmetic stays hand-checkable.
RooflineMachine machine() { return {"a100-sim", 1555.0, 9700.0, 0.8}; }

std::vector<obs::MetricRow> series(const std::string& kernel,
                                   std::uint64_t launches, double bytes,
                                   double flops, double seconds_p50) {
  const std::string base = "kernel." + kernel + ".openmp.privatized.";
  obs::MetricRow l;
  l.name = base + "launches";
  l.type = "counter";
  l.count = launches;
  l.sum = static_cast<double>(launches);
  obs::MetricRow b;
  b.name = base + "bytes";
  b.type = "counter";
  b.count = launches;
  b.sum = bytes;
  obs::MetricRow f;
  f.name = base + "flops";
  f.type = "counter";
  f.count = launches;
  f.sum = flops;
  obs::MetricRow t;
  t.name = base + "time_seconds";
  t.type = "histogram";
  t.count = launches;
  t.p50 = seconds_p50;
  return {l, b, f, t};
}

TEST(RooflineTest, RidgeIntensityIsPeakOverEffectiveBandwidth) {
  const RooflineMachine m = machine();
  EXPECT_NEAR(m.effective_bw_gbs(), 1244.0, 1e-9);
  EXPECT_NEAR(ridge_intensity(m), 9700.0 / 1244.0, 1e-12);
}

TEST(RooflineTest, MemoryBoundKernelPlacement) {
  // 1 GB and 0.25 GFLOP per launch in 1 ms: intensity 0.25 FLOP/B, far
  // left of the ridge -> memory bound, ceiling = I * effective BW.
  const auto rows = series("aprod1_att", 10, 10e9, 2.5e9, 1e-3);
  const auto points = roofline_points(rows, machine());
  ASSERT_EQ(points.size(), 1u);
  const RooflinePoint& p = points[0];
  EXPECT_EQ(p.kernel, "aprod1_att");
  EXPECT_EQ(p.backend, "openmp");
  EXPECT_EQ(p.strategy, "privatized");
  EXPECT_EQ(p.launches, 10u);
  EXPECT_NEAR(p.bytes_per_launch, 1e9, 1e-3);
  EXPECT_NEAR(p.flops_per_launch, 0.25e9, 1e-3);
  EXPECT_NEAR(p.intensity, 0.25, 1e-12);
  EXPECT_NEAR(p.achieved_gbs, 1000.0, 1e-9);
  EXPECT_NEAR(p.achieved_gflops, 250.0, 1e-9);
  EXPECT_TRUE(p.memory_bound);
  EXPECT_NEAR(p.ceiling_gflops, 0.25 * 1244.0, 1e-9);
  EXPECT_NEAR(p.fraction_of_ceiling, 250.0 / 311.0, 1e-12);
}

TEST(RooflineTest, ComputeBoundKernelHitsTheFlopCeiling) {
  // 100 FLOP/B: far right of the ridge -> compute bound, ceiling is the
  // machine peak, not the bandwidth line.
  const auto rows = series("aprod2_att", 4, 1e8, 1e10, 2e-3);
  const auto points = roofline_points(rows, machine());
  ASSERT_EQ(points.size(), 1u);
  const RooflinePoint& p = points[0];
  EXPECT_NEAR(p.intensity, 100.0, 1e-9);
  EXPECT_FALSE(p.memory_bound);
  EXPECT_NEAR(p.ceiling_gflops, 9700.0, 1e-9);
  EXPECT_NEAR(p.achieved_gflops, 1e10 / 4.0 / 2e-3 / 1e9, 1e-6);
}

TEST(RooflineTest, SkipsUntimedAndTrafficlessSeries) {
  // A timed series whose launches were never counted -> no
  // placement. Same for a counted series with no traffic.
  auto rows = series("aprod1_att", 0, 0, 0, 1e-3);
  auto more = series("aprod1_ast", 5, 0, 0, 1e-3);
  rows.insert(rows.end(), more.begin(), more.end());
  obs::MetricRow unrelated;
  unrelated.name = "lsqr.iterations";
  unrelated.type = "counter";
  unrelated.count = 60;
  rows.push_back(unrelated);
  EXPECT_TRUE(roofline_points(rows, machine()).empty());
}

TEST(RooflineTest, PointsAreSortedByKernel) {
  auto rows = series("zeta", 1, 1e9, 1e9, 1e-3);
  auto more = series("alpha", 1, 1e9, 1e9, 1e-3);
  rows.insert(rows.end(), more.begin(), more.end());
  const auto points = roofline_points(rows, machine());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].kernel, "alpha");
  EXPECT_EQ(points[1].kernel, "zeta");
}

TEST(RooflineTest, GaugesPublishedUnderKernelSeriesNames) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto rows = series("aprod1_att", 10, 10e9, 2.5e9, 1e-3);
  publish_roofline_gauges(roofline_points(rows, machine()));
  const auto snap = reg.snapshot();
  auto value_of = [&](const std::string& field) -> double {
    const std::string name = "kernel.aprod1_att.openmp.privatized." + field;
    for (const auto& r : snap)
      if (r.name == name) return r.last;
    ADD_FAILURE() << "missing gauge " << name;
    return -1;
  };
  EXPECT_NEAR(value_of("roofline_intensity"), 0.25, 1e-12);
  EXPECT_NEAR(value_of("roofline_achieved_gflops"), 250.0, 1e-9);
  EXPECT_NEAR(value_of("roofline_achieved_gbs"), 1000.0, 1e-9);
  EXPECT_NEAR(value_of("roofline_fraction_of_ceiling"), 250.0 / 311.0, 1e-9);
  EXPECT_EQ(value_of("roofline_memory_bound"), 1.0);
  reg.set_enabled(false);
  reg.reset();
}

TEST(RooflineTest, ConsistentWithRecordedBandwidthGauge) {
  // The acceptance criterion: a placement computed from real
  // record_kernel_sample rows must agree with the derived-bandwidth
  // gauge the perf-counter layer maintains (bytes / seconds).
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  obs::KernelSample s;
  s.kernel = "aprod2_att";
  s.backend = "openmp";
  s.strategy = "privatized";
  s.bytes = 800'000'000;
  s.flops = 400'000'000;
  s.seconds = 1e-3;
  for (int i = 0; i < 5; ++i) obs::record_kernel_sample(s);
  const auto snap = reg.snapshot();
  const auto points = roofline_points(snap, machine());
  ASSERT_EQ(points.size(), 1u);
  double recorded_bw = -1;
  for (const auto& r : snap)
    if (r.name == "kernel.aprod2_att.openmp.privatized.bandwidth_bytes_per_s")
      recorded_bw = r.last;
  ASSERT_GT(recorded_bw, 0);
  // Same number, different units (gauge is B/s, placement GB/s).
  EXPECT_NEAR(points[0].achieved_gbs, recorded_bw / 1e9,
              recorded_bw / 1e9 * 1e-9);
  reg.set_enabled(false);
  reg.reset();
}

TEST(RooflineTest, TableRendersEveryPointAndTheMachineHeader) {
  auto rows = series("aprod1_att", 10, 10e9, 2.5e9, 1e-3);
  auto more = series("aprod2_att", 4, 1e8, 1e10, 2e-3);
  rows.insert(rows.end(), more.begin(), more.end());
  const auto points = roofline_points(rows, machine());
  const std::string table = roofline_table(points, machine());
  EXPECT_NE(table.find("a100-sim"), std::string::npos);
  EXPECT_NE(table.find("aprod1_att"), std::string::npos);
  EXPECT_NE(table.find("aprod2_att"), std::string::npos);
  EXPECT_NE(table.find("memory"), std::string::npos);
  EXPECT_NE(table.find("compute"), std::string::npos);
}

}  // namespace
}  // namespace gaia::metrics
