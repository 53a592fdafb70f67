/// Unit coverage of the SDC health monitor: the layered invariants
/// (scalars, windowed divergence, segment checksums, ABFT agreement,
/// kernel-output checksums), the cross-rank state hash, and the
/// report/bookkeeping surface the solvers key their containment off.
#include "resilience/health_monitor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "util/types.hpp"

namespace gaia::resilience {
namespace {

HealthConfig detect_config() {
  HealthConfig cfg;
  cfg.mode = HealthMode::kDetect;
  return cfg;
}

TEST(HealthConfig, ModeParsingRoundTrips) {
  EXPECT_EQ(parse_health_mode("off"), HealthMode::kOff);
  EXPECT_EQ(parse_health_mode("detect"), HealthMode::kDetect);
  EXPECT_EQ(parse_health_mode("repair"), HealthMode::kRepair);
  EXPECT_EQ(parse_health_mode("bogus"), std::nullopt);
  for (HealthMode m :
       {HealthMode::kOff, HealthMode::kDetect, HealthMode::kRepair})
    EXPECT_EQ(parse_health_mode(to_string(m)), m);
}

TEST(HealthConfig, DueOnlyOnTheCadenceWhenEnabled) {
  EXPECT_EQ(parse_health_mode("sometimes"), std::nullopt);
  const HealthConfig cfg{HealthMode::kRepair, 7};
  EXPECT_TRUE(cfg.enabled());
  EXPECT_TRUE(cfg.due(14));
  EXPECT_FALSE(cfg.due(15));

  const HealthConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.due(25));  // off mode: never due
  EXPECT_TRUE(HealthConfig{HealthMode::kDetect}.due(25));
  EXPECT_FALSE(HealthConfig{HealthMode::kDetect}.due(24));
  EXPECT_FALSE(HealthConfig{HealthMode::kDetect}.due(0));
}

TEST(HealthMonitorScalars, NonFiniteAndNegativeNormsTrip) {
  HealthMonitor monitor(detect_config());
  EXPECT_TRUE(monitor.check_scalars(3, 1.0, 2.0, 3.0, 4.0, 5.0).healthy());

  const real nan = std::numeric_limits<real>::quiet_NaN();
  const auto bad = monitor.check_scalars(3, 1.0, 2.0, nan, 4.0, 5.0);
  EXPECT_EQ(bad.invariant, HealthInvariant::kScalarFinite);
  EXPECT_EQ(bad.iteration, 3);
  EXPECT_NE(bad.detail.find("rnorm"), std::string::npos);
  EXPECT_NE(bad.describe().find("scalar-finite"), std::string::npos);

  const auto inf = monitor.check_scalars(
      3, 1.0, std::numeric_limits<real>::infinity(), 3.0, 4.0, 5.0);
  EXPECT_EQ(inf.invariant, HealthInvariant::kScalarFinite);

  // alpha/beta are norms: negative means corrupted scalar state.
  const auto sign = monitor.check_scalars(3, -1.0, 2.0, 3.0, 4.0, 5.0);
  EXPECT_EQ(sign.invariant, HealthInvariant::kScalarSign);
}

TEST(HealthMonitorWindow, DivergenceTripsAndResetClears) {
  HealthConfig cfg = detect_config();
  cfg.window = 4;
  cfg.rnorm_growth_ratio = 10.0;
  HealthMonitor monitor(cfg);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(monitor.check_rnorm_window(i, 1.0 - 0.1 * i).healthy());
  // 100 > 10 x the window minimum (0.7): divergence.
  const auto v = monitor.check_rnorm_window(4, 100.0);
  EXPECT_EQ(v.invariant, HealthInvariant::kRnormDivergence);
  // After a rollback the window is dropped: the replayed trajectory
  // must not re-trip against pre-corruption observations.
  monitor.reset_window();
  EXPECT_TRUE(monitor.check_rnorm_window(1, 100.0).healthy());
}

TEST(HealthMonitorVector, LocalizesNonFiniteToASegment) {
  HealthConfig cfg = detect_config();
  cfg.segments = 4;
  HealthMonitor monitor(cfg);
  std::vector<real> v(64, 0.125);
  EXPECT_TRUE(monitor.check_vector(1, "u", v).healthy());

  v[40] = std::numeric_limits<real>::quiet_NaN();  // segment 2 of 4
  const auto verdict = monitor.check_vector(1, "u", v);
  EXPECT_EQ(verdict.invariant, HealthInvariant::kSegmentChecksum);
  EXPECT_NE(verdict.detail.find("segment 2/4"), std::string::npos);
}

TEST(HealthMonitorVector, NormAgreementGuardsTheRecurrence) {
  HealthMonitor monitor(detect_config());
  std::vector<real> v(16, 0.25);  // ||v|| = 1
  EXPECT_TRUE(
      monitor.check_vector(1, "v", v, 1.0, 1e-8, HealthInvariant::kUnitNorm)
          .healthy());
  const auto verdict = monitor.check_vector(1, "v", v, 2.0, 1e-8,
                                            HealthInvariant::kUnitNorm);
  EXPECT_EQ(verdict.invariant, HealthInvariant::kUnitNorm);
}

TEST(HealthMonitorAgreement, RelativeMismatchAndNonFiniteTrip) {
  HealthMonitor monitor(detect_config());
  EXPECT_TRUE(monitor
                  .check_agreement(1, "rnorm", 100.0, 100.0 + 1e-8, 1e-6,
                                   HealthInvariant::kResidualAgreement)
                  .healthy());
  const auto v =
      monitor.check_agreement(1, "rnorm", 100.0, 101.0, 1e-6,
                              HealthInvariant::kResidualAgreement);
  EXPECT_EQ(v.invariant, HealthInvariant::kResidualAgreement);
  const auto nf = monitor.check_agreement(
      1, "rnorm", std::numeric_limits<real>::quiet_NaN(), 1.0, 1e-6,
      HealthInvariant::kResidualAgreement);
  EXPECT_EQ(nf.invariant, HealthInvariant::kResidualAgreement);
}

TEST(HealthMonitorAbft, KernelChecksumScalesWithTheExplicitScale) {
  HealthConfig cfg = detect_config();
  cfg.abft_rel_tol = 1e-9;
  HealthMonitor monitor(cfg, /*rank=*/2);
  // Agreement to rounding at scale 1e3: tol = 1e-9 * 1e3 = 1e-6.
  EXPECT_TRUE(
      monitor.check_kernel_checksum(5, "aprod2", 1.0, 1.0 + 1e-7, 1e3)
          .healthy());
  const auto trip =
      monitor.check_kernel_checksum(5, "aprod2", 1.0, 1.0 + 1e-5, 1e3);
  EXPECT_EQ(trip.invariant, HealthInvariant::kKernelChecksum);
  EXPECT_EQ(trip.rank, 2);
  EXPECT_NE(trip.detail.find("aprod2"), std::string::npos);
  // The scale floor is 1: tiny scales cannot shrink the tolerance to
  // zero and turn rounding into detections.
  EXPECT_TRUE(
      monitor.check_kernel_checksum(5, "aprod1", 0.0, 5e-10, 1e-30)
          .healthy());
  // Non-finite on either side always trips.
  const auto nf = monitor.check_kernel_checksum(
      5, "aprod1", std::numeric_limits<real>::infinity(), 1.0, 1.0);
  EXPECT_EQ(nf.invariant, HealthInvariant::kKernelChecksum);
}

TEST(HealthMonitorReport, BookkeepingAccumulates) {
  HealthMonitor monitor(detect_config());
  monitor.note_deep_check();
  monitor.note_deep_check();

  HealthVerdict verdict;
  verdict.invariant = HealthInvariant::kKernelChecksum;
  verdict.iteration = 12;
  monitor.record_detection(verdict);
  monitor.record_repair(12, 10);
  verdict.iteration = 30;
  monitor.record_detection(verdict);
  monitor.record_unrepaired(verdict);

  const HealthReport report = monitor.report();
  EXPECT_EQ(report.mode, HealthMode::kDetect);
  EXPECT_EQ(report.checks, 2u);
  EXPECT_EQ(report.detections, 2u);
  EXPECT_EQ(report.repairs, 1u);
  EXPECT_EQ(report.first_detection_iteration, 12);
  EXPECT_TRUE(report.unrepaired);
  EXPECT_NE(report.last_diagnosis.find("iteration 30"), std::string::npos);
}

TEST(StateHash, SensitiveToASingleBitAndStableOtherwise) {
  std::vector<real> scalars = {1.0, 2.0, 3.0};
  std::vector<real> v = {0.5, -0.25, 0.125, 8.0};
  const auto h0 = state_hash(scalars, {std::span<const real>(v)});
  EXPECT_EQ(h0, state_hash(scalars, {std::span<const real>(v)}));

  auto bits = std::bit_cast<std::uint64_t>(v[2]);
  bits ^= 1ull;  // flip the least significant mantissa bit
  v[2] = std::bit_cast<real>(bits);
  EXPECT_NE(h0, state_hash(scalars, {std::span<const real>(v)}));

  scalars[0] = std::nextafter(scalars[0], 2.0);
  EXPECT_NE(h0, state_hash(scalars, {std::span<const real>(v)}));
}

TEST(StateHash, FoldSurvivesADoubleAllreduceExactly) {
  for (std::uint64_t h :
       {0ull, 1ull, 0xcbf29ce484222325ull, ~0ull, 0x123456789abcdefull}) {
    const double folded = fold_hash_to_real(h);
    EXPECT_GE(folded, 0.0);
    EXPECT_LT(folded, std::ldexp(1.0, 52));
    // Exactly representable: the round trip through double is lossless,
    // so a min/max allreduce compares the true folded values.
    EXPECT_EQ(static_cast<std::uint64_t>(folded),
              static_cast<std::uint64_t>(static_cast<double>(
                  static_cast<std::uint64_t>(folded))));
  }
  EXPECT_NE(fold_hash_to_real(0x1ull), fold_hash_to_real(0x2ull));
}

}  // namespace
}  // namespace gaia::resilience
