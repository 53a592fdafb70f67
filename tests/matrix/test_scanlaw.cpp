#include "matrix/scanlaw.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/lsqr.hpp"
#include "matrix/dense.hpp"
#include "test_helpers.hpp"

namespace gaia::matrix {
namespace {

ScanLawConfig small_scanlaw(std::uint64_t seed = 7) {
  ScanLawConfig cfg;
  cfg.seed = seed;
  cfg.n_stars = 40;
  cfg.transits_per_star_mean = 10.0;
  cfg.att_dof_per_axis = 24;
  cfg.n_instr_params = 16;
  return cfg;
}

TEST(Catalogue, DeterministicAndOnSphere) {
  const auto a = make_catalogue(100, 5);
  const auto b = make_catalogue(100, 5);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].alpha, b[i].alpha);
    EXPECT_EQ(a[i].delta, b[i].delta);
    EXPECT_GE(a[i].alpha, 0.0);
    EXPECT_LT(a[i].alpha, 2 * 3.14159266);
    EXPECT_GT(a[i].delta, -1.5708);
    EXPECT_LT(a[i].delta, 1.5708);
  }
}

TEST(Catalogue, CoversBothHemispheres) {
  const auto stars = make_catalogue(500, 6);
  int north = 0;
  for (const auto& s : stars) north += (s.delta > 0);
  EXPECT_GT(north, 150);
  EXPECT_LT(north, 350);
}

TEST(Transits, SortedWithinMission) {
  const auto cfg = small_scanlaw();
  const auto stars = make_catalogue(cfg.n_stars, cfg.seed);
  for (row_index s = 0; s < 5; ++s) {
    const auto transits = transits_for(cfg, stars[static_cast<std::size_t>(s)], s);
    EXPECT_GE(static_cast<row_index>(transits.size()),
              cfg.transits_per_star_min);
    for (std::size_t k = 0; k < transits.size(); ++k) {
      EXPECT_GE(transits[k].time, 0.0);
      EXPECT_LE(transits[k].time, cfg.mission_years);
      if (k > 0) EXPECT_GE(transits[k].time, transits[k - 1].time);
    }
  }
}

TEST(Transits, DifferentStarsGetDifferentSequences) {
  const auto cfg = small_scanlaw();
  const auto stars = make_catalogue(cfg.n_stars, cfg.seed);
  const auto t0 = transits_for(cfg, stars[0], 0);
  const auto t1 = transits_for(cfg, stars[1], 1);
  bool differ = t0.size() != t1.size();
  for (std::size_t k = 0; !differ && k < t0.size(); ++k)
    differ = t0[k].time != t1[k].time || t0[k].scan_angle != t1[k].scan_angle;
  EXPECT_TRUE(differ);
}

TEST(ScanLawSystem, StructurePassesValidation) {
  const auto sys = generate_from_scanlaw(small_scanlaw());
  EXPECT_NO_THROW(sys.A.validate_structure());
  EXPECT_EQ(sys.row_transits.size(),
            static_cast<std::size_t>(sys.A.n_obs()));
  EXPECT_EQ(sys.catalogue.size(),
            static_cast<std::size_t>(sys.A.layout().n_stars()));
}

TEST(ScanLawSystem, DeterministicForEqualConfig) {
  const auto a = generate_from_scanlaw(small_scanlaw(9));
  const auto b = generate_from_scanlaw(small_scanlaw(9));
  ASSERT_EQ(a.A.n_rows(), b.A.n_rows());
  EXPECT_TRUE(std::equal(a.A.values().begin(), a.A.values().end(),
                         b.A.values().begin()));
}

TEST(ScanLawSystem, AstroPartialsFollowObservationEquation) {
  const auto sys = generate_from_scanlaw(small_scanlaw());
  // sin^2 + cos^2 of the position partials must be 1 per row; proper
  // motion partials are (t - t_ref) times the position ones.
  for (row_index r = 0; r < sys.A.n_obs(); ++r) {
    const auto rv = sys.A.row_values(r);
    const real sp = rv[kAstroCoeffOffset + 0];
    const real cp = rv[kAstroCoeffOffset + 1];
    EXPECT_NEAR(sp * sp + cp * cp, 1.0, 1e-12) << "row " << r;
    const real dt = sys.row_transits[static_cast<std::size_t>(r)].time -
                    2.5;  // t_ref = mission/2
    EXPECT_NEAR(rv[kAstroCoeffOffset + 3], dt * sp, 1e-12);
    EXPECT_NEAR(rv[kAstroCoeffOffset + 4], dt * cp, 1e-12);
    // Parallax factor is a projection of a unit displacement.
    EXPECT_LE(std::abs(rv[kAstroCoeffOffset + 2]), 1.0 + 1e-12);
  }
}

TEST(ScanLawSystem, AttitudeIndexTracksTransitTime) {
  const auto sys = generate_from_scanlaw(small_scanlaw());
  const auto idx = sys.A.matrix_index_att();
  const col_index span =
      sys.A.layout().att_stride() - kAttBlockSize;
  for (row_index r = 0; r < sys.A.n_obs(); ++r) {
    const real phase =
        sys.row_transits[static_cast<std::size_t>(r)].time / 5.0;
    const auto expect = static_cast<col_index>(std::floor(
        phase * (static_cast<double>(span) + 1) * 0.999999));
    EXPECT_EQ(idx[static_cast<std::size_t>(r)],
              std::clamp<col_index>(expect, 0, span))
        << "row " << r;
  }
}

TEST(ScanLawSystem, RhsConsistentWithGroundTruth) {
  auto cfg = small_scanlaw(11);
  cfg.noise_sigma = 0.0;
  const auto sys = generate_from_scanlaw(cfg);
  const auto M = to_dense(sys.A);
  const auto expect =
      dense_matvec(M, sys.A.n_rows(), sys.A.n_cols(), sys.ground_truth);
  for (row_index r = 0; r < sys.A.n_obs(); ++r) {
    EXPECT_NEAR(sys.A.known_terms()[static_cast<std::size_t>(r)],
                expect[static_cast<std::size_t>(r)], 1e-10)
        << "row " << r;
  }
}

TEST(ScanLawSystem, SolvableByLsqr) {
  auto cfg = small_scanlaw(12);
  cfg.transits_per_star_mean = 14.0;
  const auto sys = generate_from_scanlaw(cfg);
  core::LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kSerial;
  opts.max_iterations = 600;
  opts.atol = 1e-12;
  opts.btol = 1e-12;
  const auto result = core::lsqr_solve(sys.A, opts);
  const auto M = to_dense(sys.A);
  const auto x_ref = dense_least_squares(M, sys.A.n_rows(), sys.A.n_cols(),
                                         sys.A.known_terms());
  EXPECT_LT(gaia::testing::rel_l2_error(result.x, x_ref), 1e-5);
}

TEST(ScanLawSystem, RejectsBadConfig) {
  auto cfg = small_scanlaw();
  cfg.mission_years = 0;
  EXPECT_THROW(generate_from_scanlaw(cfg), gaia::Error);
  cfg = small_scanlaw();
  cfg.spin_period_hours = 0;
  const auto stars = make_catalogue(4, 1);
  EXPECT_THROW(transits_for(cfg, stars[0], 0), gaia::Error);
}

}  // namespace
}  // namespace gaia::matrix
