#include "matrix/generator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "matrix/dense.hpp"
#include "test_helpers.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace gaia::matrix {
namespace {

TEST(Generator, DeterministicForEqualSeeds) {
  const auto a = generate_system(gaia::testing::small_config(99));
  const auto b = generate_system(gaia::testing::small_config(99));
  ASSERT_EQ(a.A.n_rows(), b.A.n_rows());
  EXPECT_TRUE(std::equal(a.A.values().begin(), a.A.values().end(),
                         b.A.values().begin()));
  EXPECT_TRUE(std::equal(a.A.known_terms().begin(), a.A.known_terms().end(),
                         b.A.known_terms().begin()));
  EXPECT_TRUE(std::equal(a.A.instr_col().begin(), a.A.instr_col().end(),
                         b.A.instr_col().begin()));
}

template <typename T>
std::string crc_hex(std::span<const T> array) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x",
                util::crc32(array.data(), array.size_bytes()));
  return buf;
}

/// CRC-32s of every array a generated system carries, in the order
/// values, astro index, attitude index, instrumental columns, known
/// terms, star partition, ground truth ("-" when there is none).
std::string system_crcs(const GeneratedSystem& g) {
  const SystemMatrix& A = g.A;
  return crc_hex(A.values()) + ' ' + crc_hex(A.matrix_index_astro()) + ' ' +
         crc_hex(A.matrix_index_att()) + ' ' + crc_hex(A.instr_col()) + ' ' +
         crc_hex(A.known_terms()) + ' ' + crc_hex(A.star_row_start()) + ' ' +
         (g.ground_truth ? crc_hex<real>(*g.ground_truth) : "-");
}

// The generator fills on the shared pool from replayed stream states;
// these CRCs were taken from the single-stream serial generator, so any
// bit that moves — at any pool size (CI reruns this test with
// GAIA_POOL_THREADS=0 and 7) — fails here.
TEST(Generator, GoldenCrcsPinEveryBit) {
  struct Case {
    const char* name;
    GeneratorConfig config;
    const char* crcs;
  };
  const auto with = [](std::uint64_t seed, auto&& edit) {
    GeneratorConfig cfg = gaia::testing::medium_config(seed);
    edit(cfg);
    return cfg;
  };
  const auto truth = [](GeneratorConfig& c, real sigma) {
    c.rhs_mode = RhsMode::kFromGroundTruth;
    c.noise_sigma = sigma;
  };
  const Case cases[] = {
      {"random rhs", with(7, [](GeneratorConfig&) {}),
       "f9723a63 5d545a24 741bac9d b24c67f4 1c647eac beaec4b5 -"},
      // 1001 stars: an odd count of star-count draws leaves a cached
      // normal pending at every block start (24 normals per row).
      {"truth, noise 0.1, 1001 stars",
       with(8,
            [&](GeneratorConfig& c) {
              truth(c, 0.1);
              c.n_stars = 1001;
            }),
       "b7222105 375c6c4a 38bb2edf 1c58ebf8 ae1f4434 712df6d7 27db579c"},
      {"truth, noise 0, 1001 stars",
       with(9,
            [&](GeneratorConfig& c) {
              truth(c, 0.0);
              c.n_stars = 1001;
            }),
       "86cc7a4b 54712b3d c5e684d0 061fd591 013f1637 5b8e5585 1d7de7c9"},
      // 23 normals per row: whether a block starts with a cached normal
      // depends on the parity of the rows before it.
      {"no global",
       with(10, [](GeneratorConfig& c) { c.has_global = false; }),
       "fb6627e3 5eb2a6db 742bb3de a36e622d aab1c880 bbc80c4d -"},
      // att_span 0: no jitter draw.
      {"attitude span 0",
       with(11, [](GeneratorConfig& c) { c.att_dof_per_axis = 4; }),
       "ae2c59fc d10398d6 556d37d9 f6a40ba9 753eacd2 cb6406e3 -"},
      {"257 stars", with(12, [](GeneratorConfig& c) { c.n_stars = 257; }),
       "096a585c 4500cda6 92920524 67dc2cf6 bf33b2ab c2728292 -"},
      {"24 MiB footprint", config_for_footprint(24 * kMiB),
       "72c6f3b9 10df9e53 fb3edbbd 9ce39031 109ead35 d9aaa42f -"},
  };
  for (const Case& c : cases)
    EXPECT_EQ(system_crcs(generate_system(c.config)), c.crcs) << c.name;
}

TEST(Generator, DifferentSeedsDiffer) {
  const auto a = generate_system(gaia::testing::small_config(1));
  const auto b = generate_system(gaia::testing::small_config(2));
  // Known terms are random draws; identical content would be a bug.
  bool any_diff = false;
  const auto ka = a.A.known_terms();
  const auto kb = b.A.known_terms();
  for (std::size_t i = 0; i < std::min(ka.size(), kb.size()); ++i)
    any_diff |= (ka[i] != kb[i]);
  EXPECT_TRUE(any_diff);
}

TEST(Generator, StructurePassesValidation) {
  const auto gen = generate_system(gaia::testing::medium_config());
  EXPECT_NO_THROW(gen.A.validate_structure());
}

TEST(Generator, RespectsMinObservationsPerStar) {
  auto cfg = gaia::testing::small_config();
  cfg.obs_per_star_min = 7;
  cfg.obs_per_star_mean = 7.0;
  const auto gen = generate_system(cfg);
  const auto starts = gen.A.star_row_start();
  for (std::size_t s = 0; s + 1 < starts.size(); ++s)
    EXPECT_GE(starts[s + 1] - starts[s], 7);
}

TEST(Generator, ConstraintRowCountMatchesConfig) {
  auto cfg = gaia::testing::small_config();
  cfg.constraints_per_axis = 2;
  const auto gen = generate_system(cfg);
  EXPECT_EQ(gen.A.n_constraints(), 6);  // 2 per axis x 3 axes
}

TEST(Generator, ConstraintRowsPinEachAxis) {
  const auto gen = generate_system(gaia::testing::small_config());
  const auto& A = gen.A;
  ASSERT_EQ(A.n_constraints(), 3);
  for (row_index c = 0; c < 3; ++c) {
    const auto rv = A.row_values(A.n_obs() + c);
    const int axis = static_cast<int>(c % kAttBlocks);
    for (int blk = 0; blk < kAttBlocks; ++blk) {
      for (int i = 0; i < kAttBlockSize; ++i) {
        const real v = rv[kAttCoeffOffset + blk * kAttBlockSize + i];
        if (blk == axis)
          EXPECT_DOUBLE_EQ(v, 1.0);
        else
          EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
    EXPECT_DOUBLE_EQ(A.known_terms()[static_cast<std::size_t>(
                         A.n_obs() + c)], 0.0);
  }
}

TEST(Generator, GroundTruthModeIsConsistentWithDenseProduct) {
  auto cfg = gaia::testing::small_config();
  cfg.rhs_mode = RhsMode::kFromGroundTruth;
  cfg.noise_sigma = 0.0;
  const auto gen = generate_system(cfg);
  ASSERT_TRUE(gen.ground_truth.has_value());

  const auto M = to_dense(gen.A);
  const auto b_expect =
      dense_matvec(M, gen.A.n_rows(), gen.A.n_cols(), *gen.ground_truth);
  // Observation rows must match A x* exactly (no noise requested).
  for (row_index r = 0; r < gen.A.n_obs(); ++r) {
    EXPECT_NEAR(gen.A.known_terms()[static_cast<std::size_t>(r)],
                b_expect[static_cast<std::size_t>(r)], 1e-12)
        << "row " << r;
  }
}

TEST(Generator, NoiseChangesRhsButNotMatrix) {
  auto clean_cfg = gaia::testing::small_config();
  clean_cfg.rhs_mode = RhsMode::kFromGroundTruth;
  auto noisy_cfg = clean_cfg;
  noisy_cfg.noise_sigma = 0.1;
  const auto clean = generate_system(clean_cfg);
  const auto noisy = generate_system(noisy_cfg);
  EXPECT_TRUE(std::equal(clean.A.values().begin(), clean.A.values().end(),
                         noisy.A.values().begin()));
  bool rhs_differs = false;
  for (row_index r = 0; r < clean.A.n_obs(); ++r)
    rhs_differs |= clean.A.known_terms()[static_cast<std::size_t>(r)] !=
                   noisy.A.known_terms()[static_cast<std::size_t>(r)];
  EXPECT_TRUE(rhs_differs);
}

TEST(Generator, AttitudeIndexDriftsAcrossObservationSequence) {
  // The measurement-campaign stride: early rows hit early spline knots,
  // late rows hit late ones.
  auto cfg = gaia::testing::medium_config();
  cfg.att_dof_per_axis = 128;
  const auto gen = generate_system(cfg);
  const auto idx = gen.A.matrix_index_att();
  const auto n = static_cast<std::size_t>(gen.A.n_obs());
  double head = 0, tail = 0;
  for (std::size_t i = 0; i < n / 10; ++i) head += static_cast<double>(idx[i]);
  for (std::size_t i = n - n / 10; i < n; ++i)
    tail += static_cast<double>(idx[i]);
  EXPECT_LT(head, tail);
}

TEST(Generator, RejectsInvalidConfig) {
  auto cfg = gaia::testing::small_config();
  cfg.n_stars = 0;
  EXPECT_THROW(generate_system(cfg), gaia::Error);
  cfg = gaia::testing::small_config();
  cfg.obs_per_star_min = 0;
  EXPECT_THROW(generate_system(cfg), gaia::Error);
  cfg = gaia::testing::small_config();
  cfg.obs_per_star_mean = 1.0;
  cfg.obs_per_star_min = 5;
  EXPECT_THROW(generate_system(cfg), gaia::Error);
}

TEST(ConfigForFootprint, HitsRequestedSizeApproximately) {
  for (const byte_size target : {16 * kMiB, 64 * kMiB, 256 * kMiB}) {
    const auto cfg = config_for_footprint(target);
    const auto gen = generate_system(cfg);
    const double ratio = static_cast<double>(gen.A.footprint_bytes()) /
                         static_cast<double>(target);
    EXPECT_GT(ratio, 0.85) << "target " << target;
    EXPECT_LT(ratio, 1.15) << "target " << target;
  }
}

TEST(ConfigForFootprint, SecondarySectionsStaySmall) {
  const auto cfg = config_for_footprint(64 * kMiB);
  const auto gen = generate_system(cfg);
  const auto& lay = gen.A.layout();
  const double astro_frac = static_cast<double>(lay.n_astro_params()) /
                            static_cast<double>(lay.n_unknowns());
  EXPECT_GT(astro_frac, 0.9);  // production: astro dominates
}

TEST(ConfigForFootprint, TooSmallThrows) {
  EXPECT_THROW(config_for_footprint(1024), gaia::Error);
}

}  // namespace
}  // namespace gaia::matrix
