/// Contract of the one storage precision: every kernel reads the fp64
/// row records, the traffic accounting charges 8 bytes per coefficient,
/// baselines label every series "fp64", and the device copy a driver
/// makes is the matrix's records, element for element and bit for bit,
/// however often it is made.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "core/aprod.hpp"
#include "core/kernel_catalog.hpp"
#include "matrix/generator.hpp"
#include "matrix/layouted_system.hpp"
#include "metrics/perf_baseline.hpp"
#include "test_helpers.hpp"

namespace gaia::matrix {
namespace {

using backends::KernelId;

TEST(PrecisionScalars, BytesNamesAndParsingAgree) {
  // The one enumerator is the default of every launch config, and the
  // traffic accounting charges it at sizeof(real): the global gather
  // moves one coefficient, one x entry and a y read-modify-write per
  // row, and the layout/precision overload charges the same bytes.
  EXPECT_EQ(backends::KernelConfig{}.precision, backends::Precision::kFp64);
  const auto gen = generate_system(gaia::testing::small_config(96));
  const core::SystemView view = core::SystemView::from(gen.A);
  const auto rows = static_cast<std::uint64_t>(view.n_rows);
  EXPECT_EQ(core::kernel_traffic_bytes(view, KernelId::kAprod1Glob),
            rows * 4 * sizeof(real));
  for (KernelId id : backends::all_kernels())
    EXPECT_EQ(core::kernel_traffic_bytes(view, id, StorageLayout::kSeedAos,
                                         backends::Precision::kFp64),
              core::kernel_traffic_bytes(view, id));

  // A baseline series is labelled "fp64" by default, keeps the label
  // through the JSON round trip, and is found under it.
  metrics::PerfBaseline base;
  base.name = "precision";
  metrics::KernelTiming t;
  t.kernel = "aprod_step";
  t.backend = "openmp";
  t.strategy = "privatized";
  t.median_seconds = 1e-3;
  t.samples = 3;
  base.kernels.push_back(t);
  const metrics::PerfBaseline parsed = metrics::parse_baseline(base.to_json());
  ASSERT_EQ(parsed.kernels.size(), 1u);
  EXPECT_EQ(parsed.kernels[0].precision, "fp64");
  EXPECT_NE(parsed.find("aprod_step", "openmp", "privatized"), nullptr);
}

class PrecisionStoreTest : public ::testing::Test {
 protected:
  PrecisionStoreTest()
      : gen_(generate_system(gaia::testing::small_config(97))) {}

  /// Whether the first `want.size()` elements at `got` equal `want` bit
  /// for bit.
  template <typename T>
  static bool same_bits(const T* got, std::span<const T> want) {
    for (std::size_t i = 0; i < want.size(); ++i)
      if (std::bit_cast<std::array<unsigned char, sizeof(T)>>(got[i]) !=
          std::bit_cast<std::array<unsigned char, sizeof(T)>>(want[i]))
        return false;
    return true;
  }

  GeneratedSystem gen_;
};

TEST_F(PrecisionStoreTest, BuildConvertsEveryBuiltStreamElementwise) {
  // The driver's device copy is the row records unconverted: all five
  // streams equal the matrix's elementwise, and the device holds
  // exactly their bytes — no reduced-precision copy beside them.
  backends::DeviceContext device;
  core::AprodOptions opts;
  opts.backend = backends::BackendKind::kSerial;
  const core::Aprod aprod(gen_.A, device, opts);
  const core::SystemView& view = aprod.view();
  const SystemMatrix& A = gen_.A;
  EXPECT_TRUE(same_bits(view.values, A.values()));
  EXPECT_TRUE(same_bits(view.idx_astro, A.matrix_index_astro()));
  EXPECT_TRUE(same_bits(view.idx_att, A.matrix_index_att()));
  EXPECT_TRUE(same_bits(view.instr_col, A.instr_col()));
  EXPECT_TRUE(same_bits(view.star_row_start, A.star_row_start()));
  EXPECT_EQ(device.allocated(),
            A.values().size_bytes() + A.matrix_index_astro().size_bytes() +
                A.matrix_index_att().size_bytes() +
                A.instr_col().size_bytes() +
                A.star_row_start().size_bytes());
}

TEST_F(PrecisionStoreTest, RebuildIsBitIdenticalAndIdempotent) {
  // Two drivers on the same system hold bit-identical coefficients, and
  // the retired layout owner's build leaves them so.
  backends::DeviceContext d1, d2;
  core::AprodOptions opts;
  opts.backend = backends::BackendKind::kSerial;
  const core::Aprod a(gen_.A, d1, opts);
  LayoutedSystem layouts(gen_.A);
  layouts.build(StorageLayout::kSoaTiled);
  layouts.build(StorageLayout::kSoaTiled);
  const core::Aprod b(gen_.A, d2, opts);
  const std::span<const real> first(a.view().values, gen_.A.values().size());
  EXPECT_TRUE(same_bits(b.view().values, first));
  EXPECT_EQ(d1.allocated(), d2.allocated());
}

}  // namespace
}  // namespace gaia::matrix
