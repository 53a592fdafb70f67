/// Down-conversion contract of the precision stores: the scalar
/// converters are deterministic pure bit operations with bounded
/// relative error, and LayoutedSystem::build_precision converts the
/// coefficient records once, idempotently, bit-identically across
/// rebuilds.
#include "matrix/precision.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "matrix/layouted_system.hpp"
#include "matrix/system_matrix.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gaia::matrix {
namespace {

TEST(PrecisionScalars, Bf16sRoundTripIsExactOnRepresentables) {
  // A value already representable in 8-exp/7-mantissa bits survives the
  // down/up trip bit for bit; the second trip is always the identity.
  for (real v : {0.0, 1.0, -2.0, 0.5, -0.09375, 1.5e20, -3.0e-20}) {
    const real once = from_bf16s(to_bf16s(v));
    EXPECT_EQ(from_bf16s(to_bf16s(once)), once) << v;
  }
  EXPECT_EQ(from_bf16s(to_bf16s(0.0)), 0.0);
  EXPECT_EQ(from_bf16s(to_bf16s(1.0)), 1.0);
  EXPECT_EQ(from_bf16s(to_bf16s(-1.0)), -1.0);
}

TEST(PrecisionScalars, Bf16sTruncationErrorIsBoundedByitsMantissa) {
  // Truncating 16 low bits of FP32 keeps 7 mantissa bits: the relative
  // error of one conversion is below 2^-7 (plus the fp64->fp32 step,
  // well inside that bound).
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const real v = rng.normal() * std::pow(10.0, (i % 17) - 8);
    if (v == 0.0) continue;
    const real back = from_bf16s(to_bf16s(v));
    EXPECT_LE(std::abs(back - v) / std::abs(v), 1.0 / 128.0) << v;
    // Truncation never changes sign.
    EXPECT_GE(back * v, 0.0) << v;
  }
}

TEST(PrecisionScalars, Fp32LoadIsRoundToNearest) {
  util::Xoshiro256 rng(12);
  for (int i = 0; i < 10000; ++i) {
    const real v = rng.normal();
    const real back = load_real(static_cast<float>(v));
    EXPECT_LE(std::abs(back - v),
              std::abs(v) * std::numeric_limits<float>::epsilon());
  }
  // The fp64 load is the identity — the seed kernel bodies are
  // unchanged at CoefT = real.
  EXPECT_EQ(load_real(real{0.1}), real{0.1});
}

TEST(PrecisionScalars, BytesNamesAndParsingAgree) {
  EXPECT_EQ(precision_bytes(Precision::kFp64), 8);
  EXPECT_EQ(precision_bytes(Precision::kFp32), 4);
  EXPECT_EQ(precision_bytes(Precision::kBf16s), 2);
  for (Precision p :
       {Precision::kFp64, Precision::kFp32, Precision::kBf16s}) {
    const auto parsed = parse_precision(to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(parse_precision("double"), Precision::kFp64);
  EXPECT_EQ(parse_precision("single"), Precision::kFp32);
  EXPECT_EQ(parse_precision("bfloat16"), Precision::kBf16s);
  EXPECT_FALSE(parse_precision("fp16").has_value());
  EXPECT_FALSE(parse_precision("").has_value());
}

class PrecisionStoreTest : public ::testing::Test {
 protected:
  PrecisionStoreTest()
      : gen_(generate_system(gaia::testing::small_config(97))) {}
  GeneratedSystem gen_;
};

TEST_F(PrecisionStoreTest, BuildConvertsEveryBuiltStreamElementwise) {
  LayoutedSystem layouts(gen_.A);
  layouts.build_precision(Precision::kFp32);
  layouts.build_precision(Precision::kBf16s);

  ASSERT_TRUE(layouts.has_precision(Precision::kFp32));
  ASSERT_TRUE(layouts.has_precision(Precision::kBf16s));
  // kFp64 needs no store: the seed records are the conversion.
  EXPECT_TRUE(layouts.has_precision(Precision::kFp64));

  // Same length as the records, per-element converted values.
  const auto seed = gen_.A.values();
  ASSERT_EQ(layouts.f32().values.size(), seed.size());
  ASSERT_EQ(layouts.b16().values.size(), seed.size());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    EXPECT_EQ(layouts.f32().values[i], static_cast<float>(seed[i]));
    EXPECT_EQ(layouts.b16().values[i].bits, to_bf16s(seed[i]).bits);
  }
}

TEST_F(PrecisionStoreTest, RebuildIsBitIdenticalAndIdempotent) {
  LayoutedSystem a(gen_.A);
  a.build_precision(Precision::kBf16s);
  const auto first = a.b16().values;
  a.build_precision(Precision::kBf16s);  // idempotent: no re-conversion
  EXPECT_EQ(a.b16().values.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(a.b16().values[i].bits, first[i].bits);

  LayoutedSystem b(gen_.A);
  b.build_precision(Precision::kBf16s);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(b.b16().values[i].bits, first[i].bits);
}

}  // namespace
}  // namespace gaia::matrix
