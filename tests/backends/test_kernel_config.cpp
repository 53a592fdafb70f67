#include "backends/kernel_config.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/error.hpp"

namespace gaia::backends {
namespace {

TEST(KernelConfig, DefaultIsSentinel) {
  KernelConfig cfg;
  EXPECT_TRUE(cfg.is_default());
  EXPECT_FALSE((KernelConfig{32, 32}).is_default());
  EXPECT_EQ((KernelConfig{4, 8}).total_threads(), 32);
}

TEST(KernelId, NamesAreUniqueAndStable) {
  EXPECT_EQ(to_string(KernelId::kAprod1Astro), "aprod1_astro");
  EXPECT_EQ(to_string(KernelId::kAprod2Glob), "aprod2_glob");
  std::set<std::string> names;
  for (int k = 0; k < kNumKernels; ++k)
    names.insert(to_string(static_cast<KernelId>(k)));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumKernels));
}

TEST(KernelId, AtomicsFlagMatchesPaper) {
  // Only the aprod2 scatter kernels for shared columns need atomics; the
  // block-diagonal astrometric scatter and all gathers do not.
  EXPECT_FALSE(kernel_uses_atomics(KernelId::kAprod1Astro));
  EXPECT_FALSE(kernel_uses_atomics(KernelId::kAprod1Att));
  EXPECT_FALSE(kernel_uses_atomics(KernelId::kAprod1Instr));
  EXPECT_FALSE(kernel_uses_atomics(KernelId::kAprod1Glob));
  EXPECT_FALSE(kernel_uses_atomics(KernelId::kAprod2Astro));
  EXPECT_TRUE(kernel_uses_atomics(KernelId::kAprod2Att));
  EXPECT_TRUE(kernel_uses_atomics(KernelId::kAprod2Instr));
  EXPECT_TRUE(kernel_uses_atomics(KernelId::kAprod2Glob));
}

TEST(TuningTable, SetGetRoundTrip) {
  TuningTable t;
  t.set(KernelId::kAprod1Att, {10, 20});
  EXPECT_EQ(t.get(KernelId::kAprod1Att), (KernelConfig{10, 20}));
  EXPECT_TRUE(t.get(KernelId::kAprod1Astro).is_default());
}

TEST(TuningTable, SetAllAppliesEverywhere) {
  TuningTable t;
  t.set_all({7, 9});
  for (int k = 0; k < kNumKernels; ++k)
    EXPECT_EQ(t.get(static_cast<KernelId>(k)), (KernelConfig{7, 9}));
}

TEST(TuningTable, TunedDefaultNarrowsAtomicKernels) {
  // The production optimization: atomic kernels get fewer virtual
  // threads than gather kernels (paper SIV).
  const TuningTable t = TuningTable::tuned_default();
  const auto wide = t.get(KernelId::kAprod1Astro).total_threads();
  for (const KernelId id : {KernelId::kAprod2Att, KernelId::kAprod2Instr,
                            KernelId::kAprod2Glob}) {
    EXPECT_LT(t.get(id).total_threads(), wide) << to_string(id);
  }
  // The most contended kernel (single global column) is the narrowest.
  EXPECT_LE(t.get(KernelId::kAprod2Glob).total_threads(),
            t.get(KernelId::kAprod2Att).total_threads());
}

TEST(KernelConfig, ValidityAcceptsSentinelAndSaneShapes) {
  EXPECT_TRUE(is_valid_kernel_config({0, 0}));  // "backend default"
  EXPECT_TRUE(is_valid_kernel_config({1, 1}));
  EXPECT_TRUE(is_valid_kernel_config({kMaxBlocks, kMaxThreads}));
}

TEST(KernelConfig, ValidityRejectsNegativeZeroPairedAndAbsurd) {
  EXPECT_FALSE(is_valid_kernel_config({-1, 32}));
  EXPECT_FALSE(is_valid_kernel_config({32, -32}));
  EXPECT_FALSE(is_valid_kernel_config({0, 32}));  // half-default
  EXPECT_FALSE(is_valid_kernel_config({32, 0}));
  EXPECT_FALSE(is_valid_kernel_config({kMaxBlocks + 1, 32}));
  EXPECT_FALSE(is_valid_kernel_config({32, kMaxThreads + 1}));
}

TEST(KernelConfig, ValidateNamesTheContextAndValues) {
  EXPECT_NO_THROW(validate_kernel_config({32, 128}, "test"));
  try {
    validate_kernel_config({-3, 128}, "the-cli-flag");
    FAIL() << "expected gaia::Error";
  } catch (const Error& e) {
    // The message must let the user locate and fix the input.
    EXPECT_NE(std::string(e.what()).find("the-cli-flag"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(KernelConfig, ParseAcceptsTheDocumentedForms) {
  EXPECT_EQ(parse_kernel_config("32x128"), (KernelConfig{32, 128}));
  EXPECT_EQ(parse_kernel_config("1X1"), (KernelConfig{1, 1}));
  EXPECT_EQ(parse_kernel_config("8*256"), (KernelConfig{8, 256}));
}

TEST(KernelConfig, ParseRejectsMalformedAndOutOfRange) {
  for (const std::string bad :
       {"", "32", "x128", "32x", "32y128", "axb", "32x128x4", "-4x128",
        "32x-1", "0x64", "2000000x32", "32x100000"}) {
    EXPECT_THROW((void)parse_kernel_config(bad), Error) << "'" << bad << "'";
  }
}

TEST(KernelId, AllKernelsEnumeratesInOrder) {
  const auto& all = all_kernels();
  for (int k = 0; k < kNumKernels; ++k)
    EXPECT_EQ(all[static_cast<std::size_t>(k)], static_cast<KernelId>(k));
}

TEST(TuningTable, SetRejectsUnlaunchableShapes) {
  TuningTable t;
  EXPECT_THROW(t.set(KernelId::kAprod1Astro, {-1, 32}), Error);
  EXPECT_THROW(t.set(KernelId::kAprod1Astro, {32, kMaxThreads + 1}), Error);
  EXPECT_THROW(t.set_all({0, 7}), Error);
  // The failed set must not have modified the table.
  EXPECT_TRUE(t.get(KernelId::kAprod1Astro).is_default());
}

TEST(TuningTable, UntunedIsUniform) {
  const TuningTable t = TuningTable::untuned({256, 256});
  for (int k = 0; k < kNumKernels; ++k)
    EXPECT_EQ(t.get(static_cast<KernelId>(k)), (KernelConfig{256, 256}));
}

}  // namespace
}  // namespace gaia::backends
