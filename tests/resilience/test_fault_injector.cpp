#include "resilience/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace gaia::resilience {
namespace {

/// Every test leaves the process-global injector disarmed.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::global().disarm(); }
};

TEST_F(FaultInjectorTest, ParsesTheFullGrammar) {
  const FaultSpec spec = parse_fault_spec(
      "kernel:p=0.01,backend=gpusim;h2d:p=0.005;d2h:p=0.01,mode=corrupt;"
      "rank:iter=200,rank=1;ckpt:truncate,nth=2;seed=42");
  ASSERT_EQ(spec.clauses.size(), 5u);
  EXPECT_EQ(spec.seed, 42u);

  EXPECT_EQ(spec.clauses[0].site, FaultSite::kKernel);
  EXPECT_DOUBLE_EQ(spec.clauses[0].probability, 0.01);
  EXPECT_EQ(spec.clauses[0].backend, "gpusim");

  EXPECT_EQ(spec.clauses[1].site, FaultSite::kH2D);
  EXPECT_EQ(spec.clauses[1].transfer_mode, TransferFault::kFail);

  EXPECT_EQ(spec.clauses[2].site, FaultSite::kD2H);
  EXPECT_EQ(spec.clauses[2].transfer_mode, TransferFault::kCorrupt);

  EXPECT_EQ(spec.clauses[3].site, FaultSite::kRank);
  EXPECT_EQ(spec.clauses[3].rank, 1);
  EXPECT_EQ(spec.clauses[3].iteration, 200);
  EXPECT_EQ(spec.clauses[3].max_count, 1);  // rank clauses fire once

  EXPECT_EQ(spec.clauses[4].site, FaultSite::kCheckpoint);
  EXPECT_EQ(spec.clauses[4].ckpt_mode, CheckpointFault::kTruncate);
  EXPECT_EQ(spec.clauses[4].nth, 2);
}

TEST_F(FaultInjectorTest, MalformedSpecsNameTheOffendingClause) {
  try {
    (void)parse_fault_spec("kernel:p=2");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("kernel:p=2"), std::string::npos);
  }
  EXPECT_THROW((void)parse_fault_spec("nosuchsite:p=0.5"), Error);
  EXPECT_THROW((void)parse_fault_spec("kernel"), Error);
  EXPECT_THROW((void)parse_fault_spec("kernel:frobnicate=1"), Error);
  EXPECT_THROW((void)parse_fault_spec("rank:rank=1"), Error);  // iter missing
  EXPECT_THROW((void)parse_fault_spec("d2h:mode=explode"), Error);
}

TEST_F(FaultInjectorTest, DisarmedInjectorNeverFires) {
  FaultInjector& inj = FaultInjector::global();
  inj.disarm();
  EXPECT_FALSE(inj.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail_kernel("aprod1_astro", "serial"));
    EXPECT_EQ(inj.on_transfer(FaultSite::kH2D), TransferFault::kNone);
    EXPECT_EQ(inj.on_checkpoint_write(), std::nullopt);
    EXPECT_NO_THROW(inj.maybe_kill_rank(0, 1));
  }
  EXPECT_EQ(inj.injected_total(), 0u);
}

TEST_F(FaultInjectorTest, DecisionStreamIsReproducibleFromTheSeed) {
  FaultInjector& inj = FaultInjector::global();
  auto pattern = [&](std::uint64_t seed) {
    inj.configure("kernel:p=0.3", seed);
    std::vector<bool> fired;
    fired.reserve(500);
    for (int i = 0; i < 500; ++i)
      fired.push_back(inj.should_fail_kernel("aprod1_astro", "serial"));
    return fired;
  };
  const auto a = pattern(1746);
  const auto b = pattern(1746);
  EXPECT_EQ(a, b);  // same seed: bit-identical event decisions
  const auto c = pattern(42);
  EXPECT_NE(a, c);  // different seed: different pattern
  // And a p=0.3 stream over 500 events actually injects a sane amount.
  const auto fired_count =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired_count, 100u);
  EXPECT_LT(fired_count, 200u);
}

TEST_F(FaultInjectorTest, CountCapStopsInjections) {
  FaultInjector& inj = FaultInjector::global();
  inj.configure("kernel:p=1,count=3", 1);
  int fired = 0;
  for (int i = 0; i < 20; ++i)
    if (inj.should_fail_kernel("k", "serial")) ++fired;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.injected(FaultSite::kKernel), 3u);
}

TEST_F(FaultInjectorTest, BackendFilterOnlyHitsThatBackend) {
  FaultInjector& inj = FaultInjector::global();
  inj.configure("kernel:p=1,backend=gpusim", 1);
  EXPECT_FALSE(inj.should_fail_kernel("k", "serial"));
  EXPECT_FALSE(inj.should_fail_kernel("k", "openmp"));
  EXPECT_TRUE(inj.should_fail_kernel("k", "gpusim"));
}

TEST_F(FaultInjectorTest, RankClauseKillsExactlyOnce) {
  FaultInjector& inj = FaultInjector::global();
  inj.configure("rank:iter=5,rank=1", 1);
  EXPECT_NO_THROW(inj.maybe_kill_rank(0, 5));  // wrong rank
  EXPECT_NO_THROW(inj.maybe_kill_rank(1, 4));  // wrong iteration
  try {
    inj.maybe_kill_rank(1, 5);
    FAIL() << "expected RankDeath";
  } catch (const RankDeath& death) {
    EXPECT_EQ(death.rank(), 1);
    EXPECT_EQ(death.iteration(), 5);
  }
  // The restarted run passes the same (rank, iteration) again; the
  // clause is exhausted, so the survivor set keeps going this time.
  EXPECT_NO_THROW(inj.maybe_kill_rank(1, 5));
  EXPECT_EQ(inj.injected(FaultSite::kRank), 1u);
}

TEST_F(FaultInjectorTest, NthCheckpointClauseCorruptsOnlyThatWrite) {
  FaultInjector& inj = FaultInjector::global();
  inj.configure("ckpt:truncate,nth=2", 1);
  EXPECT_EQ(inj.on_checkpoint_write(), std::nullopt);
  EXPECT_EQ(inj.on_checkpoint_write(), CheckpointFault::kTruncate);
  EXPECT_EQ(inj.on_checkpoint_write(), std::nullopt);
  EXPECT_EQ(inj.injected(FaultSite::kCheckpoint), 1u);

  inj.configure("ckpt:bitflip", 1);
  EXPECT_EQ(inj.on_checkpoint_write(), CheckpointFault::kBitflip);
  EXPECT_EQ(inj.on_checkpoint_write(), CheckpointFault::kBitflip);
}

TEST_F(FaultInjectorTest, ParsesSdcClausesWithDefaults) {
  const FaultSpec spec =
      parse_fault_spec("sdc:kernel=aprod2,iter=12", 7);
  ASSERT_EQ(spec.clauses.size(), 1u);
  const FaultClause& c = spec.clauses[0];
  EXPECT_EQ(c.site, FaultSite::kSdc);
  EXPECT_EQ(c.kernel, "aprod2");
  EXPECT_EQ(c.iteration, 12);
  EXPECT_EQ(c.rank, 0);        // default victim: rank 0
  EXPECT_EQ(c.bit, 51);        // default: top mantissa bit
  EXPECT_EQ(c.index, -1);      // default: seeded element draw
  EXPECT_EQ(c.max_count, 1);   // sdc clauses fire once by default

  const FaultSpec full = parse_fault_spec(
      "sdc:kernel=aprod1,iter=30,rank=1,bit=62,index=17,count=4");
  ASSERT_EQ(full.clauses.size(), 1u);
  EXPECT_EQ(full.clauses[0].kernel, "aprod1");
  EXPECT_EQ(full.clauses[0].rank, 1);
  EXPECT_EQ(full.clauses[0].bit, 62);
  EXPECT_EQ(full.clauses[0].index, 17);
  EXPECT_EQ(full.clauses[0].max_count, 4);
}

TEST_F(FaultInjectorTest, MalformedSdcSpecsCarryPositionedDiagnoses) {
  // The error names the clause, the byte offset, and what is wrong —
  // a typo'd campaign must never silently run healthy.
  auto expect_error_mentions = [](const std::string& spec,
                                  const std::string& needle) {
    try {
      (void)parse_fault_spec(spec);
      FAIL() << "expected Error for '" << spec << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  expect_error_mentions("sdc:iter=12", "kernel");        // kernel missing
  expect_error_mentions("sdc:kernel=aprod2", "iter");    // iteration missing
  expect_error_mentions("sdc:kernel=aprod2,iter=12,bit=64", "bit");
  expect_error_mentions("sdc:kernel=aprod2,iter=12,bitt=51", "bitt");
  // Trailing junk in numeric values is garbage, not a number.
  EXPECT_THROW((void)parse_fault_spec("sdc:kernel=a,iter=12abc"), Error);
  EXPECT_THROW((void)parse_fault_spec("sdc:kernel=a,iter=12,bit=51x"), Error);
  // A later clause reports an offset past the first clause.
  try {
    (void)parse_fault_spec("kernel:p=0.5;sdc:kernel=a,iter=1,nope=2");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos) << what;
    EXPECT_EQ(what.find("offset 0"), std::string::npos) << what;
  }
}

TEST_F(FaultInjectorTest, SdcClauseFiresOnceDeterministically) {
  FaultInjector& inj = FaultInjector::global();
  inj.configure("sdc:kernel=aprod2,iter=12", 1746);
  // Wrong kernel, iteration, or rank: no flip.
  EXPECT_EQ(inj.on_kernel_output("aprod1", 12, 0, 100), std::nullopt);
  EXPECT_EQ(inj.on_kernel_output("aprod2", 11, 0, 100), std::nullopt);
  EXPECT_EQ(inj.on_kernel_output("aprod2", 12, 1, 100), std::nullopt);
  const auto flip = inj.on_kernel_output("aprod2", 12, 0, 100);
  ASSERT_TRUE(flip.has_value());
  EXPECT_LT(flip->index, 100u);
  EXPECT_EQ(flip->bit, 51);
  // Default count=1: the clause is spent (the repaired replay passes
  // the same site again and must run clean).
  EXPECT_EQ(inj.on_kernel_output("aprod2", 12, 0, 100), std::nullopt);
  EXPECT_EQ(inj.injected(FaultSite::kSdc), 1u);

  // Same seed, same element drawn; different seed, (almost surely) not.
  inj.configure("sdc:kernel=aprod2,iter=12", 1746);
  const auto again = inj.on_kernel_output("aprod2", 12, 0, 100);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->index, flip->index);
}

TEST_F(FaultInjectorTest, SdcClauseMatchesKernelPrefixGroups) {
  FaultInjector& inj = FaultInjector::global();
  // A clause naming a concrete scatter kernel matches the combined
  // output pass of its group ("aprod2" covers aprod2_att et al.).
  inj.configure("sdc:kernel=aprod2_att,iter=3,index=0,bit=50", 1);
  const auto flip = inj.on_kernel_output("aprod2", 3, 0, 10);
  ASSERT_TRUE(flip.has_value());
  EXPECT_EQ(flip->index, 0u);
  EXPECT_EQ(flip->bit, 50);
}

TEST_F(FaultInjectorTest, ApplyBitflipIsItsOwnInverse) {
  std::vector<real> v = {1.0, -2.5, 3.25};
  const std::vector<real> orig = v;
  const SdcFlip flip{1, 51};
  apply_bitflip(std::span<real>(v), flip);
  EXPECT_NE(v[1], orig[1]);
  EXPECT_EQ(v[0], orig[0]);
  EXPECT_EQ(v[2], orig[2]);
  apply_bitflip(std::span<real>(v), flip);
  EXPECT_EQ(v, orig);
}

TEST_F(FaultInjectorTest, OnlyTheSpecChoosesTheDecisionStream) {
  // The spec's `seed=` clause is the one seed knob: without it the
  // stream is the default seed's, with it the clause's.
  FaultInjector& inj = FaultInjector::global();
  const auto decisions = [&inj](const std::string& spec) {
    inj.configure(parse_fault_spec(spec));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i)
      fired.push_back(inj.should_fail_kernel("k", "serial"));
    return fired;
  };
  const std::vector<bool> reference = decisions("kernel:p=0.5");
  EXPECT_EQ(decisions("kernel:p=0.5;seed=1746"), reference);
  EXPECT_NE(decisions("kernel:p=0.5;seed=5"), reference);
  EXPECT_EQ(decisions("seed=5;kernel:p=0.5"), decisions("kernel:p=0.5;seed=5"));
}

}  // namespace
}  // namespace gaia::resilience
