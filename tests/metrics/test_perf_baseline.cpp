/// \file test_perf_baseline.cpp
/// \brief Baseline JSON round-trips and perf-gate verdict semantics.
#include "metrics/perf_baseline.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::metrics {
namespace {

KernelTiming timing(const std::string& kernel, double seconds,
                    const std::string& backend = "openmp",
                    const std::string& strategy = "none") {
  KernelTiming t;
  t.kernel = kernel;
  t.backend = backend;
  t.strategy = strategy;
  t.median_seconds = seconds;
  t.samples = 9;
  return t;
}

PerfBaseline baseline_of(std::initializer_list<KernelTiming> kernels) {
  PerfBaseline b;
  b.name = "smoke";
  b.kernels = kernels;
  return b;
}

TEST(PerfBaseline, JsonRoundTrip) {
  PerfBaseline b = baseline_of({
      timing("aprod1_astro", 1.25e-3),
      timing("aprod2_att", 4.5e-4, "gpusim", "privatized"),
  });
  const PerfBaseline back = parse_baseline(b.to_json());
  EXPECT_EQ(back.name, "smoke");
  ASSERT_EQ(back.kernels.size(), 2u);
  EXPECT_EQ(back.kernels[0].kernel, "aprod1_astro");
  EXPECT_DOUBLE_EQ(back.kernels[0].median_seconds, 1.25e-3);
  EXPECT_EQ(back.kernels[0].samples, 9u);
  EXPECT_EQ(back.kernels[1].backend, "gpusim");
  EXPECT_EQ(back.kernels[1].strategy, "privatized");

  const KernelTiming* found = back.find("aprod2_att", "gpusim", "privatized");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->median_seconds, 4.5e-4);
  EXPECT_EQ(back.find("aprod2_att", "openmp", "privatized"), nullptr);
}

TEST(PerfBaseline, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_baseline(""), Error);
  EXPECT_THROW(parse_baseline("not json"), Error);
  EXPECT_THROW(parse_baseline("{\"version\":2,\"name\":\"x\",\"kernels\":[]}"),
               Error);
  EXPECT_THROW(
      parse_baseline("{\"version\":1,\"name\":\"x\",\"kernels\":[],"
                     "\"surprise\":1}"),
      Error);
  // Truncated document.
  const std::string good = baseline_of({timing("a", 1.0)}).to_json();
  EXPECT_THROW(parse_baseline(good.substr(0, good.size() / 2)), Error);
}

TEST(PerfBaseline, EscapedStringsRoundTripAsJson) {
  PerfBaseline b = baseline_of({timing("k\"q\\b\nn\tt", 2.5e-4)});
  b.name = "smoke \"q\" \\ line\nbreak\ttab";
  const std::string text = b.to_json();
  EXPECT_NO_THROW((void)util::parse_json(text)) << text;
  const PerfBaseline back = parse_baseline(text);
  EXPECT_EQ(back.name, b.name);
  ASSERT_EQ(back.kernels.size(), 1u);
  EXPECT_EQ(back.kernels[0].kernel, b.kernels[0].kernel);
  EXPECT_EQ(back.kernels[0].median_seconds, 2.5e-4);

  // Escapes any JSON tool may write decode as JSON defines them.
  EXPECT_EQ(parse_baseline(R"({"version":1,"name":"a\nb","kernels":[]})").name,
            "a\nb");
  EXPECT_EQ(
      parse_baseline(R"({"version":1,"name":"\u00e9\/","kernels":[]})").name,
      "\xc3\xa9/");
}

TEST(PerfBaseline, ParseKeepsEveryCheckUnderItsPrefix) {
  for (const std::string& bad : {
           std::string(R"({"name":"x","kernels":[]})"),
           std::string(R"({"version":1,"kernels":[{"backend":"openmp"}]})"),
           std::string(R"({"version":1,"kernels":[{"kernel":"a","x":1}]})"),
           std::string(R"({"version":1,"kernels":[{"kernel":7}]})"),
           std::string(R"({"version":1,"kernels":[]} trailing)"),
           std::string(R"({"version":1,"name":3,"kernels":[]})"),
       }) {
    try {
      (void)parse_baseline(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("perf baseline: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(PerfBaseline, CommittedSmokeBaselineLoads) {
  const PerfBaseline b = load_baseline(GAIA_SMOKE_BASELINE);
  EXPECT_EQ(b.name, "smoke");
  ASSERT_FALSE(b.kernels.empty());
  const KernelTiming* step = b.find("aprod_step", "openmp", "privatized");
  ASSERT_NE(step, nullptr);
  EXPECT_GT(step->median_seconds, 0);
  EXPECT_EQ(step->layout, "seed_aos");
  EXPECT_EQ(step->precision, "fp64");
}

TEST(PerfGate, IdenticalRunsPass) {
  const PerfBaseline b = baseline_of({timing("a", 1.0), timing("b", 2.0)});
  const GateReport report = perf_gate(b, b);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.regressions.empty());
  EXPECT_TRUE(report.improvements.empty());
  EXPECT_TRUE(report.missing.empty());
}

TEST(PerfGate, FlagsSlowdownBeyondTolerance) {
  const PerfBaseline base = baseline_of({timing("a", 1.0), timing("b", 1.0)});
  const PerfBaseline next = baseline_of({timing("a", 2.0), timing("b", 1.1)});
  const GateReport report = perf_gate(base, next);  // tolerance 0.25
  EXPECT_FALSE(report.pass);
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].kernel, "a");
  EXPECT_DOUBLE_EQ(report.regressions[0].ratio, 2.0);
  EXPECT_NE(report.to_string().find("REGRESSION"), std::string::npos);
}

TEST(PerfGate, ToleranceBoundaryIsInclusive) {
  const PerfBaseline base = baseline_of({timing("a", 1.0)});
  GateOptions opts;
  opts.tolerance = 0.25;
  // Exactly at the edge: allowed.
  EXPECT_TRUE(perf_gate(base, baseline_of({timing("a", 1.25)}), opts).pass);
  // Just past it: regression.
  EXPECT_FALSE(perf_gate(base, baseline_of({timing("a", 1.26)}), opts).pass);
  // Generous tolerance admits a 2x slowdown.
  opts.tolerance = 1.5;
  EXPECT_TRUE(perf_gate(base, baseline_of({timing("a", 2.0)}), opts).pass);
}

TEST(PerfGate, ClassifiesImprovements) {
  const PerfBaseline base = baseline_of({timing("a", 1.0)});
  const GateReport report = perf_gate(base, baseline_of({timing("a", 0.5)}));
  EXPECT_TRUE(report.pass);  // faster is never a failure
  ASSERT_EQ(report.improvements.size(), 1u);
  EXPECT_DOUBLE_EQ(report.improvements[0].ratio, 0.5);
}

TEST(PerfGate, MissingSeriesFailsUnlessAllowed) {
  const PerfBaseline base = baseline_of({timing("a", 1.0), timing("b", 1.0)});
  const PerfBaseline next = baseline_of({timing("a", 1.0)});
  const GateReport strict = perf_gate(base, next);
  EXPECT_FALSE(strict.pass);
  ASSERT_EQ(strict.missing.size(), 1u);
  EXPECT_EQ(strict.missing[0].kernel, "b");

  GateOptions opts;
  opts.allow_missing = true;
  const GateReport lax = perf_gate(base, next, opts);
  EXPECT_TRUE(lax.pass);
  EXPECT_EQ(lax.missing.size(), 1u);  // still reported, just not fatal
}

TEST(PerfGate, NewOnlySeriesAreIgnored) {
  const PerfBaseline base = baseline_of({timing("a", 1.0)});
  const PerfBaseline next =
      baseline_of({timing("a", 1.0), timing("brand_new", 99.0)});
  const GateReport report = perf_gate(base, next);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.regressions.empty());
}

}  // namespace
}  // namespace gaia::metrics
