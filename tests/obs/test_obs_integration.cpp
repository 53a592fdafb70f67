/// \file test_obs_integration.cpp
/// \brief End-to-end observability check: a traced LSQR campaign emits a
/// valid timeline with one step-pass span per LSQR step, each carrying
/// the pass's exact traffic, and the metrics CSV transfer totals equal
/// the device-side byte accounting exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/kernel_catalog.hpp"
#include "core/lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::obs {
namespace {

/// Reads `name,...,sum,...` rows back out of the metrics CSV.
std::map<std::string, double> csv_sums(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::map<std::string, double> sums;
  std::string line;
  std::getline(f, line);  // header
  EXPECT_EQ(line, "name,type,count,sum,min,max,last,p50,p95,p99");
  while (std::getline(f, line)) {
    std::istringstream row(line);
    std::string name, type, count, sum;
    std::getline(row, name, ',');
    std::getline(row, type, ',');
    std::getline(row, count, ',');
    std::getline(row, sum, ',');
    sums[name] = std::stod(sum);
  }
  return sums;
}

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {}
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ObsIntegration, TracedLsqrRunEmitsFullTimelineAndExactByteTotals) {
  const ScopedFile trace_file("obs_integration_trace.json");
  const ScopedFile metrics_file("obs_integration_metrics.csv");

  const auto gen = matrix::generate_system(gaia::testing::small_config(640));
  core::LsqrResult result;
  std::vector<TraceEvent> events;
  {
    Session session(trace_file.path, metrics_file.path);
    core::LsqrOptions opts;
    opts.aprod.backend = backends::BackendKind::kGpuSim;
    opts.max_iterations = 100;
    opts.atol = 0;  // run all 100 iterations (the acceptance scenario)
    opts.btol = 0;
    opts.compute_std_errors = false;
    result = core::lsqr_solve(gen.A, opts);
    events = TraceRecorder::global().events();
  }
  ASSERT_EQ(result.iterations, 100);

  // 1. The emitted file is valid trace-event JSON.
  std::ifstream f(trace_file.path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_NO_THROW((void)util::parse_json(buf.str()));
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);

  // 2. Only the step pass appears as a kernel span, on the caller's
  // track, annotated with its launch config and the step's bytes (the
  // coefficients read once for both products).
  const core::SystemView view = core::SystemView::from(gen.A);
  std::map<std::string, std::uint64_t> expected;
  expected[core::pass_region_name(tuning::kStepPass)] =
      core::pass_traffic_bytes(view, tuning::kStepPass);
  std::set<std::string> seen;
  for (const auto& e : events) {
    if (e.phase != 'X' || e.cat != "kernel") continue;
    ASSERT_EQ(expected.count(e.name), 1u) << e.name;
    seen.insert(e.name);
    EXPECT_EQ(e.tid, TraceRecorder::kMainTrack) << e.name;
    std::map<std::string, std::string> args;
    for (const auto& a : e.args) args[a.key()] = a.json_value();
    EXPECT_TRUE(args.count("backend")) << e.name;
    EXPECT_TRUE(args.count("blocks")) << e.name;
    EXPECT_TRUE(args.count("threads")) << e.name;
    EXPECT_EQ(args["bytes"], std::to_string(expected.at(e.name))) << e.name;
  }
  EXPECT_EQ(seen.size(), expected.size());

  // 3. Per-iteration telemetry: one lsqr.iteration span per iteration.
  int iteration_spans = 0;
  for (const auto& e : events)
    if (e.phase == 'X' && e.name == "lsqr.iteration") ++iteration_spans;
  EXPECT_EQ(iteration_spans, 100);

  // 4. The metrics CSV transfer totals equal the device accounting that
  // the solver itself reports — not approximately, bit for bit.
  const auto sums = csv_sums(metrics_file.path);
  ASSERT_TRUE(sums.count("transfer.h2d_bytes"));
  EXPECT_EQ(static_cast<std::uint64_t>(sums.at("transfer.h2d_bytes")),
            result.h2d_bytes);
  ASSERT_TRUE(sums.count("lsqr.iterations"));
  EXPECT_EQ(static_cast<std::uint64_t>(sums.at("lsqr.iterations")), 100u);
  // One step launch per LSQR step: the bidiagonalization start plus one
  // per iteration.
  ASSERT_TRUE(sums.count("kernel.aprod_step.gpusim.privatized.launches"));
  EXPECT_EQ(static_cast<std::uint64_t>(
                sums.at("kernel.aprod_step.gpusim.privatized.launches")),
            101u);
}

TEST(ObsIntegration, UntracedRunLeavesGlobalsUntouched) {
  TraceRecorder::global().set_enabled(false);
  TraceRecorder::global().reset();
  MetricsRegistry::global().set_enabled(false);
  MetricsRegistry::global().reset();

  const auto gen = matrix::generate_system(gaia::testing::small_config(642));
  core::LsqrOptions opts;
  opts.aprod.backend = backends::BackendKind::kGpuSim;
  opts.max_iterations = 10;
  opts.compute_std_errors = false;
  core::lsqr_solve(gen.A, opts);

  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
  EXPECT_EQ(
      MetricsRegistry::global().counter("transfer.h2d_bytes").value(), 0u);
}

TEST(ObsIntegration, SessionResetsBothRegistryAndTraceTimeBase) {
  // Leftovers from a previous "run" in the same process.
  TraceRecorder::global().set_enabled(true);
  TraceRecorder::global().complete("stale", "kernel", 0, 1, 0);
  TraceRecorder::global().set_enabled(false);
  MetricsRegistry::global().set_enabled(true);
  MetricsRegistry::global().counter("stale.counter").add(7);
  MetricsRegistry::global().set_enabled(false);
  ASSERT_GT(TraceRecorder::global().event_count(), 0u);

  {
    // A metrics-only session (no trace path) must still clear the trace
    // recorder: a later traced session would otherwise inherit events
    // and a clock epoch from before this one.
    const ScopedFile metrics_file("obs_session_reset_metrics.csv");
    Session session("", metrics_file.path);
    EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
    EXPECT_LT(TraceRecorder::global().now_us(), 1e6);
    EXPECT_EQ(MetricsRegistry::global().counter("stale.counter").value(),
              0u);
  }
}

}  // namespace
}  // namespace gaia::obs
