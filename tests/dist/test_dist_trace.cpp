#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/critpath.hpp"
#include "obs/trace_merge.hpp"
#include "test_helpers.hpp"

namespace gaia::dist {
namespace {

namespace fs = std::filesystem;

class DistTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gaia_trace_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

DistLsqrOptions traced_options(int ranks, const std::string& trace_dir) {
  DistLsqrOptions opts;
  opts.n_ranks = ranks;
  opts.lsqr.aprod.backend = backends::BackendKind::kSerial;
  opts.lsqr.max_iterations = 5;
  opts.trace_dir = trace_dir;
  return opts;
}

TEST_F(DistTraceTest, ThreeRankRunEmitsPerRankAndMergedTraces) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(200));
  const auto result = dist_lsqr_solve(gen.A, traced_options(3, dir_.string()));

  ASSERT_EQ(result.trace_files.size(), 3u);
  ASSERT_FALSE(result.merged_trace_file.empty());
  for (const std::string& path : result.trace_files)
    EXPECT_TRUE(fs::exists(path)) << path;
  ASSERT_TRUE(fs::exists(result.merged_trace_file));

  // Each per-rank file parses strictly, validates, and carries its rank
  // identity and a non-negative clock offset against the world epoch.
  for (int r = 0; r < 3; ++r) {
    const obs::TraceDoc doc =
        obs::parse_trace_file(result.trace_files[static_cast<std::size_t>(r)]);
    obs::validate_trace(doc);
    EXPECT_EQ(doc.rank, r);
    EXPECT_EQ(doc.n_ranks, 3);
    EXPECT_GE(doc.epoch_offset_us, 0.0);
    bool has_comm = false, has_iteration = false;
    for (const auto& e : doc.events) {
      if (e.cat == "comm" && e.phase == 'X') has_comm = true;
      if (e.name == "lsqr.iteration") has_iteration = true;
    }
    EXPECT_TRUE(has_comm) << "rank " << r << " has no comm spans";
    EXPECT_TRUE(has_iteration) << "rank " << r << " has no iteration spans";
  }

  // The merged timeline validates and contains spans from all 3 ranks,
  // comm spans included — with the wait/exchange split present.
  const obs::TraceDoc merged =
      obs::parse_trace_file(result.merged_trace_file);
  obs::validate_trace(merged);
  EXPECT_TRUE(merged.merged);
  EXPECT_EQ(merged.source_ranks, (std::vector<int>{0, 1, 2}));
  std::set<std::int64_t> comm_pids;
  bool has_wait = false, has_exchange = false;
  for (const auto& e : merged.events) {
    if (e.cat != "comm" || e.phase != 'X') continue;
    comm_pids.insert(e.pid);
    if (e.name == "allreduce.wait") has_wait = true;
    if (e.name == "allreduce.exchange") has_exchange = true;
  }
  EXPECT_EQ(comm_pids, (std::set<std::int64_t>{0, 1, 2}));
  EXPECT_TRUE(has_wait);
  EXPECT_TRUE(has_exchange);
}

TEST_F(DistTraceTest, MergedTraceDrivesCritpathAnalysis) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(201));
  const auto result = dist_lsqr_solve(gen.A, traced_options(3, dir_.string()));

  const obs::TraceDoc merged =
      obs::parse_trace_file(result.merged_trace_file);
  const obs::CritpathReport report = obs::analyze_critpath(merged);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.n_ranks, 3);
  EXPECT_EQ(report.iterations.size(), 5u);
  EXPECT_GT(report.total_critical_path_us, 0.0);
  // Five synchronous allreduce-heavy iterations: comm must show up.
  EXPECT_GT(report.total_exposed_us, 0.0);
  EXPECT_GT(report.exposure_fraction, 0.0);
  EXPECT_LE(report.exposure_fraction, 1.0);
  for (const auto& iter : report.iterations) {
    EXPECT_EQ(iter.ranks_seen, 3);
    EXPECT_GT(iter.critical_path_us, 0.0);
  }
}

TEST_F(DistTraceTest, CommAccountingReachesResultAndMetrics) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(202));
  const auto result = dist_lsqr_solve(gen.A, traced_options(2, dir_.string()));

  EXPECT_GT(result.comm_seconds_max, 0.0);
  EXPECT_GE(result.comm_seconds_max, result.comm_wait_seconds_max);
  EXPECT_GT(result.comm_exposure_fraction_max, 0.0);
  EXPECT_LE(result.comm_exposure_fraction_max, 1.0);

  // The per-rank rows carry the comm split, and the scalar-as-histogram
  // encoding keeps count = 1 per rank so the cluster aggregation yields
  // a max envelope over ranks.
  bool found_seconds = false, found_exposure = false;
  for (const auto& rows : result.rank_metrics) {
    for (const auto& row : rows) {
      if (row.name == "dist.rank.comm.seconds") {
        found_seconds = true;
        EXPECT_EQ(row.count, 1u);
        EXPECT_DOUBLE_EQ(row.max, row.p50);
      }
      if (row.name == "dist.rank.comm.exposure_fraction")
        found_exposure = true;
    }
  }
  EXPECT_TRUE(found_seconds);
  EXPECT_TRUE(found_exposure);
  for (const auto& row : result.cluster_metrics) {
    if (row.name == "dist.rank.comm.seconds") {
      EXPECT_EQ(row.count, 2u);  // one sample per rank
      EXPECT_NEAR(row.max, result.comm_seconds_max, 1e-9);
    }
  }
}

TEST_F(DistTraceTest, UntracedRunLeavesNoArtifacts) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(203));
  DistLsqrOptions opts = traced_options(2, "");
  const auto result = dist_lsqr_solve(gen.A, opts);
  EXPECT_TRUE(result.trace_files.empty());
  EXPECT_TRUE(result.merged_trace_file.empty());
  EXPECT_EQ(result.trace_dropped_events, 0u);
  // Comm accounting is always on, traced or not.
  EXPECT_GT(result.comm_seconds_max, 0.0);
}

TEST_F(DistTraceTest, TraceCapacityCapsPerRankBuffers) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(204));
  DistLsqrOptions opts = traced_options(2, dir_.string());
  opts.trace_capacity = 16;  // far below the events a 5-iteration run emits
  const auto result = dist_lsqr_solve(gen.A, opts);
  EXPECT_GT(result.trace_dropped_events, 0u);
  for (const std::string& path : result.trace_files) {
    const obs::TraceDoc doc = obs::parse_trace_file(path);
    obs::validate_trace(doc);  // the sliding window is still a valid trace
    EXPECT_LE(doc.events.size(), 16u);
    EXPECT_GT(doc.dropped_events, 0u);
  }
}

}  // namespace
}  // namespace gaia::dist
