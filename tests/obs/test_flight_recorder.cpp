#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::obs {
namespace {

namespace fs = std::filesystem;

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::global().reset();
    FlightRecorder::global().set_capacity(FlightRecorder::kDefaultCapacity);
    clear_postmortem_context();
    set_postmortem_dir("");
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
    dir_ = fs::temp_directory_path() /
           ("gaia_flight_test_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    FlightRecorder::global().reset();
    FlightRecorder::global().set_capacity(FlightRecorder::kDefaultCapacity);
    clear_postmortem_context();
    set_postmortem_dir("");
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(FlightRecorderTest, RecordsOrderedEvents) {
  FlightRecorder rec;
  rec.record("state", "solver.generated", "4 MB");
  rec.record("fault", "rank.death", "rank 1", 28, 1);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].category, "state");
  EXPECT_EQ(events[0].name, "solver.generated");
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].iteration, 28);
  EXPECT_EQ(events[1].rank, 1);
  EXPECT_GE(events[1].t_s, events[0].t_s);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST_F(FlightRecorderTest, RingDropsOldestPastCapacity) {
  FlightRecorder rec;
  rec.set_capacity(4);
  for (int i = 0; i < 10; ++i)
    rec.record("state", "event." + std::to_string(i));
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "event.6");
  EXPECT_EQ(events.back().name, "event.9");
  EXPECT_EQ(rec.dropped(), 6u);
  // Sequence numbers keep counting across drops.
  EXPECT_EQ(events.back().seq, 9u);
}

TEST_F(FlightRecorderTest, ZeroCapacityIsIgnoredAndResetClears) {
  FlightRecorder rec;
  rec.set_capacity(0);
  EXPECT_EQ(rec.capacity(), FlightRecorder::kDefaultCapacity);
  rec.record("state", "x");
  rec.reset();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record("state", "y");
  EXPECT_EQ(rec.events().front().seq, 0u);
}

TEST_F(FlightRecorderTest, FlightEventShimHitsTheGlobalRing) {
  flight_event("resilience", "checkpoint.written", "ckpt/000010");
  const auto events = FlightRecorder::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, "resilience");
  EXPECT_EQ(events[0].name, "checkpoint.written");
}

TEST_F(FlightRecorderTest, BundleJsonRoundTrips) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  reg.counter("lsqr.iterations").add(60);
  flight_event("state", "solver.generated", "detail with \"quotes\"\nline2");
  flight_event("fault", "solver.sdc_unrepaired", "bit 62 flip", 23, -1);
  set_postmortem_context("backend", "openmp");
  set_postmortem_context("seed", "1746");

  PostmortemInfo info;
  info.reason = "sdc-unrepaired";
  info.detail = "invariant trip at iteration 23";
  info.rank = -1;
  info.ranks = 3;
  const PostmortemBundle bundle = collect_postmortem(info);
  EXPECT_EQ(bundle.version, kPostmortemVersion);
  EXPECT_EQ(bundle.events.size(), 2u);
  EXPECT_EQ(bundle.context.at("backend"), "openmp");
  EXPECT_FALSE(bundle.metrics.empty());

  const std::string json = postmortem_json(bundle);
  EXPECT_NO_THROW((void)util::parse_json(json)) << json;
  const PostmortemBundle back = parse_postmortem_json(json);
  EXPECT_EQ(back.info.reason, "sdc-unrepaired");
  EXPECT_EQ(back.info.detail, info.detail);
  EXPECT_EQ(back.info.rank, -1);
  EXPECT_EQ(back.info.ranks, 3);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].detail, "detail with \"quotes\"\nline2");
  EXPECT_EQ(back.events[1].iteration, 23);
  EXPECT_EQ(back.context.at("seed"), "1746");
  ASSERT_EQ(back.metrics.size(), bundle.metrics.size());
  EXPECT_EQ(back.metrics[0].name, bundle.metrics[0].name);
}

TEST_F(FlightRecorderTest, BundleAndSnapshotShareOneMetricRowCodec) {
  std::vector<MetricRow> rows(2);
  rows[0].name = "lsqr.arnorm";
  rows[0].type = "gauge";
  rows[0].count = 4;
  rows[0].sum = 1.5;
  rows[0].last = std::nan("");
  rows[1].name = "name \"with\"\tescapes\n";
  rows[1].type = "histogram";
  rows[1].count = 3;
  rows[1].sum = 0.1 + 0.2;
  rows[1].min = 0.1;
  rows[1].max = 1e-300;
  rows[1].p50 = 2.0 / 3.0;
  rows[1].p95 = 7;
  rows[1].p99 = 8;

  PostmortemBundle bundle;
  bundle.metrics = rows;
  const std::vector<MetricRow> from_bundle =
      parse_postmortem_json(postmortem_json(bundle)).metrics;
  const auto from_snapshot = parse_snapshot_json(snapshot_json(rows, {}));
  ASSERT_TRUE(from_snapshot.has_value());

  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || a == b;
  };
  for (const std::vector<MetricRow>* back : {&from_bundle, &*from_snapshot}) {
    ASSERT_EQ(back->size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const MetricRow& a = rows[i];
      const MetricRow& b = (*back)[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.count, b.count);
      for (const auto field : {&MetricRow::sum, &MetricRow::min,
                               &MetricRow::max, &MetricRow::last,
                               &MetricRow::p50, &MetricRow::p95,
                               &MetricRow::p99})
        EXPECT_TRUE(same(a.*field, b.*field))
            << a.name << ": " << a.*field << " vs " << b.*field;
    }
  }
}

TEST_F(FlightRecorderTest, ContextEraseAndClear) {
  set_postmortem_context("a", "1");
  set_postmortem_context("b", "2");
  set_postmortem_context("a", "");  // erase
  auto ctx = postmortem_context();
  EXPECT_EQ(ctx.count("a"), 0u);
  EXPECT_EQ(ctx.at("b"), "2");
  clear_postmortem_context();
  EXPECT_TRUE(postmortem_context().empty());
}

TEST_F(FlightRecorderTest, BundleCarriesTraceTail) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  for (int i = 0; i < 100; ++i)
    rec.complete("kernel.launch." + std::to_string(i), "kernel",
                 static_cast<double>(i), 1.0, TraceRecorder::kMainTrack);
  const PostmortemBundle bundle =
      collect_postmortem({"exception", "boom", -1, 1}, 8);
  rec.set_enabled(false);
  rec.reset();
  ASSERT_EQ(bundle.trace_tail.size(), 8u);
  EXPECT_EQ(bundle.trace_tail.back().name, "kernel.launch.99");
}

TEST_F(FlightRecorderTest, FileRoundTripAndTornRejection) {
  fs::create_directories(dir_);
  const std::string path = (dir_ / "postmortem.json").string();
  flight_event("fault", "rank.death", "injected", 28, 1);
  PostmortemBundle bundle = collect_postmortem({"rank-death", "x", 1, 4});
  write_postmortem_file(path, bundle);
  const PostmortemBundle back = read_postmortem_file(path);
  EXPECT_EQ(back.info.reason, "rank-death");
  EXPECT_EQ(back.info.rank, 1);
  EXPECT_EQ(back.info.ranks, 4);

  // Truncation (a torn write) must be rejected loudly, not half-parsed.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW((void)read_postmortem_file(path), Error);
  EXPECT_THROW((void)read_postmortem_file((dir_ / "missing.json").string()),
               Error);
}

TEST_F(FlightRecorderTest, ParseRejectsVersionMismatchAndGarbage) {
  EXPECT_THROW((void)parse_postmortem_json("not json"), Error);
  EXPECT_THROW((void)parse_postmortem_json("{}"), Error);
  const std::string json =
      postmortem_json(collect_postmortem({"exception", "x", -1, 1}));
  std::string bumped = json;
  const auto pos = bumped.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  bumped.replace(pos, 11, "\"version\":9");
  EXPECT_THROW((void)parse_postmortem_json(bumped), Error);
}

TEST_F(FlightRecorderTest, FlushIsNoopWhileDisarmed) {
  EXPECT_EQ(postmortem_dir(), "");
  EXPECT_EQ(flush_postmortem({"exception", "x", -1, 1}), "");
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(FlightRecorderTest, FlushCreatesDirAndNamesRankBundles) {
  set_postmortem_dir(dir_.string());
  const std::string cluster = flush_postmortem({"sdc-unrepaired", "x", -1, 2});
  EXPECT_EQ(fs::path(cluster).filename(), "postmortem.json");
  const std::string rank1 = flush_postmortem({"rank-death", "y", 1, 2});
  EXPECT_EQ(fs::path(rank1).filename(), "postmortem.rank1.json");
  const std::string named =
      flush_postmortem({"repaired", "z", -1, 1}, "postmortem.sdc-late.json");
  EXPECT_EQ(fs::path(named).filename(), "postmortem.sdc-late.json");
  for (const auto& p : {cluster, rank1, named}) {
    const PostmortemBundle back = read_postmortem_file(p);
    EXPECT_FALSE(back.info.reason.empty()) << p;
  }
}

}  // namespace
}  // namespace gaia::obs
