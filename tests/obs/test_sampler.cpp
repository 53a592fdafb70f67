#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace gaia::obs {
namespace {

namespace fs = std::filesystem;

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProgressBoard::global().set_enabled(false);
    ProgressBoard::global().reset();
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
    dir_ = fs::temp_directory_path() /
           ("gaia_sampler_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ProgressBoard::global().set_enabled(false);
    ProgressBoard::global().reset();
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
    set_global_snapshot_path("");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(SamplerTest, BoardDisabledUpdatesAreNoops) {
  auto& board = ProgressBoard::global();
  board.begin(-1, 100, "solve");
  board.update(-1, 5, 0.5, 0.01);
  EXPECT_TRUE(board.snapshot().empty());
}

TEST_F(SamplerTest, BoardTracksRowsPerRank) {
  auto& board = ProgressBoard::global();
  board.set_enabled(true);
  board.begin(0, 100, "solve");
  board.begin(1, 100, "solve");
  board.update(0, 7, 0.25, 1e-3);
  board.update(1, 9, 0.5, 2e-3);
  board.set_phase(1, "refine");
  auto rows = board.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rank, 0);
  EXPECT_EQ(rows[0].iteration, 7);
  EXPECT_EQ(rows[0].phase, "solve");
  EXPECT_DOUBLE_EQ(rows[0].rnorm, 0.25);
  EXPECT_EQ(rows[1].rank, 1);
  EXPECT_EQ(rows[1].phase, "refine");
  EXPECT_GE(rows[1].elapsed_s, 0.0);
  board.end(0);
  EXPECT_EQ(board.snapshot().size(), 1u);
}

TEST_F(SamplerTest, UpdateBeforeBeginIsIgnored) {
  auto& board = ProgressBoard::global();
  board.set_enabled(true);
  board.update(3, 10, 1.0, 1.0);
  EXPECT_TRUE(board.snapshot().empty());
}

TEST_F(SamplerTest, ThreadRankScopeRestoresPrevious) {
  EXPECT_EQ(ProgressBoard::thread_rank(), -1);
  {
    ThreadRankScope outer(2);
    EXPECT_EQ(ProgressBoard::thread_rank(), 2);
    {
      ThreadRankScope inner(5);
      EXPECT_EQ(ProgressBoard::thread_rank(), 5);
    }
    EXPECT_EQ(ProgressBoard::thread_rank(), 2);
  }
  EXPECT_EQ(ProgressBoard::thread_rank(), -1);
}

TEST_F(SamplerTest, StreamsJsonlSamplesAndRegistersActive) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  reg.counter("lsqr.iterations").add(42);

  const std::string path = (dir_ / "telemetry.jsonl").string();
  SamplerConfig cfg;
  cfg.path = path;
  cfg.period_ms = 5;
  {
    TelemetrySampler sampler(cfg);
    EXPECT_EQ(TelemetrySampler::active(), &sampler);
    EXPECT_TRUE(ProgressBoard::global().enabled());
    auto& board = ProgressBoard::global();
    board.begin(-1, 100, "solve");
    for (int i = 1; i <= 20; ++i) {
      board.update(-1, i, 1.0 / i, 1e-4);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sampler.stop();
    EXPECT_GE(sampler.samples(), 2u);
    // Ring tail returns the newest lines, oldest first.
    const auto tail = sampler.ring_tail(4);
    ASSERT_FALSE(tail.empty());
    EXPECT_LE(tail.size(), 4u);
    for (const auto& line : tail)
      EXPECT_NO_THROW((void)util::parse_json(line)) << line;
  }
  EXPECT_EQ(TelemetrySampler::active(), nullptr);

  // Each streamed line is standalone JSON with the documented fields.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_progress_row = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const util::JsonValue v = util::parse_json(line);
    ASSERT_NE(v.find("t_s"), nullptr) << line;
    ASSERT_NE(v.find("sample"), nullptr) << line;
    const util::JsonValue* progress = v.find("progress");
    ASSERT_NE(progress, nullptr) << line;
    ASSERT_TRUE(progress->is_array()) << line;
    for (const auto& row : progress->array) {
      saw_progress_row = true;
      EXPECT_EQ(row.number_or("max_iterations", 0), 100.0);
      ASSERT_NE(row.find("phase"), nullptr);
      ASSERT_NE(row.find("eta_s"), nullptr);
    }
    const util::JsonValue* metrics = v.find("metrics");
    ASSERT_NE(metrics, nullptr) << line;
    EXPECT_GE(metrics->number_or("lsqr.iterations", -1), 42.0);
  }
  EXPECT_GE(lines, 2u);
  EXPECT_TRUE(saw_progress_row);
}

TEST_F(SamplerTest, RingIsBoundedAndCountsDrops) {
  SamplerConfig cfg;  // no path: ring-only mode
  cfg.period_ms = 1;
  cfg.ring_capacity = 3;
  TelemetrySampler sampler(cfg);
  while (sampler.samples() < 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sampler.stop();
  EXPECT_LE(sampler.ring_tail(100).size(), 3u);
  EXPECT_GT(sampler.dropped(), 0u);
}

TEST_F(SamplerTest, PeriodicSnapshotSealRidesTheSamplerCadence) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  reg.gauge("solver.phase").set(1);
  const std::string snap = (dir_ / "snapshot.json").string();
  set_global_snapshot_path(snap);

  SamplerConfig cfg;
  cfg.period_ms = 2;
  cfg.snapshot_every_s = 0.01;
  TelemetrySampler sampler(cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  sampler.stop();
  set_global_snapshot_path("");
  ASSERT_TRUE(fs::exists(snap));
  const std::vector<MetricRow> rows = read_snapshot_file(snap);
  EXPECT_FALSE(rows.empty());
}

TEST_F(SamplerTest, SecondSamplerDoesNotStealActive) {
  SamplerConfig cfg;
  cfg.period_ms = 50;
  TelemetrySampler first(cfg);
  EXPECT_EQ(TelemetrySampler::active(), &first);
  {
    TelemetrySampler second(cfg);
    EXPECT_EQ(TelemetrySampler::active(), &first);
  }
  EXPECT_EQ(TelemetrySampler::active(), &first);
}

}  // namespace
}  // namespace gaia::obs
