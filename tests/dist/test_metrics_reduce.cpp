/// \file test_metrics_reduce.cpp
/// \brief Cross-rank metric aggregation: reduction math, schema
/// agreement, poison safety, and the dist_lsqr cluster snapshot.
#include "dist/metrics_reduce.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/export.hpp"
#include "test_helpers.hpp"

namespace gaia::dist {
namespace {

obs::MetricRow counter_row(const std::string& name, double value) {
  obs::MetricRow r;
  r.name = name;
  r.type = "counter";
  r.count = static_cast<std::uint64_t>(value);
  r.sum = value;
  r.last = value;
  return r;
}

obs::MetricRow histogram_row(const std::string& name, double lo, double hi,
                             std::uint64_t count) {
  obs::MetricRow r;
  r.name = name;
  r.type = "histogram";
  r.count = count;
  r.sum = (lo + hi) / 2 * static_cast<double>(count);
  r.min = lo;
  r.max = hi;
  r.last = hi;
  r.p50 = (lo + hi) / 2;
  r.p95 = hi;
  r.p99 = hi;
  return r;
}

const obs::MetricRow* find_row(const std::vector<obs::MetricRow>& rows,
                               const std::string& name) {
  for (const auto& r : rows)
    if (r.name == name) return &r;
  return nullptr;
}

TEST(AggregateMetrics, SumsCountersAndEnvelopesHistograms) {
  World world(3);
  std::array<AggregatedMetrics, 3> results;
  world.run([&](Comm& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    std::vector<obs::MetricRow> rows;
    rows.push_back(counter_row("dist.rank.launches", 10 * mine));
    rows.push_back(histogram_row("dist.rank.iteration_seconds",
                                 /*lo=*/mine, /*hi=*/10 * mine,
                                 /*count=*/comm.rank() == 0 ? 4u : 2u));
    results[static_cast<std::size_t>(comm.rank())] =
        aggregate_metrics(comm, rows);
  });

  for (const auto& agg : results) {
    EXPECT_TRUE(agg.complete);
    ASSERT_EQ(agg.rows.size(), 2u);

    const obs::MetricRow* c = find_row(agg.rows, "dist.rank.launches");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->count, 60u);              // 10 + 20 + 30
    EXPECT_DOUBLE_EQ(c->sum, 60.0);
    EXPECT_DOUBLE_EQ(c->last, 60.0);       // counters: last tracks the sum

    const obs::MetricRow* h =
        find_row(agg.rows, "dist.rank.iteration_seconds");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 8u);               // 4 + 2 + 2
    EXPECT_DOUBLE_EQ(h->min, 1.0);         // min over ranks
    EXPECT_DOUBLE_EQ(h->max, 30.0);        // max over ranks
    EXPECT_DOUBLE_EQ(h->p95, 30.0);        // conservative upper envelope
  }
}

TEST(AggregateMetrics, SingleRankIsIdentity) {
  World world(1);
  world.run([&](Comm& comm) {
    std::vector<obs::MetricRow> rows{counter_row("x", 5)};
    const AggregatedMetrics agg = aggregate_metrics(comm, rows);
    EXPECT_TRUE(agg.complete);
    ASSERT_EQ(agg.rows.size(), 1u);
    EXPECT_EQ(agg.rows[0].count, 5u);
  });
}

TEST(AggregateMetrics, SchemaMismatchFallsBackToLocalRows) {
  // Rank 1 contributes a different metric name: no rank may blindly sum
  // misaligned buffers, so every rank must get its own rows back with
  // complete == false — consistently, without deadlock.
  World world(3);
  std::array<AggregatedMetrics, 3> results;
  world.run([&](Comm& comm) {
    const std::string name =
        comm.rank() == 1 ? "dist.rank.oops" : "dist.rank.launches";
    std::vector<obs::MetricRow> rows{counter_row(name, 10)};
    results[static_cast<std::size_t>(comm.rank())] =
        aggregate_metrics(comm, rows);
  });
  for (int rank = 0; rank < 3; ++rank) {
    const auto& agg = results[static_cast<std::size_t>(rank)];
    EXPECT_FALSE(agg.complete) << "rank " << rank;
    ASSERT_EQ(agg.rows.size(), 1u);
    EXPECT_EQ(agg.rows[0].name,
              rank == 1 ? "dist.rank.oops" : "dist.rank.launches");
    EXPECT_EQ(agg.rows[0].count, 10u);  // untouched local value
  }
}

TEST(AggregateMetrics, DeadRankYieldsPartialSnapshotNotHang) {
  // Rank 2 dies before joining the collective. The survivors must come
  // back with their own rows and complete == false instead of hanging
  // on the dead rank's contribution.
  World world(3);
  std::array<AggregatedMetrics, 3> results;
  std::atomic<int> survivors{0};
  try {
    world.run([&](Comm& comm) {
      if (comm.rank() == 2) throw gaia::Error("rank 2 died");
      std::vector<obs::MetricRow> rows{
          counter_row("dist.rank.launches", comm.rank() + 1.0)};
      results[static_cast<std::size_t>(comm.rank())] =
          aggregate_metrics(comm, rows);
      survivors.fetch_add(1);
    });
    FAIL() << "expected the rank death to propagate";
  } catch (const gaia::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 died"), std::string::npos);
  }
  EXPECT_EQ(survivors.load(), 2);
  for (int rank = 0; rank < 2; ++rank) {
    const auto& agg = results[static_cast<std::size_t>(rank)];
    EXPECT_FALSE(agg.complete) << "rank " << rank;
    ASSERT_EQ(agg.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(agg.rows[0].sum, rank + 1.0);  // own rows, unreduced
  }
}

class DistLsqrMetrics : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
    obs::set_global_snapshot_path("");
    obs::set_global_snapshot_meta(obs::SnapshotMeta{});
  }
};

TEST_F(DistLsqrMetrics, ClusterCountersAreSumsOfRankRows) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(104));
  DistLsqrOptions opts;
  opts.n_ranks = 3;
  opts.lsqr.aprod.backend = backends::BackendKind::kSerial;
  opts.lsqr.max_iterations = 12;
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  const DistLsqrResult result = dist_lsqr_solve(gen.A, opts);

  EXPECT_TRUE(result.cluster_metrics_complete);
  ASSERT_EQ(result.rank_metrics.size(), 3u);
  ASSERT_FALSE(result.cluster_metrics.empty());

  // The acceptance criterion: every aggregated counter equals the sum
  // of the per-rank contributions.
  for (const char* name :
       {"dist.rank.launches", "dist.rank.rows", "dist.rank.kernel_bytes"}) {
    double rank_sum = 0;
    for (const auto& rows : result.rank_metrics) {
      const obs::MetricRow* r = find_row(rows, name);
      ASSERT_NE(r, nullptr) << name;
      EXPECT_EQ(r->type, "counter");
      rank_sum += r->sum;
    }
    const obs::MetricRow* agg = find_row(result.cluster_metrics, name);
    ASSERT_NE(agg, nullptr) << name;
    EXPECT_DOUBLE_EQ(agg->sum, rank_sum) << name;
  }

  // Every rank owns a slice; together they cover the whole system.
  const obs::MetricRow* rows_row =
      find_row(result.cluster_metrics, "dist.rank.rows");
  ASSERT_NE(rows_row, nullptr);
  EXPECT_DOUBLE_EQ(rows_row->sum, static_cast<double>(gen.A.n_rows()));

  // The iteration-time envelope spans every rank's local extremes.
  const obs::MetricRow* iter =
      find_row(result.cluster_metrics, "dist.rank.iteration_seconds");
  ASSERT_NE(iter, nullptr);
  EXPECT_EQ(iter->type, "histogram");
  EXPECT_EQ(iter->count, 3u * 12u);
  for (const auto& rows : result.rank_metrics) {
    const obs::MetricRow* local =
        find_row(rows, "dist.rank.iteration_seconds");
    ASSERT_NE(local, nullptr);
    EXPECT_LE(iter->min, local->min);
    EXPECT_GE(iter->max, local->max);
  }
}

TEST_F(DistLsqrMetrics, PublishesClusterRowsToRegistryWhenEnabled) {
  obs::MetricsRegistry::global().set_enabled(true);
  const auto gen = matrix::generate_system(gaia::testing::small_config(105));
  DistLsqrOptions opts;
  opts.n_ranks = 2;
  opts.lsqr.aprod.backend = backends::BackendKind::kSerial;
  opts.lsqr.max_iterations = 8;
  opts.lsqr.atol = 0;
  opts.lsqr.btol = 0;
  const DistLsqrResult result = dist_lsqr_solve(gen.A, opts);
  ASSERT_TRUE(result.cluster_metrics_complete);

  auto& reg = obs::MetricsRegistry::global();
  const obs::MetricRow* agg =
      find_row(result.cluster_metrics, "dist.rank.launches");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(reg.counter("cluster.dist.rank.launches").value(), agg->count);
  EXPECT_DOUBLE_EQ(reg.gauge("cluster.dist.rank.iteration_seconds.count")
                       .value(),
                   2.0 * 8.0);
}

}  // namespace
}  // namespace gaia::dist
