/// \file test_export.cpp
/// \brief Exporter round-trips (OpenMetrics, sealed JSON snapshots),
/// the perf-counter recording layer, and the session-boundary reset.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/session.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
    set_global_snapshot_path("");
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "gaia_export_" + name;
  }
};

const OpenMetricsSample* find_sample(
    const std::vector<OpenMetricsSample>& samples, const std::string& name) {
  for (const auto& s : samples)
    if (s.name == name) return &s;
  return nullptr;
}

// Registry entries are zeroed, never deleted (cached references stay
// valid across reset()), so tests select rows by name instead of
// asserting snapshot sizes.
const MetricRow* find_row(const std::vector<MetricRow>& rows,
                          const std::string& name) {
  for (const auto& r : rows)
    if (r.name == name) return &r;
  return nullptr;
}

TEST_F(ExportTest, KernelSeriesNameRoundTrips) {
  const std::string name =
      kernel_series_name("aprod2_att", "gpusim", "privatized", "bytes");
  EXPECT_EQ(name, "kernel.aprod2_att.gpusim.privatized.bytes");
  KernelSeriesName parsed;
  ASSERT_TRUE(parse_kernel_series(name, parsed));
  EXPECT_EQ(parsed.kernel, "aprod2_att");
  EXPECT_EQ(parsed.backend, "gpusim");
  EXPECT_EQ(parsed.strategy, "privatized");
  EXPECT_EQ(parsed.field, "bytes");

  KernelSeriesName out;
  EXPECT_FALSE(parse_kernel_series("transfer.h2d_bytes", out));
  EXPECT_FALSE(parse_kernel_series("kernel.a.b.c", out));        // 4 parts
  EXPECT_FALSE(parse_kernel_series("kernel.a.b.c.d.e", out));    // 6 parts
}

TEST_F(ExportTest, RecordKernelSampleFillsAllSeries) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  KernelSample s;
  s.kernel = "aprod2_att";
  s.backend = "openmp";
  s.strategy = "privatized";
  s.bytes = 1000;
  s.flops = 500;
  s.seconds = 0.5;
  record_kernel_sample(s);
  record_kernel_sample(s);

  const auto prefix = std::string("kernel.aprod2_att.openmp.privatized.");
  // No launch issues host atomics, so there is no atomic_updates series.
  for (const MetricRow& row : reg.snapshot())
    EXPECT_NE(row.name, prefix + "atomic_updates");
  EXPECT_EQ(reg.counter(prefix + "launches").value(), 2u);
  EXPECT_EQ(reg.counter(prefix + "bytes").value(), 2000u);
  EXPECT_EQ(reg.counter(prefix + "flops").value(), 1000u);
  EXPECT_EQ(reg.histogram(prefix + "time_seconds").summary().count, 2u);
  // Effective bandwidth of the last launch: 1000 B / 0.5 s.
  EXPECT_DOUBLE_EQ(reg.gauge(prefix + "bandwidth_bytes_per_s").value(),
                   2000.0);
}

TEST_F(ExportTest, RecordingIsDisabledGated) {
  auto& reg = MetricsRegistry::global();
  const std::size_t entries_before = reg.snapshot().size();
  KernelSample s;
  s.kernel = "aprod1_astro";
  s.backend = "serial";
  s.strategy = "none";
  s.bytes = 10;
  s.seconds = 1;
  record_kernel_sample(s);
  // A disabled registry must not even grow new entries.
  const auto rows = reg.snapshot();
  EXPECT_EQ(rows.size(), entries_before);
  EXPECT_EQ(find_row(rows, "kernel.aprod1_astro.serial.none.launches"),
            nullptr);
}

TEST_F(ExportTest, OpenMetricsRoundTrip) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  reg.counter("transfer.h2d_bytes").add(4096);
  reg.gauge("lsqr.rnorm").set(1.5);
  auto& h = reg.histogram("iteration.seconds");
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  // A poisoned solve's values: spelled NaN and +Inf, as the grammar
  // spells them (a stream writes `-nan` and `inf`).
  reg.gauge("lsqr.arnorm").set(-std::numeric_limits<double>::quiet_NaN());
  reg.histogram("poisoned.seconds")
      .record(std::numeric_limits<double>::infinity());
  KernelSample s;
  s.kernel = "aprod1_astro";
  s.backend = "openmp";
  s.strategy = "none";
  s.bytes = 123;
  s.flops = 456;
  s.seconds = 0.25;
  record_kernel_sample(s);

  const std::string text = reg.openmetrics();
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gaia_kernel_bytes counter"),
            std::string::npos);

  EXPECT_NE(text.find("\ngaia_lsqr_arnorm NaN\n"), std::string::npos);
  EXPECT_NE(text.find("\ngaia_poisoned_seconds_sum +Inf\n"),
            std::string::npos);
  for (const char* stream_spelling : {" -nan\n", " nan\n", " inf\n"})
    EXPECT_EQ(text.find(stream_spelling), std::string::npos);

  const auto parsed = parse_openmetrics(text);
  ASSERT_TRUE(parsed.has_value());
  const auto* arnorm = find_sample(*parsed, "gaia_lsqr_arnorm");
  ASSERT_NE(arnorm, nullptr);
  EXPECT_TRUE(std::isnan(arnorm->value));
  const auto* inf_sum = find_sample(*parsed, "gaia_poisoned_seconds_sum");
  ASSERT_NE(inf_sum, nullptr);
  EXPECT_EQ(inf_sum->value, std::numeric_limits<double>::infinity());

  // Select by labels: other tests may have registered zeroed kernel
  // series in the same family for other backends.
  const OpenMetricsSample* bytes = nullptr;
  for (const auto& sample : *parsed) {
    if (sample.name != "gaia_kernel_bytes_total") continue;
    const std::string* kernel = sample.label("kernel");
    const std::string* backend = sample.label("backend");
    if (kernel != nullptr && *kernel == "aprod1_astro" &&
        backend != nullptr && *backend == "openmp")
      bytes = &sample;
  }
  ASSERT_NE(bytes, nullptr);
  EXPECT_DOUBLE_EQ(bytes->value, 123.0);
  ASSERT_NE(bytes->label("strategy"), nullptr);
  EXPECT_EQ(*bytes->label("strategy"), "none");

  const auto* h2d = find_sample(*parsed, "gaia_transfer_h2d_bytes_total");
  ASSERT_NE(h2d, nullptr);
  EXPECT_DOUBLE_EQ(h2d->value, 4096.0);

  const auto* rnorm = find_sample(*parsed, "gaia_lsqr_rnorm");
  ASSERT_NE(rnorm, nullptr);
  EXPECT_DOUBLE_EQ(rnorm->value, 1.5);

  // Histogram exports as a summary: quantiles + _count + _sum.
  const auto* count = find_sample(*parsed, "gaia_iteration_seconds_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 3.0);
  const auto* sum = find_sample(*parsed, "gaia_iteration_seconds_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->value, 6.0);
  bool saw_p50 = false;
  for (const auto& sample : *parsed) {
    if (sample.name != "gaia_iteration_seconds") continue;
    const std::string* q = sample.label("quantile");
    ASSERT_NE(q, nullptr);
    if (*q == "0.5") {
      EXPECT_DOUBLE_EQ(sample.value, 2.0);
      saw_p50 = true;
    }
  }
  EXPECT_TRUE(saw_p50);
}

TEST_F(ExportTest, OpenMetricsParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_openmetrics("gaia_x 1\n").has_value());  // no EOF
  EXPECT_FALSE(
      parse_openmetrics("# EOF\ngaia_x 1\n").has_value());  // after EOF
  EXPECT_FALSE(
      parse_openmetrics("gaia_x{oops 1\n# EOF\n").has_value());  // labels
  EXPECT_FALSE(
      parse_openmetrics("gaia_x notanumber\n# EOF\n").has_value());
  // Non-finite values take only the grammar's spellings; a number is
  // read whole.
  for (const char* value : {"-nan", "nan", "inf", "-inf", "Inf", "1.5x"})
    EXPECT_FALSE(parse_openmetrics(std::string("gaia_x ") + value +
                                   "\n# EOF\n")
                     .has_value())
        << value;
  const auto minus_inf = parse_openmetrics("gaia_x -Inf\n# EOF\n");
  ASSERT_TRUE(minus_inf.has_value());
  EXPECT_EQ(minus_inf->front().value, -std::numeric_limits<double>::infinity());
  const auto empty = parse_openmetrics("# EOF\n");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ExportTest, OpenMetricsLabelEscapingRoundTrips) {
  // Label values are derived from kernel-series segments, which nothing
  // sanitizes — backslashes, quotes and newlines must survive the
  // exposition unharmed instead of tearing the line format.
  std::vector<MetricRow> rows(1);
  rows[0].name = "kernel.we\"ird\\k\nname.openmp.atomic.bytes";
  rows[0].type = "counter";
  rows[0].count = 7;
  rows[0].sum = 7;
  rows[0].last = 7;
  const std::string text = to_openmetrics(rows);
  // The raw control characters never appear; their escapes do.
  EXPECT_EQ(text.find("we\"ird"), std::string::npos);
  EXPECT_NE(text.find("we\\\"ird\\\\k\\nname"), std::string::npos);

  const auto parsed = parse_openmetrics(text);
  ASSERT_TRUE(parsed.has_value());
  const OpenMetricsSample* sample = nullptr;
  for (const auto& s : *parsed)
    if (s.name == "gaia_kernel_bytes_total") sample = &s;
  ASSERT_NE(sample, nullptr);
  const std::string* kernel = sample->label("kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(*kernel, "we\"ird\\k\nname");
  EXPECT_DOUBLE_EQ(sample->value, 7.0);
}

TEST_F(ExportTest, OpenMetricsParserRejectsBadLabelEscapes) {
  // Unknown escape and unterminated value are hard errors, not
  // best-effort truncations.
  EXPECT_FALSE(
      parse_openmetrics("gaia_x{kernel=\"a\\q\"} 1\n# EOF\n").has_value());
  EXPECT_FALSE(
      parse_openmetrics("gaia_x{kernel=\"a} 1\n# EOF\n").has_value());
  // A quoted '}' inside a value must not terminate the label set early.
  const auto ok =
      parse_openmetrics("gaia_x{kernel=\"a}b\"} 2\n# EOF\n");
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->size(), 1u);
  ASSERT_NE(ok->front().label("kernel"), nullptr);
  EXPECT_EQ(*ok->front().label("kernel"), "a}b");
  EXPECT_DOUBLE_EQ(ok->front().value, 2.0);
}

TEST_F(ExportTest, SnapshotJsonRoundTrip) {
  std::vector<MetricRow> rows(2);
  rows[0].name = "a.counter";
  rows[0].type = "counter";
  rows[0].count = 7;
  rows[0].sum = 7;
  rows[0].last = 7;
  rows[1].name = "b \"quoted\"\\name";
  rows[1].type = "histogram";
  rows[1].count = 3;
  rows[1].sum = 6.5;
  rows[1].min = 0.5;
  rows[1].max = 4.25;
  rows[1].last = 2;
  rows[1].p50 = 1.75;
  rows[1].p95 = 4;
  rows[1].p99 = 4.25;
  SnapshotMeta meta;
  meta.rank = -1;
  meta.ranks = 4;
  meta.complete = false;

  const std::string json = snapshot_json(rows, meta);
  SnapshotMeta parsed_meta;
  const auto parsed = parse_snapshot_json(json, &parsed_meta);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed_meta.rank, -1);
  EXPECT_EQ(parsed_meta.ranks, 4);
  EXPECT_FALSE(parsed_meta.complete);
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].name, "a.counter");
  EXPECT_EQ((*parsed)[0].count, 7u);
  EXPECT_EQ((*parsed)[1].name, "b \"quoted\"\\name");
  EXPECT_DOUBLE_EQ((*parsed)[1].p99, 4.25);

  EXPECT_FALSE(parse_snapshot_json("{}").has_value());
  EXPECT_FALSE(parse_snapshot_json("not json").has_value());
  // Version from the future is rejected, not guessed at.
  std::string bumped = json;
  bumped.replace(bumped.find("\"version\":1"),
                 std::string("\"version\":1").size(), "\"version\":9");
  EXPECT_FALSE(parse_snapshot_json(bumped).has_value());
}

TEST_F(ExportTest, NonFiniteSnapshotIsJsonAndReadsBackAsNan) {
  // A solve that goes non-finite must still seal a snapshot any JSON
  // reader can load: the poisoned values are null, not nan/inf text.
  std::vector<MetricRow> rows(2);
  rows[0].name = "lsqr.arnorm";
  rows[0].type = "gauge";
  rows[0].count = 3;
  rows[0].sum = std::nan("");
  rows[0].last = std::nan("");
  rows[1].name = "iteration_seconds";
  rows[1].type = "histogram";
  rows[1].count = 2;
  rows[1].sum = std::numeric_limits<double>::infinity();
  const std::string json = snapshot_json(rows, SnapshotMeta{});

  util::JsonValue doc;
  ASSERT_NO_THROW(doc = util::parse_json(json)) << json;
  const auto& metrics = doc.find("metrics")->array;
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_TRUE(metrics[0].find("last")->is_null()) << json;
  EXPECT_TRUE(metrics[1].find("sum")->is_null()) << json;

  const auto parsed = parse_snapshot_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::isnan((*parsed)[0].last));
  EXPECT_TRUE(std::isnan((*parsed)[1].sum));
  EXPECT_EQ((*parsed)[1].count, 2u);
}

TEST_F(ExportTest, SnapshotSpelledWithSeventeenDigitsStillLoads) {
  // Snapshots sealed before the shortest round-trip rule wrote 17
  // significant digits.
  const std::string text =
      R"({"version":1,"rank":-1,"ranks":3,"complete":true,"metrics":[)"
      R"({"name":"lsqr.rnorm","type":"gauge","count":3,)"
      R"("sum":0.30000000000000004,"min":0.10000000000000001,)"
      R"("max":0.10000000000000001,"last":0.10000000000000001,)"
      R"("p50":0,"p95":0,"p99":0}]})";
  SnapshotMeta meta;
  const auto rows = parse_snapshot_json(text, &meta);
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(meta.ranks, 3);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].last, 0.1);
  EXPECT_EQ((*rows)[0].sum, 0.1 + 0.2);
}

TEST_F(ExportTest, SnapshotParserRejectsEverySchemaViolation) {
  const std::string head =
      R"({"version":1,"rank":0,"ranks":1,"complete":true,"metrics":[)";
  const std::string good_row =
      R"({"name":"x","type":"gauge","count":1,"sum":1,"min":1,"max":1,)"
      R"("last":1,"p50":1,"p95":1,"p99":1})";
  ASSERT_TRUE(parse_snapshot_json(head + good_row + "]}").has_value());
  for (const std::string& bad : {
           head + R"({"name":"x","type":"gauge","extra":1})]})",
           head + R"({"type":"gauge"})]})",
           head + R"({"name":"","type":"gauge"})]})",
           head + R"({"name":"x","type":""})]})",
           head + R"({"name":"x","type":"gauge","count":-1})]})",
           head + R"({"name":"x","type":"gauge","count":null})]})",
           head + R"({"name":"x","type":"gauge","sum":"1"})]})",
           head + R"(7]})",
           head + good_row + R"(],"extra":1})",
           head + good_row + "]} trailing",
           std::string(R"({"version":1,"rank":0})"),
           std::string(R"({"rank":0,"metrics":[]})"),
           std::string(R"({"version":1,"metrics":{}})"),
           std::string(R"({"version":1,"complete":1,"metrics":[]})"),
           std::string(R"([1])"),
       })
    EXPECT_FALSE(parse_snapshot_json(bad).has_value()) << bad;
}

TEST_F(ExportTest, SnapshotFileSealsAndRejectsCorruption) {
  const std::string path = temp_path("snapshot.json");
  std::vector<MetricRow> rows(1);
  rows[0].name = "x";
  rows[0].type = "gauge";
  rows[0].count = 1;
  rows[0].sum = 3.5;
  rows[0].last = 3.5;
  write_snapshot_file(path, rows, SnapshotMeta{});

  SnapshotMeta meta;
  const auto back = read_snapshot_file(path, &meta);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].name, "x");
  EXPECT_DOUBLE_EQ(back[0].last, 3.5);
  EXPECT_EQ(meta.ranks, 1);

  // Flip one payload byte: the CRC framing must reject the file.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(10);
  char c = 0;
  f.seekg(10);
  f.get(c);
  f.seekp(10);
  f.put(static_cast<char>(c ^ 0x20));
  f.close();
  EXPECT_THROW(read_snapshot_file(path), Error);
}

TEST_F(ExportTest, GlobalSnapshotSinkFlushes) {
  const std::string path = temp_path("global_snapshot.json");
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  reg.counter("flush.me").add(5);

  flush_global_snapshot();  // unarmed: must be a no-op
  EXPECT_TRUE(global_snapshot_path().empty());

  set_global_snapshot_path(path);
  SnapshotMeta meta;
  meta.rank = -1;
  meta.ranks = 3;
  meta.complete = true;
  set_global_snapshot_meta(meta);
  flush_global_snapshot();

  SnapshotMeta read_meta;
  const auto rows = read_snapshot_file(path, &read_meta);
  EXPECT_EQ(read_meta.ranks, 3);
  const MetricRow* row = find_row(rows, "flush.me");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 5u);
}

TEST_F(ExportTest, SessionResetsStaleMetrics) {
  auto& reg = MetricsRegistry::global();
  // A previous run in this process left gauges behind (metrics were on).
  reg.set_enabled(true);
  reg.gauge("scratch.arena.bytes").set(4096);
  reg.counter("stale.counter").add(9);
  reg.set_enabled(false);

  const std::string path = temp_path("session_metrics.csv");
  {
    Session session("", path);
    // The session-boundary reset zeroed everything stale...
    EXPECT_DOUBLE_EQ(reg.gauge("scratch.arena.bytes").value(), 0.0);
    EXPECT_EQ(reg.counter("stale.counter").value(), 0u);
    // ...and new samples record normally.
    reg.counter("fresh.counter").add(1);
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string csv((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(csv.find("fresh.counter,counter,1"), std::string::npos);
}

TEST_F(ExportTest, EmptyHistogramExportsAllZeroRow) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  (void)reg.histogram("never.recorded");
  // The row points into the snapshot, which must outlive it.
  const std::vector<MetricRow> rows = reg.snapshot();
  const MetricRow* row = find_row(rows, "never.recorded");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 0u);
  EXPECT_DOUBLE_EQ(row->min, 0.0);  // not the +inf sentinel
  EXPECT_DOUBLE_EQ(row->max, 0.0);  // not the -inf sentinel
  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("never.recorded,histogram,0,0,0,0,0,0,0,0"),
            std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace gaia::obs
