#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace gaia::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().reset();
  }
  void TearDown() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().reset();
  }
};

TEST_F(TraceTest, DisabledRecorderAddsZeroEvents) {
  auto& rec = TraceRecorder::global();
  ASSERT_FALSE(rec.enabled());
  rec.complete("k", "kernel", 0, 1, 0);
  rec.instant("i", "mark", 0);
  rec.counter("c", 0, 1.0);
  {
    ScopedTrace span("scoped", "kernel");
    EXPECT_FALSE(span.armed());
    span.add_arg("ignored", 1.0);
  }
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST_F(TraceTest, ScopedSpanRecordsCompleteEvent) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  {
    ScopedTrace span("aprod1_astro", "kernel", 3);
    ASSERT_TRUE(span.armed());
    span.add_arg("blocks", std::int64_t{64});
    span.add_arg("backend", "gpusim");
  }
  const auto events = rec.events();
  // set_enabled stamps the main-track name metadata; find the 'X' span.
  const auto it = std::find_if(events.begin(), events.end(),
                               [](const auto& e) { return e.phase == 'X'; });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->name, "aprod1_astro");
  EXPECT_EQ(it->cat, "kernel");
  EXPECT_EQ(it->tid, 3);
  EXPECT_GE(it->dur_us, 0.0);
  ASSERT_EQ(it->args.size(), 2u);
  EXPECT_EQ(it->args[0].key(), "blocks");
  EXPECT_EQ(it->args[0].json_value(), "64");
  EXPECT_EQ(it->args[1].json_value(), "\"gpusim\"");
}

TEST_F(TraceTest, JsonDocumentIsWellFormed) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  rec.name_track(1, "stream-1");
  rec.complete("k\"quoted\\name", "kernel", 1.5, 2.5, 1,
               {{"note", "line\nbreak\tand \"quotes\""},
                {"bytes", std::uint64_t{1234567890123ull}},
                {"ratio", 0.25}});
  rec.instant("marker", "mark", 0);
  rec.counter("lsqr.rnorm", 10.0, 42.5);
  const std::string doc = rec.json();
  EXPECT_NO_THROW((void)util::parse_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
}

TEST_F(TraceTest, NonFiniteArgValuesStayValidJson) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  rec.complete("k", "kernel", 0, 1, 0,
               {{"nan", std::nan("")}, {"inf", 1e308 * 10}});
  const std::string doc = rec.json();
  util::JsonValue parsed;
  ASSERT_NO_THROW(parsed = util::parse_json(doc)) << doc;
  // JSON cannot spell NaN or inf: both are written as null, not as 0.
  const util::JsonValue* args = nullptr;
  for (const util::JsonValue& e : parsed.find("traceEvents")->array)
    if (e.find("args") != nullptr) args = e.find("args");
  ASSERT_NE(args, nullptr) << doc;
  EXPECT_TRUE(args->find("nan")->is_null()) << doc;
  EXPECT_TRUE(args->find("inf")->is_null()) << doc;
}

TEST_F(TraceTest, SpansNestWithinTheirTrack) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  {
    ScopedTrace outer("iteration", "lsqr");
    {
      ScopedTrace inner1("aprod1", "aprod");
    }
    {
      ScopedTrace inner2("aprod2", "aprod");
    }
  }
  const auto events = rec.events();
  std::vector<TraceEvent> spans;
  for (const auto& e : events)
    if (e.phase == 'X') spans.push_back(e);
  ASSERT_EQ(spans.size(), 3u);
  // Spans close innermost-first, so the outer one is recorded last.
  const auto& outer = spans.back();
  EXPECT_EQ(outer.name, "iteration");
  for (const auto& s : spans) {
    if (s.name == "iteration") continue;
    EXPECT_EQ(s.tid, outer.tid);
    // Same-track spans must nest: child interval inside the parent's.
    EXPECT_GE(s.ts_us, outer.ts_us);
    EXPECT_LE(s.ts_us + s.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  }
  // The two siblings must not overlap.
  const auto& a = spans[0];
  const auto& b = spans[1];
  EXPECT_TRUE(a.ts_us + a.dur_us <= b.ts_us + 1e-6 ||
              b.ts_us + b.dur_us <= a.ts_us + 1e-6);
}

TEST_F(TraceTest, TrackNamesAreDeduplicated) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  rec.name_track(7, "stream-7");
  rec.name_track(7, "stream-7");
  rec.name_track(7, "stream-7");
  int metadata = 0;
  for (const auto& e : rec.events())
    if (e.phase == 'M' && e.tid == 7) ++metadata;
  EXPECT_EQ(metadata, 1);
}

TEST_F(TraceTest, ResetDropsEventsAndRestartsClock) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  rec.complete("k", "kernel", 0, 1, 0);
  EXPECT_GT(rec.event_count(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  rec.reset();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_TRUE(rec.enabled());  // reset keeps the enabled state
  EXPECT_LT(rec.now_us(), 4000.0);  // clock restarted at reset
  // A re-named track is emitted again after reset.
  rec.name_track(7, "stream-7");
  int metadata = 0;
  for (const auto& e : rec.events())
    if (e.phase == 'M' && e.tid == 7) ++metadata;
  EXPECT_EQ(metadata, 1);
}

TEST_F(TraceTest, ConcurrentSpansAreAllRecorded) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpans = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedTrace span("work", "stress", t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  int spans = 0;
  for (const auto& e : rec.events())
    if (e.phase == 'X') ++spans;
  EXPECT_EQ(spans, kThreads * kSpans);
  EXPECT_NO_THROW((void)util::parse_json(rec.json()));
}

TEST_F(TraceTest, CapacityCapDropsOldestAndCounts) {
  TraceRecorder rec;
  rec.set_capacity(4);
  rec.set_enabled(true);  // emits the main-track metadata record
  for (int i = 0; i < 10; ++i)
    rec.complete("span" + std::to_string(i), "kernel", i, 1, 0);
  EXPECT_EQ(rec.event_count(), 4u);
  // 1 metadata + 10 spans pushed, 4 kept.
  EXPECT_EQ(rec.dropped_events(), 7u);
  const auto events = rec.events();
  // The survivors are the newest spans, in order.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "span6");
  EXPECT_EQ(events.back().name, "span9");
}

TEST_F(TraceTest, DroppedTrackNameCanBeReannounced) {
  TraceRecorder rec;
  rec.set_capacity(2);
  rec.set_enabled(true);
  rec.name_track(7, "stream-7");
  rec.complete("a", "kernel", 0, 1, 7);
  rec.complete("b", "kernel", 1, 1, 7);  // evicts the main metadata
  rec.complete("c", "kernel", 2, 1, 7);  // evicts the thread_name for 7
  rec.name_track(7, "stream-7");         // must re-announce, not dedup away
  int metadata = 0;
  for (const auto& e : rec.events())
    if (e.phase == 'M' && e.tid == 7) ++metadata;
  EXPECT_EQ(metadata, 1);
}

TEST_F(TraceTest, ShrinkingCapacityEvictsExistingEvents) {
  TraceRecorder rec;
  rec.set_enabled(true);
  for (int i = 0; i < 8; ++i) rec.complete("s", "kernel", i, 1, 0);
  const std::size_t before = rec.event_count();
  rec.set_capacity(3);
  EXPECT_EQ(rec.event_count(), 3u);
  EXPECT_EQ(rec.dropped_events(), before - 3);
  rec.set_capacity(0);  // invalid, ignored
  EXPECT_EQ(rec.capacity(), 3u);
}

TEST_F(TraceTest, RankIdentityBecomesPidAndHeader) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_rank(2, 4);
  rec.set_epoch_offset_us(123.5);
  rec.complete("k", "kernel", 0, 1, 0);
  EXPECT_EQ(rec.rank(), 2);
  EXPECT_EQ(rec.n_ranks(), 4);
  const std::string doc = rec.json();
  EXPECT_NO_THROW((void)util::parse_json(doc)) << doc;
  EXPECT_NE(doc.find("\"rank\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"ranks\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"epoch_offset_us\":123.5"), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
}

TEST_F(TraceTest, ThreadRecorderOverridesCurrent) {
  TraceRecorder rank_rec;
  rank_rec.set_enabled(true);
  EXPECT_EQ(&TraceRecorder::current(), &TraceRecorder::global());
  {
    ThreadRecorderScope scope(&rank_rec);
    EXPECT_EQ(&TraceRecorder::current(), &rank_rec);
    ScopedTrace span("k", "kernel");
    EXPECT_TRUE(span.armed());  // rank recorder enabled, global disabled
  }
  EXPECT_EQ(&TraceRecorder::current(), &TraceRecorder::global());
  int spans = 0;
  for (const auto& e : rank_rec.events())
    if (e.phase == 'X') ++spans;
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
}

TEST_F(TraceTest, ThreadRecorderScopesNestAndRestore) {
  TraceRecorder a, b;
  ThreadRecorderScope outer(&a);
  {
    ThreadRecorderScope inner(&b);
    EXPECT_EQ(&TraceRecorder::current(), &b);
  }
  EXPECT_EQ(&TraceRecorder::current(), &a);
  ThreadRecorderScope null_scope(nullptr);
  EXPECT_EQ(&TraceRecorder::current(), &TraceRecorder::global());
}

TEST_F(TraceTest, ArmedStateIsLatchedAtConstruction) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(true);
  const std::size_t before = rec.event_count();
  {
    ScopedTrace span("latched", "kernel");
    ASSERT_TRUE(span.armed());
    // Disabling mid-span must not lose the already-armed span (the
    // Session destructor disables while solver spans may be open).
    rec.set_enabled(false);
  }
  rec.set_enabled(true);
  EXPECT_EQ(rec.event_count(), before);  // complete() is a no-op while off
  rec.set_enabled(false);
}

}  // namespace
}  // namespace gaia::obs
