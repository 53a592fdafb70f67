#include "backends/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace gaia::backends {
namespace {

TEST(ThreadPool, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersDegeneratesToSerial) {
  ThreadPool pool(0);
  std::int64_t sum = 0;  // no synchronization needed: serial execution
  pool.parallel_for(1000, 10, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 1000 * 999 / 2);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 8, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleChunkRunsInline) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id executed_on;
  pool.parallel_for(5, 10, [&](std::int64_t, std::int64_t) {
    executed_on = std::this_thread::get_id();
  });
  EXPECT_EQ(executed_on, caller);
}

TEST(ThreadPool, RejectsNonPositiveGrain) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(10, 0, [](std::int64_t, std::int64_t) {}),
               gaia::Error);
}

TEST(ThreadPool, ConcurrentSubmittersBothComplete) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  auto submit = [&] {
    pool.parallel_for(5000, 16, [&](std::int64_t lo, std::int64_t hi) {
      total.fetch_add(hi - lo);
    });
  };
  std::thread t1(submit), t2(submit);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 10000);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, 1, [&](std::int64_t, std::int64_t) {
    pool.parallel_for(100, 10, [&](std::int64_t lo, std::int64_t hi) {
      inner_total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(inner_total.load(), 400);
}

TEST(ThreadPool, ManySequentialJobsStaySound) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(257, 8, [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t local = 0;
      for (std::int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 257 * 256 / 2) << "repetition " << rep;
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, PoolThreadsTakesOnlyAnIntegerInRange) {
  EXPECT_EQ(pool_threads("0"), 0u);
  EXPECT_EQ(pool_threads("7"), 7u);
  EXPECT_EQ(pool_threads("1024"), 1024u);
  EXPECT_GE(pool_threads(nullptr), 3u);  // unset: the default
  // Each of these once sized the pool silently: "abc" to 0 workers, "4x"
  // to 4, and "2000" and "-3" to the default.
  for (const char* bad : {"abc", "4x", "2000", "-3", "", "1.5", " 2"}) {
    try {
      (void)pool_threads(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(kPoolThreadsEnv), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(ThreadPool, UnevenChunkBoundariesCoverTail) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(1003, 100, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 1003);
}

}  // namespace
}  // namespace gaia::backends
