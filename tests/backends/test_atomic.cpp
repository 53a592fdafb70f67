#include "backends/atomic.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace gaia::backends {
namespace {

TEST(Atomic, RmwAccumulatesSingleThread) {
  double x = 1.0;
  atomic_add_rmw(x, 2.5);
  EXPECT_DOUBLE_EQ(x, 3.5);
}

TEST(Atomic, CasAccumulatesSingleThread) {
  double x = 1.0;
  atomic_add_cas(x, 2.5);
  EXPECT_DOUBLE_EQ(x, 3.5);
}

TEST(Atomic, DispatchSelectsMode) {
  double a = 0, b = 0;
  atomic_add(a, 1.0, AtomicMode::kNativeRmw);
  atomic_add(b, 1.0, AtomicMode::kCasLoop);
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 1.0);
}

class AtomicContention : public ::testing::TestWithParam<AtomicMode> {};

TEST_P(AtomicContention, NoLostUpdatesUnderContention) {
  // Many threads hammering one double: the sum of integer-valued addends
  // is exact in double, so any lost update is detectable.
  const AtomicMode mode = GetParam();
  double target = 0.0;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&target, mode] {
      for (int i = 0; i < kAddsPerThread; ++i) atomic_add(target, 1.0, mode);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(target, static_cast<double>(kThreads) * kAddsPerThread);
}

TEST_P(AtomicContention, ScatteredTargetsStayIndependent) {
  const AtomicMode mode = GetParam();
  std::vector<double> targets(64, 0.0);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&targets, mode, t] {
      for (int rep = 0; rep < 1000; ++rep)
        for (std::size_t i = 0; i < targets.size(); ++i)
          atomic_add(targets[i], static_cast<double>(t + 1), mode);
    });
  }
  for (auto& t : threads) t.join();
  // Each slot received sum(1..4) * 1000 = 10000.
  for (double v : targets) EXPECT_DOUBLE_EQ(v, 10000.0);
}

INSTANTIATE_TEST_SUITE_P(BothLowerings, AtomicContention,
                         ::testing::Values(AtomicMode::kNativeRmw,
                                           AtomicMode::kCasLoop),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Atomic, CasOpsAreCountedWhenMetricsAreEnabled) {
  // The CAS lowering records one op per call (and its retries) while the
  // registry is on, and nothing while it is off.
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(false);
  reg.reset();
  double x = 0;
  atomic_add_cas(x, 1.0);
  EXPECT_EQ(reg.counter("atomic.cas_ops").value(), 0u);

  reg.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&x] {
      for (int i = 0; i < kAddsPerThread; ++i) atomic_add_cas(x, 1.0);
    });
  for (auto& t : threads) t.join();
  atomic_add(x, 1.0, AtomicMode::kCasLoop);
  atomic_add(x, 1.0, AtomicMode::kNativeRmw);  // no CAS op
  EXPECT_EQ(reg.counter("atomic.cas_ops").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread + 1);
  // Retries exist as a metric (their count is contention-dependent).
  EXPECT_GE(reg.counter("atomic.cas_retries").value(), 0u);
  EXPECT_DOUBLE_EQ(x, 1.0 + kThreads * kAddsPerThread + 2);
  reg.set_enabled(false);
  reg.reset();
}

TEST(Atomic, ToStringNames) {
  EXPECT_EQ(to_string(AtomicMode::kNativeRmw), "rmw");
  EXPECT_EQ(to_string(AtomicMode::kCasLoop), "cas");
}

}  // namespace
}  // namespace gaia::backends
