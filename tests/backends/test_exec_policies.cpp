#include "backends/backend.hpp"

#include <gtest/gtest.h>

#include "backends/atomic.hpp"

#include <atomic>
#include <numeric>
#include <vector>

namespace gaia::backends {
namespace {

// ---- shared policy-conformance suite (parameterized over backends) -------

class ExecPolicy : public ::testing::TestWithParam<BackendKind> {
 protected:
  template <typename F>
  void launch(std::int64_t n, KernelConfig cfg, F&& body) {
    dispatch(GetParam(), [&](auto exec) {
      decltype(exec)::launch(n, cfg, body);
    });
  }
};

TEST_P(ExecPolicy, CoversRangeExactlyOnce) {
  constexpr std::int64_t n = 20000;
  std::vector<std::atomic<int>> hits(n);
  launch(n, {}, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ExecPolicy, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  launch(0, {}, [&](std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ExecPolicy, SingleElementRange) {
  std::atomic<std::int64_t> seen{-1};
  launch(1, {}, [&](std::int64_t i) { seen.store(i); });
  EXPECT_EQ(seen.load(), 0);
}

TEST_P(ExecPolicy, HonorsExplicitKernelConfigIfClaimed) {
  // Whatever the config, coverage must be exact — including shapes with
  // far more virtual threads than elements and far fewer.
  for (const KernelConfig cfg :
       {KernelConfig{1, 1}, KernelConfig{2, 3}, KernelConfig{128, 256}}) {
    constexpr std::int64_t n = 1234;
    std::vector<std::atomic<int>> hits(n);
    launch(n, cfg, [&](std::int64_t i) { hits[i].fetch_add(1); });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "cfg " << cfg.blocks << "x"
                                   << cfg.threads << " index " << i;
  }
}

TEST_P(ExecPolicy, LaunchBlocksRunsEveryBlockOnce) {
  // The blocks of an ordered sum each write their own partial, so every
  // block must run exactly once whatever the shape: more threads than
  // blocks, fewer, and no block at all.
  for (const KernelConfig cfg : {KernelConfig{}, KernelConfig{1, 1},
                                 KernelConfig{3, 7}, KernelConfig{256, 256}}) {
    for (const std::size_t blocks : {0, 1, 3, 256}) {
      std::vector<std::atomic<int>> hits(blocks);
      dispatch(GetParam(), [&](auto exec) {
        decltype(exec)::launch_blocks(
            blocks, cfg, [&](std::size_t k) { hits[k].fetch_add(1); });
      });
      for (std::size_t k = 0; k < blocks; ++k)
        ASSERT_EQ(hits[k].load(), 1) << "cfg " << cfg.blocks << "x"
                                     << cfg.threads << " block " << k;
    }
  }
}

// No kernel commits through atomics any more; the two lowerings of
// backends::atomic_add (the host analogue the cost model prices for the
// paper's GPU kernels) must still be exact under every launch's threads.
TEST_P(ExecPolicy, AtomicAddAccumulatesUnderParallelism) {
  double target = 0.0;
  constexpr std::int64_t n = 50000;
  launch(n, {}, [&target](std::int64_t) {
    atomic_add(target, 1.0, AtomicMode::kNativeRmw);
  });
  EXPECT_DOUBLE_EQ(target, static_cast<double>(n));
}

TEST_P(ExecPolicy, AtomicAddCasModeAlsoExact) {
  double target = 0.0;
  constexpr std::int64_t n = 50000;
  launch(n, {}, [&target](std::int64_t) {
    atomic_add(target, 1.0, AtomicMode::kCasLoop);
  });
  EXPECT_DOUBLE_EQ(target, static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ExecPolicy,
                         ::testing::ValuesIn(all_backends()),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// ---- backend-specific behaviour -------------------------------------------

TEST(SerialExecPolicy, VisitsInAscendingOrder) {
  std::vector<std::int64_t> order;
  SerialExec::launch(100, {}, [&](std::int64_t i) { order.push_back(i); });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 100u);
}

TEST(GpuSimExecPolicy, OversubscribedGridStillCoversOnce) {
  // Grid far larger than the range: most virtual threads get no element;
  // the grid-stride loop bound must keep coverage exact.
  const KernelConfig cfg{64, 64};  // 4096 virtual threads for 33 elements
  std::vector<std::atomic<int>> hits(33);
  GpuSimExec::launch(33, cfg, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(GpuSimExecPolicy, UndersubscribedGridWalksStride) {
  // Grid of 3 virtual threads over 10 elements: each walks the stride.
  const KernelConfig cfg{1, 3};
  std::vector<std::atomic<int>> hits(10);
  GpuSimExec::launch(10, cfg, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(GpuSimExecPolicy, ResolveFillsDefaults) {
  const KernelConfig r = GpuSimExec::resolve({});
  EXPECT_EQ(r.blocks, GpuSimExec::kDefaultBlocks);
  EXPECT_EQ(r.threads, GpuSimExec::kDefaultThreads);
  const KernelConfig partial = GpuSimExec::resolve({16, 0});
  EXPECT_EQ(partial.blocks, 16);
  EXPECT_EQ(partial.threads, GpuSimExec::kDefaultThreads);
}

TEST(OpenMPExecPolicy, ResolveThreadsClampsToHardware) {
  const int def = OpenMPExec::resolve_threads({});
  EXPECT_GE(def, 1);
  EXPECT_EQ(OpenMPExec::resolve_threads({1, 1}), 1);
  const int big = OpenMPExec::resolve_threads({1024, 1024});
  EXPECT_LE(big, def);
}

TEST(PstlExecPolicy, DeclaresNoTuningKnob) {
  // The property the paper's PSTL discussion hinges on.
  EXPECT_FALSE(PstlExec::kHonorsKernelConfig);
  EXPECT_TRUE(GpuSimExec::kHonorsKernelConfig);
  EXPECT_TRUE(OpenMPExec::kHonorsKernelConfig);
}

TEST(BackendNames, RoundTripParse) {
  for (BackendKind k : all_backends()) {
    const auto parsed = parse_backend(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
}

TEST(BackendNames, FrameworkAliasesMapSensibly) {
  EXPECT_EQ(parse_backend("cuda"), BackendKind::kGpuSim);
  EXPECT_EQ(parse_backend("HIP"), BackendKind::kGpuSim);
  EXPECT_EQ(parse_backend("sycl"), BackendKind::kGpuSim);
  EXPECT_EQ(parse_backend("stdpar"), BackendKind::kPstl);
  EXPECT_EQ(parse_backend("omp"), BackendKind::kOpenMP);
  EXPECT_FALSE(parse_backend("fortran").has_value());
}

}  // namespace
}  // namespace gaia::backends
