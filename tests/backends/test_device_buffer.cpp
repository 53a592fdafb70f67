#include "backends/device_buffer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "resilience/fault_injector.hpp"

namespace gaia::backends {
namespace {

TEST(DeviceContext, TracksAllocationLifecycle) {
  DeviceContext ctx(1 * kMiB, "test-gpu");
  EXPECT_EQ(ctx.allocated(), 0u);
  {
    DeviceBuffer<double> buf(ctx, 1000);
    EXPECT_EQ(ctx.allocated(), 8000u);
    EXPECT_EQ(ctx.alloc_count(), 1u);
  }
  EXPECT_EQ(ctx.allocated(), 0u);
}

TEST(DeviceContext, EnforcesCapacity) {
  DeviceContext ctx(1024, "tiny-gpu");
  DeviceBuffer<double> ok(ctx, 100);  // 800 B
  EXPECT_THROW(DeviceBuffer<double>(ctx, 100), gaia::Error);  // would be 1600
  // Failed allocation must not leak accounting.
  EXPECT_EQ(ctx.allocated(), 800u);
}

TEST(DeviceContext, CapacityErrorNamesDevice) {
  DeviceContext ctx(16, "h100-sim");
  try {
    DeviceBuffer<double> buf(ctx, 100);
    FAIL() << "expected capacity error";
  } catch (const gaia::Error& e) {
    EXPECT_NE(std::string(e.what()).find("h100-sim"), std::string::npos);
  }
}

TEST(DeviceBuffer, H2DAndD2HCountersAdvance) {
  DeviceContext ctx;
  std::vector<double> host{1, 2, 3, 4};
  DeviceBuffer<double> buf(ctx, std::span<const double>(host));
  EXPECT_EQ(ctx.h2d_bytes(), 32u);
  std::vector<double> back(4);
  buf.copy_to_host(back);
  EXPECT_EQ(ctx.d2h_bytes(), 32u);
  EXPECT_EQ(back, host);
}

TEST(DeviceBuffer, ResetTransferCounters) {
  DeviceContext ctx;
  std::vector<double> host{1, 2};
  DeviceBuffer<double> buf(ctx, std::span<const double>(host));
  ctx.reset_transfer_counters();
  EXPECT_EQ(ctx.h2d_bytes(), 0u);
  EXPECT_EQ(ctx.d2h_bytes(), 0u);
}

TEST(DeviceBuffer, SizeMismatchRejected) {
  DeviceContext ctx;
  DeviceBuffer<int> buf(ctx, 4);
  std::vector<int> wrong(3);
  EXPECT_THROW(buf.copy_from_host(wrong), gaia::Error);
  EXPECT_THROW(buf.copy_to_host(wrong), gaia::Error);
}

TEST(DeviceBuffer, FillSetsAllElements) {
  DeviceContext ctx;
  DeviceBuffer<double> buf(ctx, 16);
  buf.fill(3.25);
  for (double v : buf.span()) EXPECT_DOUBLE_EQ(v, 3.25);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  DeviceContext ctx;
  DeviceBuffer<double> a(ctx, 10);
  const double* p = a.data();
  DeviceBuffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(ctx.allocated(), 80u);  // still one live allocation
}

TEST(DeviceBuffer, MoveAssignReleasesPrevious) {
  DeviceContext ctx;
  DeviceBuffer<double> a(ctx, 10);
  DeviceBuffer<double> b(ctx, 20);
  EXPECT_EQ(ctx.allocated(), 240u);
  b = std::move(a);
  EXPECT_EQ(ctx.allocated(), 80u);
  EXPECT_EQ(b.size(), 10u);
}

TEST(DeviceBuffer, CoherenceModeCarried) {
  DeviceContext ctx;
  DeviceBuffer<double> coarse(ctx, 4, CoherenceMode::kCoarseGrain);
  DeviceBuffer<double> fine(ctx, 4, CoherenceMode::kFineGrain);
  EXPECT_EQ(coarse.coherence(), CoherenceMode::kCoarseGrain);
  EXPECT_EQ(fine.coherence(), CoherenceMode::kFineGrain);
}

/// 2 MiB plus a ragged tail: several of the pool's 256 KiB copy chunks.
std::vector<double> multi_chunk_source() {
  std::vector<double> host(2 * kMiB / sizeof(double) + 7);
  for (std::size_t i = 0; i < host.size(); ++i)
    host[i] = std::sin(static_cast<double>(i)) * 1e3;
  return host;
}

TEST(DeviceBuffer, FromHostCopySpanningChunksIsExactAndCountedOnce) {
  DeviceContext ctx;
  const std::vector<double> host = multi_chunk_source();
  const std::size_t bytes = host.size() * sizeof(double);
  DeviceBuffer<double> buf(ctx, std::span<const double>(host));
  EXPECT_EQ(std::memcmp(buf.data(), host.data(), bytes), 0);
  EXPECT_EQ(ctx.h2d_bytes(), bytes);
}

TEST(DeviceBuffer, ArmedCorruptH2DRetriesUntilExact) {
  auto& injector = resilience::FaultInjector::global();
  injector.configure("h2d:p=1,mode=corrupt,count=2");
  DeviceContext ctx;
  const std::vector<double> host = multi_chunk_source();
  const std::size_t bytes = host.size() * sizeof(double);
  DeviceBuffer<double> buf(ctx, std::span<const double>(host));
  const std::uint64_t corrupted =
      injector.injected(resilience::FaultSite::kH2D);
  injector.disarm();
  EXPECT_EQ(corrupted, 2u);
  EXPECT_EQ(std::memcmp(buf.data(), host.data(), bytes), 0);
  // Every attempt's transfer is counted, the two corrupt ones included.
  EXPECT_EQ(ctx.h2d_bytes(), 3 * bytes);
}

TEST(DeviceBuffer, DefaultConstructedIsEmpty) {
  DeviceBuffer<double> buf;
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.bytes(), 0u);
}

}  // namespace
}  // namespace gaia::backends
