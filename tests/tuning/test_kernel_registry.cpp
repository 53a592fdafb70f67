/// Registry dispatch must be an invisible indirection: for every
/// (kernel, backend) pair the type-erased launcher has to produce output
/// bit-identical to calling the templated kernel directly. The launch
/// shape {1, 1} serializes the backends that honor it, and the small
/// system stays under the PSTL grain, so floating-point summation order
/// is fixed and exact equality is the right assertion.
#include "tuning/kernel_registry.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/aprod_kernels.hpp"
#include "core/kernel_catalog.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gaia::tuning {
namespace {

using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;

/// The pre-registry dispatch: one explicit switch over the templated
/// instantiations. Kept here (and only here) as the oracle the registry
/// is checked against.
template <typename Exec>
void direct_launch(KernelId id, const core::SystemView& view, const real* in,
                   real* out, KernelConfig cfg) {
  switch (id) {
    case KernelId::kAprod1Astro:
      core::aprod1_astro<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod1Att:
      core::aprod1_att<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod1Instr:
      core::aprod1_instr<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod1Glob:
      core::aprod1_glob<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod2Astro:
      core::aprod2_astro<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod2Att:
      core::aprod2_att<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod2Instr:
      core::aprod2_instr<Exec>(view, in, out, cfg);
      break;
    case KernelId::kAprod2Glob:
      core::aprod2_glob<Exec>(view, in, out, cfg);
      break;
  }
}

constexpr bool is_aprod1(KernelId id) {
  return static_cast<int>(id) < static_cast<int>(KernelId::kAprod2Astro);
}

class KernelRegistryDispatch : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ensure_kernel_catalog();
    gen_ = matrix::generate_system(gaia::testing::small_config(23));
    view_ = core::SystemView::from(gen_.A);
    util::Xoshiro256 rng(51);
    x_.resize(static_cast<std::size_t>(gen_.A.n_cols()));
    y_.resize(static_cast<std::size_t>(gen_.A.n_rows()));
    for (auto& v : x_) v = rng.normal();
    for (auto& v : y_) v = rng.normal();
  }

  matrix::GeneratedSystem gen_;
  core::SystemView view_{};
  std::vector<real> x_;
  std::vector<real> y_;
};

TEST_F(KernelRegistryDispatch, CatalogCoversEveryKernelOnEveryBackend) {
  const KernelRegistry& reg = KernelRegistry::global();
  EXPECT_EQ(reg.size(), static_cast<std::size_t>(backends::kNumKernels) *
                            static_cast<std::size_t>(backends::kNumBackends));
  for (BackendKind kind : backends::all_backends()) {
    for (KernelId id : backends::all_kernels())
      EXPECT_TRUE(reg.has(id, kind))
          << to_string(id) << " on " << to_string(kind);
    EXPECT_TRUE(reg.has_fused(FusedPass::kGather, kind)) << to_string(kind);
    EXPECT_TRUE(reg.has_fused(FusedPass::kScatter, kind)) << to_string(kind);
    EXPECT_TRUE(reg.has_fused(FusedPass::kStep, kind)) << to_string(kind);
  }
}

TEST_F(KernelRegistryDispatch, BitIdenticalToDirectCallOnEveryPair) {
  const KernelRegistry& reg = KernelRegistry::global();
  const KernelConfig cfg{1, 1};  // serialize: fixed FP summation order
  for (BackendKind kind : backends::all_backends()) {
    for (KernelId id : backends::all_kernels()) {
      const std::vector<real>& in = is_aprod1(id) ? x_ : y_;
      const std::size_t out_n = is_aprod1(id) ? y_.size() : x_.size();
      std::vector<real> via_registry(out_n, 0.0);
      std::vector<real> via_direct(out_n, 0.0);

      LaunchArgs args;
      args.view = &view_;
      args.in = in.data();
      args.out = via_registry.data();
      args.config = cfg;
      reg.launch(id, kind, args);

      backends::dispatch(kind, [&](auto exec) {
        direct_launch<decltype(exec)>(id, view_, in.data(), via_direct.data(),
                                      cfg);
      });

      for (std::size_t i = 0; i < out_n; ++i)
        ASSERT_EQ(via_registry[i], via_direct[i])
            << to_string(id) << " on " << to_string(kind) << " at " << i;
    }
  }
}

TEST_F(KernelRegistryDispatch, FusedLauncherMatchesDirectFusedCall) {
  const KernelRegistry& reg = KernelRegistry::global();
  const KernelConfig cfg{1, 1};
  for (BackendKind kind : backends::all_backends()) {
    std::vector<real> via_registry(x_.size(), 0.0);
    std::vector<real> via_direct(x_.size(), 0.0);

    LaunchArgs args;
    args.view = &view_;
    args.in = y_.data();
    args.out = via_registry.data();
    args.config = cfg;
    reg.launch_fused(FusedPass::kScatter, kind, args);

    backends::dispatch(kind, [&](auto exec) {
      core::aprod2_shared_fused<decltype(exec)>(view_, y_.data(),
                                                via_direct.data(), cfg);
    });

    for (std::size_t i = 0; i < via_direct.size(); ++i)
      ASSERT_EQ(via_registry[i], via_direct[i])
          << "fused on " << to_string(kind) << " at " << i;
  }
}

TEST_F(KernelRegistryDispatch, CasModeFlowsThroughTheLaunchArgs) {
  // LaunchArgs carries no atomic lowering any more: a multi-threaded
  // scatter through the registry issues no CAS operation (the metrics
  // registry counts every one) and equals the direct call exactly, since
  // both fold the same slices in the same order.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set_enabled(true);
  metrics.reset();
  const KernelRegistry& reg = KernelRegistry::global();
  std::vector<real> via_registry(x_.size(), 0.0);
  std::vector<real> via_direct(x_.size(), 0.0);
  LaunchArgs args;
  args.view = &view_;
  args.in = y_.data();
  args.out = via_registry.data();
  args.config = {2, 2};
  reg.launch(KernelId::kAprod2Att, BackendKind::kGpuSim, args);
  core::aprod2_att<backends::GpuSimExec>(view_, y_.data(), via_direct.data(),
                                         {2, 2});
  EXPECT_EQ(metrics.counter("atomic.cas_ops").value(), 0u);
  metrics.set_enabled(false);
  metrics.reset();
  for (std::size_t i = 0; i < via_direct.size(); ++i)
    ASSERT_EQ(via_registry[i], via_direct[i]) << i;
}

TEST(KernelRegistry, UnregisteredLaunchThrows) {
  KernelRegistry reg;  // local and empty: the global one is always full
  EXPECT_FALSE(reg.has(KernelId::kAprod1Astro, BackendKind::kSerial));
  EXPECT_FALSE(reg.has_fused(FusedPass::kGather, BackendKind::kSerial));
  EXPECT_FALSE(reg.has_fused(FusedPass::kScatter, BackendKind::kSerial));
  EXPECT_FALSE(reg.has_fused(FusedPass::kStep, BackendKind::kSerial));
  EXPECT_EQ(reg.size(), 0u);
  LaunchArgs args;
  EXPECT_THROW(reg.launch(KernelId::kAprod1Astro, BackendKind::kSerial, args),
               Error);
  EXPECT_THROW(reg.launch_fused(FusedPass::kScatter, BackendKind::kSerial,
                                args),
               Error);
  EXPECT_THROW(reg.launch_fused(FusedPass::kStep, BackendKind::kSerial, args),
               Error);
}

TEST(KernelRegistry, NullLauncherIsRejected) {
  KernelRegistry reg;
  EXPECT_THROW(reg.add(KernelId::kAprod1Astro, BackendKind::kSerial, nullptr),
               Error);
  EXPECT_THROW(reg.add_fused(FusedPass::kScatter, BackendKind::kSerial,
                             nullptr),
               Error);
}

}  // namespace
}  // namespace gaia::tuning
