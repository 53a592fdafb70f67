#include "core/aprod_kernels.hpp"

#include <gtest/gtest.h>

#include <array>

#include "core/kernel_catalog.hpp"
#include "core/vector_ops.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "matrix/layouted_system.hpp"
#include "test_helpers.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;
using backends::KernelId;
using backends::Precision;
using backends::StorageLayout;

constexpr std::array<StorageLayout, 3> kLayouts = {
    StorageLayout::kSeedAos, StorageLayout::kSoaTiled,
    StorageLayout::kSlicedInstr};
constexpr std::array<Precision, 3> kPrecisions = {
    Precision::kFp64, Precision::kFp32, Precision::kBf16s};

/// A generated system with every derived layout and reduced precision
/// built and attached to its host view.
struct AttachedSystem {
  explicit AttachedSystem(const matrix::GeneratorConfig& cfg)
      : gen(matrix::generate_system(cfg)),
        layouts(gen.A),
        view(SystemView::from(gen.A)) {
    layouts.build(StorageLayout::kSlicedInstr);  // implies SoA
    layouts.build_precision(Precision::kFp32);
    layouts.build_precision(Precision::kBf16s);
    view.attach_layout(layouts);
    view.attach_precision(layouts);
  }
  matrix::GeneratedSystem gen;
  matrix::LayoutedSystem layouts;
  SystemView view;
};
using matrix::dense_matvec;
using matrix::dense_rmatvec;
using matrix::to_dense;

/// Fixture: one generated system + its dense oracle + random vectors.
class AprodKernels : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    gen_ = matrix::generate_system(gaia::testing::small_config(17));
    view_ = SystemView::from(gen_.A);
    dense_ = to_dense(gen_.A);
    util::Xoshiro256 rng(31);
    x_.resize(static_cast<std::size_t>(gen_.A.n_cols()));
    y_.resize(static_cast<std::size_t>(gen_.A.n_rows()));
    for (auto& v : x_) v = rng.normal();
    for (auto& v : y_) v = rng.normal();
  }

  template <typename F>
  void run(F&& f) {
    backends::dispatch(GetParam(), std::forward<F>(f));
  }

  matrix::GeneratedSystem gen_;
  SystemView view_{};
  std::vector<real> dense_;
  std::vector<real> x_;
  std::vector<real> y_;
};

TEST_P(AprodKernels, Aprod1SumOfKernelsMatchesDenseMatvec) {
  std::vector<real> y(y_.size(), 0.0);
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod1_astro<Exec>(view_, x_.data(), y.data(), {});
    aprod1_att<Exec>(view_, x_.data(), y.data(), {});
    aprod1_instr<Exec>(view_, x_.data(), y.data(), {});
    aprod1_glob<Exec>(view_, x_.data(), y.data(), {});
  });
  const auto oracle = dense_matvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(),
                                   x_);
  EXPECT_LT(gaia::testing::rel_l2_error(y, oracle), 1e-12);
}

TEST_P(AprodKernels, Aprod1AccumulatesOntoExistingY) {
  // y += A x semantics: pre-filled y must be preserved additively.
  std::vector<real> y = y_;
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod1_astro<Exec>(view_, x_.data(), y.data(), {});
    aprod1_att<Exec>(view_, x_.data(), y.data(), {});
    aprod1_instr<Exec>(view_, x_.data(), y.data(), {});
    aprod1_glob<Exec>(view_, x_.data(), y.data(), {});
  });
  auto oracle = dense_matvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), x_);
  for (std::size_t i = 0; i < oracle.size(); ++i) oracle[i] += y_[i];
  EXPECT_LT(gaia::testing::rel_l2_error(y, oracle), 1e-12);
}

TEST_P(AprodKernels, Aprod2SumOfKernelsMatchesDenseRmatvec) {
  std::vector<real> x(x_.size(), 0.0);
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod2_astro<Exec>(view_, y_.data(), x.data(), {});
    aprod2_att<Exec>(view_, y_.data(), x.data(), {},
                     backends::AtomicMode::kNativeRmw);
    aprod2_instr<Exec>(view_, y_.data(), x.data(), {},
                       backends::AtomicMode::kNativeRmw);
    aprod2_glob<Exec>(view_, y_.data(), x.data(), {},
                      backends::AtomicMode::kNativeRmw);
  });
  const auto oracle = dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(),
                                    y_);
  EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10);
}

TEST_P(AprodKernels, Aprod2CasModeMatchesOracleToo) {
  std::vector<real> x(x_.size(), 0.0);
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod2_astro<Exec>(view_, y_.data(), x.data(), {});
    aprod2_att<Exec>(view_, y_.data(), x.data(), {},
                     backends::AtomicMode::kCasLoop);
    aprod2_instr<Exec>(view_, y_.data(), x.data(), {},
                       backends::AtomicMode::kCasLoop);
    aprod2_glob<Exec>(view_, y_.data(), x.data(), {},
                      backends::AtomicMode::kCasLoop);
  });
  const auto oracle = dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(),
                                    y_);
  EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10);
}

TEST_P(AprodKernels, IndividualKernelsTargetOnlyTheirSection) {
  const auto& lay = gen_.A.layout();
  std::vector<real> x(x_.size(), 0.0);
  run([&](auto exec) {
    aprod2_att<decltype(exec)>(view_, y_.data(), x.data(), {},
                               backends::AtomicMode::kNativeRmw);
  });
  // Astro, instr and glob sections must be untouched by the att kernel.
  for (col_index c = 0; c < lay.att_offset(); ++c)
    ASSERT_EQ(x[static_cast<std::size_t>(c)], 0.0) << c;
  for (col_index c = lay.instr_offset(); c < lay.n_unknowns(); ++c)
    ASSERT_EQ(x[static_cast<std::size_t>(c)], 0.0) << c;
}

TEST_P(AprodKernels, AdjointIdentityHolds) {
  // <A x, y> == <x, A^T y>: ties aprod1 and aprod2 together without the
  // dense oracle.
  std::vector<real> Ax(y_.size(), 0.0);
  std::vector<real> Aty(x_.size(), 0.0);
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod1_astro<Exec>(view_, x_.data(), Ax.data(), {});
    aprod1_att<Exec>(view_, x_.data(), Ax.data(), {});
    aprod1_instr<Exec>(view_, x_.data(), Ax.data(), {});
    aprod1_glob<Exec>(view_, x_.data(), Ax.data(), {});
    aprod2_astro<Exec>(view_, y_.data(), Aty.data(), {});
    aprod2_att<Exec>(view_, y_.data(), Aty.data(), {},
                     backends::AtomicMode::kNativeRmw);
    aprod2_instr<Exec>(view_, y_.data(), Aty.data(), {},
                       backends::AtomicMode::kNativeRmw);
    aprod2_glob<Exec>(view_, y_.data(), Aty.data(), {},
                      backends::AtomicMode::kNativeRmw);
  });
  real lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < Ax.size(); ++i) lhs += Ax[i] * y_[i];
  for (std::size_t i = 0; i < Aty.size(); ++i) rhs += Aty[i] * x_[i];
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max<real>(1, std::abs(lhs)));
}

TEST_P(AprodKernels, ExtremeKernelShapesPreserveResults) {
  // Tuning must never change semantics, only performance.
  const auto oracle = dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(),
                                    y_);
  for (const backends::KernelConfig cfg :
       {backends::KernelConfig{1, 1}, backends::KernelConfig{3, 7},
        backends::KernelConfig{512, 64}}) {
    std::vector<real> x(x_.size(), 0.0);
    run([&](auto exec) {
      using Exec = decltype(exec);
      aprod2_astro<Exec>(view_, y_.data(), x.data(), cfg);
      aprod2_att<Exec>(view_, y_.data(), x.data(), cfg,
                       backends::AtomicMode::kNativeRmw);
      aprod2_instr<Exec>(view_, y_.data(), x.data(), cfg,
                         backends::AtomicMode::kNativeRmw);
      aprod2_glob<Exec>(view_, y_.data(), x.data(), cfg,
                        backends::AtomicMode::kNativeRmw);
    });
    EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10)
        << "cfg " << cfg.blocks << "x" << cfg.threads;
  }
}

TEST_P(AprodKernels, GlobalKernelsNoopWithoutGlobalSection) {
  auto cfg = gaia::testing::small_config(18);
  cfg.has_global = false;
  auto gen = matrix::generate_system(cfg);
  const SystemView view = SystemView::from(gen.A);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()), 0.0);
  std::vector<real> ones(y.size(), 1.0);
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod1_glob<Exec>(view, x.data(), y.data(), {});
    aprod2_glob<Exec>(view, ones.data(), x.data(), {},
                      backends::AtomicMode::kNativeRmw);
  });
  for (real v : y) ASSERT_EQ(v, 0.0);
  for (real v : x) ASSERT_EQ(v, 0.0);
}

TEST_P(AprodKernels, FusedGatherBitIdenticalToTheFourGathers) {
  // The fused gather adds the four section dots into y[r] in the order
  // the separate kernels add them: through the registry it equals the
  // four launches bit for bit on every layout and precision, onto a
  // non-zero y, with and without a global block.
  ensure_kernel_catalog();
  const tuning::KernelRegistry& reg = tuning::KernelRegistry::global();
  for (const bool has_global : {true, false}) {
    auto cfg = gaia::testing::medium_config(19);
    cfg.has_global = has_global;
    const AttachedSystem sys(cfg);
    util::Xoshiro256 rng(23);
    std::vector<real> x(static_cast<std::size_t>(sys.gen.A.n_cols()));
    std::vector<real> y0(static_cast<std::size_t>(sys.gen.A.n_rows()));
    for (auto& v : x) v = rng.normal();
    for (auto& v : y0) v = rng.normal();
    for (const StorageLayout layout : kLayouts) {
      for (const Precision precision : kPrecisions) {
        tuning::LaunchArgs args;
        args.view = &sys.view;
        args.in = x.data();
        args.config = {16, 32};
        args.config.layout = layout;
        args.config.precision = precision;
        std::vector<real> separate = y0;
        args.out = separate.data();
        for (KernelId id : {KernelId::kAprod1Astro, KernelId::kAprod1Att,
                            KernelId::kAprod1Instr, KernelId::kAprod1Glob})
          reg.launch(id, GetParam(), args);
        std::vector<real> fused = y0;
        args.out = fused.data();
        reg.launch_fused(tuning::FusedPass::kGather, GetParam(), args);
        for (std::size_t r = 0; r < fused.size(); ++r)
          ASSERT_EQ(fused[r], separate[r])
              << backends::to_string(layout) << "/"
              << backends::to_string(precision)
              << (has_global ? "" : " no-global") << " row " << r;
      }
    }
  }
}

/// p, q and ||p||^2 of one step launch through the registry, from u0
/// and a q that starts as garbage (the step overwrites it whole).
struct StepOutputs {
  std::vector<real> p, q;
  real pnorm_sq = -1;
};

StepOutputs launch_step(BackendKind backend, tuning::LaunchArgs args,
                        const std::vector<real>& v,
                        const std::vector<real>& u0, real sigma, real alpha) {
  StepOutputs out;
  out.p = u0;
  out.q.assign(v.size(), real{1e30});
  args.in = v.data();
  args.out = out.p.data();
  args.q = out.q.data();
  args.sigma = sigma;
  args.alpha = alpha;
  args.pnorm_sq = &out.pnorm_sq;
  tuning::KernelRegistry::global().launch_fused(tuning::FusedPass::kStep,
                                                backend, args);
  return out;
}

TEST_P(AprodKernels, StepMatchesGatherAstroAndFusedScatter) {
  // The step forms p = A v - alpha (sigma u) with the fused gather's
  // row, so p equals the fused gather onto (sigma u)(-alpha) bit for
  // bit. q = A^T p and ||p||^2 accumulate in another order than
  // aprod2_astro + the fused scatter + a norm, so they agree to
  // rounding. Every layout, precision and strategy, with and without a
  // global block.
  ensure_kernel_catalog();
  const tuning::KernelRegistry& reg = tuning::KernelRegistry::global();
  const real sigma = 0.75, alpha = 1.3;
  for (const bool has_global : {true, false}) {
    auto cfg = gaia::testing::medium_config(29);
    cfg.has_global = has_global;
    const AttachedSystem sys(cfg);
    util::Xoshiro256 rng(37);
    std::vector<real> v(static_cast<std::size_t>(sys.gen.A.n_cols()));
    std::vector<real> u0(static_cast<std::size_t>(sys.gen.A.n_rows()));
    for (auto& e : v) e = rng.normal();
    for (auto& e : u0) e = rng.normal();
    for (const StorageLayout layout : kLayouts) {
      for (const Precision precision : kPrecisions) {
        for (const auto strategy : {backends::ScatterStrategy::kAtomic,
                                    backends::ScatterStrategy::kPrivatized}) {
          tuning::LaunchArgs args;
          args.view = &sys.view;
          args.config = {16, 32};
          args.config.layout = layout;
          args.config.precision = precision;
          args.config.strategy = strategy;
          const std::string label =
              std::string(backends::to_string(layout)) + "/" +
              backends::to_string(precision) + "/" +
              backends::to_string(strategy) +
              (has_global ? "" : " no-global");

          std::vector<real> p_ref(u0.size());
          for (std::size_t r = 0; r < u0.size(); ++r)
            p_ref[r] = (sigma * u0[r]) * -alpha;
          args.in = v.data();
          args.out = p_ref.data();
          reg.launch_fused(tuning::FusedPass::kGather, GetParam(), args);
          std::vector<real> q_ref(v.size(), 0.0);
          args.in = p_ref.data();
          args.out = q_ref.data();
          reg.launch(KernelId::kAprod2Astro, GetParam(), args);
          reg.launch_fused(tuning::FusedPass::kScatter, GetParam(), args);
          const real pnorm_sq_ref = vdot(p_ref, p_ref);

          const StepOutputs step =
              launch_step(GetParam(), args, v, u0, sigma, alpha);
          for (std::size_t r = 0; r < p_ref.size(); ++r)
            ASSERT_EQ(step.p[r], p_ref[r]) << label << " row " << r;
          EXPECT_LT(gaia::testing::rel_l2_error(step.q, q_ref), 1e-13)
              << label;
          EXPECT_NEAR(step.pnorm_sq, pnorm_sq_ref, 1e-13 * pnorm_sq_ref)
              << label;
        }
      }
    }
  }
}

TEST_P(AprodKernels, PrivatizedStepBitIdenticalAcrossLaunches) {
  // At a fixed launch shape the privatized step's star-aligned chunks,
  // fold order and partial combine order are all fixed: p, q and
  // ||p||^2 repeat bit for bit, whatever the thread scheduling.
  ensure_kernel_catalog();
  const AttachedSystem sys(gaia::testing::medium_config(31));
  util::Xoshiro256 rng(41);
  std::vector<real> v(static_cast<std::size_t>(sys.gen.A.n_cols()));
  std::vector<real> u0(static_cast<std::size_t>(sys.gen.A.n_rows()));
  for (auto& e : v) e = rng.normal();
  for (auto& e : u0) e = rng.normal();
  for (const backends::KernelConfig shape :
       {backends::KernelConfig{1, 1}, backends::KernelConfig{3, 7},
        backends::KernelConfig{512, 64}}) {
    tuning::LaunchArgs args;
    args.view = &sys.view;
    args.config = shape;
    args.config.strategy = backends::ScatterStrategy::kPrivatized;
    const StepOutputs first = launch_step(GetParam(), args, v, u0, 0.5, 2.0);
    for (int rep = 0; rep < 3; ++rep) {
      const StepOutputs again =
          launch_step(GetParam(), args, v, u0, 0.5, 2.0);
      ASSERT_EQ(again.pnorm_sq, first.pnorm_sq);
      for (std::size_t r = 0; r < first.p.size(); ++r)
        ASSERT_EQ(again.p[r], first.p[r]) << r;
      for (std::size_t c = 0; c < first.q.size(); ++c)
        ASSERT_EQ(again.q[c], first.q[c])
            << shape.blocks << "x" << shape.threads << " column " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AprodKernels,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

TEST(KernelCatalog, PassTrafficCountsYOncePerRow) {
  // A fused pass moves its parts' coefficient, index and x bytes but
  // touches y[r] once: the parts' sum minus (parts - 1) x rows x y bytes
  // (aprod1 reads and writes y[r], aprod2 reads it). Without a global
  // block the glob part does not run and is not charged. aprod2_astro is
  // its own single part.
  for (const bool has_global : {true, false}) {
    auto cfg = gaia::testing::medium_config(21);
    cfg.has_global = has_global;
    const AttachedSystem sys(cfg);
    const SystemView& v = sys.view;
    const auto rows = static_cast<std::uint64_t>(v.n_rows);
    const std::uint64_t gather_parts = has_global ? 4 : 3;
    const std::uint64_t scatter_parts = has_global ? 3 : 2;
    const auto& [gather, astro, scatter] = tuning::kAprodPasses;
    for (const StorageLayout layout : kLayouts) {
      for (const Precision precision : kPrecisions) {
        const auto bytes = [&](KernelId id) {
          return kernel_traffic_bytes(v, id, layout, precision);
        };
        std::uint64_t gather_sum = bytes(KernelId::kAprod1Astro) +
                                   bytes(KernelId::kAprod1Att) +
                                   bytes(KernelId::kAprod1Instr);
        std::uint64_t scatter_sum =
            bytes(KernelId::kAprod2Att) + bytes(KernelId::kAprod2Instr);
        if (has_global) {
          gather_sum += bytes(KernelId::kAprod1Glob);
          scatter_sum += bytes(KernelId::kAprod2Glob);
        }
        const std::string label = std::string(backends::to_string(layout)) +
                                  "/" + backends::to_string(precision);
        EXPECT_EQ(pass_traffic_bytes(v, gather, layout, precision),
                  gather_sum - (gather_parts - 1) * rows * 2 * sizeof(real))
            << label;
        EXPECT_EQ(pass_traffic_bytes(v, scatter, layout, precision),
                  scatter_sum - (scatter_parts - 1) * rows * sizeof(real))
            << label;
        EXPECT_EQ(pass_traffic_bytes(v, astro, layout, precision),
                  bytes(KernelId::kAprod2Astro))
            << label;
      }
    }
    EXPECT_EQ(pass_flops(v, gather),
              kernel_flops(v, KernelId::kAprod1Astro) +
                  kernel_flops(v, KernelId::kAprod1Att) +
                  kernel_flops(v, KernelId::kAprod1Instr) +
                  (has_global ? kernel_flops(v, KernelId::kAprod1Glob) : 0));
  }
}

TEST(KernelCatalog, StepTrafficReadsTheCoefficientsOnce) {
  // The step reads what the fused gather reads (coefficients, indices, v
  // gathers; u in place of y, once per row, read and written) plus the
  // q read-modify-writes of the four scatter parts; its flops and atomic
  // commits are the sums over all eight parts.
  for (const bool has_global : {true, false}) {
    auto cfg = gaia::testing::medium_config(22);
    cfg.has_global = has_global;
    const AttachedSystem sys(cfg);
    const SystemView& v = sys.view;
    const auto rows = static_cast<std::uint64_t>(v.n_rows);
    const std::uint64_t scatter_nnz =
        kAstroNnzPerRow + kAttNnzPerRow + kInstrNnzPerRow +
        (has_global ? kGlobNnzPerRow : 0);
    const auto& [gather, astro, scatter] = tuning::kAprodPasses;
    for (const StorageLayout layout : kLayouts) {
      for (const Precision precision : kPrecisions) {
        EXPECT_EQ(pass_traffic_bytes(v, tuning::kStepPass, layout, precision),
                  pass_traffic_bytes(v, gather, layout, precision) +
                      rows * 2 * sizeof(real) * scatter_nnz)
            << backends::to_string(layout) << "/"
            << backends::to_string(precision);
      }
    }
    EXPECT_EQ(pass_flops(v, tuning::kStepPass),
              pass_flops(v, gather) + pass_flops(v, astro) +
                  pass_flops(v, scatter));
    for (const auto strategy : {backends::ScatterStrategy::kAtomic,
                                backends::ScatterStrategy::kPrivatized})
      EXPECT_EQ(pass_atomic_updates(v, tuning::kStepPass, strategy, 4),
                pass_atomic_updates(v, scatter, strategy, 4));
    EXPECT_STREQ(pass_region_name(tuning::kStepPass), "aprod_step");
  }
}

}  // namespace
}  // namespace gaia::core
