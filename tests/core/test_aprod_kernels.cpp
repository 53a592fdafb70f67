#include "core/aprod_kernels.hpp"

#include <gtest/gtest.h>

#include "core/kernel_catalog.hpp"
#include "core/vector_ops.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/rng.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;
using backends::KernelId;

/// A generated system and its host view.
struct AttachedSystem {
  explicit AttachedSystem(const matrix::GeneratorConfig& cfg)
      : gen(matrix::generate_system(cfg)), view(SystemView::from(gen.A)) {}
  matrix::GeneratedSystem gen;
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
    aprod2_att<Exec>(view_, y_.data(), x.data(), {});
    aprod2_instr<Exec>(view_, y_.data(), x.data(), {});
    aprod2_glob<Exec>(view_, y_.data(), x.data(), {});
  });
  const auto oracle = dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(),
                                    y_);
  EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10);
}

TEST_P(AprodKernels, Aprod2CasModeMatchesOracleToo) {
  // There is no CAS (or any atomic) commit left to select: with the
  // metrics registry on, which counts every CAS operation, the scatters
  // at a multi-threaded shape still match the oracle and issue none.
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  std::vector<real> x(x_.size(), 0.0);
  const backends::KernelConfig cfg{8, 32};
  run([&](auto exec) {
    using Exec = decltype(exec);
    aprod2_astro<Exec>(view_, y_.data(), x.data(), cfg);
    aprod2_att<Exec>(view_, y_.data(), x.data(), cfg);
    aprod2_instr<Exec>(view_, y_.data(), x.data(), cfg);
    aprod2_glob<Exec>(view_, y_.data(), x.data(), cfg);
  });
  EXPECT_EQ(reg.counter("atomic.cas_ops").value(), 0u);
  reg.set_enabled(false);
  reg.reset();
  const auto oracle = dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(),
                                    y_);
  EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10);
}

TEST_P(AprodKernels, IndividualKernelsTargetOnlyTheirSection) {
  const auto& lay = gen_.A.layout();
  std::vector<real> x(x_.size(), 0.0);
  run([&](auto exec) {
    aprod2_att<decltype(exec)>(view_, y_.data(), x.data(), {});
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
    aprod2_att<Exec>(view_, y_.data(), Aty.data(), {});
    aprod2_instr<Exec>(view_, y_.data(), Aty.data(), {});
    aprod2_glob<Exec>(view_, y_.data(), Aty.data(), {});
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
      aprod2_att<Exec>(view_, y_.data(), x.data(), cfg);
      aprod2_instr<Exec>(view_, y_.data(), x.data(), cfg);
      aprod2_glob<Exec>(view_, y_.data(), x.data(), cfg);
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
    aprod2_glob<Exec>(view, ones.data(), x.data(), {});
  });
  for (real v : y) ASSERT_EQ(v, 0.0);
  for (real v : x) ASSERT_EQ(v, 0.0);
}

TEST_P(AprodKernels, FusedGatherBitIdenticalToTheFourGathers) {
  // The fused gather adds the four section dots into y[r] in the order
  // the separate kernels add them: through the registry it equals the
  // four launches bit for bit, onto a non-zero y, with and without a
  // global block.
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
    tuning::LaunchArgs args;
    args.view = &sys.view;
    args.in = x.data();
    args.config = {16, 32};
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
          << (has_global ? "" : "no-global ") << "row " << r;
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
  // bit. q = A^T p runs aprod2_astro's star accumulator and the fused
  // scatter's row blocks and fold, so it equals the two bit for bit too.
  // ||p||^2 sums per block rather than in a blocked reduction's lanes,
  // so it agrees to rounding. At one and at many threads, with and
  // without a global block.
  ensure_kernel_catalog();
  const tuning::KernelRegistry& reg = tuning::KernelRegistry::global();
  const real sigma = 0.75, alpha = 1.3;
  for (const bool has_global : {true, false}) {
    auto cfg = gaia::testing::medium_config(29);
    cfg.has_global = has_global;
    const AttachedSystem sys(cfg);
    ASSERT_GE(block_partition(static_cast<std::size_t>(sys.gen.A.n_obs()))
                  .count,
              3u);
    util::Xoshiro256 rng(37);
    std::vector<real> v(static_cast<std::size_t>(sys.gen.A.n_cols()));
    std::vector<real> u0(static_cast<std::size_t>(sys.gen.A.n_rows()));
    for (auto& e : v) e = rng.normal();
    for (auto& e : u0) e = rng.normal();
    for (const backends::KernelConfig shape :
         {backends::KernelConfig{16, 32}, backends::KernelConfig{1, 1},
          backends::KernelConfig{256, 256}}) {
      tuning::LaunchArgs args;
      args.view = &sys.view;
      args.config = shape;
      const std::string label = std::to_string(shape.blocks) + "x" +
                                std::to_string(shape.threads) +
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
      for (std::size_t c = 0; c < q_ref.size(); ++c)
        ASSERT_EQ(step.q[c], q_ref[c]) << label << " column " << c;
      EXPECT_NEAR(step.pnorm_sq, pnorm_sq_ref, 1e-13 * pnorm_sq_ref)
          << label;
    }
  }
}

TEST_P(AprodKernels, PrivatizedStepBitIdenticalAcrossLaunches) {
  // The step's star-aligned row blocks, slice fold order and partial
  // combine order are fixed by the system: p, q and ||p||^2 repeat bit
  // for bit, whatever the thread scheduling.
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
  // its own single part. Every kernel runs the fp64 row records, so the
  // overload that takes the inert layout and precision charges exactly
  // their bytes.
  for (const bool has_global : {true, false}) {
    auto cfg = gaia::testing::medium_config(21);
    cfg.has_global = has_global;
    const AttachedSystem sys(cfg);
    const SystemView& v = sys.view;
    const auto rows = static_cast<std::uint64_t>(v.n_rows);
    const std::uint64_t gather_parts = has_global ? 4 : 3;
    const std::uint64_t scatter_parts = has_global ? 3 : 2;
    const auto& [gather, astro, scatter] = tuning::kAprodPasses;
    const auto bytes = [&](KernelId id) { return kernel_traffic_bytes(v, id); };
    std::uint64_t gather_sum = bytes(KernelId::kAprod1Astro) +
                               bytes(KernelId::kAprod1Att) +
                               bytes(KernelId::kAprod1Instr);
    std::uint64_t scatter_sum =
        bytes(KernelId::kAprod2Att) + bytes(KernelId::kAprod2Instr);
    if (has_global) {
      gather_sum += bytes(KernelId::kAprod1Glob);
      scatter_sum += bytes(KernelId::kAprod2Glob);
    }
    for (KernelId id : backends::all_kernels())
      for (int li = 0; li < backends::kNumStorageLayouts; ++li)
        EXPECT_EQ(kernel_traffic_bytes(
                      v, id, static_cast<backends::StorageLayout>(li),
                      backends::Precision::kFp64),
                  bytes(id))
            << "layout " << li;
    EXPECT_EQ(pass_traffic_bytes(v, gather),
              gather_sum - (gather_parts - 1) * rows * 2 * sizeof(real));
    EXPECT_EQ(pass_traffic_bytes(v, scatter),
              scatter_sum - (scatter_parts - 1) * rows * sizeof(real));
    EXPECT_EQ(pass_traffic_bytes(v, astro), bytes(KernelId::kAprod2Astro));
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
  // q read-modify-writes of the four scatter parts; its flops are the
  // sum over all eight parts.
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
    EXPECT_EQ(pass_traffic_bytes(v, tuning::kStepPass),
              pass_traffic_bytes(v, gather) +
                  rows * 2 * sizeof(real) * scatter_nnz);
    EXPECT_EQ(pass_flops(v, tuning::kStepPass),
              pass_flops(v, gather) + pass_flops(v, astro) +
                  pass_flops(v, scatter));
    EXPECT_STREQ(pass_region_name(tuning::kStepPass), "aprod_step");
  }
}

}  // namespace
}  // namespace gaia::core
