#include "gaia.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/vector_ops.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gaia::core {
namespace {

using backends::BackendKind;

class AprodDriver : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    gen_ = matrix::generate_system(gaia::testing::medium_config(5));
    dense_ = matrix::to_dense(gen_.A);
    util::Xoshiro256 rng(8);
    x_.resize(static_cast<std::size_t>(gen_.A.n_cols()));
    y_.resize(static_cast<std::size_t>(gen_.A.n_rows()));
    for (auto& v : x_) v = rng.normal();
    for (auto& v : y_) v = rng.normal();
  }

  AprodOptions opts() const {
    AprodOptions o;
    o.backend = GetParam();
    return o;
  }

  matrix::GeneratedSystem gen_;
  std::vector<real> dense_;
  std::vector<real> x_;
  std::vector<real> y_;
};

TEST_P(AprodDriver, Apply1MatchesOracleWithAndWithoutStreams) {
  // Aprod has one aprod1 path (the fused gather); the dense oracle holds.
  const auto oracle =
      matrix::dense_matvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), x_);
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  std::vector<real> y(y_.size(), 0.0);
  aprod.apply1(x_, y);
  EXPECT_LT(gaia::testing::rel_l2_error(y, oracle), 1e-12);
}

TEST_P(AprodDriver, Apply2MatchesOracleWithAndWithoutStreams) {
  // Aprod has one aprod2 path (astro + fused scatter); the oracle holds.
  const auto oracle =
      matrix::dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), y_);
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  std::vector<real> x(x_.size(), 0.0);
  aprod.apply2(y_, x);
  EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10);
}

TEST_P(AprodDriver, SystemIsCopiedToDeviceOnceAtConstruction) {
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  const auto h2d_after_setup = device.h2d_bytes();
  EXPECT_GE(h2d_after_setup, gen_.A.values().size_bytes());

  // The iteration-phase products must not trigger further transfers —
  // the paper's "copied before the main loop, stays on GPU" contract.
  std::vector<real> y(y_.size(), 0.0);
  std::vector<real> x(x_.size(), 0.0);
  for (int it = 0; it < 3; ++it) {
    aprod.apply1(x_, y);
    aprod.apply2(y_, x);
  }
  EXPECT_EQ(device.h2d_bytes(), h2d_after_setup);
  EXPECT_EQ(device.d2h_bytes(), 0u);
}

TEST_P(AprodDriver, DeviceCapacityEnforced) {
  backends::DeviceContext tiny(1024, "tiny");
  EXPECT_THROW(Aprod(gen_.A, tiny, opts()), gaia::Error);
}

TEST_P(AprodDriver, LaunchCounterTracksKernels) {
  // One row pass per product: the fused gather, then aprod2_astro and
  // the fused scatter.
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  std::vector<real> y(y_.size(), 0.0);
  std::vector<real> x(x_.size(), 0.0);
  aprod.apply1(x_, y);
  EXPECT_EQ(aprod.launches(), 1u);
  aprod.apply2(y_, x);
  EXPECT_EQ(aprod.launches(), 3u);
}

TEST_P(AprodDriver, StepMatchesDenseOracleInOneLaunch) {
  // The LSQR step through the driver: p = A v - alpha (sigma u) over u,
  // q = A^T p over q, ||p||^2 returned — one launch.
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  const real sigma = 0.5, alpha = 1.5;
  std::vector<real> p =
      matrix::dense_matvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), x_);
  for (std::size_t r = 0; r < p.size(); ++r) p[r] -= alpha * sigma * y_[r];
  const auto q_oracle =
      matrix::dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), p);
  std::vector<real> u = y_;
  std::vector<real> q(x_.size(), real{7});
  const real pnorm_sq = aprod.step(x_, u, q, sigma, alpha);
  EXPECT_EQ(aprod.launches(), 1u);
  EXPECT_LT(gaia::testing::rel_l2_error(u, p), 1e-12);
  EXPECT_LT(gaia::testing::rel_l2_error(q, q_oracle), 1e-12);
  EXPECT_NEAR(pnorm_sq, vdot(p, p), 1e-12 * vdot(p, p));
  EXPECT_THROW(aprod.step(y_, u, q, sigma, alpha), gaia::Error);
}

TEST_P(AprodDriver, SizeMismatchesRejected) {
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  std::vector<real> bad_x(3), bad_y(3);
  std::vector<real> y(y_.size());
  std::vector<real> x(x_.size());
  EXPECT_THROW(aprod.apply1(bad_x, y), gaia::Error);
  EXPECT_THROW(aprod.apply1(x, bad_y), gaia::Error);
  EXPECT_THROW(aprod.apply2(bad_y, x), gaia::Error);
  EXPECT_THROW(aprod.apply2(y, bad_x), gaia::Error);
}

TEST_P(AprodDriver, StreamedAndUnstreamedResultsAgreeClosely) {
  // Two drivers on the same system and table run the same aprod2 path,
  // and the scatter commit folds its slices in an order fixed by the
  // system: the results agree bit for bit.
  backends::DeviceContext d1, d2;
  Aprod seq(gen_.A, d1, opts());
  Aprod ovl(gen_.A, d2, opts());
  std::vector<real> xs(x_.size(), 0.0), xo(x_.size(), 0.0);
  seq.apply2(y_, xs);
  ovl.apply2(y_, xo);
  EXPECT_EQ(xo, xs);
}

TEST_P(AprodDriver, TunedAndUntunedProduceSameNumbers) {
  AprodOptions tuned = opts();
  tuned.tuning = backends::TuningTable::tuned_default();
  AprodOptions untuned = opts();
  untuned.tuning = backends::TuningTable::untuned();
  backends::DeviceContext d1, d2;
  Aprod a(gen_.A, d1, tuned), b(gen_.A, d2, untuned);
  std::vector<real> xa(x_.size(), 0.0), xb(x_.size(), 0.0);
  a.apply2(y_, xa);
  b.apply2(y_, xb);
  EXPECT_LT(gaia::testing::rel_l2_error(xa, xb), 1e-11);
}

TEST_P(AprodDriver, ConcurrentDriversShareThePoolSafely) {
  // Two independent Aprod instances running aprod2 at the same time:
  // the shared thread pool and the per-driver scratch arenas must not
  // interfere (this is the multi-solver / multi-rank-in-process shape).
  const auto oracle =
      matrix::dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), y_);
  backends::DeviceContext d1, d2;
  Aprod a(gen_.A, d1, opts()), b(gen_.A, d2, opts());
  std::vector<real> xa(x_.size(), 0.0), xb(x_.size(), 0.0);
  std::thread ta([&] {
    for (int i = 0; i < 3; ++i) {
      std::fill(xa.begin(), xa.end(), 0.0);
      a.apply2(y_, xa);
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 3; ++i) {
      std::fill(xb.begin(), xb.end(), 0.0);
      b.apply2(y_, xb);
    }
  });
  ta.join();
  tb.join();
  EXPECT_LT(gaia::testing::rel_l2_error(xa, oracle), 1e-10);
  EXPECT_LT(gaia::testing::rel_l2_error(xb, oracle), 1e-10);
}

TEST_P(AprodDriver, FusedAprod2MatchesSplitKernels) {
  // The stdpar-port shape: one fused shared-section scatter. Same
  // algebra, two launches instead of four.
  const auto oracle =
      matrix::dense_rmatvec(dense_, gen_.A.n_rows(), gen_.A.n_cols(), y_);
  backends::DeviceContext device;
  Aprod aprod(gen_.A, device, opts());
  std::vector<real> x(x_.size(), 0.0);
  aprod.apply2(y_, x);
  EXPECT_LT(gaia::testing::rel_l2_error(x, oracle), 1e-10);
  EXPECT_EQ(aprod.launches(), 2u);
}

TEST_P(AprodDriver, AdjointIdentityOnEveryLayoutPrecisionAndStrategy) {
  // The matrix-free oracle at the driver level, where the passes are
  // composed: <A x, y> = <x, A^T y> through apply1/apply2 on the tuned
  // table and on a 2x2 table (other thread counts); the gap is judged
  // against the summed magnitude of the products. No dense expansion is
  // needed.
  for (const bool tuned : {true, false}) {
    AprodOptions o = opts();
    if (!tuned) o.tuning = backends::TuningTable::untuned({2, 2});
    backends::DeviceContext device;
    Aprod aprod(gen_.A, device, o);
    std::vector<real> ax(y_.size(), 0.0), aty(x_.size(), 0.0);
    aprod.apply1(x_, ax);
    aprod.apply2(y_, aty);
    real lhs = 0, rhs = 0, scale = 0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      lhs += ax[i] * y_[i];
      scale += std::abs(ax[i] * y_[i]);
    }
    for (std::size_t i = 0; i < aty.size(); ++i) rhs += aty[i] * x_[i];
    EXPECT_LT(std::abs(lhs - rhs), 1e-12 * scale)
        << (tuned ? "tuned" : "2x2");
  }
}

TEST_P(AprodDriver, UmbrellaHeaderExposesDriver) {
  // gaia.hpp must be self-sufficient for the public API surface; this
  // test includes it transitively via the test target and touches the
  // aliases it re-exports.
  static_assert(std::is_same_v<gaia::core::Aprod, Aprod>);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AprodDriver,
                         ::testing::ValuesIn(backends::all_backends()),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

TEST(AprodPrecisionClamp, OversizedCopyRunsFp64AndIsRecorded) {
  // The fp64 row records are the only device copy. A device that holds
  // exactly them runs apply1, apply2 and the step bit for bit like a
  // roomy one, allocates nothing past them and records no degrade; one
  // byte less and the driver refuses the system at construction, with
  // an error naming the device, instead of running anything reduced.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(6));
  util::Xoshiro256 rng(9);
  std::vector<real> x(static_cast<std::size_t>(gen.A.n_cols()));
  std::vector<real> y(static_cast<std::size_t>(gen.A.n_rows()));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  struct Run {
    std::vector<real> ax, aty, u, q;
    real pnorm_sq = 0;
  };
  const auto run = [&](Aprod& aprod) {
    Run r;
    r.ax.assign(y.size(), 0.0);
    r.aty.assign(x.size(), 0.0);
    aprod.apply1(x, r.ax);
    aprod.apply2(y, r.aty);
    r.u = y;
    r.q.assign(x.size(), 0.0);
    for (int i = 0; i < 2; ++i)
      r.pnorm_sq = aprod.step(x, r.u, r.q, 1.0, 0.5);
    return r;
  };
  AprodOptions opts;
  opts.backend = BackendKind::kSerial;
  backends::DeviceContext roomy;
  Aprod reference(gen.A, roomy, opts);
  const byte_size seed_bytes = roomy.allocated();
  const Run want = run(reference);

  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  obs::FlightRecorder::global().reset();
  backends::DeviceContext exact(seed_bytes, "exact");
  Aprod fitted(gen.A, exact, opts);
  const Run got = run(fitted);
  std::vector<std::string> counters;
  for (const obs::MetricRow& row : reg.snapshot()) counters.push_back(row.name);
  reg.set_enabled(false);
  reg.reset();

  EXPECT_EQ(got.ax, want.ax);
  EXPECT_EQ(got.aty, want.aty);
  EXPECT_EQ(got.u, want.u);
  EXPECT_EQ(got.q, want.q);
  EXPECT_EQ(got.pnorm_sq, want.pnorm_sq);
  EXPECT_EQ(exact.allocated(), seed_bytes);
  for (const std::string& name : counters)
    EXPECT_EQ(name.find("precision"), std::string::npos) << name;
  for (const obs::FlightEvent& e : obs::FlightRecorder::global().events())
    EXPECT_NE(e.category, "degrade") << e.name << ": " << e.detail;

  backends::DeviceContext tight(seed_bytes - 1, "tight");
  try {
    Aprod refused(gen.A, tight, opts);
    ADD_FAILURE() << "a system one byte over capacity was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("device 'tight' out of memory"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(tight.allocated(), 0u);
}

}  // namespace
}  // namespace gaia::core
