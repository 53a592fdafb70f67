#include "core/lsqr_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/aprod.hpp"
#include "core/vector_ops.hpp"
#include "matrix/generator.hpp"
#include "test_helpers.hpp"

namespace gaia::core {
namespace {

LsqrOptions engine_options(backends::BackendKind backend =
                               backends::BackendKind::kSerial) {
  LsqrOptions opts;
  opts.aprod.backend = backend;
  opts.max_iterations = 60;
  return opts;
}

TEST(LsqrEngine, SteppedRunMatchesBatchSolve) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(130));
  const auto batch = lsqr_solve(gen.A, engine_options());

  LsqrEngine engine(gen.A, engine_options());
  while (engine.step()) {
  }
  const auto stepped = engine.result();
  ASSERT_EQ(stepped.iterations, batch.iterations);
  for (std::size_t i = 0; i < batch.x.size(); ++i)
    EXPECT_EQ(stepped.x[i], batch.x[i]);  // bitwise: same code path
  EXPECT_EQ(stepped.rnorm, batch.rnorm);
}

TEST(LsqrEngine, IntermediateResultsAreQueryable) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(131));
  LsqrEngine engine(gen.A, engine_options());
  EXPECT_EQ(engine.iteration(), 0);
  engine.step();
  EXPECT_EQ(engine.iteration(), 1);
  const auto mid = engine.result();
  EXPECT_EQ(mid.iterations, 1);
  EXPECT_GT(mid.rnorm, 0.0);
  engine.step();
  EXPECT_EQ(engine.iteration(), 2);
  EXPECT_FALSE(engine.finished());
}

TEST(LsqrEngine, RnormDecreasesMonotonically) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(132));
  LsqrEngine engine(gen.A, engine_options());
  real prev = 1e300;
  while (engine.step()) {
    EXPECT_LE(engine.rnorm(), prev + 1e-12);
    prev = engine.rnorm();
  }
}

TEST(LsqrEngine, RunToCompletionCountsRemainingSteps) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(133));
  LsqrEngine engine(gen.A, engine_options());
  engine.step();
  engine.step();
  const auto remaining = engine.run_to_completion();
  EXPECT_EQ(remaining + 2, engine.iteration());
  EXPECT_TRUE(engine.finished());
  EXPECT_FALSE(engine.step());  // no-op after completion
  EXPECT_EQ(engine.iteration(), remaining + 2);
}

TEST(LsqrEngine, ZeroRhsFinishesImmediately) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(134));
  std::vector<real> zero(static_cast<std::size_t>(gen.A.n_rows()), 0.0);
  LsqrEngine engine(gen.A, zero, engine_options());
  EXPECT_TRUE(engine.finished());
  EXPECT_EQ(engine.stop_reason(), LsqrStop::kXZero);
}

class LsqrCheckpoint : public ::testing::TestWithParam<backends::BackendKind> {
};

TEST_P(LsqrCheckpoint, ResumedRunIsBitIdentical) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(135));
  const auto opts = engine_options(GetParam());

  // Uninterrupted run.
  LsqrEngine full(gen.A, opts);
  full.run_to_completion();
  const auto expected = full.result();

  // Interrupted at iteration 20, checkpointed, restored into a fresh
  // engine, resumed.
  LsqrEngine first(gen.A, opts);
  for (int i = 0; i < 20; ++i) first.step();
  std::stringstream ckpt;
  first.checkpoint(ckpt);

  LsqrEngine second(gen.A, opts);
  second.restore(ckpt);
  EXPECT_EQ(second.iteration(), 20);
  second.run_to_completion();
  const auto resumed = second.result();

  ASSERT_EQ(resumed.iterations, expected.iterations);
  // The serial backend is deterministic -> bitwise identical. Parallel
  // backends have a non-deterministic aprod2 accumulation order whose
  // roundoff the Krylov recurrence amplifies, so the resumed run may
  // only agree as well as two *uninterrupted* runs agree with each
  // other — measure that baseline and require the same level.
  if (GetParam() == backends::BackendKind::kSerial) {
    for (std::size_t i = 0; i < expected.x.size(); ++i)
      ASSERT_EQ(resumed.x[i], expected.x[i]) << i;
    EXPECT_EQ(resumed.rnorm, expected.rnorm);
  } else {
    // The elementwise divergence between two parallel runs is chaotic
    // (atomic-order roundoff amplified by the Krylov recurrence), so the
    // meaningful resume invariant is solution *quality*: the resumed run
    // must land on an equally good least-squares solution. The observed
    // run-to-run rnorm spread of this problem is ~1e-4 relative (the
    // old 1e-6 bound flaked roughly one run in seven), so the bound is
    // set an order of magnitude above the spread. Bit-exactness of the
    // checkpoint mechanism itself is covered by the serial branch above
    // and by SingleLaneGpusimResumeIsBitIdentical below.
    EXPECT_NEAR(resumed.rnorm, expected.rnorm,
                1e-3 * std::max<real>(1, expected.rnorm));
    EXPECT_LT(gaia::testing::rel_l2_error(resumed.x, expected.x), 1e-2);
  }
}

// With a single block and a single thread per block the gpusim backend
// has a deterministic accumulation order, so resume must be bitwise
// exact — this isolates checkpoint-state completeness from the
// atomic-order roundoff the stochastic bound above tolerates.
TEST(LsqrCheckpointDeterministic, SingleLaneGpusimResumeIsBitIdentical) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(135));
  auto opts = engine_options(backends::BackendKind::kGpuSim);
  opts.aprod.tuning = backends::TuningTable::untuned({1, 1});

  LsqrEngine full(gen.A, opts);
  full.run_to_completion();
  const auto expected = full.result();

  LsqrEngine first(gen.A, opts);
  for (int i = 0; i < 20; ++i) first.step();
  std::stringstream ckpt;
  first.checkpoint(ckpt);

  LsqrEngine second(gen.A, opts);
  second.restore(ckpt);
  second.run_to_completion();
  const auto resumed = second.result();

  ASSERT_EQ(resumed.iterations, expected.iterations);
  for (std::size_t i = 0; i < expected.x.size(); ++i)
    ASSERT_EQ(resumed.x[i], expected.x[i]) << i;
  EXPECT_EQ(resumed.rnorm, expected.rnorm);
}

INSTANTIATE_TEST_SUITE_P(Backends, LsqrCheckpoint,
                         ::testing::Values(backends::BackendKind::kSerial,
                                           backends::BackendKind::kGpuSim),
                         [](const auto& info) {
                           return backends::to_string(info.param);
                         });

TEST(LsqrCheckpointErrors, WrongSystemRejected) {
  const auto gen_a = matrix::generate_system(gaia::testing::small_config(136));
  const auto gen_b = matrix::generate_system(gaia::testing::small_config(137));
  LsqrEngine a(gen_a.A, engine_options());
  a.step();
  std::stringstream ckpt;
  a.checkpoint(ckpt);
  LsqrEngine b(gen_b.A, engine_options());
  EXPECT_THROW(b.restore(ckpt), gaia::Error);
}

TEST(LsqrCheckpointErrors, WrongOptionsRejected) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(138));
  LsqrEngine a(gen.A, engine_options());
  a.step();
  std::stringstream ckpt;
  a.checkpoint(ckpt);
  auto other = engine_options();
  other.damp = 0.5;
  LsqrEngine b(gen.A, other);
  EXPECT_THROW(b.restore(ckpt), gaia::Error);
}

TEST(LsqrCheckpointErrors, LargerIterationBudgetStillAccepted) {
  // The iteration budget is not part of the problem: a rerun with a
  // larger --iterations must be able to resume the same checkpoint.
  const auto gen = matrix::generate_system(gaia::testing::small_config(143));
  auto short_opts = engine_options();
  short_opts.max_iterations = 15;
  LsqrEngine a(gen.A, short_opts);
  for (int i = 0; i < 10; ++i) a.step();
  std::stringstream ckpt;
  a.checkpoint(ckpt);

  auto long_opts = engine_options();
  long_opts.max_iterations = 60;
  LsqrEngine b(gen.A, long_opts);
  b.restore(ckpt);
  EXPECT_EQ(b.iteration(), 10);
  b.run_to_completion();
  EXPECT_EQ(b.iteration(), 60);
}

TEST(LsqrCheckpointErrors, CorruptStreamRejected) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(139));
  LsqrEngine a(gen.A, engine_options());
  a.step();
  std::stringstream ckpt;
  a.checkpoint(ckpt);
  const std::string full = ckpt.str();
  std::stringstream truncated(full.substr(0, full.size() / 3));
  LsqrEngine b(gen.A, engine_options());
  EXPECT_THROW(b.restore(truncated), gaia::Error);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(b.restore(garbage), gaia::Error);
}

TEST(LsqrCheckpointFiles, RoundTripsThroughDisk) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(140));
  const std::string path = ::testing::TempDir() + "gaia_lsqr.ckpt";
  LsqrEngine a(gen.A, engine_options());
  for (int i = 0; i < 5; ++i) a.step();
  a.checkpoint(path);
  LsqrEngine b(gen.A, engine_options());
  b.restore(path);
  EXPECT_EQ(b.iteration(), 5);
  std::remove(path.c_str());
}

TEST(LsqrCheckpointFiles, TruncatedFileRejectedNamingPathAndReason) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(141));
  const std::string path = ::testing::TempDir() + "gaia_lsqr_trunc.ckpt";
  LsqrEngine a(gen.A, engine_options());
  for (int i = 0; i < 5; ++i) a.step();
  a.checkpoint(path);
  // Simulate a job killed mid-write: the sealed file loses its tail.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 16);
  LsqrEngine b(gen.A, engine_options());
  try {
    b.restore(path);
    FAIL() << "expected gaia::Error";
  } catch (const gaia::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(LsqrCheckpointFiles, BitFlippedFileRejectedNamingPathAndReason) {
  const auto gen = matrix::generate_system(gaia::testing::small_config(142));
  const std::string path = ::testing::TempDir() + "gaia_lsqr_flip.ckpt";
  LsqrEngine a(gen.A, engine_options());
  for (int i = 0; i < 5; ++i) a.step();
  a.checkpoint(path);
  {
    // One bit of cosmic-ray rot in the middle of the payload.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(64);
    const int byte = f.get();
    f.seekp(64);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  LsqrEngine b(gen.A, engine_options());
  try {
    b.restore(path);
    FAIL() << "expected gaia::Error";
  } catch (const gaia::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

/// The Golub-Kahan state a checkpoint stream records: alpha, beta and
/// the normalized u and v (GAIACKP2 layout: magic, fingerprint, itn,
/// finished, istop, 16 scalars starting alpha/beta, then u and v).
struct CheckpointedBasis {
  real alpha = 0, beta = 0;
  std::vector<real> u, v;
};

CheckpointedBasis read_basis(std::istream& is) {
  CheckpointedBasis basis;
  const auto read = [&](void* dst, std::size_t bytes) {
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  };
  is.seekg(8 + 8 + 8 + 1 + 4);
  std::array<real, 16> scalars{};
  read(scalars.data(), sizeof(scalars));
  basis.alpha = scalars[0];
  basis.beta = scalars[1];
  for (auto* vec : {&basis.u, &basis.v}) {
    std::uint64_t size = 0;
    read(&size, sizeof(size));
    vec->resize(size);
    read(vec->data(), size * sizeof(real));
  }
  EXPECT_TRUE(is.good());
  return basis;
}

TEST(LsqrStepStart, StartPassMatchesTheApply2Start) {
  // The start runs the step pass with v = 0 and alpha = -1 (p = b,
  // q = A^T b) and normalizes afterwards; the reference normalizes b
  // first and runs apply2 on it. Same beta, alpha, u and v to rounding.
  const auto gen = matrix::generate_system(gaia::testing::medium_config(143));
  auto opts = engine_options();
  opts.precondition = false;
  LsqrEngine engine(gen.A, opts);
  std::stringstream ckpt;
  engine.checkpoint(ckpt);
  const CheckpointedBasis start = read_basis(ckpt);

  const auto b = gen.A.known_terms();
  const real beta = vnorm(b);
  std::vector<real> u(b.begin(), b.end());
  for (real& e : u) e /= beta;
  std::vector<real> v(static_cast<std::size_t>(gen.A.n_cols()), 0.0);
  backends::DeviceContext device(opts.device_capacity, "reference");
  Aprod aprod(gen.A, device, opts.aprod);
  aprod.apply2(u, v);
  const real alpha = vnorm(v);
  for (real& e : v) e /= alpha;

  EXPECT_NEAR(start.beta, beta, 4e-16 * beta);
  EXPECT_NEAR(start.alpha, alpha, 1e-14 * alpha);
  EXPECT_EQ(engine.rnorm(), start.beta);
  ASSERT_EQ(start.u.size(), u.size());
  ASSERT_EQ(start.v.size(), v.size());
  EXPECT_LT(gaia::testing::max_abs_diff(start.u, u), 1e-15);
  EXPECT_LT(gaia::testing::rel_l2_error(start.v, v), 1e-14);
}

/// Options whose runs repeat bit for bit: the serial backend, and the
/// privatized commit on a parallel backend at a fixed launch shape.
std::vector<LsqrOptions> deterministic_options() {
  std::vector<LsqrOptions> all = {engine_options()};
  LsqrOptions privatized = engine_options(backends::BackendKind::kOpenMP);
  privatized.aprod.tuning = backends::TuningTable::untuned({2, 2});
  for (backends::KernelId id : backends::all_kernels()) {
    auto cfg = privatized.aprod.tuning.get(id);
    cfg.strategy = backends::ScatterStrategy::kPrivatized;
    privatized.aprod.tuning.set(id, cfg);
  }
  all.push_back(privatized);
  return all;
}

TEST(LsqrPendingScale, CheckpointAtAnyIterationResumesBitIdentically) {
  // u holds p and the true u is sigma * u. A checkpoint stores sigma * u
  // and a restore leaves sigma = 1, which materializes u. The step pass
  // multiplies by sigma before alpha, so wherever that happens the rest
  // of the solve is bit-identical to the uninterrupted run.
  const auto gen = matrix::generate_system(gaia::testing::small_config(144));
  for (LsqrOptions opts : deterministic_options()) {
    opts.max_iterations = 24;
    LsqrEngine full(gen.A, opts);
    full.run_to_completion();
    const auto expected = full.result();
    for (int k = 0; k < 24; ++k) {
      LsqrEngine first(gen.A, opts);
      for (int i = 0; i < k; ++i) first.step();
      std::stringstream ckpt;
      first.checkpoint(ckpt);
      LsqrEngine second(gen.A, opts);
      second.restore(ckpt);
      second.run_to_completion();
      const auto resumed = second.result();
      ASSERT_EQ(resumed.iterations, expected.iterations) << k;
      EXPECT_EQ(resumed.rnorm, expected.rnorm) << k;
      for (std::size_t i = 0; i < expected.x.size(); ++i)
        ASSERT_EQ(resumed.x[i], expected.x[i])
            << backends::to_string(opts.aprod.backend) << " resumed at "
            << k << ", x[" << i << "]";
    }
  }
}

TEST(LsqrPendingScale, DeepChecksMaterializeWithoutMovingTheSolve) {
  // Every deep health check materializes u first; the checks only read,
  // so a monitored solve is bit-identical to an unmonitored one.
  const auto gen = matrix::generate_system(gaia::testing::small_config(145));
  for (LsqrOptions opts : deterministic_options()) {
    opts.max_iterations = 30;
    const auto plain = lsqr_solve(gen.A, opts);
    for (const int every : {1, 3}) {
      LsqrOptions monitored = opts;
      monitored.health.mode = resilience::HealthMode::kDetect;
      monitored.health.check_every = every;
      const auto checked = lsqr_solve(gen.A, monitored);
      ASSERT_EQ(checked.health.detections, 0u);
      ASSERT_EQ(checked.iterations, plain.iterations);
      EXPECT_EQ(checked.rnorm, plain.rnorm);
      for (std::size_t i = 0; i < plain.x.size(); ++i)
        ASSERT_EQ(checked.x[i], plain.x[i]) << "check_every " << every;
    }
  }
}

}  // namespace
}  // namespace gaia::core
