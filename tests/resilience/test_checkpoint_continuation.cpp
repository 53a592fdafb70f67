/// Checkpoint -> restore -> continue must be bit-identical to an
/// uninterrupted run of the same configuration — including on a
/// multi-threaded backend (the scatter commit folds its slices in an
/// order fixed by the system). This is the property the SDC
/// rollback/repair loop stands on: a restored snapshot replays the exact
/// trajectory, so "repaired" means "the fault-free solve", not "a nearby
/// solve". Launch shapes and backends stay outside the checkpoint
/// fingerprint and move no bit, so a checkpoint also resumes under
/// another tuning table or on another backend, bit for bit.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/lsqr_engine.hpp"
#include "core/solver.hpp"
#include "core/vector_ops.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gaia::core {
namespace {

namespace fs = std::filesystem;

class CheckpointContinuation : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gaia_ckpt_cont_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] SolverRunConfig config(std::int64_t iterations) const {
    SolverRunConfig cfg;
    cfg.generator = gaia::testing::small_config(55);
    cfg.lsqr.aprod.backend = backends::BackendKind::kGpuSim;
    cfg.lsqr.max_iterations = iterations;
    // A fixed multi-threaded table: restore must reproduce the
    // trajectory with the state.
    cfg.lsqr.aprod.tuning = backends::TuningTable::untuned({3, 7});
    return cfg;
  }

  fs::path dir_;
};

TEST_F(CheckpointContinuation,
       RestoreContinueMatchesUninterruptedRunBitForBit) {
  // Leg 1: a "crashed" run — seals the iteration-4 checkpoint, then
  // stops at 8.
  SolverRunConfig first = config(8);
  first.checkpoint.directory = (dir_ / "ckpt").string();
  first.checkpoint.every = 4;
  const SolverRunReport seeded = run_solver(first);
  EXPECT_EQ(seeded.tuning_used, backends::TuningTable::untuned({3, 7}));
  // Checkpoints seal after non-final steps: an 8-iteration run with
  // every=4 seals exactly the iteration-4 snapshot.
  EXPECT_EQ(seeded.checkpoints_written, 1u);
  EXPECT_EQ(seeded.resumed_from_iteration, -1);

  // Leg 2: the continuation — the same shapes as leg 1; auto-resumes
  // from the newest checkpoint, then runs out the remaining iterations.
  SolverRunConfig second = config(16);
  second.checkpoint.directory = first.checkpoint.directory;
  second.checkpoint.every = 4;
  const SolverRunReport continued = run_solver(second);
  EXPECT_EQ(continued.resumed_from_iteration, 4);
  EXPECT_EQ(continued.tuning_used, seeded.tuning_used);
  EXPECT_EQ(continued.result.iterations, 16);

  // Reference: the same 16 iterations uninterrupted, same shapes, no
  // checkpoint machinery in the loop.
  const SolverRunReport reference = run_solver(config(16));
  EXPECT_EQ(reference.tuning_used, continued.tuning_used);

  // Bit-for-bit: solution, scalars, stop state. The scatter commit is
  // deterministic and the snapshot carries the full recurrence
  // state, so not one ULP of drift is tolerated.
  ASSERT_EQ(continued.result.x.size(), reference.result.x.size());
  for (std::size_t i = 0; i < reference.result.x.size(); ++i)
    ASSERT_EQ(continued.result.x[i], reference.result.x[i])
        << "element " << i;
  EXPECT_EQ(continued.result.rnorm, reference.result.rnorm);
  EXPECT_EQ(continued.result.arnorm, reference.result.arnorm);
  EXPECT_EQ(continued.result.xnorm, reference.result.xnorm);
  EXPECT_EQ(continued.result.istop, reference.result.istop);
  ASSERT_EQ(continued.result.std_errors.size(),
            reference.result.std_errors.size());
  for (std::size_t i = 0; i < reference.result.std_errors.size(); ++i)
    ASSERT_EQ(continued.result.std_errors[i],
              reference.result.std_errors[i])
        << "std error " << i;
}

TEST_F(CheckpointContinuation, CheckpointsCrossTuningBoundaries) {
  // A checkpoint sealed under one launch-shape table must restore into
  // an engine running another table, or another backend: neither is part
  // of the problem fingerprint, and neither moves a bit of the solve, so
  // the resumed run equals the uninterrupted one bit for bit.
  auto gen = matrix::generate_system(gaia::testing::medium_config(7));
  ASSERT_GE(block_partition(static_cast<std::size_t>(gen.A.n_obs())).count,
            3u);

  LsqrOptions untuned;
  untuned.aprod.backend = backends::BackendKind::kGpuSim;
  untuned.aprod.tuning = backends::TuningTable::untuned({256, 256});
  untuned.max_iterations = 6;
  LsqrEngine writer(gen.A, untuned);
  writer.step();
  writer.step();
  std::ostringstream payload(std::ios::binary);
  writer.checkpoint(payload);
  LsqrEngine uninterrupted(gen.A, untuned);
  uninterrupted.run_to_completion();
  const LsqrResult reference = uninterrupted.result();

  LsqrOptions tuned = untuned;
  tuned.aprod.tuning = backends::TuningTable::tuned_default();
  LsqrOptions other_backend = tuned;
  other_backend.aprod.backend = backends::BackendKind::kOpenMP;
  for (const LsqrOptions& opts : {tuned, other_backend}) {
    const std::string label = backends::to_string(opts.aprod.backend);
    LsqrEngine reader(gen.A, opts);
    std::istringstream in(payload.str(), std::ios::binary);
    ASSERT_NO_THROW(reader.restore(in)) << label;
    EXPECT_EQ(reader.iteration(), 2) << label;
    reader.run_to_completion();
    const LsqrResult resumed = reader.result();
    EXPECT_EQ(resumed.x, reference.x) << label;
    EXPECT_EQ(resumed.rnorm, reference.rnorm) << label;
    EXPECT_EQ(resumed.arnorm, reference.arnorm) << label;
  }

  // The control: an actually different problem still refuses to load.
  auto other = matrix::generate_system(gaia::testing::small_config(8));
  LsqrEngine stranger(other.A, tuned);
  std::istringstream in2(payload.str(), std::ios::binary);
  EXPECT_THROW(stranger.restore(in2), Error);
}

TEST_F(CheckpointContinuation, HealthRepairSnapshotSurvivesRestore) {
  // A restored run in repair mode must re-anchor its in-memory rollback
  // snapshot at the restored iteration (not at iteration 0 of a state
  // it never had); a clean continuation then reports zero detections.
  SolverRunConfig first = config(8);
  first.checkpoint.directory = (dir_ / "ckpt").string();
  first.checkpoint.every = 4;
  (void)run_solver(first);

  SolverRunConfig second = config(16);
  second.checkpoint.directory = first.checkpoint.directory;
  second.checkpoint.every = 4;
  second.lsqr.health.mode = resilience::HealthMode::kRepair;
  second.lsqr.health.check_every = 4;
  const SolverRunReport continued = run_solver(second);
  EXPECT_EQ(continued.resumed_from_iteration, 4);
  EXPECT_EQ(continued.result.health.detections, 0u);
  EXPECT_EQ(continued.result.health.repairs, 0u);
  EXPECT_GT(continued.result.health.checks, 0u);
}

}  // namespace
}  // namespace gaia::core
