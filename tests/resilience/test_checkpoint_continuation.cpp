/// Checkpoint -> restore -> continue must be bit-identical to an
/// uninterrupted run of the same configuration — including on a
/// multi-worker backend (the scatter commit folds its slices in a fixed
/// order) with launch shapes loaded from a sealed tuning cache. This is the
/// property the SDC rollback/repair loop stands on: a restored snapshot
/// replays the exact trajectory, so "repaired" means "the fault-free
/// solve", not "a nearby solve".
#include <gtest/gtest.h>

#include <filesystem>

#include "core/solver.hpp"
#include "test_helpers.hpp"

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
    // Launch shapes persisted: restore must reproduce them, and with
    // them the scatter's fold order.
    cfg.autotune.enabled = true;
    cfg.autotune.cache_path = (dir_ / "tuning.json").string();
    cfg.autotune.search.samples_per_config = 1;
    cfg.autotune.search.max_configs_per_kernel = 3;
    return cfg;
  }

  fs::path dir_;
};

TEST_F(CheckpointContinuation,
       RestoreContinueMatchesUninterruptedRunBitForBit) {
  // Leg 1: a "crashed" run — searches + seals the tuning cache and the
  // iteration-4 checkpoint, then stops at 8.
  SolverRunConfig first = config(8);
  first.checkpoint.directory = (dir_ / "ckpt").string();
  first.checkpoint.every = 4;
  const SolverRunReport seeded = run_solver(first);
  EXPECT_FALSE(seeded.autotune_cache_hit);
  // Checkpoints seal after non-final steps: an 8-iteration run with
  // every=4 seals exactly the iteration-4 snapshot.
  EXPECT_EQ(seeded.checkpoints_written, 1u);
  EXPECT_EQ(seeded.resumed_from_iteration, -1);

  // Leg 2: the continuation — loads the cache (no fresh search, so the
  // shapes are exactly leg 1's) and auto-resumes from the newest
  // checkpoint, then runs out the remaining iterations.
  SolverRunConfig second = config(16);
  second.checkpoint.directory = first.checkpoint.directory;
  second.checkpoint.every = 4;
  const SolverRunReport continued = run_solver(second);
  EXPECT_TRUE(continued.autotune_cache_hit);
  EXPECT_EQ(continued.resumed_from_iteration, 4);
  EXPECT_EQ(continued.tuning_used, seeded.tuning_used);
  EXPECT_EQ(continued.result.iterations, 16);

  // Reference: the same 16 iterations uninterrupted, same cached
  // shapes, no checkpoint machinery in the loop.
  const SolverRunReport reference = run_solver(config(16));
  EXPECT_TRUE(reference.autotune_cache_hit);
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
