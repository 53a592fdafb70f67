#include "core/solver.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace gaia::core {
namespace {

TEST(Solver, RunsEndToEndWithFootprintSizing) {
  SolverRunConfig cfg;
  cfg.footprint_bytes = 8 * kMiB;
  cfg.lsqr.max_iterations = 5;
  cfg.lsqr.aprod.backend = backends::BackendKind::kGpuSim;
  const auto report = run_solver(cfg);
  EXPECT_EQ(report.result.iterations, 5);
  EXPECT_GT(report.n_obs, 0);
  const double ratio = static_cast<double>(report.system_bytes) /
                       static_cast<double>(cfg.footprint_bytes);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.2);
  EXPECT_GT(report.generation_seconds, 0.0);
  EXPECT_GT(report.solve_seconds, 0.0);
}

TEST(Solver, ExplicitGeneratorConfigWins) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(80);
  cfg.footprint_bytes = 999 * kMiB;  // must be ignored
  cfg.lsqr.max_iterations = 3;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto report = run_solver(cfg);
  EXPECT_EQ(report.layout.n_stars(), cfg.generator->n_stars);
  EXPECT_LT(report.system_bytes, kMiB);
}

TEST(Solver, SummaryMentionsKeyQuantities) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(81);
  cfg.lsqr.max_iterations = 2;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto report = run_solver(cfg);
  const std::string s = report.summary();
  EXPECT_NE(s.find("iterations"), std::string::npos);
  EXPECT_NE(s.find("observations"), std::string::npos);
  EXPECT_NE(s.find("mean iteration time"), std::string::npos);
}

TEST(Solver, SameSeedSameSolution) {
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(82);
  cfg.lsqr.max_iterations = 10;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto a = run_solver(cfg);
  const auto b = run_solver(cfg);
  ASSERT_EQ(a.result.x.size(), b.result.x.size());
  for (std::size_t i = 0; i < a.result.x.size(); ++i)
    EXPECT_EQ(a.result.x[i], b.result.x[i]);  // bitwise: serial backend
}

TEST(Solver, PrecisionModeGrammarMirrorsTheLayoutGrammar) {
  // The precision axis is retired the way the layout and scatter axes
  // were: the summary names none of them, and a table whose entries
  // carry retired layout and strategy values solves bit for bit like
  // the default table.
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(83);
  cfg.lsqr.max_iterations = 20;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto plain = run_solver(cfg);
  for (backends::KernelId id : backends::all_kernels()) {
    backends::KernelConfig k = cfg.lsqr.aprod.tuning.get(id);
    k.layout = backends::StorageLayout::kSlicedInstr;
    k.strategy = backends::ScatterStrategy::kPrivatized;
    cfg.lsqr.aprod.tuning.set(id, k);
  }
  const auto inert = run_solver(cfg);
  EXPECT_EQ(inert.result.x, plain.result.x);
  const std::string s = plain.summary();
  for (const char* token : {"layout:", "precision:", "scatter:", "refine:"})
    EXPECT_EQ(s.find(token), std::string::npos) << token;
}

TEST(Solver, ReducedPrecisionRunRefinesAndReportsIt) {
  // A run reports what it ran: the table it was given, and the estimates
  // line of the solution it returns — lsqr_solve's, bit for bit, since
  // nothing corrects the solution after the solve.
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(83);
  cfg.lsqr.max_iterations = 200;
  cfg.lsqr.atol = 1e-12;
  cfg.lsqr.btol = 1e-12;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto report = run_solver(cfg);
  EXPECT_EQ(report.tuning_used, cfg.lsqr.aprod.tuning);
  const LsqrResult& r = report.result;
  EXPECT_NE(report.summary().find(
                "        " +
                format_estimates(r.anorm, r.acond, r.rnorm, r.arnorm,
                                 r.xnorm) +
                "\n"),
            std::string::npos);
  const auto gen = matrix::generate_system(*cfg.generator);
  const auto direct = lsqr_solve(gen.A, cfg.lsqr);
  EXPECT_EQ(r.x, direct.x);
  EXPECT_EQ(r.rnorm, direct.rnorm);
}

TEST(Solver, StalledRefinementFallsBackToFp64AndSaysSo) {
  // A solve whose iteration budget runs out above its tolerance says so
  // in the report and the summary's stop line; the table it reports is
  // the fp64 one it ran, and its solution is still the fp64 iterate.
  SolverRunConfig cfg;
  cfg.generator = gaia::testing::small_config(84);
  cfg.lsqr.max_iterations = 5;
  cfg.lsqr.atol = 1e-12;
  cfg.lsqr.btol = 1e-12;
  cfg.lsqr.aprod.backend = backends::BackendKind::kSerial;
  const auto report = run_solver(cfg);
  EXPECT_EQ(report.result.istop, LsqrStop::kIterationLimit);
  EXPECT_EQ(report.result.iterations, 5);
  for (backends::KernelId id : backends::all_kernels())
    EXPECT_EQ(report.tuning_used.get(id).precision,
              backends::Precision::kFp64);
  EXPECT_NE(report.summary().find("stop: \"iteration limit reached\""),
            std::string::npos);
  const auto gen = matrix::generate_system(*cfg.generator);
  EXPECT_EQ(report.result.x, lsqr_solve(gen.A, cfg.lsqr).x);
}

}  // namespace
}  // namespace gaia::core
