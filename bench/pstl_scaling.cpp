/// \file pstl_scaling.cpp
/// \brief pSTL-Bench-style scalability microbenchmarks for the host
/// backends.
///
/// The pSTL-Bench line of work shows that C++ parallel algorithms lose
/// to OpenMP not because the abstraction is slow but because of *grain*:
/// a fixed chunk size over-decomposes small ranges (the hand-out counter
/// becomes the bottleneck) and under-amortizes dispatch on large ones.
/// This suite isolates that effect on our own PSTL shim: five access
/// patterns (for_each / transform / reduce / gather / scatter — the
/// memory shapes of the aprod kernels) swept over range sizes, each run
/// three ways:
///   openmp       — `#pragma omp parallel for` reference
///   pstl         — our for_each(par) with the range-proportional grain
///   pstl-fixed   — the same with the legacy fixed 1024 grain
/// The pstl-vs-openmp gap before/after the chunked-range fix is the
/// headline table in EXPERIMENTS.md; `--smoke` keeps it CI-sized.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "backends/atomic.hpp"
#include "backends/counting_iterator.hpp"
#include "backends/pstl_algorithms.hpp"
#include "backends/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace gaia;

enum class Runner { kOpenMp, kPstl, kPstlFixed };

/// Runs `body(i)` over [0, n) under the selected runner. Without
/// OpenMP the reference column degrades to a serial loop (the ratios
/// then read as speedup-vs-serial, still a valid scaling curve).
template <typename Body>
void run_indexed(Runner r, std::int64_t n, Body body) {
  switch (r) {
    case Runner::kOpenMp: {
#if defined(GAIA_HAS_OPENMP)
#pragma omp parallel for schedule(static)
#endif
      for (std::int64_t i = 0; i < n; ++i) body(i);
      return;
    }
    case Runner::kPstl:
    case Runner::kPstlFixed: {
      const bool prev =
          backends::pstl::set_legacy_grain(r == Runner::kPstlFixed);
      backends::pstl::for_each(backends::pstl::par,
                               backends::CountingIterator(0),
                               backends::CountingIterator(n),
                               [&](std::int64_t i) { body(i); });
      backends::pstl::set_legacy_grain(prev);
      return;
    }
  }
}

struct Pattern {
  const char* name;
  /// Runs one repetition; returns a checksum-ish value so the work
  /// cannot be optimized away.
  double (*run)(Runner, std::int64_t, std::vector<real>&,
                std::vector<real>&, const std::vector<std::int64_t>&);
};

double pattern_for_each(Runner r, std::int64_t n, std::vector<real>& a,
                        std::vector<real>& b,
                        const std::vector<std::int64_t>&) {
  (void)b;
  run_indexed(r, n, [&](std::int64_t i) {
    a[static_cast<std::size_t>(i)] =
        real{1.0000001} * a[static_cast<std::size_t>(i)] + real{1e-9};
  });
  return a[0];
}

double pattern_transform(Runner r, std::int64_t n, std::vector<real>& a,
                         std::vector<real>& b,
                         const std::vector<std::int64_t>&) {
  run_indexed(r, n, [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    b[u] = a[u] * a[u] + real{0.5};
  });
  return b[0];
}

double pattern_reduce(Runner r, std::int64_t n, std::vector<real>& a,
                      std::vector<real>& b,
                      const std::vector<std::int64_t>&) {
  (void)b;
  if (r == Runner::kOpenMp) {
    real sum = 0;
#if defined(GAIA_HAS_OPENMP)
#pragma omp parallel for schedule(static) reduction(+ : sum)
#endif
    for (std::int64_t i = 0; i < n; ++i)
      sum += a[static_cast<std::size_t>(i)];
    return sum;
  }
  const bool prev = backends::pstl::set_legacy_grain(r == Runner::kPstlFixed);
  const real sum = backends::pstl::transform_reduce(
      backends::pstl::par, backends::CountingIterator(0),
      backends::CountingIterator(n), real{0},
      [](real x, real y) { return x + y; },
      [&](std::int64_t i) { return a[static_cast<std::size_t>(i)]; });
  backends::pstl::set_legacy_grain(prev);
  return sum;
}

double pattern_gather(Runner r, std::int64_t n, std::vector<real>& a,
                      std::vector<real>& b,
                      const std::vector<std::int64_t>& idx) {
  run_indexed(r, n, [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    b[u] = a[static_cast<std::size_t>(idx[u])];
  });
  return b[0];
}

double pattern_scatter(Runner r, std::int64_t n, std::vector<real>& a,
                       std::vector<real>& b,
                       const std::vector<std::int64_t>& idx) {
  run_indexed(r, n, [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    backends::atomic_add_rmw(b[static_cast<std::size_t>(idx[u])], a[u]);
  });
  return b[0];
}

/// The aprod1 access motif: each row gathers a run of contiguous
/// coefficient lanes (kNnzPerRow = 24 in the solver) and reduces them,
/// with the same explicit `omp simd` reduction clause the SoA/sliced
/// aprod1 bodies carry — the vectorizable half of the gather story, as
/// opposed to `gather`'s fully random single-lane loads.
double pattern_gather_simd(Runner r, std::int64_t n, std::vector<real>& a,
                           std::vector<real>& b,
                           const std::vector<std::int64_t>& idx) {
  constexpr std::int64_t kLanes = 24;
  const auto max_base = static_cast<std::size_t>(
      static_cast<std::int64_t>(a.size()) - kLanes);
  run_indexed(r, n, [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    const std::size_t base =
        std::min(static_cast<std::size_t>(idx[u]), max_base);
    real sum = 0;
    GAIA_OMP_SIMD_REDUCTION(sum)
    for (std::int64_t l = 0; l < kLanes; ++l)
      sum += a[base + static_cast<std::size_t>(l)];
    b[u] = sum;
  });
  return b[0];
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("pstl_scaling",
                "pSTL-Bench-style grain/scalability sweep: openmp vs "
                "pstl (auto grain) vs pstl-fixed (legacy 1024)");
  cli.add_flag("smoke", "CI mode: smallest sweep, 3 reps");
  cli.add_option("reps", "7", "timed repetitions per cell (median wins)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const bool smoke = cli.get_flag("smoke");
    const int reps = smoke ? 3 : static_cast<int>(cli.get_int("reps"));
    GAIA_CHECK(reps > 0, "--reps must be positive");

    std::vector<std::int64_t> sizes =
        smoke ? std::vector<std::int64_t>{1 << 12, 1 << 16, 1 << 20}
              : std::vector<std::int64_t>{1 << 12, 1 << 16, 1 << 20,
                                          1 << 23};
    const std::int64_t max_n = sizes.back();

    std::vector<real> a(static_cast<std::size_t>(max_n));
    std::vector<real> b(static_cast<std::size_t>(max_n));
    std::vector<std::int64_t> idx(static_cast<std::size_t>(max_n));
    util::Xoshiro256 rng(99);
    for (auto& v : a) v = rng.normal();
    for (std::size_t i = 0; i < idx.size(); ++i)
      idx[i] = static_cast<std::int64_t>(rng.next() %
                                         static_cast<std::uint64_t>(max_n));

    const Pattern patterns[] = {
        {"for_each", pattern_for_each},   {"transform", pattern_transform},
        {"reduce", pattern_reduce},       {"gather", pattern_gather},
        {"gather-simd", pattern_gather_simd},
        {"scatter", pattern_scatter},
    };

    const unsigned pool_workers = backends::ThreadPool::global().workers();
    std::cout << "pool workers: " << pool_workers << " (+1 submitter)\n";
    util::Table t({"pattern", "n", "openmp (us)", "pstl (us)",
                   "pstl-fixed (us)", "pstl/omp", "fixed/omp"});
    volatile double sink = 0;
    (void)sink;  // checksum dump; only written so the work survives -O2
    for (const Pattern& p : patterns) {
      for (const std::int64_t n : sizes) {
        double med[3] = {0, 0, 0};
        for (const Runner r :
             {Runner::kOpenMp, Runner::kPstl, Runner::kPstlFixed}) {
          std::vector<double> samples;
          samples.reserve(static_cast<std::size_t>(reps));
          sink = p.run(r, n, a, b, idx);  // warm-up, untimed
          for (int rep = 0; rep < reps; ++rep) {
            util::Stopwatch watch;
            sink = p.run(r, n, a, b, idx);
            samples.push_back(watch.elapsed_s());
          }
          med[static_cast<int>(r)] = util::median(samples);
        }
        t.add_row({p.name, std::to_string(n),
                   util::Table::num(med[0] * 1e6, 1),
                   util::Table::num(med[1] * 1e6, 1),
                   util::Table::num(med[2] * 1e6, 1),
                   util::Table::num(med[1] / med[0], 2) + "x",
                   util::Table::num(med[2] / med[0], 2) + "x"});
      }
    }
    std::cout << t.str();
    std::cout << "pstl/omp is the abstraction gap with the "
                 "range-proportional grain; fixed/omp is the same shim "
                 "with the legacy fixed 1024 grain (the pSTL-Bench "
                 "pathology). The fix should pull pstl/omp toward 1 at "
                 "both ends of the sweep.\n";
    return 0;
  } catch (const gaia::Error& e) {
    std::cerr << "pstl_scaling: " << e.what() << '\n';
    return 1;
  }
}
