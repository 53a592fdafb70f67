#include "dist/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace gaia::dist {
namespace {

TEST(World, RunsEveryRankExactlyOnce) {
  World world(4);
  std::atomic<int> count{0};
  std::array<std::atomic<int>, 4> seen{};
  world.run([&](Comm& comm) {
    count.fetch_add(1);
    seen[static_cast<std::size_t>(comm.rank())].fetch_add(1);
    EXPECT_EQ(comm.size(), 4);
  });
  EXPECT_EQ(count.load(), 4);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(World, SingleRankWorldWorks) {
  World world(1);
  world.run([&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    std::vector<real> v{1.0, 2.0};
    comm.allreduce(v, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
  });
}

TEST(World, RejectsNonPositiveSize) {
  EXPECT_THROW(World(0), gaia::Error);
}

TEST(Comm, AllreduceSumAddsContributions) {
  World world(3);
  world.run([&](Comm& comm) {
    std::vector<real> v(4, static_cast<real>(comm.rank() + 1));
    comm.allreduce(v, ReduceOp::kSum);
    for (real x : v) EXPECT_DOUBLE_EQ(x, 6.0);  // 1 + 2 + 3
  });
}

TEST(Comm, AllreduceMaxAndMin) {
  World world(4);
  world.run([&](Comm& comm) {
    const real mx = comm.allreduce(static_cast<real>(comm.rank()),
                                   ReduceOp::kMax);
    const real mn = comm.allreduce(static_cast<real>(comm.rank()),
                                   ReduceOp::kMin);
    EXPECT_DOUBLE_EQ(mx, 3.0);
    EXPECT_DOUBLE_EQ(mn, 0.0);
  });
}

TEST(Comm, AllreduceIsDeterministicAcrossRuns) {
  // Rank-ordered reduction: identical inputs -> bitwise identical sums.
  World world(4);
  real first = 0, second = 0;
  auto body = [&](real& out) {
    return [&out](Comm& comm) {
      const real v = 0.1 * (comm.rank() + 1);
      const real sum = comm.allreduce(v, ReduceOp::kSum);
      if (comm.rank() == 0) out = sum;
    };
  };
  world.run(body(first));
  world.run(body(second));
  EXPECT_EQ(first, second);
}

TEST(Comm, AllreduceMatchesASerialRankOrderedFoldBitwise) {
  // Each rank folds its own share of the elements across every rank's
  // span, still in rank order, so each element has the bits of one
  // serial fold. Lengths: none, fewer than the ranks, not a multiple of
  // them, and several thousand. Magnitudes spread over 2^-40..2^40, so a
  // sum folded in another order would differ in its low bits.
  for (const int ranks : {3, 4}) {
    World world(ranks);
    for (const std::size_t n : {std::size_t{0}, std::size_t{2},
                                std::size_t{7}, std::size_t{4099}}) {
      std::vector<std::vector<real>> in(static_cast<std::size_t>(ranks),
                                        std::vector<real>(n));
      util::Xoshiro256 rng(1000 * n + static_cast<std::uint64_t>(ranks));
      for (auto& contribution : in)
        for (real& e : contribution)
          e = std::ldexp(rng.normal(),
                         static_cast<int>(rng.uniform_index(81)) - 40);
      for (const ReduceOp op :
           {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
        std::vector<real> want = in[0];
        for (std::size_t r = 1; r < in.size(); ++r)
          for (std::size_t i = 0; i < n; ++i)
            want[i] = op == ReduceOp::kSum   ? want[i] + in[r][i]
                      : op == ReduceOp::kMax ? std::max(want[i], in[r][i])
                                             : std::min(want[i], in[r][i]);
        std::vector<std::vector<real>> out = in;
        world.run([&](Comm& comm) {
          comm.allreduce(out[static_cast<std::size_t>(comm.rank())], op);
        });
        for (std::size_t r = 0; r < out.size(); ++r)
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[r][i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << ranks << " ranks, n " << n << ", op "
                << static_cast<int>(op) << ", rank " << r << ", element "
                << i;
      }
    }
  }
}

TEST(Comm, SequentialCollectivesStayCoherent) {
  World world(3);
  world.run([&](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const real sum = comm.allreduce(real{1}, ReduceOp::kSum);
      ASSERT_DOUBLE_EQ(sum, 3.0) << "round " << round;
      comm.barrier();
    }
  });
}

TEST(World, ExceptionInOneRankPropagates) {
  World world(3);
  EXPECT_THROW(world.run([&](Comm& comm) {
                 if (comm.rank() == 2) throw gaia::Error("rank 2 failed");
                 // Other ranks try a collective; the dropped rank must
                 // not deadlock them.
                 comm.allreduce(real{1}, ReduceOp::kSum);
               }),
               gaia::Error);
  // The world stays usable afterwards.
  std::atomic<int> ok{0};
  world.run([&](Comm&) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 3);
}

TEST(World, MidLoopRankFailureDoesNotDeadlockSurvivors) {
  // Regression: rank 1 dies *between* collectives while the survivors
  // are already blocked inside the next barrier phase. Without world
  // poisoning the survivors would wait forever on the dead rank's
  // arrival; with it, every survivor unwinds cleanly instead.
  World world(3);
  try {
    world.run([&](Comm& comm) {
      for (int round = 0;; ++round) {
        if (comm.rank() == 1 && round == 3)
          throw gaia::Error("rank 1 died mid-loop");
        comm.allreduce(real{1}, ReduceOp::kSum);
        comm.barrier();
      }
    });
    FAIL() << "expected the rank failure to propagate";
  } catch (const gaia::Error& e) {
    // The *original* error surfaces, not the collateral poisoning.
    EXPECT_NE(std::string(e.what()).find("rank 1 died mid-loop"),
              std::string::npos);
  }
  // The world recovers fully: collectives work on the next run().
  world.run([&](Comm& comm) {
    const real sum = comm.allreduce(real{1}, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

TEST(World, AllRanksFailingReportsOneErrorAndRecovers) {
  World world(4);
  EXPECT_THROW(world.run([&](Comm& comm) {
                 throw gaia::Error("rank " + std::to_string(comm.rank()));
               }),
               gaia::Error);
  std::atomic<int> ok{0};
  world.run([&](Comm&) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(World, PoisonedCollectiveThrowsWorldPoisonedOnSurvivors) {
  // Survivors observe the failure as WorldPoisoned (a gaia::Error), so
  // rank-level cleanup code can distinguish "I failed" from "a peer
  // failed". The run() itself reports the original error.
  World world(2);
  std::atomic<int> poisoned_seen{0};
  try {
    world.run([&](Comm& comm) {
      if (comm.rank() == 0) throw gaia::Error("boom");
      try {
        for (;;) comm.barrier();
      } catch (const WorldPoisoned&) {
        poisoned_seen.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected an error";
  } catch (const gaia::Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_EQ(poisoned_seen.load(), 1);
}

TEST(Comm, EmptySpanCollectivesAreSafe) {
  World world(3);
  world.run([&](Comm& comm) {
    std::vector<real> empty;
    comm.allreduce(empty, ReduceOp::kSum);  // must not deadlock or crash
    comm.barrier();
  });
  SUCCEED();
}

TEST(Comm, MixedCollectiveSequenceStaysOrdered) {
  // Alternating allreduce/barrier across ranks exercises the
  // shared-span reuse between different collective types.
  World world(4);
  world.run([&](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<real> v(3, static_cast<real>(comm.rank()));
      comm.allreduce(v, ReduceOp::kSum);
      ASSERT_DOUBLE_EQ(v[0], 6.0);  // 0+1+2+3
      comm.barrier();
      const real mx = comm.allreduce(
          static_cast<real>(comm.rank() * round), ReduceOp::kMax);
      ASSERT_DOUBLE_EQ(mx, 3.0 * round);
    }
  });
}

TEST(CommGather, RankZeroSeesTheSlicesInRankOrder) {
  for (const int ranks : {1, 2, 3, 7}) {
    // Uneven slices, rank 1's empty: rank r holds 3 r + 2 values
    // r * 1000 + i.
    const auto length = [](int r) {
      return r == 1 ? std::size_t{0} : static_cast<std::size_t>(3 * r + 2);
    };
    std::atomic<int> root_calls{0};
    std::atomic<bool> root_done{false};
    std::vector<std::vector<real>> seen;
    World world(ranks);
    world.run([&](Comm& comm) {
      std::vector<real> slice(length(comm.rank()));
      for (std::size_t i = 0; i < slice.size(); ++i)
        slice[i] = comm.rank() * 1000.0 + static_cast<double>(i);
      comm.gather(slice, [&](std::span<const std::span<const real>> all) {
        root_calls.fetch_add(1);
        EXPECT_EQ(comm.rank(), 0);
        for (const std::span<const real> s : all)
          seen.emplace_back(s.begin(), s.end());
        // A slow root (a seal's write): the others must still wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        root_done.store(true);
      });
      // No rank leaves the gather before rank 0 is done with it.
      EXPECT_TRUE(root_done.load()) << "rank " << comm.rank();
    });
    ASSERT_EQ(root_calls.load(), 1) << ranks << " ranks";
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      const auto& s = seen[static_cast<std::size_t>(r)];
      ASSERT_EQ(s.size(), length(r)) << ranks << " ranks, rank " << r;
      for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(s[i], r * 1000.0 + static_cast<double>(i));
    }
  }
}

TEST(CommGather, RankFailingBeforeTheGatherPoisonsTheOthers) {
  World world(3);
  std::atomic<int> poisoned_seen{0};
  std::atomic<int> root_calls{0};
  try {
    world.run([&](Comm& comm) {
      if (comm.rank() == 1) throw gaia::Error("rank 1 died before the seal");
      const std::vector<real> slice(4, real{1});
      try {
        comm.gather(slice, [&](auto) { root_calls.fetch_add(1); });
      } catch (const WorldPoisoned&) {
        poisoned_seen.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the rank failure to propagate";
  } catch (const gaia::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 died before the seal"),
              std::string::npos);
  }
  EXPECT_EQ(poisoned_seen.load(), 2);
  EXPECT_EQ(root_calls.load(), 0);
}

TEST(CommGather, RootFailureReleasesTheWaitingRanks) {
  // Rank 0 fails inside the gather (a seal whose write throws): the
  // ranks waiting for it unwind instead of hanging, and the world runs
  // again afterwards.
  World world(3);
  std::atomic<int> poisoned_seen{0};
  try {
    world.run([&](Comm& comm) {
      const std::vector<real> slice(2, real{1});
      try {
        comm.gather(slice, [](auto) { throw gaia::Error("seal failed"); });
      } catch (const WorldPoisoned&) {
        poisoned_seen.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the root's failure to propagate";
  } catch (const gaia::Error& e) {
    EXPECT_NE(std::string(e.what()).find("seal failed"), std::string::npos);
  }
  EXPECT_EQ(poisoned_seen.load(), 2);
  world.run([&](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce(real{1}, ReduceOp::kSum), 3.0);
  });
}

TEST(Comm, AllreduceSpansSumToTheRankStats) {
  // With the trace and the registry armed, a collective's span, its
  // CommStats and its comm.* sample come from one clock pair, so each
  // rank's allreduce spans sum to its stats to rounding.
  constexpr int kRanks = 3;
  std::array<obs::TraceRecorder, kRanks> recorders;
  std::array<double, kRanks> stats_s{};
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_all();
  reg.set_enabled(true);
  World world(kRanks);
  world.run([&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    recorders[r].set_enabled(true);
    obs::ThreadRecorderScope scope(&recorders[r]);
    std::vector<real> v(1024, real{1});
    for (int i = 0; i < 20; ++i) comm.allreduce(v, ReduceOp::kSum);
    stats_s[r] = comm.stats().seconds;
  });
  reg.set_enabled(false);
  double all_ranks_s = 0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    double span_s = 0;
    int spans = 0;
    for (const obs::TraceEvent& e : recorders[r].events())
      if (e.phase == 'X' && e.name == "allreduce") {
        span_s += e.dur_us * 1e-6;
        ++spans;
      }
    EXPECT_EQ(spans, 20) << "rank " << r;
    EXPECT_GT(stats_s[r], 0.0) << "rank " << r;
    EXPECT_NEAR(span_s, stats_s[r], 1e-9 * stats_s[r]) << "rank " << r;
    all_ranks_s += stats_s[r];
  }
  const auto sample = reg.histogram("comm.allreduce_seconds").summary();
  EXPECT_EQ(sample.count, 3u * 20u);
  EXPECT_NEAR(sample.sum, all_ranks_s, 1e-9 * all_ranks_s);
  reg.reset_all();
}

}  // namespace
}  // namespace gaia::dist
