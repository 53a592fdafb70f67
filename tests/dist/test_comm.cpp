#include "dist/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace gaia::dist
