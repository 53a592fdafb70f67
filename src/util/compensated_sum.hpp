/// \file compensated_sum.hpp
/// \brief The library's one compensated (Kahan) summation.
///
/// Every deterministic sum of the solver — the BLAS-1 norms and dots,
/// the ABFT checksums, the health monitor's segment checksums and the
/// step pass's ||p||^2 — accumulates through `KahanSum`. `block_sum` is
/// the unit of work of the blocked reductions in core/vector_ops.hpp:
/// four interleaved compensated lanes give the adds four independent
/// dependency chains, and the fixed lane assignment keeps the result a
/// pure function of the range.
#pragma once

#include <array>
#include <cstddef>

#include "util/types.hpp"

namespace gaia::util {

/// Kahan compensated accumulator: `comp` carries the low-order bits the
/// last add lost, and the next add feeds them back in.
struct KahanSum {
  real sum = 0;
  real comp = 0;

  void add(real x) {
    const real term = x - comp;
    const real next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
};

/// Compensated sum of term(i) over [begin, end): the k-th element of
/// the range goes to lane k mod 4, and the four lane sums fold in lane
/// order through one more KahanSum.
template <typename Term>
[[nodiscard]] real block_sum(std::size_t begin, std::size_t end, Term&& term) {
  std::array<KahanSum, 4> lanes{};
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    lanes[0].add(term(i));
    lanes[1].add(term(i + 1));
    lanes[2].add(term(i + 2));
    lanes[3].add(term(i + 3));
  }
  for (std::size_t lane = 0; i < end; ++i, ++lane) lanes[lane].add(term(i));
  KahanSum total;
  for (const KahanSum& lane : lanes) total.add(lane.sum);
  return total.sum;
}

}  // namespace gaia::util
