/// \file vector_ops.hpp
/// \brief BLAS-1 style vector kernels of the LSQR iteration.
///
/// Elementwise operations (scale, axpy) are embarrassingly parallel and
/// run through the selected backend, like the GPU code. Reductions
/// (norms, dots, sums) are deterministic: a length-n sum splits into
/// blocks fixed by n alone, each block is a compensated sum over four
/// interleaved lanes (util::block_sum), and the block partials fold in
/// block order. Which thread sums a block never changes its bits, so a
/// reduction returns the same value on every backend, at any thread
/// count, pool size or grid — and the one-argument overloads, which run
/// the blocks on the calling thread, return it too. (The LSQR trajectory
/// is not backend-independent: beta and q come from the step pass, whose
/// per-worker partials and commit follow its launch shape.)
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "backends/backend.hpp"
#include "util/compensated_sum.hpp"
#include "util/types.hpp"

namespace gaia::core {

/// y *= a
inline void vscale(backends::BackendKind backend, std::span<real> y, real a) {
  real* p = y.data();
  backends::dispatch(backend, [&](auto exec) {
    decltype(exec)::launch(static_cast<std::int64_t>(y.size()), {},
                           [=](std::int64_t i) { p[i] *= a; });
  });
}

/// y = a*x + y
inline void vaxpy(backends::BackendKind backend, std::span<real> y, real a,
                  std::span<const real> x) {
  real* yp = y.data();
  const real* xp = x.data();
  backends::dispatch(backend, [&](auto exec) {
    decltype(exec)::launch(static_cast<std::int64_t>(y.size()), {},
                           [=](std::int64_t i) { yp[i] += a * xp[i]; });
  });
}

/// y = a*x + b*y (the LSQR step's v update)
inline void vaxpby(backends::BackendKind backend, std::span<real> y, real a,
                   std::span<const real> x, real b) {
  real* yp = y.data();
  const real* xp = x.data();
  backends::dispatch(backend, [&](auto exec) {
    decltype(exec)::launch(
        static_cast<std::int64_t>(y.size()), {},
        [=](std::int64_t i) { yp[i] = a * xp[i] + b * yp[i]; });
  });
}

/// y = x + b*y (LSQR's w update)
inline void vxpby(backends::BackendKind backend, std::span<real> y,
                  std::span<const real> x, real b) {
  real* yp = y.data();
  const real* xp = x.data();
  backends::dispatch(backend, [&](auto exec) {
    decltype(exec)::launch(static_cast<std::int64_t>(y.size()), {},
                           [=](std::int64_t i) { yp[i] = xp[i] + b * yp[i]; });
  });
}

/// y += (a*x)^2 elementwise (the standard-error accumulator).
inline void vaccumulate_sq(backends::BackendKind backend, std::span<real> y,
                           real a, std::span<const real> x) {
  real* yp = y.data();
  const real* xp = x.data();
  backends::dispatch(backend, [&](auto exec) {
    decltype(exec)::launch(static_cast<std::int64_t>(y.size()), {},
                           [=](std::int64_t i) {
                             const real t = a * xp[i];
                             yp[i] += t * t;
                           });
  });
}

namespace detail {

/// Shortest block of a reduction, and the most blocks one may have: the
/// partials of any length live in a fixed stack array.
inline constexpr std::size_t kMinBlockLength = 4096;
inline constexpr std::size_t kMaxBlocks = 256;
/// Reductions shorter than eight minimum blocks run on the calling
/// thread: a handful of blocks gains little over a fork/join.
inline constexpr std::size_t kParallelLength = 8 * kMinBlockLength;

/// Sum of term(i) over [0, n) on blocks of L = max(4096, ceil(n / 256))
/// elements. From kParallelLength on, min(blocks, workers) workers of
/// Exec each sum a contiguous range of blocks; the partials fold in
/// block order, so the worker count never changes the result.
template <typename Exec, typename Term>
[[nodiscard]] real blocked_sum(std::size_t n, int workers, Term term) {
  const std::size_t length =
      std::max(kMinBlockLength, (n + kMaxBlocks - 1) / kMaxBlocks);
  const std::size_t blocks = (n + length - 1) / length;
  std::array<real, kMaxBlocks> partial{};
  const auto sum_blocks = [&](std::size_t first, std::size_t last) {
    for (std::size_t k = first; k < last; ++k) {
      const std::size_t begin = k * length;
      partial[k] = util::block_sum(begin, std::min(n, begin + length), term);
    }
  };
  if (n < kParallelLength || workers <= 1) {
    sum_blocks(0, blocks);
  } else {
    // Not Exec::launch: PSTL's grain floor and gpusim's grid stride
    // would put all (at most 256) blocks into one chunk.
    const std::size_t w_count =
        std::min(blocks, static_cast<std::size_t>(workers));
    Exec::launch_workers(static_cast<int>(w_count), {}, [&](int w) {
      const auto k = static_cast<std::size_t>(w);
      sum_blocks(blocks * k / w_count, blocks * (k + 1) / w_count);
    });
  }
  util::KahanSum total;
  for (std::size_t k = 0; k < blocks; ++k) total.add(partial[k]);
  return total.sum;
}

}  // namespace detail

/// Deterministic sum of term(i) over [0, n), its blocks spread over the
/// backend's workers (Exec::scatter_workers of the default launch).
template <typename Term>
[[nodiscard]] real reduce_sum(backends::BackendKind backend, std::size_t n,
                              Term term) {
  return backends::dispatch(backend, [&](auto exec) {
    using Exec = decltype(exec);
    return detail::blocked_sum<Exec>(n, Exec::scatter_workers({}), term);
  });
}

/// Deterministic Euclidean norm.
inline real vnorm(backends::BackendKind backend, std::span<const real> x) {
  const real* p = x.data();
  return std::sqrt(reduce_sum(backend, x.size(),
                              [=](std::size_t i) { return p[i] * p[i]; }));
}
/// The same norm on the calling thread.
inline real vnorm(std::span<const real> x) {
  return vnorm(backends::BackendKind::kSerial, x);
}

/// Deterministic element sum — the cheap side of the ABFT checksum
/// identities the health monitor verifies (sum(A v) = (A^T 1) . v and
/// its adjoint dual).
inline real vsum(backends::BackendKind backend, std::span<const real> x) {
  const real* p = x.data();
  return reduce_sum(backend, x.size(), [=](std::size_t i) { return p[i]; });
}
inline real vsum(std::span<const real> x) {
  return vsum(backends::BackendKind::kSerial, x);
}

/// Deterministic dot product over the shorter of the two lengths.
inline real vdot(backends::BackendKind backend, std::span<const real> a,
                 std::span<const real> b) {
  const real* pa = a.data();
  const real* pb = b.data();
  return reduce_sum(backend, std::min(a.size(), b.size()),
                    [=](std::size_t i) { return pa[i] * pb[i]; });
}
inline real vdot(std::span<const real> a, std::span<const real> b) {
  return vdot(backends::BackendKind::kSerial, a, b);
}

}  // namespace gaia::core
