/// \file vector_ops.hpp
/// \brief BLAS-1 style vector kernels of the LSQR iteration.
///
/// Elementwise operations (scale, axpy) are embarrassingly parallel and
/// run through the selected backend, like the GPU code. Reductions
/// (norms, dots, sums) are deterministic: a length-n sum splits into the
/// blocks of `block_partition(n)`, each block is a compensated sum over
/// four interleaved lanes (util::block_sum), and the block partials fold
/// in block order. Which thread sums a block never changes its bits, so
/// a reduction returns the same value on every backend, at any thread
/// count, pool size or grid — and the one-argument overloads, which run
/// the blocks on the calling thread, return it too. The row passes of
/// core/aprod_kernels.hpp split their rows by the same rule, so the
/// whole LSQR trajectory is backend-independent.
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

/// The one partition of every ordered sum of the solve: n elements (or
/// observation rows) in `count` blocks of `length`, the last one shorter.
struct BlockPartition {
  std::size_t length = 0;
  std::size_t count = 0;
};

/// Shortest block, and the most blocks a sum may have: the partials of
/// any length live in a fixed stack array.
inline constexpr std::size_t kMinBlockLength = 4096;
inline constexpr std::size_t kMaxBlocks = 256;

/// Blocks of L = max(4096, ceil(n / 256)) elements: ceil(n / L) of them,
/// at least one and at most 256. Only n decides it.
[[nodiscard]] inline BlockPartition block_partition(std::size_t n) {
  const std::size_t length =
      std::max(kMinBlockLength, (n + kMaxBlocks - 1) / kMaxBlocks);
  return {length, std::max<std::size_t>(1, (n + length - 1) / length)};
}

namespace detail {

/// Reductions shorter than eight minimum blocks run on the calling
/// thread: a handful of blocks gains little over a fork/join.
inline constexpr std::size_t kParallelLength = 8 * kMinBlockLength;

/// Sum of term(i) over [0, n): one util::block_sum per block of
/// block_partition(n), from kParallelLength on launched one item per
/// block on Exec; the partials fold in block order.
template <typename Exec, typename Term>
[[nodiscard]] real blocked_sum(std::size_t n, Term term) {
  const BlockPartition part = block_partition(n);
  std::array<real, kMaxBlocks> partial{};
  const auto sum_block = [&](std::size_t k) {
    const std::size_t begin = k * part.length;
    partial[k] =
        util::block_sum(begin, std::min(n, begin + part.length), term);
  };
  if (n < kParallelLength) {
    for (std::size_t k = 0; k < part.count; ++k) sum_block(k);
  } else {
    Exec::launch_blocks(part.count, {}, sum_block);
  }
  util::KahanSum total;
  for (std::size_t k = 0; k < part.count; ++k) total.add(partial[k]);
  return total.sum;
}

}  // namespace detail

/// Deterministic sum of term(i) over [0, n), its blocks spread over the
/// backend's threads.
template <typename Term>
[[nodiscard]] real reduce_sum(backends::BackendKind backend, std::size_t n,
                              Term term) {
  return backends::dispatch(backend, [&](auto exec) {
    return detail::blocked_sum<decltype(exec)>(n, term);
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
