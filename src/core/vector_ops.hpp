/// \file vector_ops.hpp
/// \brief BLAS-1 style vector kernels of the LSQR iteration.
///
/// Elementwise operations (scale, axpy) are embarrassingly parallel and
/// run through the selected backend, like the GPU code. Reductions
/// (norms, dots) use a deterministic serial Kahan summation instead:
/// this keeps the scalar trajectory of LSQR bit-identical across all
/// backends, so the validation experiments (paper SV-C) isolate the only
/// genuine numerical divergence — the non-deterministic order of the
/// aprod2 atomic accumulations.
#pragma once

#include <cmath>
#include <span>

#include "backends/backend.hpp"
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

/// Deterministic Euclidean norm (serial Kahan compensated sum).
inline real vnorm(std::span<const real> x) {
  real sum = 0, comp = 0;
  for (real v : x) {
    const real term = v * v - comp;
    const real next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
  return std::sqrt(sum);
}

/// Deterministic element sum (serial Kahan compensated sum) — the
/// cheap side of the ABFT checksum identities the health monitor
/// verifies (sum(A v) = (A^T 1) . v and its adjoint dual).
inline real vsum(std::span<const real> x) {
  real sum = 0, comp = 0;
  for (real v : x) {
    const real term = v - comp;
    const real next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
  return sum;
}

/// Deterministic dot product (serial Kahan compensated sum).
inline real vdot(std::span<const real> a, std::span<const real> b) {
  real sum = 0, comp = 0;
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const real term = a[i] * b[i] - comp;
    const real next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
  return sum;
}

}  // namespace gaia::core
