/// \file backend.hpp
/// \brief The execution backends (the "programming frameworks" axis).
///
/// The paper ports one solver to five programming models; this library
/// ports one solver to four host execution policies that preserve each
/// model's *shape*:
///
/// | paper model      | backend   | what is preserved                      |
/// |------------------|-----------|----------------------------------------|
/// | CUDA / HIP / SYCL| kGpuSim   | explicit kernels, grid/block tuning,    |
/// |                  |           | device buffers                          |
/// | OpenMP-GPU       | kOpenMP   | directive-based, teams/thread_limit     |
/// | C++ PSTL         | kPstl     | parallel algorithms, *no tuning knob*   |
/// | (reference)      | kSerial   | deterministic oracle ("production" ref) |
///
/// Kernels are templates over an execution policy so inner loops inline;
/// runtime backend selection dispatches once per kernel launch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backends/counting_iterator.hpp"
#include "backends/kernel_config.hpp"
#include "backends/pstl_algorithms.hpp"
#include "backends/thread_pool.hpp"
#include "util/types.hpp"

#if defined(GAIA_HAS_OPENMP)
#include <omp.h>
#endif

namespace gaia::backends {

enum class BackendKind : std::uint8_t {
  kSerial = 0,
  kOpenMP,
  kPstl,
  kGpuSim,
};
inline constexpr int kNumBackends = 4;

[[nodiscard]] std::string to_string(BackendKind kind);
[[nodiscard]] std::optional<BackendKind> parse_backend(
    const std::string& name);
/// All backends compiled into this build.
[[nodiscard]] const std::vector<BackendKind>& all_backends();

/// Runtime view of Exec::kHonorsKernelConfig: whether launch shapes
/// change execution on this backend (true for OpenMP and GpuSim). The
/// Autotuner refuses to search backends where the knob is a no-op.
[[nodiscard]] bool honors_kernel_config(BackendKind kind);

// ---------------------------------------------------------------------------
// Execution policies
// ---------------------------------------------------------------------------

namespace detail {
/// body(k) for every block k in [0, blocks), one shared-pool chunk each
/// (the pool backends' `launch_blocks`).
template <typename F>
void pool_blocks(std::size_t blocks, F& body) {
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(blocks), 1,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t k = begin; k < end; ++k)
          body(static_cast<std::size_t>(k));
      });
}
}  // namespace detail

/// Reference backend: sequential, deterministic; plays the role of the
/// "production code" the paper validates every port against (SV-C).
struct SerialExec {
  static constexpr BackendKind kKind = BackendKind::kSerial;
  static constexpr bool kHonorsKernelConfig = false;

  template <typename F>
  static void launch(std::int64_t n, KernelConfig /*cfg*/, F&& body) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  }

  /// Runs body(k) once per block k in [0, blocks). The blocks of a sum
  /// are fixed by its length (core::block_partition) and each writes its
  /// own partial, so a backend decides only which thread runs which
  /// block, never the bits; serial runs them in order.
  template <typename F>
  static void launch_blocks(std::size_t blocks, KernelConfig /*cfg*/,
                            F&& body) {
    for (std::size_t k = 0; k < blocks; ++k) body(k);
  }
};

/// OpenMP port: directive-style. KernelConfig maps num_teams *
/// thread_limit onto the host thread count (clamped), mirroring how the
/// GPU-offload directives bound parallelism.
struct OpenMPExec {
  static constexpr BackendKind kKind = BackendKind::kOpenMP;
  static constexpr bool kHonorsKernelConfig = true;

  /// Host threads used for a launch shape; {0,0} lets the runtime choose.
  static int resolve_threads(KernelConfig cfg);

  template <typename F>
  static void launch(std::int64_t n, KernelConfig cfg, F&& body) {
#if defined(GAIA_HAS_OPENMP)
    const int nt = resolve_threads(cfg);
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t i = 0; i < n; ++i) body(i);
#else
    (void)cfg;
    for (std::int64_t i = 0; i < n; ++i) body(i);
#endif
  }

  /// The launch shape's threads, at most one per block, each on a fixed
  /// contiguous block range (static: a thread meets the same rows step
  /// after step).
  template <typename F>
  static void launch_blocks(std::size_t blocks, KernelConfig cfg, F&& body) {
#if defined(GAIA_HAS_OPENMP)
    const auto nt = static_cast<int>(std::clamp<std::size_t>(
        blocks, 1, static_cast<std::size_t>(resolve_threads(cfg))));
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::size_t k = 0; k < blocks; ++k) body(k);
#else
    (void)cfg;
    for (std::size_t k = 0; k < blocks; ++k) body(k);
#endif
  }
};

/// C++ PSTL port: parallel algorithms over counting iterators. Ignores
/// KernelConfig by design — the standard offers no executor yet (the
/// paper pins its PSTL efficiency gap on exactly this, SIV-e / SV-B).
struct PstlExec {
  static constexpr BackendKind kKind = BackendKind::kPstl;
  static constexpr bool kHonorsKernelConfig = false;

  template <typename F>
  static void launch(std::int64_t n, KernelConfig /*ignored*/, F&& body) {
    pstl::for_each(pstl::par, CountingIterator(0), CountingIterator(n),
                   [&](std::int64_t i) { body(i); });
  }

  /// One pool chunk per block: the pstl grain floor would put a few
  /// hundred block-sized items into one chunk.
  template <typename F>
  static void launch_blocks(std::size_t blocks, KernelConfig /*ignored*/,
                            F&& body) {
    detail::pool_blocks(blocks, body);
  }
};

/// CUDA/HIP/SYCL-shaped port: explicit grid of blocks x threads, executed
/// as virtual GPU threads in a grid-stride loop; blocks are the unit of
/// scheduling on the pool. Honors KernelConfig exactly, so tuning
/// experiments change real execution structure.
struct GpuSimExec {
  static constexpr BackendKind kKind = BackendKind::kGpuSim;
  static constexpr bool kHonorsKernelConfig = true;

  static constexpr std::int32_t kDefaultBlocks = 64;
  static constexpr std::int32_t kDefaultThreads = 128;

  static KernelConfig resolve(KernelConfig cfg) {
    if (cfg.blocks <= 0) cfg.blocks = kDefaultBlocks;
    if (cfg.threads <= 0) cfg.threads = kDefaultThreads;
    return cfg;
  }

  template <typename F>
  static void launch(std::int64_t n, KernelConfig cfg, F&& body) {
    const KernelConfig c = resolve(cfg);
    const std::int64_t grid = c.total_threads();
    // One pool chunk per block; each virtual thread walks a grid-stride.
    ThreadPool::global().parallel_for(
        c.blocks, 1, [&, grid](std::int64_t block, std::int64_t /*end*/) {
          for (std::int32_t t = 0; t < c.threads; ++t) {
            for (std::int64_t i = block * c.threads + t; i < n; i += grid) {
              body(i);
            }
          }
        });
  }

  /// One pool chunk per block, as for PSTL: the grid stride of `launch`
  /// would hand every block to one virtual block.
  template <typename F>
  static void launch_blocks(std::size_t blocks, KernelConfig /*cfg*/,
                            F&& body) {
    detail::pool_blocks(blocks, body);
  }
};

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// Invokes `f` with the execution-policy type selected at runtime:
/// `dispatch(kind, [&](auto exec) { kernel<decltype(exec)>(...); })`.
template <typename F>
decltype(auto) dispatch(BackendKind kind, F&& f) {
  switch (kind) {
    case BackendKind::kSerial:
      return f(SerialExec{});
    case BackendKind::kOpenMP:
      return f(OpenMPExec{});
    case BackendKind::kPstl:
      return f(PstlExec{});
    case BackendKind::kGpuSim:
      return f(GpuSimExec{});
  }
  return f(SerialExec{});  // unreachable; silences -Wreturn-type
}

}  // namespace gaia::backends
