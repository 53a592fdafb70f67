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

/// Upper bound on scatter workers per launch. Each worker privatizes a
/// full column section, so scratch grows linearly with the worker count;
/// past a few hundred host workers the ordered fold dominates anyway.
inline constexpr int kMaxScatterWorkers = 256;

/// Reference backend: sequential, deterministic; plays the role of the
/// "production code" the paper validates every port against (SV-C).
struct SerialExec {
  static constexpr BackendKind kKind = BackendKind::kSerial;
  static constexpr bool kHonorsKernelConfig = false;

  template <typename F>
  static void launch(std::int64_t n, KernelConfig /*cfg*/, F&& body) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  }

  /// Scatter workers (private slices) a launch at `cfg` uses. A pure
  /// function of the launch shape (and the fixed machine), so a fixed
  /// config always folds the slices in the same order — the determinism
  /// contract of the scatter commit.
  static int scatter_workers(KernelConfig /*cfg*/) { return 1; }

  /// Runs body(w) once per worker w in [0, workers). Worker w owns slice
  /// w of the scatter commit; serial runs them in order.
  template <typename F>
  static void launch_workers(int workers, KernelConfig /*cfg*/, F&& body) {
    for (int w = 0; w < workers; ++w) body(w);
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

  /// One private slice per OpenMP thread of this launch shape.
  static int scatter_workers(KernelConfig cfg) {
    const int nt = resolve_threads(cfg);
    return nt < 1 ? 1 : (nt > kMaxScatterWorkers ? kMaxScatterWorkers : nt);
  }

  template <typename F>
  static void launch_workers(int workers, KernelConfig /*cfg*/, F&& body) {
#if defined(GAIA_HAS_OPENMP)
#pragma omp parallel for schedule(static) num_threads(workers)
    for (int w = 0; w < workers; ++w) body(w);
#else
    for (int w = 0; w < workers; ++w) body(w);
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

  /// PSTL has no shape knob, so the worker count comes from the pool the
  /// parallel algorithms execute on (workers + the submitting thread) —
  /// fixed for the process, keeping the reduction order reproducible.
  static int scatter_workers(KernelConfig /*ignored*/) {
    const int w = static_cast<int>(ThreadPool::global().workers()) + 1;
    return w > kMaxScatterWorkers ? kMaxScatterWorkers : w;
  }

  template <typename F>
  static void launch_workers(int workers, KernelConfig /*ignored*/,
                             F&& body) {
    // Grain 1: one pool chunk per worker segment (the default pstl grain
    // of 1024 would serialize a handful of segment-sized items).
    ThreadPool::global().parallel_for(
        workers, 1, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t w = begin; w < end; ++w)
            body(static_cast<int>(w));
        });
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

  /// One private slice per virtual block (blocks are the gpusim
  /// scheduling unit), capped so scratch stays bounded when a shape asks
  /// for a very wide grid.
  static int scatter_workers(KernelConfig cfg) {
    const std::int32_t blocks = resolve(cfg).blocks;
    return blocks > kMaxScatterWorkers ? kMaxScatterWorkers
                                       : static_cast<int>(blocks);
  }

  template <typename F>
  static void launch_workers(int workers, KernelConfig /*cfg*/, F&& body) {
    ThreadPool::global().parallel_for(
        workers, 1, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t w = begin; w < end; ++w)
            body(static_cast<int>(w));
        });
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

/// Runtime view of Exec::scatter_workers: the private slices an aprod2
/// scatter launch at `cfg` uses on `kind`.
[[nodiscard]] inline int scatter_workers(BackendKind kind, KernelConfig cfg) {
  return dispatch(kind, [&](auto exec) {
    return decltype(exec)::scatter_workers(cfg);
  });
}

}  // namespace gaia::backends
