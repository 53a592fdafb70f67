/// \file kernel_registry.hpp
/// \brief Type-erased kernel dispatch:
/// (KernelId, BackendKind, StorageLayout) -> launcher.
///
/// Before this subsystem, every launch site in `core/aprod.cpp` carried
/// its own `switch (id)` over the eight kernels — three copies of the
/// same dispatch, and anything new (the failover re-dispatch, the
/// autotuner's trial launches, benches) grew a fourth. The registry
/// replaces them with one table: each backend registers its templated
/// kernel instantiations once (see `core/kernel_catalog.cpp`), and
/// aprod, failover and bench all launch through `launch()`.
///
/// The storage layout is a third dispatch axis, carried by
/// `args.config.layout` exactly like the scatter strategy: the catalog
/// registers one body per (kernel, backend, layout), and a layout slot
/// left empty falls back to the seed-layout launcher (which reads the
/// always-present seed arrays), so a partially-registered layout can
/// never fault — it just runs unaccelerated.
///
/// Storage precision is the fourth axis, carried by
/// `args.config.precision`: the catalog registers each body's float and
/// bf16s instantiations next to the fp64 one, and an empty precision
/// slot (or a view without the converted planes attached) clamps to the
/// fp64 launcher of the same (kernel, backend, layout) — reduced
/// precision degrades to full precision, never to a fault.
///
/// The launchers are type-erased `std::function`s over a flat argument
/// struct so the registry depends only on forward declarations — the
/// tuning library sits *below* core in the link order (core registers
/// into it, tuning never calls into core).
#pragma once

#include <array>
#include <functional>

#include "backends/backend.hpp"
#include "util/types.hpp"

namespace gaia::core {
struct SystemView;
}
namespace gaia::backends {
class ScratchArena;
}

namespace gaia::tuning {

/// Flat argument pack of one kernel launch. `in`/`out` follow the data
/// flow: for aprod1 kernels in = x (n_cols), out = y (n_rows); for
/// aprod2 kernels in = y, out = x. atomic_mode is ignored by the
/// atomic-free kernels. `arena` is the scratch pool the aprod2 scatters
/// draw their per-worker slices from (null = the backend's process-wide
/// arena); config.strategy selects the scatters' commit step and
/// config.layout which storage layout's body runs.
struct LaunchArgs {
  const core::SystemView* view = nullptr;
  const real* in = nullptr;
  real* out = nullptr;
  backends::KernelConfig config{};
  backends::AtomicMode atomic_mode = backends::AtomicMode::kNativeRmw;
  backends::ScratchArena* arena = nullptr;
};

using KernelLauncher = std::function<void(const LaunchArgs&)>;

/// Dense (KernelId x BackendKind x StorageLayout) table of launchers
/// plus one fused aprod2 launcher per (backend, layout) — the fused
/// scatter is not a KernelId of its own, it shares kAprod2Att's tuning
/// and fault identity.
///
/// Registration happens once at startup (core::ensure_kernel_catalog());
/// after that the table is read-only, so launches need no locking.
class KernelRegistry {
 public:
  void add(backends::KernelId id, backends::BackendKind backend,
           KernelLauncher launcher,
           backends::StorageLayout layout = backends::StorageLayout::kSeedAos,
           backends::Precision precision = backends::Precision::kFp64);
  void add_fused(
      backends::BackendKind backend, KernelLauncher launcher,
      backends::StorageLayout layout = backends::StorageLayout::kSeedAos,
      backends::Precision precision = backends::Precision::kFp64);
  [[nodiscard]] bool has(
      backends::KernelId id, backends::BackendKind backend,
      backends::StorageLayout layout = backends::StorageLayout::kSeedAos,
      backends::Precision precision = backends::Precision::kFp64) const;
  [[nodiscard]] bool has_fused(
      backends::BackendKind backend,
      backends::StorageLayout layout = backends::StorageLayout::kSeedAos,
      backends::Precision precision = backends::Precision::kFp64) const;

  /// Dispatches through the registered launcher; throws gaia::Error
  /// naming the (kernel, backend) pair when nothing is registered —
  /// a registration bug, not a user error. The scatter strategy is not a
  /// dispatch axis: one body serves both, reading args.config.strategy
  /// for its commit step. The layout axis picks the body; an
  /// unregistered layout slot falls back to the seed-layout launcher of
  /// the same (kernel, backend).
  void launch(backends::KernelId id, backends::BackendKind backend,
              const LaunchArgs& args) const;
  void launch_fused(backends::BackendKind backend,
                    const LaunchArgs& args) const;

  /// Registered (kernel, backend) entries in the seed-layout plane;
  /// fused/derived-layout slots excluded.
  [[nodiscard]] std::size_t size() const;

  /// Process-wide registry the solver dispatches through.
  static KernelRegistry& global();

 private:
  static constexpr std::size_t kPlane =
      static_cast<std::size_t>(backends::kNumKernels) *
      static_cast<std::size_t>(backends::kNumBackends);
  static constexpr std::size_t kLayoutPlanes =
      static_cast<std::size_t>(backends::kNumStorageLayouts) *
      static_cast<std::size_t>(backends::kNumPrecisions);

  [[nodiscard]] static std::size_t index(backends::KernelId id,
                                         backends::BackendKind backend,
                                         backends::StorageLayout layout,
                                         backends::Precision precision) {
    return (static_cast<std::size_t>(precision) *
                static_cast<std::size_t>(backends::kNumStorageLayouts) +
            static_cast<std::size_t>(layout)) *
               kPlane +
           static_cast<std::size_t>(id) *
               static_cast<std::size_t>(backends::kNumBackends) +
           static_cast<std::size_t>(backend);
  }
  [[nodiscard]] static std::size_t fused_index(
      backends::BackendKind backend, backends::StorageLayout layout,
      backends::Precision precision) {
    return (static_cast<std::size_t>(precision) *
                static_cast<std::size_t>(backends::kNumStorageLayouts) +
            static_cast<std::size_t>(layout)) *
               static_cast<std::size_t>(backends::kNumBackends) +
           static_cast<std::size_t>(backend);
  }

  std::array<KernelLauncher, kPlane * kLayoutPlanes> table_{};
  std::array<KernelLauncher,
             static_cast<std::size_t>(backends::kNumBackends) * kLayoutPlanes>
      fused_{};
};

}  // namespace gaia::tuning
