/// \file kernel_registry.hpp
/// \brief Type-erased kernel dispatch: (KernelId, BackendKind) -> launcher.
///
/// Before this subsystem, every launch site in `core/aprod.cpp` carried
/// its own `switch (id)` over the eight kernels — three copies of the
/// same dispatch, and anything new (the failover re-dispatch, benches)
/// grew a fourth. The registry
/// replaces them with one table: each backend registers its templated
/// kernel instantiations once (see `core/kernel_catalog.cpp`), and
/// aprod, failover and bench all launch through `launch()`.
///
/// `args.config.precision`, `args.config.layout` and
/// `args.config.strategy` are ignored: every launcher reads the fp64 row
/// records and commits its scatter one way.
///
/// The launchers are type-erased `std::function`s over a flat argument
/// struct so the registry depends only on forward declarations — the
/// tuning library sits *below* core in the link order (core registers
/// into it, tuning never calls into core).
#pragma once

#include <array>
#include <functional>
#include <optional>

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
/// aprod2 kernels in = y, out = x. The LSQR step reads in = v and
/// overwrites out = u with p = A v - alpha (sigma u), `q` with A^T p and
/// `*pnorm_sq` with ||p||^2; the other passes ignore those four fields.
/// `arena` is the scratch pool the aprod2 scatters draw their per-block
/// slices from (null = the backend's process-wide arena).
struct LaunchArgs {
  const core::SystemView* view = nullptr;
  const real* in = nullptr;
  real* out = nullptr;
  real* q = nullptr;
  real sigma = 1;
  real alpha = 0;
  real* pnorm_sq = nullptr;
  backends::KernelConfig config{};
  backends::ScratchArena* arena = nullptr;
};

using KernelLauncher = std::function<void(const LaunchArgs&)>;

/// The fused row passes: the gather adds the four aprod1 sections into
/// y[r], the scatter the three shared aprod2 sections into x, and the
/// LSQR step runs a whole bidiagonalization step's products in one row
/// pass. None is a KernelId of its own (see AprodPass).
enum class FusedPass : std::uint8_t { kGather = 0, kScatter, kStep };
inline constexpr int kNumFusedPasses = 3;

/// One launch of an aprod pair: kernel `id`, or the fused pass that runs
/// under `id`'s tuning-table entry and fault identity.
struct AprodPass {
  backends::KernelId id;
  std::optional<FusedPass> fused;
};

/// What one aprod pair launches, in launch order: apply1's fused gather
/// (kAprod1Astro's identity), then apply2's aprod2_astro and fused
/// scatter (kAprod2Att's identity). The other KernelIds stay registry
/// slots for the benches and the per-kernel baseline.
inline constexpr std::array<AprodPass, 3> kAprodPasses = {{
    {backends::KernelId::kAprod1Astro, FusedPass::kGather},
    {backends::KernelId::kAprod2Astro, std::nullopt},
    {backends::KernelId::kAprod2Att, FusedPass::kScatter},
}};

/// The one pass LsqrEngine launches, under kAprod2Att's tuning-table
/// entry and fault identity like the fused scatter: it runs the table's
/// kAprod2Att shape.
inline constexpr AprodPass kStepPass = {backends::KernelId::kAprod2Att,
                                        FusedPass::kStep};

/// Dense (KernelId x BackendKind) table of launchers plus one launcher
/// per (fused pass, backend).
///
/// Registration happens once at startup (core::ensure_kernel_catalog());
/// after that the table is read-only, so launches need no locking.
class KernelRegistry {
 public:
  void add(backends::KernelId id, backends::BackendKind backend,
           KernelLauncher launcher);
  void add_fused(FusedPass pass, backends::BackendKind backend,
                 KernelLauncher launcher);
  [[nodiscard]] bool has(backends::KernelId id,
                         backends::BackendKind backend) const;
  [[nodiscard]] bool has_fused(FusedPass pass,
                               backends::BackendKind backend) const;

  /// Dispatches through the registered launcher; throws gaia::Error
  /// naming the (kernel, backend) pair when nothing is registered —
  /// a registration bug, not a user error.
  void launch(backends::KernelId id, backends::BackendKind backend,
              const LaunchArgs& args) const;
  void launch_fused(FusedPass pass, backends::BackendKind backend,
                    const LaunchArgs& args) const;
  /// Launches one pass of an aprod pair: its fused slot, or kernel `id`.
  void launch(const AprodPass& pass, backends::BackendKind backend,
              const LaunchArgs& args) const;

  /// Registered (kernel, backend) entries; fused slots excluded.
  [[nodiscard]] std::size_t size() const;

  /// Process-wide registry the solver dispatches through.
  static KernelRegistry& global();

 private:
  static constexpr std::size_t kPlane =
      static_cast<std::size_t>(backends::kNumKernels) *
      static_cast<std::size_t>(backends::kNumBackends);

  [[nodiscard]] static std::size_t index(backends::KernelId id,
                                         backends::BackendKind backend) {
    return static_cast<std::size_t>(id) *
               static_cast<std::size_t>(backends::kNumBackends) +
           static_cast<std::size_t>(backend);
  }
  static constexpr std::size_t kFusedPlane =
      static_cast<std::size_t>(kNumFusedPasses) *
      static_cast<std::size_t>(backends::kNumBackends);
  [[nodiscard]] static std::size_t fused_index(
      FusedPass pass, backends::BackendKind backend) {
    return static_cast<std::size_t>(pass) *
               static_cast<std::size_t>(backends::kNumBackends) +
           static_cast<std::size_t>(backend);
  }

  std::array<KernelLauncher, kPlane> table_{};
  std::array<KernelLauncher, kFusedPlane> fused_{};
};

}  // namespace gaia::tuning
