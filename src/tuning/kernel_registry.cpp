#include "tuning/kernel_registry.hpp"

#include "core/system_view.hpp"
#include "util/error.hpp"

namespace gaia::tuning {

using backends::Precision;
using backends::StorageLayout;

namespace {
/// The layout a launch actually runs with: a derived layout whose
/// arrays are not attached to the view clamps to the seed — a view
/// without descriptors keeps seed semantics instead of faulting on the
/// null pointers (the contract documented on SystemView::has_layout).
StorageLayout effective_layout(const LaunchArgs& args) {
  const StorageLayout layout = args.config.layout;
  if (layout != StorageLayout::kSeedAos && args.view != nullptr &&
      !args.view->has_layout(layout))
    return StorageLayout::kSeedAos;
  return layout;
}

/// The precision a launch actually runs with: a reduced precision whose
/// converted planes are not attached for the effective layout clamps to
/// fp64 (SystemView::has_precision) — reduced precision degrades to
/// full precision, never to a fault.
Precision effective_precision(const LaunchArgs& args, StorageLayout layout) {
  const Precision p = args.config.precision;
  if (p != Precision::kFp64 && args.view != nullptr &&
      !args.view->has_precision(p, layout))
    return Precision::kFp64;
  return p;
}

/// Picks the launcher slot a launch runs and writes the effective
/// layout/precision into `run`. `slot(layout, precision)` returns the
/// table entry of that plane.
template <typename Slot>
const KernelLauncher* resolve(const LaunchArgs& args, LaunchArgs& run,
                              Slot&& slot) {
  const StorageLayout layout = effective_layout(args);
  Precision precision = effective_precision(args, layout);
  run = args;
  run.config.layout = layout;
  // Empty precision slot clamps to the fp64 plane of the same layout;
  // an empty derived-layout slot then falls back to the seed layout.
  const KernelLauncher* fn = &slot(layout, precision);
  if (!*fn && precision != Precision::kFp64) {
    precision = Precision::kFp64;
    fn = &slot(layout, precision);
  }
  if (!*fn && layout != StorageLayout::kSeedAos)
    fn = &slot(StorageLayout::kSeedAos, precision);
  run.config.precision = precision;
  return *fn ? fn : nullptr;
}
}  // namespace

void KernelRegistry::add(backends::KernelId id,
                         backends::BackendKind backend,
                         KernelLauncher launcher, StorageLayout layout,
                         Precision precision) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add: null launcher");
  table_[index(id, backend, layout, precision)] = std::move(launcher);
}

void KernelRegistry::add_fused(FusedPass pass, backends::BackendKind backend,
                               KernelLauncher launcher, StorageLayout layout,
                               Precision precision) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add_fused: null launcher");
  fused_[fused_index(pass, backend, layout, precision)] = std::move(launcher);
}

bool KernelRegistry::has(backends::KernelId id,
                         backends::BackendKind backend, StorageLayout layout,
                         Precision precision) const {
  return table_[index(id, backend, layout, precision)] != nullptr;
}

bool KernelRegistry::has_fused(FusedPass pass, backends::BackendKind backend,
                               StorageLayout layout,
                               Precision precision) const {
  return fused_[fused_index(pass, backend, layout, precision)] != nullptr;
}

void KernelRegistry::launch(backends::KernelId id,
                            backends::BackendKind backend,
                            const LaunchArgs& args) const {
  LaunchArgs run;
  const KernelLauncher* fn =
      resolve(args, run, [&](StorageLayout l, Precision p) -> const auto& {
        return table_[index(id, backend, l, p)];
      });
  if (!fn)
    throw Error("KernelRegistry: no launcher registered for kernel " +
                backends::to_string(id) + " on backend " +
                backends::to_string(backend));
  (*fn)(run);
}

void KernelRegistry::launch_fused(FusedPass pass,
                                  backends::BackendKind backend,
                                  const LaunchArgs& args) const {
  LaunchArgs run;
  const KernelLauncher* fn =
      resolve(args, run, [&](StorageLayout l, Precision p) -> const auto& {
        return fused_[fused_index(pass, backend, l, p)];
      });
  if (!fn) {
    static const char* kNames[] = {"aprod1 gather", "aprod2 scatter",
                                   "LSQR step"};
    throw Error(std::string("KernelRegistry: no fused ") +
                kNames[static_cast<int>(pass)] +
                " launcher registered for backend " +
                backends::to_string(backend));
  }
  (*fn)(run);
}

void KernelRegistry::launch(const AprodPass& pass,
                            backends::BackendKind backend,
                            const LaunchArgs& args) const {
  if (pass.fused)
    launch_fused(*pass.fused, backend, args);
  else
    launch(pass.id, backend, args);
}

std::size_t KernelRegistry::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kPlane; ++i)
    if (table_[i]) ++n;
  return n;
}

KernelRegistry& KernelRegistry::global() {
  static KernelRegistry registry;
  return registry;
}

}  // namespace gaia::tuning
