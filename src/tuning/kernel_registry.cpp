#include "tuning/kernel_registry.hpp"

#include "core/system_view.hpp"
#include "util/error.hpp"

namespace gaia::tuning {

using backends::Precision;

namespace {
/// Picks the launcher slot a launch runs and writes the effective
/// precision into `run`: a reduced precision whose converted records are
/// not attached to the view (SystemView::has_precision), or whose slot
/// is empty, clamps to the fp64 launcher — reduced precision degrades to
/// full precision, never to a fault. `slot(precision)` returns the table
/// entry of that plane.
template <typename Slot>
const KernelLauncher* resolve(const LaunchArgs& args, LaunchArgs& run,
                              Slot&& slot) {
  Precision precision = args.config.precision;
  if (precision != Precision::kFp64 &&
      ((args.view != nullptr && !args.view->has_precision(precision)) ||
       !slot(precision)))
    precision = Precision::kFp64;
  run = args;
  run.config.precision = precision;
  const KernelLauncher* fn = &slot(precision);
  return *fn ? fn : nullptr;
}
}  // namespace

void KernelRegistry::add(backends::KernelId id,
                         backends::BackendKind backend,
                         KernelLauncher launcher, Precision precision) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add: null launcher");
  table_[index(id, backend, precision)] = std::move(launcher);
}

void KernelRegistry::add_fused(FusedPass pass, backends::BackendKind backend,
                               KernelLauncher launcher, Precision precision) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add_fused: null launcher");
  fused_[fused_index(pass, backend, precision)] = std::move(launcher);
}

bool KernelRegistry::has(backends::KernelId id,
                         backends::BackendKind backend,
                         Precision precision) const {
  return table_[index(id, backend, precision)] != nullptr;
}

bool KernelRegistry::has_fused(FusedPass pass, backends::BackendKind backend,
                               Precision precision) const {
  return fused_[fused_index(pass, backend, precision)] != nullptr;
}

void KernelRegistry::launch(backends::KernelId id,
                            backends::BackendKind backend,
                            const LaunchArgs& args) const {
  LaunchArgs run;
  const KernelLauncher* fn =
      resolve(args, run, [&](Precision p) -> const auto& {
        return table_[index(id, backend, p)];
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
      resolve(args, run, [&](Precision p) -> const auto& {
        return fused_[fused_index(pass, backend, p)];
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
