#include "tuning/kernel_registry.hpp"

#include "util/error.hpp"

namespace gaia::tuning {

void KernelRegistry::add(backends::KernelId id,
                         backends::BackendKind backend,
                         KernelLauncher launcher) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add: null launcher");
  table_[index(id, backend)] = std::move(launcher);
}

void KernelRegistry::add_fused(FusedPass pass, backends::BackendKind backend,
                               KernelLauncher launcher) {
  GAIA_CHECK(launcher != nullptr, "KernelRegistry::add_fused: null launcher");
  fused_[fused_index(pass, backend)] = std::move(launcher);
}

bool KernelRegistry::has(backends::KernelId id,
                         backends::BackendKind backend) const {
  return table_[index(id, backend)] != nullptr;
}

bool KernelRegistry::has_fused(FusedPass pass,
                               backends::BackendKind backend) const {
  return fused_[fused_index(pass, backend)] != nullptr;
}

void KernelRegistry::launch(backends::KernelId id,
                            backends::BackendKind backend,
                            const LaunchArgs& args) const {
  const KernelLauncher& fn = table_[index(id, backend)];
  if (!fn)
    throw Error("KernelRegistry: no launcher registered for kernel " +
                backends::to_string(id) + " on backend " +
                backends::to_string(backend));
  fn(args);
}

void KernelRegistry::launch_fused(FusedPass pass,
                                  backends::BackendKind backend,
                                  const LaunchArgs& args) const {
  const KernelLauncher& fn = fused_[fused_index(pass, backend)];
  if (!fn) {
    static const char* kNames[] = {"aprod1 gather", "aprod2 scatter",
                                   "LSQR step"};
    throw Error(std::string("KernelRegistry: no fused ") +
                kNames[static_cast<int>(pass)] +
                " launcher registered for backend " +
                backends::to_string(backend));
  }
  fn(args);
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
