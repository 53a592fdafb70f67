#include "core/kernel_catalog.hpp"

#include <array>
#include <mutex>

#include "core/aprod_kernels.hpp"
#include "tuning/kernel_registry.hpp"

namespace gaia::core {

using backends::BackendKind;
using backends::KernelId;
using tuning::AprodPass;
using tuning::FusedPass;
using tuning::KernelRegistry;
using tuning::LaunchArgs;

namespace {

/// The step's kernel operands, unpacked from a launch's flat args.
StepOperands step_operands(const LaunchArgs& a) {
  return {a.in, a.out, a.q, a.sigma, a.alpha, a.pnorm_sq};
}

/// Instantiates all launchers, the three fused passes included, for one
/// execution policy and hands them to the registry.
/// Each launcher captures nothing: the full launch state travels in
/// LaunchArgs, so the registry entries are valid for the process
/// lifetime.
template <typename Exec>
void register_backend(KernelRegistry& reg) {
  constexpr BackendKind kind = Exec::kKind;
  reg.add(KernelId::kAprod1Astro, kind, [](const LaunchArgs& a) {
    aprod1_astro<Exec>(*a.view, a.in, a.out, a.config);
  });
  reg.add(KernelId::kAprod1Att, kind, [](const LaunchArgs& a) {
    aprod1_att<Exec>(*a.view, a.in, a.out, a.config);
  });
  reg.add(KernelId::kAprod1Instr, kind, [](const LaunchArgs& a) {
    aprod1_instr<Exec>(*a.view, a.in, a.out, a.config);
  });
  reg.add(KernelId::kAprod1Glob, kind, [](const LaunchArgs& a) {
    aprod1_glob<Exec>(*a.view, a.in, a.out, a.config);
  });
  reg.add(KernelId::kAprod2Astro, kind, [](const LaunchArgs& a) {
    aprod2_astro<Exec>(*a.view, a.in, a.out, a.config);
  });
  reg.add(KernelId::kAprod2Att, kind, [](const LaunchArgs& a) {
    aprod2_att<Exec>(*a.view, a.in, a.out, a.config, a.arena);
  });
  reg.add(KernelId::kAprod2Instr, kind, [](const LaunchArgs& a) {
    aprod2_instr<Exec>(*a.view, a.in, a.out, a.config, a.arena);
  });
  reg.add(KernelId::kAprod2Glob, kind, [](const LaunchArgs& a) {
    aprod2_glob<Exec>(*a.view, a.in, a.out, a.config, a.arena);
  });
  reg.add_fused(FusedPass::kGather, kind, [](const LaunchArgs& a) {
    aprod1_fused<Exec>(*a.view, a.in, a.out, a.config);
  });
  reg.add_fused(FusedPass::kScatter, kind, [](const LaunchArgs& a) {
    aprod2_shared_fused<Exec>(*a.view, a.in, a.out, a.config, a.arena);
  });
  reg.add_fused(FusedPass::kStep, kind, [](const LaunchArgs& a) {
    aprod_step<Exec>(*a.view, step_operands(a), a.config, a.arena);
  });
}

}  // namespace

void ensure_kernel_catalog() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    KernelRegistry& reg = KernelRegistry::global();
    register_backend<backends::SerialExec>(reg);
    register_backend<backends::OpenMPExec>(reg);
    register_backend<backends::PstlExec>(reg);
    register_backend<backends::GpuSimExec>(reg);
  });
}

const char* kernel_region_name(KernelId id) {
  static const char* kNames[] = {"aprod1_astro", "aprod1_att",
                                 "aprod1_instr", "aprod1_glob",
                                 "aprod2_astro", "aprod2_att",
                                 "aprod2_instr", "aprod2_glob"};
  return kNames[static_cast<int>(id)];
}

namespace {

int nnz_per_row(KernelId id) {
  switch (id) {
    case KernelId::kAprod1Astro:
    case KernelId::kAprod2Astro:
      return kAstroNnzPerRow;
    case KernelId::kAprod1Att:
    case KernelId::kAprod2Att:
      return kAttNnzPerRow;
    case KernelId::kAprod1Instr:
    case KernelId::kAprod2Instr:
      return kInstrNnzPerRow;
    case KernelId::kAprod1Glob:
    case KernelId::kAprod2Glob:
      return kGlobNnzPerRow;
  }
  return 0;
}

}  // namespace

std::uint64_t kernel_traffic_bytes(const SystemView& v, KernelId id) {
  const auto rows = static_cast<std::uint64_t>(v.n_rows);
  const bool is_aprod1 = id < KernelId::kAprod2Astro;
  int nnz = 0;
  std::uint64_t idx_bytes = 0;
  switch (id) {
    case KernelId::kAprod1Astro:
    case KernelId::kAprod2Astro:
      nnz = kAstroNnzPerRow;
      idx_bytes = sizeof(col_index);
      break;
    case KernelId::kAprod1Att:
    case KernelId::kAprod2Att:
      nnz = kAttNnzPerRow;
      idx_bytes = sizeof(col_index);
      break;
    case KernelId::kAprod1Instr:
    case KernelId::kAprod2Instr:
      nnz = kInstrNnzPerRow;
      idx_bytes = kInstrNnzPerRow * sizeof(std::int32_t);
      break;
    case KernelId::kAprod1Glob:
    case KernelId::kAprod2Glob:
      nnz = kGlobNnzPerRow;
      idx_bytes = 0;
      break;
  }
  // The coefficients and the x/y entries they meet are all fp64.
  const auto store_bytes = static_cast<std::uint64_t>(nnz) * sizeof(real);
  const auto vec_bytes = store_bytes;
  // aprod1 gathers x (nnz reads) and read-modify-writes y once; aprod2
  // reads y once and read-modify-writes nnz entries of x.
  const std::uint64_t vector_bytes =
      is_aprod1 ? vec_bytes + 2 * sizeof(real)
                : sizeof(real) + 2 * vec_bytes;
  return rows * (store_bytes + idx_bytes + vector_bytes);
}

std::uint64_t kernel_traffic_bytes(const SystemView& v, KernelId id,
                                   backends::StorageLayout /*layout*/,
                                   backends::Precision /*precision*/) {
  return kernel_traffic_bytes(v, id);
}

std::uint64_t kernel_flops(const SystemView& v, KernelId id) {
  // One fused multiply-add per stored coefficient, counted as 2 flops.
  return static_cast<std::uint64_t>(v.n_rows) *
         static_cast<std::uint64_t>(nnz_per_row(id)) * 2;
}

const char* pass_region_name(const AprodPass& pass) {
  if (!pass.fused) return kernel_region_name(pass.id);
  static const char* kNames[] = {"aprod1_fused", "aprod2_fused",
                                 "aprod_step"};
  return kNames[static_cast<int>(*pass.fused)];
}

std::span<const KernelId> pass_parts(const AprodPass& pass) {
  static constexpr std::array<KernelId, 4> kGather = {
      KernelId::kAprod1Astro, KernelId::kAprod1Att, KernelId::kAprod1Instr,
      KernelId::kAprod1Glob};
  static constexpr std::array<KernelId, 3> kScatter = {
      KernelId::kAprod2Att, KernelId::kAprod2Instr, KernelId::kAprod2Glob};
  if (!pass.fused)
    return std::span(backends::all_kernels())
        .subspan(static_cast<std::size_t>(pass.id), 1);
  switch (*pass.fused) {
    case FusedPass::kGather:
      return kGather;
    case FusedPass::kScatter:
      return kScatter;
    case FusedPass::kStep:
      break;
  }
  return backends::all_kernels();
}

namespace {

/// Whether a part runs at all: the glob kernels are no-ops on a system
/// without a global block.
bool part_runs(const SystemView& v, KernelId id) {
  return v.has_global ||
         (id != KernelId::kAprod1Glob && id != KernelId::kAprod2Glob);
}

}  // namespace

std::uint64_t pass_traffic_bytes(const SystemView& v,
                                 const AprodPass& pass) {
  const auto rows = static_cast<std::uint64_t>(v.n_rows);
  if (pass.fused == FusedPass::kStep) {
    // The gather parts' coefficient, index and v bytes (each without its
    // y[r] read-modify-write), the scatter parts' q read-modify-writes
    // only (their coefficients are the ones the gather already read),
    // and u read and written once per row.
    std::uint64_t bytes = 2 * sizeof(real) * rows;
    for (KernelId part : pass_parts(pass)) {
      if (!part_runs(v, part)) continue;
      if (part < KernelId::kAprod2Astro)
        bytes += kernel_traffic_bytes(v, part) -
                 2 * sizeof(real) * rows;
      else
        bytes += 2 * sizeof(real) * rows *
                 static_cast<std::uint64_t>(nnz_per_row(part));
    }
    return bytes;
  }
  std::uint64_t bytes = 0;
  std::uint64_t parts = 0;
  for (KernelId part : pass_parts(pass)) {
    if (!part_runs(v, part)) continue;
    bytes += kernel_traffic_bytes(v, part);
    ++parts;
  }
  if (parts == 0) return 0;
  // Every part charges y once per row (aprod1 reads and writes y[r],
  // aprod2 reads it); the pass touches y[r] once.
  const std::uint64_t y_row_bytes =
      pass.id < KernelId::kAprod2Astro ? 2 * sizeof(real) : sizeof(real);
  return bytes - (parts - 1) * rows * y_row_bytes;
}

std::uint64_t pass_flops(const SystemView& v, const AprodPass& pass) {
  std::uint64_t flops = 0;
  for (KernelId part : pass_parts(pass))
    if (part_runs(v, part)) flops += kernel_flops(v, part);
  return flops;
}

}  // namespace gaia::core
