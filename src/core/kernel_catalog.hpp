/// \file kernel_catalog.hpp
/// \brief Registers the solver's kernels with the tuning registry.
///
/// The tuning library owns the dispatch *mechanism* (a type-erased
/// (KernelId, Backend) table); this file owns the dispatch *content*:
/// the eight templated aprod kernels instantiated for every compiled
/// backend, plus the fused aprod1 gather, the fused aprod2 scatter and
/// the LSQR step, and their cost shapes (per kernel and per pass).
/// Registration is idempotent and runs on first Aprod construction, so any binary that launches a
/// kernel has a fully populated registry without global-initializer
/// ordering games across libraries.
#pragma once

#include <cstdint>
#include <span>

#include "backends/kernel_config.hpp"
#include "tuning/kernel_registry.hpp"

namespace gaia::core {

struct SystemView;

/// Populates tuning::KernelRegistry::global() with every (kernel,
/// backend) launcher (idempotent, thread-safe).
void ensure_kernel_catalog();

/// Stable region/span name of a kernel ("aprod2_att", ...).
[[nodiscard]] const char* kernel_region_name(backends::KernelId id);

/// Bytes a kernel moves through memory (the HBM-traffic accounting a
/// vendor profiler reports): coefficient values + index arrays + vector
/// gathers/scatters, per row. An estimate with the same structure as
/// perfmodel::KernelCostModel::kernel_traffic_bytes, computed from the
/// live system dimensions.
[[nodiscard]] std::uint64_t kernel_traffic_bytes(const SystemView& view,
                                                 backends::KernelId id);

/// Layout-aware traffic: the seed layout charges the compacted
/// coefficient slice (unchanged accounting), the derived layouts charge
/// what they actually stream — SoA planes over the zero-padded tile
/// rows, sliced values + explicit columns + row ids over the padded
/// lanes. The padded-vs-compacted ratio is the modeled price of the
/// regularized addressing; the bandwidth win shows up in the cost
/// model's miss factors, not here.
[[nodiscard]] std::uint64_t kernel_traffic_bytes(
    const SystemView& view, backends::KernelId id,
    backends::StorageLayout layout);

/// Precision-aware traffic: scales the coefficient-plane bytes (AoS
/// records / SoA planes / sliced payload) by the storage scalar's size
/// while the index arrays and the FP64 x/y vector traffic stay
/// unchanged — the bandwidth lever mixed-precision storage actually
/// pulls, and exactly what KernelCostModel::precision_traffic_bytes
/// prices per GPU spec.
[[nodiscard]] std::uint64_t kernel_traffic_bytes(
    const SystemView& view, backends::KernelId id,
    backends::StorageLayout layout, backends::Precision precision);

/// Useful floating-point operations a kernel performs: one multiply +
/// one add per stored coefficient (rows * nnz * 2). Same convention as
/// perfmodel::KernelCostModel::kernel_flops, computed from the live
/// system dimensions.
[[nodiscard]] std::uint64_t kernel_flops(const SystemView& view,
                                         backends::KernelId id);

/// Atomic read-modify-write updates a launch issues: each of the
/// `workers` private slices commits its whole column section, so W x
/// section length for the aprod2 scatter kernels under the atomic
/// strategy; zero for gather kernels, for aprod2_astro and for the
/// privatized strategy (which commits through a deterministic fold).
[[nodiscard]] std::uint64_t kernel_atomic_updates(
    const SystemView& view, backends::KernelId id,
    backends::ScatterStrategy strategy, int workers);

/// Span/series name of a pass: "aprod1_fused", "aprod2_fused",
/// "aprod_step", or the kernel's own name.
[[nodiscard]] const char* pass_region_name(const tuning::AprodPass& pass);

/// The kernels a pass interleaves, in the order it adds them; a kernel
/// pass is its own single part, and the LSQR step's parts are all eight.
[[nodiscard]] std::span<const backends::KernelId> pass_parts(
    const tuning::AprodPass& pass);

/// Pass-level traffic: the parts' coefficient, index and x bytes, plus
/// the y traffic once per row. Each part alone charges y per row, but
/// the pass reads (and for the gather writes) y[r] once, so the sum of
/// the parts overstates it by (parts - 1) x rows x y bytes. The LSQR
/// step reads the coefficients and indices once: its gather parts' bytes
/// without their y traffic, the scatter parts' q read-modify-writes, and
/// u read and written once per row. Glob parts are left out on a system
/// without a global block (they do not run).
[[nodiscard]] std::uint64_t pass_traffic_bytes(
    const SystemView& view, const tuning::AprodPass& pass,
    backends::StorageLayout layout, backends::Precision precision);

/// The parts' flops and atomic updates (both add up across parts).
[[nodiscard]] std::uint64_t pass_flops(const SystemView& view,
                                       const tuning::AprodPass& pass);
[[nodiscard]] std::uint64_t pass_atomic_updates(
    const SystemView& view, const tuning::AprodPass& pass,
    backends::ScatterStrategy strategy, int workers);

}  // namespace gaia::core
