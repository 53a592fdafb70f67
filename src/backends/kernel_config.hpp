/// \file kernel_config.hpp
/// \brief Kernel launch shapes — the tuning knob the paper studies.
///
/// CUDA, HIP and SYCL let the programmer pick (blocks, threads-per-block)
/// per kernel; OpenMP exposes num_teams/thread_limit; C++ PSTL exposes
/// nothing (paper SIV-e). The study's headline tuning result — up to 40 %
/// iteration-time reduction, with *small* thread counts winning in the
/// atomic-heavy aprod2 kernels — is expressed through this type.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "matrix/storage_layout.hpp"
#include "util/types.hpp"

namespace gaia::backends {

/// The retired storage-layout enum, re-exported for KernelConfig::layout
/// (matrix/storage_layout.hpp). Stays until ROADMAP item 8.
using matrix::StorageLayout;
using matrix::kNumStorageLayouts;

[[nodiscard]] inline std::string to_string(StorageLayout layout) {
  return matrix::to_string(layout);
}

/// The retired storage-precision enum, kept for KernelConfig::precision:
/// every kernel reads the fp64 row records, whatever the field says.
/// Stays until ROADMAP item 8, for the end-to-end benchmark's traffic
/// accounting.
enum class Precision : std::uint8_t {
  kFp64 = 0,
};

/// The retired scatter-strategy names, kept for KernelConfig::strategy.
/// Every shared-section scatter commits one way (core/aprod_kernels.hpp,
/// `detail::section_scatter`), whatever the field says. Stays until
/// ROADMAP item 8.
enum class ScatterStrategy : std::uint8_t {
  kAtomic = 0,
  kPrivatized,
};

/// Launch shape of one kernel. {0, 0} means "backend default".
struct KernelConfig {
  std::int32_t blocks = 0;
  std::int32_t threads = 0;
  /// Ignored: every kernel reads the fp64 row records. Stays until
  /// ROADMAP item 8, for the end-to-end benchmark's traffic accounting.
  Precision precision = Precision::kFp64;
  /// Ignored, like AprodOptions::use_streams: every layout launches the
  /// row-record bodies. Stays until ROADMAP item 8, for the end-to-end
  /// benchmark's layout sweep.
  StorageLayout layout = StorageLayout::kSeedAos;
  /// Ignored like `layout`: every scatter runs the one commit. Stays until
  /// ROADMAP item 8, for the end-to-end benchmark's pinned workloads.
  ScatterStrategy strategy = ScatterStrategy::kAtomic;

  [[nodiscard]] bool is_default() const { return blocks == 0 && threads == 0; }
  [[nodiscard]] std::int64_t total_threads() const {
    return static_cast<std::int64_t>(blocks) * threads;
  }
  bool operator==(const KernelConfig&) const = default;
};

/// Sanity bounds on launch shapes. No real GPU accepts more than 1024
/// threads per block (CUDA/HIP hard limit; we allow 4096 for the
/// simulated device's virtual threads), and a million blocks of host
/// work is far past any shape this solver could use productively.
inline constexpr std::int32_t kMaxBlocks = 1 << 20;
inline constexpr std::int32_t kMaxThreads = 4096;

/// True iff `cfg` is either the backend-default sentinel {0,0} or a
/// positive shape within [1, kMaxBlocks] x [1, kMaxThreads]. Negative
/// values and zero-paired-with-nonzero are never valid.
[[nodiscard]] bool is_valid_kernel_config(KernelConfig cfg);

/// Throws gaia::Error naming `context` and the offending values when
/// `cfg` fails is_valid_kernel_config. Call sites: CLI parsing, tuning
/// cache ingestion, TuningTable::set.
void validate_kernel_config(KernelConfig cfg, const std::string& context);

/// Parses "BxT" (e.g. "32x128") into a validated KernelConfig. Throws
/// gaia::Error on malformed input or out-of-range values.
[[nodiscard]] KernelConfig parse_kernel_config(const std::string& text);

/// The eight hot kernels of the solver (paper SIV: aprod{1,2} x
/// {astro, att, instr, glob}).
enum class KernelId : std::uint8_t {
  kAprod1Astro = 0,
  kAprod1Att,
  kAprod1Instr,
  kAprod1Glob,
  kAprod2Astro,
  kAprod2Att,
  kAprod2Instr,
  kAprod2Glob,
};
inline constexpr int kNumKernels = 8;

[[nodiscard]] std::string to_string(KernelId id);
/// Inverse of to_string(KernelId); nullopt for unknown names.
[[nodiscard]] std::optional<KernelId> parse_kernel_id(
    const std::string& name);
/// All eight kernel ids in enum order (for registry/tuning iteration).
[[nodiscard]] const std::array<KernelId, kNumKernels>& all_kernels();

/// Whether the kernel performs atomic updates (all aprod2 kernels except
/// the block-diagonal astrometric one, paper SIV).
[[nodiscard]] constexpr bool kernel_uses_atomics(KernelId id) {
  return id == KernelId::kAprod2Att || id == KernelId::kAprod2Instr ||
         id == KernelId::kAprod2Glob;
}

/// Per-kernel launch shapes. Tunable backends read it; PSTL ignores it.
class TuningTable {
 public:
  [[nodiscard]] KernelConfig get(KernelId id) const {
    return table_[static_cast<std::size_t>(id)];
  }
  /// Validates the shape (throws gaia::Error on negative/absurd values)
  /// before storing — a TuningTable can never hold an unlaunchable
  /// config.
  void set(KernelId id, KernelConfig cfg);
  void set_all(KernelConfig cfg);

  /// The production-code heuristic: full occupancy for aprod1, reduced
  /// blocks/threads where atomics collide (paper SIV "we redesigned the
  /// code to reduce the number of blocks and GPU threads per block in the
  /// regions where atomic operations are performed").
  static TuningTable tuned_default();

  /// Untuned: every kernel at the naive full-occupancy shape — the
  /// configuration of the pre-optimization production code.
  static TuningTable untuned(KernelConfig cfg = {256, 256});

  bool operator==(const TuningTable&) const = default;

 private:
  std::array<KernelConfig, kNumKernels> table_{};
};

}  // namespace gaia::backends
