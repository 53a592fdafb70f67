/// \file storage_layout.hpp
/// \brief The retired coefficient-storage layout enum.
///
/// The solver stores each observation as one 24-coefficient row record,
/// the production code's systemMatrix/matrixIndex/instrCol arrays. Every
/// pass the solver launches reads whole rows, so the derived SoA-tiled
/// and sliced-instrumental layouts were deleted: on the LSQR step pass
/// the row records beat both on every measured shape, at about half the
/// device memory (DESIGN.md §14).
///
/// The enum stays, inert, until ROADMAP item 8 retires the per-layout
/// sweep of the end-to-end benchmark, which still compiles against it
/// and reads three layout samples. Nothing selects a layout: every value
/// launches the row-record bodies.
///
/// Header-only on purpose: `backends` (KernelConfig) must see the enum
/// but does not link `gaia_matrix`.
#pragma once

#include <cstdint>
#include <string>

namespace gaia::matrix {

enum class StorageLayout : std::uint8_t {
  kSeedAos = 0,
  kSoaTiled,
  kSlicedInstr,
};

inline constexpr int kNumStorageLayouts = 3;

[[nodiscard]] inline std::string to_string(StorageLayout layout) {
  switch (layout) {
    case StorageLayout::kSeedAos:
      return "seed_aos";
    case StorageLayout::kSoaTiled:
      return "soa_tiled";
    case StorageLayout::kSlicedInstr:
      return "sliced_instr";
  }
  return "unknown";
}

}  // namespace gaia::matrix
