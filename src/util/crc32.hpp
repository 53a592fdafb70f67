/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3, polynomial 0xEDB88320).
///
/// Used by the resilience layer to seal checkpoint files: a footer CRC
/// lets `restore` reject truncated or bit-flipped checkpoints instead of
/// silently resuming from corrupt state. The same checksum verifies
/// simulated H2D/D2H transfers when fault injection is armed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gaia::util {

/// Incremental update: feed chunks in order, starting from `crc32_init()`,
/// and finish with `crc32_final()`. Runs eight bytes per step
/// (slicing-by-8); any split of the input yields the same state.
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xffffffffu; }
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         const void* data, std::size_t size);
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

/// One-shot CRC-32 of a buffer (crc32("123456789") == 0xCBF43926).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);
[[nodiscard]] std::uint32_t crc32(std::string_view data);

}  // namespace gaia::util
