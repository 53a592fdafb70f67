#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gaia::util {
namespace {

/// The bytewise CRC-32 the word-at-a-time loop must reproduce: one
/// table lookup per byte, table built bit by bit.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t state = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    state = table[(state ^ data[i]) & 0xffu] ^ (state >> 8);
  return state ^ 0xffffffffu;
}

std::vector<unsigned char> random_bytes(std::size_t size,
                                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next());
  return bytes;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/IEEE check value (reveng catalogue).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
}

TEST(Crc32, IncrementalUpdateEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t state = crc32_init();
  state = crc32_update(state, data.data(), 10);
  state = crc32_update(state, data.data() + 10, 7);
  state = crc32_update(state, data.data() + 17, data.size() - 17);
  EXPECT_EQ(crc32_final(state), crc32(data));
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-520 cover the tail-only case, every tail length after
  // whole words, and many words; start offsets 0-7 cover every
  // alignment of the 8-byte loads.
  const auto bytes = random_bytes(8 + 520, 29);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 520; ++length)
      ASSERT_EQ(crc32(bytes.data() + offset, length),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
}

TEST(Crc32, IncrementalUpdateSplitAnywhereMatchesTheReference) {
  const auto bytes = random_bytes(1024, 30);
  const std::uint32_t expected = reference_crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    std::uint32_t state = crc32_init();
    state = crc32_update(state, bytes.data(), split);
    state = crc32_update(state, bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(crc32_final(state), expected) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data(256, '\x5a');
  const std::uint32_t clean = crc32(data);
  for (std::size_t byte : {0u, 100u, 255u}) {
    std::string flipped = data;
    flipped[byte] ^= 0x01;
    EXPECT_NE(crc32(flipped), clean) << "byte " << byte;
  }
}

TEST(Crc32, DetectsTruncation) {
  const std::string data(128, 'q');
  EXPECT_NE(crc32(std::string_view(data).substr(0, 64)), crc32(data));
}

}  // namespace
}  // namespace gaia::util
