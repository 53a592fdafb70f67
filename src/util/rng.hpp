/// \file rng.hpp
/// \brief Deterministic, fast pseudo-random number generation.
///
/// The synthetic dataset generator (paper appendix: "it randomly generates,
/// given a certain seed, a dataset with the specified size") must be
/// reproducible across platforms and backends, so we ship our own
/// xoshiro256** implementation instead of relying on the (unspecified)
/// distribution algorithms of the standard library.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/types.hpp"

namespace gaia::util {

/// SplitMix64: used to expand a single 64-bit seed into the xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Passes BigCrush; 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x6761696173696dull /*"gaiasim"*/) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Jump ahead by 2^128 steps: yields independent, non-overlapping
  /// sub-streams (one per simulated MPI rank / generator shard).
  void jump();

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Unbiased for the magnitudes we use
  /// (n << 2^64) via 128-bit multiply rejection-free mapping.
  std::uint64_t uniform_index(std::uint64_t n) {
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<u128>(next()) * n) >> 64);
  }

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Advances the state exactly as `k` calls of normal() would, without
  /// the Box-Muller arithmetic except for a final pair whose second value
  /// stays cached. Lets a serial replay find where a block of draws
  /// starts, so the blocks can then be drawn in parallel.
  void discard_normals(std::uint64_t k);

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace gaia::util
