#include "util/rng.hpp"

namespace gaia::util {

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
      0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
  std::array<std::uint64_t, 4> s{};
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ull << b)) {
        for (int i = 0; i < 4; ++i) s[i] ^= state_[i];
      }
      next();
    }
  }
  state_ = s;
  has_cached_normal_ = false;
}

double Xoshiro256::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Xoshiro256::discard_normals(std::uint64_t k) {
  if (k > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --k;
  }
  // Each pair redraws u1 while it would be 0, as normal() does, then
  // draws u2.
  for (; k >= 2; k -= 2) {
    while ((next() >> 11) == 0) {
    }
    next();
  }
  if (k == 1) normal();
}

}  // namespace gaia::util
