#include "util/prng.hpp"

#include <cmath>
#include <limits>

namespace ftcs::util {

std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  if (bound == 0) return 0;
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::exponential(double rate) noexcept {
  // Inverse CDF; uniform() < 1 so log argument is strictly positive.
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t Xoshiro256::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  const double u = uniform();
  const double k = std::floor(std::log1p(-u) / std::log1p(-p));
  // Below p ~ 1e-19 the gap can pass 2^64, where the cast is undefined (on
  // x86 it wraps to 0, so every trial would succeed): saturate instead.
  return k < 0x1p64 ? static_cast<std::uint64_t>(k)
                    : std::numeric_limits<std::uint64_t>::max();
}

}  // namespace ftcs::util
