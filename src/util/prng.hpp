// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every randomized component in ftcs takes an explicit 64-bit seed. Trials,
// threads and substreams derive their own seeds with derive_seed(), so results
// are reproducible and independent of thread count or evaluation order.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace ftcs::util {

/// SplitMix64 step: the canonical 64-bit finalizing mixer (Steele et al.).
/// Used both as a standalone generator and as a seed-derivation function.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derive an independent-looking seed from (base, stream). Pure function.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base,
                                                  std::uint64_t stream) noexcept {
  std::uint64_t s = base ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  std::uint64_t a = splitmix64(s);
  std::uint64_t b = splitmix64(s);
  return a ^ (b << 1);
}

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, 256-bit state.
/// Satisfies UniformRandomBitGenerator, so it plugs into <random> if needed,
/// but the member helpers below avoid <random>'s distribution variance.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0xD1B54A32D192ED03ULL) noexcept {
    // Seed the full state through SplitMix64, per the authors' recommendation.
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of precision.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t in_range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Exponential variate with given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Geometric: number of failures before first success, success prob p.
  /// Saturates at 2^64 - 1 (always for p <= 0).
  std::uint64_t geometric(double p) noexcept {
    return geometric(p, std::log1p(-p));
  }
  /// The same draw with `log_q` = std::log1p(-p) precomputed, for a skip
  /// loop that draws many gaps at one p: bit-identical to geometric(p).
  std::uint64_t geometric(double p, double log_q) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Fisher–Yates shuffle of a random-access range.
template <typename Range>
void shuffle(Range& range, Xoshiro256& rng) {
  using std::swap;
  const std::size_t n = range.size();
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    swap(range[i - 1], range[j]);
  }
}

}  // namespace ftcs::util
