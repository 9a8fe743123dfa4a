// Packed dynamic bitset: 64 flags per word, no allocation after resize().
//
// Used for per-vertex / per-edge state in routing hot paths where a
// std::vector<uint8_t> mask wastes 8x the cache footprint. Deliberately
// minimal — test/set/reset plus bulk fill — so every operation inlines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftcs::util {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits, bool value = false) { resize(bits, value); }

  void resize(std::size_t bits, bool value = false) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, value ? ~std::uint64_t{0} : 0);
    trim();
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool value) noexcept { value ? set(i) : reset(i); }
  /// Test-and-set (AtomicBitset::try_set's single-owner twin): true iff
  /// the bit was clear.
  [[nodiscard]] bool try_set(std::size_t i) noexcept {
    if (test(i)) return false;
    set(i);
    return true;
  }

  void fill(bool value) noexcept {
    for (auto& w : words_) w = value ? ~std::uint64_t{0} : 0;
    if (value) trim();
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Copies from a byte mask (any nonzero byte sets the bit).
  void assign_bytes(const std::uint8_t* data, std::size_t n) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i)
      if (data[i]) set(i);
  }

  /// Expands to a byte mask (1 where set) — for interop with span-based APIs.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const {
    std::vector<std::uint8_t> out(bits_, 0);
    for (std::size_t i = 0; i < bits_; ++i)
      if (test(i)) out[i] = 1;
    return out;
  }

 private:
  void trim() noexcept {
    if (bits_ & 63) words_.back() &= (std::uint64_t{1} << (bits_ & 63)) - 1;
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ftcs::util
