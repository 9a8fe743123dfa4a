// Atomically shared packed bitset: 64 flags per word, word-level CAS.
//
// The concurrent counterpart of util::Bitset, used for busy/claim state
// shared between router workers. The central primitive is try_set(): an
// atomic test-and-set that doubles as a per-bit lock acquisition, so a bit
// can guard ownership of adjacent non-atomic data (the router's owner-map
// entries). Memory-ordering contract:
//   - try_set(i) uses acq_rel: a successful claim ACQUIRES everything the
//     previous owner published before releasing bit i;
//   - reset(i) uses release: it PUBLISHES every write made while the bit
//     was held to the next claimer of the same bit;
//   - test(i) is relaxed: a cheap dirty read for optimistic search passes
//     whose positive verdicts a later try_set() re-checks;
//   - set(i) is a relaxed load and store, no RMW: only for a caller that is
//     the word's only writer (initialization, or a router settling while it
//     owns every session). Ordering against later CAS users comes from
//     whatever hands the state over (a join, a lock).
// Sized at construction; resize() is NOT thread-safe (call before sharing).
//
// Layout: dense by default (64 flags per 8-byte word, the right shape for
// the big busy bitsets that searches scan). Padding::kCacheLine spreads the
// words one per cache line instead — an 8x size cost that is the right
// trade for SMALL, CONTENDED bitsets used as claim locks (the terminal
// slots): with dense words, 64 unrelated claim CASes false-share one line
// and every acquisition broadcasts invalidations to all workers parked on
// neighbouring slots.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ftcs::util {

class AtomicBitset {
 public:
  /// Word placement: kDense packs words back to back; kCacheLine gives each
  /// 64-bit word its own cache line (see the header comment).
  enum class Padding : std::uint8_t { kDense, kCacheLine };

  AtomicBitset() = default;
  explicit AtomicBitset(std::size_t bits, Padding pad = Padding::kDense) {
    resize(bits, pad);
  }

  /// Not thread-safe; establish size (all bits clear) before sharing.
  void resize(std::size_t bits, Padding pad = Padding::kDense) {
    bits_ = bits;
    word_count_ = (bits + 63) / 64;
    // 64-byte line / 8-byte word = stride of 8 words in padded mode.
    stride_shift_ = pad == Padding::kCacheLine ? 3u : 0u;
    const std::size_t slots = word_count_ << stride_shift_;
    words_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t w = 0; w < slots; ++w)
      words_[w].store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[slot(i)].load(std::memory_order_relaxed) >> (i & 63)) & 1u;
  }

  /// Atomic test-and-set. Returns true iff the bit was clear (the caller now
  /// owns it). acq_rel: success synchronizes-with the reset() that last
  /// released this bit.
  [[nodiscard]] bool try_set(std::size_t i) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const std::uint64_t prev =
        words_[slot(i)].fetch_or(mask, std::memory_order_acq_rel);
    return (prev & mask) == 0;
  }

  /// Unconditional set with a relaxed load and store (no RMW): for the
  /// word's only writer (see the header comment).
  void set(std::size_t i) noexcept {
    std::atomic<std::uint64_t>& w = words_[slot(i)];
    w.store(w.load(std::memory_order_relaxed) | (std::uint64_t{1} << (i & 63)),
            std::memory_order_relaxed);
  }

  /// Clears the bit, publishing the owner's writes (release).
  void reset(std::size_t i) noexcept {
    words_[slot(i)].fetch_and(~(std::uint64_t{1} << (i & 63)),
                              std::memory_order_release);
  }

  /// Number of set bits (relaxed snapshot; exact only at quiescence).
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (std::size_t w = 0; w < word_count_; ++w)
      c += static_cast<std::size_t>(__builtin_popcountll(
          words_[w << stride_shift_].load(std::memory_order_relaxed)));
    return c;
  }

  /// Copies from a byte mask (any nonzero byte sets the bit). Init-time only.
  void assign_bytes(const std::uint8_t* data, std::size_t n) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i)
      if (data[i]) set(i);
  }

  /// Expands to a byte mask (relaxed snapshot) — for span-based interop.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const {
    std::vector<std::uint8_t> out(bits_, 0);
    for (std::size_t i = 0; i < bits_; ++i)
      if (test(i)) out[i] = 1;
    return out;
  }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    return (i >> 6) << stride_shift_;
  }

  std::size_t bits_ = 0;
  std::size_t word_count_ = 0;
  unsigned stride_shift_ = 0;  // 0 dense, 3 one word per cache line
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace ftcs::util
