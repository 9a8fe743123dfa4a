// Disjoint-set union (union-find) with path halving and union by size.
//
// Used to model closed switch failures: a closed failure contracts the two
// endpoints of an edge into a single electrical node (paper §2), and a
// "short" between two terminals is exactly their DSU classes merging (§6,
// Lemma 7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ftcs::graph {

class Dsu {
 public:
  explicit Dsu(std::size_t n = 0) { reset(n); }

  void reset(std::size_t n);

  [[nodiscard]] std::uint32_t find(std::uint32_t x) noexcept;

  /// Merge the classes of a and b; returns false if already merged.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept;

  /// Makes every listed element a singleton again, in O(list). The list
  /// must cover whole classes (every member of each class it touches);
  /// repeats are fine. The undo for unions whose endpoints are all known.
  void split(std::span<const std::uint32_t> members) noexcept;

  [[nodiscard]] bool same(std::uint32_t a, std::uint32_t b) noexcept {
    return find(a) == find(b);
  }

  [[nodiscard]] std::uint32_t class_size(std::uint32_t x) noexcept {
    return size_[find(x)];
  }

  [[nodiscard]] std::size_t component_count() const noexcept { return components_; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t components_ = 0;
};

}  // namespace ftcs::graph
