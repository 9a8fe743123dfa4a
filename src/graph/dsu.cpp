#include "graph/dsu.hpp"

#include <numeric>

namespace ftcs::graph {

void Dsu::reset(std::size_t n) {
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), 0u);
  size_.assign(n, 1u);
  components_ = n;
}

std::uint32_t Dsu::find(std::uint32_t x) noexcept {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void Dsu::split(std::span<const std::uint32_t> members) noexcept {
  // Roots first: each class of size s had cost s - 1 components. A root's
  // size drops to 1 once counted, so a repeated root counts once.
  for (const std::uint32_t x : members)
    if (parent_[x] == x) {
      components_ += size_[x] - 1;
      size_[x] = 1;
    }
  for (const std::uint32_t x : members) {
    parent_[x] = x;
    size_[x] = 1;
  }
}

bool Dsu::unite(std::uint32_t a, std::uint32_t b) noexcept {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (size_[a] < size_[b]) std::swap(a, b);
  parent_[b] = a;
  size_[a] += size_[b];
  --components_;
  return true;
}

}  // namespace ftcs::graph
