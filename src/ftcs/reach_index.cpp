#include "ftcs/reach_index.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace ftcs::core {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Interns word-block sets (dedupe by content) and memoizes pairwise unions.
/// Both tables are linear-probing hash tables over power-of-two capacities.
class SetTable {
 public:
  SetTable(std::size_t words, std::vector<std::uint64_t>& sets)
      : words_(words), sets_(sets) {}

  /// Appends a zeroed candidate set and returns its words for filling;
  /// intern_tail() then keeps it or folds it into an existing equal set.
  std::uint64_t* open_tail() {
    sets_.resize(sets_.size() + words_, 0);
    return sets_.data() + sets_.size() - words_;
  }

  std::uint32_t intern_tail() {
    const auto id = static_cast<std::uint32_t>(sets_.size() / words_ - 1);
    if (std::size_t{id + 1} * 2 > slots_.size()) rehash(slots_.size() * 2);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(id) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        slots_[i] = id + 1;
        return id;
      }
      const std::uint32_t other = slots_[i] - 1;
      if (equal(other, id)) {
        sets_.resize(sets_.size() - words_);
        return other;
      }
    }
  }

  /// Id of set(a) | set(b). `empty` is the id of the all-zero set.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b, std::uint32_t empty) {
    if (a == b || b == empty) return a;
    if (a == empty) return b;
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    if (memo_used_ * 2 >= memo_keys_.size()) grow_memo();
    const std::size_t mask = memo_keys_.size() - 1;
    std::size_t i = mix64(key) & mask;
    for (; memo_keys_[i] != kEmptyKey; i = (i + 1) & mask)
      if (memo_keys_[i] == key) return memo_vals_[i];
    std::uint64_t* out = open_tail();
    const std::uint64_t* sa = sets_.data() + std::size_t{a} * words_;
    const std::uint64_t* sb = sets_.data() + std::size_t{b} * words_;
    for (std::size_t w = 0; w < words_; ++w) out[w] = sa[w] | sb[w];
    const std::uint32_t id = intern_tail();
    memo_keys_[i] = key;
    memo_vals_[i] = id;
    ++memo_used_;
    return id;
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  std::size_t hash(std::uint32_t id) const {
    const std::uint64_t* s = sets_.data() + std::size_t{id} * words_;
    std::uint64_t h = words_;
    for (std::size_t w = 0; w < words_; ++w) h = mix64(h ^ s[w]);
    return h;
  }
  bool equal(std::uint32_t a, std::uint32_t b) const {
    return std::equal(sets_.begin() + a * words_,
                      sets_.begin() + (a + 1) * words_,
                      sets_.begin() + b * words_);
  }
  void rehash(std::size_t cap) {
    cap = std::max<std::size_t>(cap, 64);
    slots_.assign(cap, 0);
    const std::size_t count = sets_.size() / words_ - 1;  // tail excluded
    for (std::size_t id = 0; id < count; ++id) {
      std::size_t i = hash(static_cast<std::uint32_t>(id)) & (cap - 1);
      while (slots_[i] != 0) i = (i + 1) & (cap - 1);
      slots_[i] = static_cast<std::uint32_t>(id + 1);
    }
  }
  void grow_memo() {
    std::vector<std::uint64_t> keys(std::max<std::size_t>(memo_keys_.size() * 2, 256),
                                    kEmptyKey);
    std::vector<std::uint32_t> vals(keys.size());
    const std::size_t mask = keys.size() - 1;
    for (std::size_t j = 0; j < memo_keys_.size(); ++j) {
      if (memo_keys_[j] == kEmptyKey) continue;
      std::size_t i = mix64(memo_keys_[j]) & mask;
      while (keys[i] != kEmptyKey) i = (i + 1) & mask;
      keys[i] = memo_keys_[j];
      vals[i] = memo_vals_[j];
    }
    memo_keys_ = std::move(keys);
    memo_vals_ = std::move(vals);
  }

  std::size_t words_;
  std::vector<std::uint64_t>& sets_;
  std::vector<std::uint32_t> slots_;  // set id + 1; 0 = free
  std::vector<std::uint64_t> memo_keys_;
  std::vector<std::uint32_t> memo_vals_;
  std::size_t memo_used_ = 0;
};

}  // namespace

ReachIndex::ReachIndex(const graph::Network& net) {
  const graph::CsrGraph& g = net.g;
  const std::size_t v_count = g.vertex_count();
  const std::size_t outs = net.outputs.size();
  words_ = std::max<std::size_t>(1, (outs + 63) / 64);

  // Reverse topological order: Kahn's algorithm on out-degree, sinks first.
  std::vector<graph::VertexId> order;
  order.reserve(v_count);
  std::vector<std::uint32_t> pending(v_count);
  for (graph::VertexId v = 0; v < v_count; ++v) {
    pending[v] = static_cast<std::uint32_t>(g.out_degree(v));
    if (pending[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const graph::VertexId u : g.in_sources(order[head]))
      if (--pending[u] == 0) order.push_back(u);

  set_of_.assign(v_count, 0);
  if (order.size() != v_count) {
    // A directed cycle: fall back to the full set everywhere (set id 0),
    // and no planes (every search starts at slot 0).
    exact_ = false;
    sets_.assign(words_, 0);
    for (std::size_t i = 0; i < outs; ++i)
      sets_[i >> 6] |= std::uint64_t{1} << (i & 63);
    plane_begin_.assign(net.inputs.size() + 1, 0);
    return;
  }

  SetTable table(words_, sets_);
  table.open_tail();
  const std::uint32_t empty = table.intern_tail();  // id 0
  for (std::size_t i = 0; i < outs; ++i) {
    table.open_tail()[i >> 6] = std::uint64_t{1} << (i & 63);
    const std::uint32_t single = table.intern_tail();
    std::uint32_t& own = set_of_[net.outputs[i]];
    own = table.unite(own, single, empty);
  }
  // Planes ride the same loop as a union-find over `pending` (all zero once
  // Kahn is done): terminals hold kTerminal and are never united; any other
  // vertex is still a singleton when the loop reaches it (only it and its
  // parents, which come later, link it), so it needs no find of its own: it
  // hangs directly under its first child's root, and the other children's
  // roots join that one.
  constexpr std::uint32_t kTerminal = ~std::uint32_t{0};
  std::vector<std::uint32_t>& up = pending;
  const auto find = [&up](std::uint32_t x) {
    while (up[x] != x) x = up[x] = up[up[x]];  // path halving
    return x;
  };
  for (const graph::VertexId t : net.inputs) up[t] = kTerminal;
  for (const graph::VertexId t : net.outputs) up[t] = kTerminal;
  // Children precede parents in `order`, so each fold reads final sets.
  for (const graph::VertexId v : order) {
    std::uint32_t acc = set_of_[v];
    const bool inner = up[v] != kTerminal;
    std::uint32_t root = v;  // v until it joins a child's class
    for (const graph::VertexId c : g.out_targets(v)) {
      acc = table.unite(acc, set_of_[c], empty);
      if (!inner || up[c] == kTerminal) continue;
      const std::uint32_t r = find(c);
      if (root == v)
        root = r;
      else if (r != root)
        up[r] = root;
    }
    if (inner) up[v] = root;
    set_of_[v] = acc;
  }
  sets_.shrink_to_fit();

  // Each input's planes: the first slot into each distinct class of its
  // children, in incidence order. A terminal child is a plane of its own
  // (its id is no other class's root).
  plane_begin_.assign(net.inputs.size() + 1, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> firsts;  // (class, slot)
  for (std::size_t i = 0; i < net.inputs.size(); ++i) {
    const auto tgts = g.out_targets(net.inputs[i]);
    firsts.clear();
    for (std::uint32_t slot = 0; slot < tgts.size(); ++slot)
      firsts.emplace_back(
          up[tgts[slot]] == kTerminal ? tgts[slot] : find(tgts[slot]), slot);
    std::sort(firsts.begin(), firsts.end());
    const std::size_t b = plane_slot_.size();
    for (std::size_t j = 0; j < firsts.size(); ++j)
      if (j == 0 || firsts[j].first != firsts[j - 1].first)
        plane_slot_.push_back(firsts[j].second);
    std::sort(plane_slot_.begin() + static_cast<std::ptrdiff_t>(b),
              plane_slot_.end());
    plane_begin_[i + 1] = static_cast<std::uint32_t>(plane_slot_.size());
  }
  // Sets are distinct by content, so at most one holds every output.
  full_set_ = static_cast<std::uint32_t>(set_count());
  for (std::size_t id = 0; id < set_count(); ++id) {
    const std::uint64_t* s = sets_.data() + id * words_;
    std::size_t bits = 0;
    for (std::size_t w = 0; w < words_; ++w)
      bits += static_cast<std::size_t>(std::popcount(s[w]));
    if (bits == outs) full_set_ = static_cast<std::uint32_t>(id);
  }
}

}  // namespace ftcs::core
