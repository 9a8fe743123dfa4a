// Static reach index: for every vertex, the set of outputs it can reach
// along forward switches of the healthy network.
//
// The routers' depth-first search (ftcs/search.hpp) asks one question per
// candidate hop — can this vertex still reach the requested output? — and
// skips every child whose answer is no, so on the staged §6 networks the
// search walks straight down the output's cone instead of flooding the
// graph. Runtime state only ever REMOVES paths (busy vertices, open-failed
// switches, dead vertices), so an index built once over the full network is
// a sound filter for as long as no stuck-on weld adds a reverse conductor.
// While welds exist the search also admits the children that reach a live
// weld's head (the router's per-vertex weld-ancestor counts), so it keeps
// pruning every child that cannot reach the output either way. The router
// keeps those counts only for vertices outside some cone (reaches_all()).
//
// Layout: each vertex holds one uint32 set id into a deduplicated table of
// ceil(outputs/64)-word bitsets. Staged networks share few distinct sets
// (cantor-k9: 88.6k vertices, 1024 sets, ~410 KB in all). The build walks
// the vertices in reverse topological order (Kahn on out-degree), folds each
// vertex's children with unions memoized on the pair of set ids, and dedupes
// every result by content. A graph with a directed cycle gets the exact-
// nothing fallback: one full set for every vertex, so the filter never
// prunes and the search stays exact.
//
// Planes: the connected components of the network with its terminals
// removed, ignoring edge direction (Cantor's Beneš copies; the whole middle
// of the §6 network). The search starts each call's first hop in a plane
// chosen by the output, so calls spread over the planes instead of all
// entering the first and backtracking when it is congested deeper down
// (§4: any idle path will do). For input `in`, P(in) lists the distinct
// planes of its children in incidence order; the table keeps, per input,
// the slot of the first child in each, and first_hop(in, out) is the slot
// for P(in)[out mod |P(in)|]. A terminal child is a plane of its own. A
// cantor-k input enters k planes, one per child; an 𝒩̂ input's children all
// lie in one plane, so its searches keep slot 0. The split is a union-find folded
// into the reverse-topological loop above, on the Kahn counters' storage;
// the fallback lists no planes, so every search starts at slot 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace ftcs::core {

class ReachIndex {
 public:
  ReachIndex() = default;
  /// Indexes `net`; bit i of a set stands for output net.outputs[i].
  explicit ReachIndex(const graph::Network& net);

  /// One output's column of the index, hoisted out of the search loop.
  class Probe {
   public:
    /// True iff `v` can reach the probed output (always, on the fallback).
    [[nodiscard]] bool operator()(graph::VertexId v) const noexcept {
      return (column_[std::size_t{set_of_[v]} * words_] & mask_) != 0;
    }
    /// Starts loading v's set id, the first read of operator()(v).
    void prefetch(graph::VertexId v) const noexcept {
      __builtin_prefetch(set_of_ + v);
    }

   private:
    friend class ReachIndex;
    const std::uint32_t* set_of_ = nullptr;
    const std::uint64_t* column_ = nullptr;  // word of the output's bit, set 0
    std::size_t words_ = 0;
    std::uint64_t mask_ = 0;
  };

  /// The probe for output index `out` (< outputs of the indexed network).
  [[nodiscard]] Probe probe(std::uint32_t out) const noexcept {
    Probe p;
    p.set_of_ = set_of_.data();
    p.column_ = sets_.data() + (out >> 6);
    p.words_ = words_;
    p.mask_ = std::uint64_t{1} << (out & 63);
    return p;
  }
  [[nodiscard]] bool reaches(graph::VertexId v, std::uint32_t out) const {
    return probe(out)(v);
  }
  /// True iff `v` reaches every output, i.e. lies in every output's cone
  /// (always, on the fallback). Every ancestor of such a vertex does too.
  [[nodiscard]] bool reaches_all(graph::VertexId v) const noexcept {
    return set_of_[v] == full_set_;
  }

  /// The slot among input `in`'s out-edges where the search's first hop
  /// starts for output `out`: the first child in plane P(in)[out mod p]
  /// (0 when p = 0: no out-edge, or the cyclic fallback).
  [[nodiscard]] std::uint32_t first_hop(std::uint32_t in,
                                        std::uint32_t out) const noexcept {
    const std::uint32_t b = plane_begin_[in];
    const std::uint32_t p = plane_begin_[in + 1] - b;
    return p == 0 ? 0 : plane_slot_[b + out % p];
  }
  /// The slot of input `in`'s first child in each of its planes P(in), in
  /// incidence order (ascending); its size is the input's plane count p.
  [[nodiscard]] std::span<const std::uint32_t> plane_slots(
      std::uint32_t in) const noexcept {
    return {plane_slot_.data() + plane_begin_[in],
            plane_slot_.data() + plane_begin_[in + 1]};
  }

  /// False iff the network has a directed cycle (every set is then full).
  [[nodiscard]] bool exact() const noexcept { return exact_; }
  /// Sets in the table (distinct by content).
  [[nodiscard]] std::size_t set_count() const noexcept {
    return words_ == 0 ? 0 : sets_.size() / words_;
  }

 private:
  std::size_t words_ = 0;              // words per set
  std::vector<std::uint32_t> set_of_;  // vertex -> set id
  std::vector<std::uint64_t> sets_;    // set id * words_ .. + words_
  std::uint32_t full_set_ = 0;         // the all-outputs set (set_count()
                                       // when no set holds every output)
  bool exact_ = true;
  // Input i's planes: plane_slot_[plane_begin_[i] .. plane_begin_[i + 1]).
  std::vector<std::uint32_t> plane_begin_;
  std::vector<std::uint32_t> plane_slot_;
};

}  // namespace ftcs::core
