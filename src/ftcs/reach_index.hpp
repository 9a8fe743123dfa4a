// Static reach index: for every vertex, the set of outputs it can reach
// along forward switches of the healthy network.
//
// The routers' depth-first search (ftcs/search.hpp) asks one question per
// candidate hop — can this vertex still reach the requested output? — and
// skips every child whose answer is no, so on the staged §6 networks the
// search walks straight down the output's cone instead of flooding the
// graph. Runtime state only ever REMOVES paths (busy vertices, open-failed
// switches, dead vertices), so an index built once over the full network is
// a sound filter for as long as no stuck-on weld adds a reverse conductor;
// the search stops pruning while welds exist.
//
// Layout: each vertex holds one uint32 set id into a deduplicated table of
// ceil(outputs/64)-word bitsets. Staged networks share few distinct sets
// (cantor-k9: 88.6k vertices, 1024 sets, ~410 KB in all). The build walks
// the vertices in reverse topological order (Kahn on out-degree), folds each
// vertex's children with unions memoized on the pair of set ids, and dedupes
// every result by content. A graph with a directed cycle gets the exact-
// nothing fallback: one full set for every vertex, so the filter never
// prunes and the search stays exact.
#pragma once

#include <cstddef>
#include <cstdint>
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
  bool exact_ = true;
};

}  // namespace ftcs::core
