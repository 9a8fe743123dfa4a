// Live Lemma 7 short detection: incremental electrical-node tracking over
// the CURRENT set of stuck-on (closed-failure) switches.
//
// FaultInstance::contraction() answers the short question offline, for one
// frozen fault set. The runtime fault plane needs the same answer after
// every inject()/repair(): §2's closed failure welds a switch conducting,
// contracting its endpoints into one electrical node, and Lemma 7's
// catastrophe is two distinct terminals landing in the same node — from that
// moment the exchange is electrically compromised no matter what the router
// does. WeldComponents maintains the contraction union-find incrementally:
//   add_weld(e)     unites e's endpoints             — O(α) amortized
//   remove_weld(e)  re-contracts the surviving welds  — O(welds·α)
//   shorted_pair()  the shorted node of lowest root   — O(welds·α)
// Union-find does not un-union, so a repair resets and replays. Only weld
// endpoints ever leave their pristine state (every non-singleton node is
// made of weld endpoints, and the census is written at roots only), so the
// reset touches those entries alone, never all V vertices.
//
// Open failures never enter: an open switch ceases to exist and contracts
// nothing (exactly FaultInstance::contraction(), which unites kClosedFail
// edges only). The equivalence is pinned by tests/test_short_alarm.cpp.
//
// Threading: same single-owner contract as the Exchange fault plane — one
// thread at a time, the one that owns every session.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/dsu.hpp"

namespace ftcs::fault {

/// Typed Lemma 7 alarm, carried on FaultImpact and the ops command acks.
/// Raised when the weld chain first bridges two distinct terminals
/// (raised == true, `a`/`b` a genuinely shorted pair) and again when the
/// clearing repair dissolves the last bridge (raised == false, `a`/`b`
/// echo the pair the raise reported). `trigger` is the switch whose event
/// flipped the state; `seq` increments per transition.
struct ShortAlarm {
  graph::VertexId a = graph::kNoVertex;
  graph::VertexId b = graph::kNoVertex;
  graph::EdgeId trigger = graph::kNoEdge;
  bool raised = false;
  std::uint64_t seq = 0;
};

class WeldComponents {
 public:
  WeldComponents() = default;
  /// Binds to `net` (must outlive this object) and starts from the healthy
  /// state: every vertex its own electrical node, no welds.
  explicit WeldComponents(const graph::Network& net);

  /// Records switch `e` welded conducting and contracts its endpoints.
  /// Returns true iff this weld flipped the exchange from un-shorted to
  /// shorted (the Lemma 7 raise edge). Idempotent per edge.
  bool add_weld(graph::EdgeId e);

  /// Records switch `e` repaired and re-contracts the surviving welds in
  /// the order they were added, so the state equals a fresh tracker's
  /// after add_weld() of the survivors. Returns true iff the repair flipped
  /// the exchange from shorted back to un-shorted (the clear edge).
  /// Idempotent per edge.
  bool remove_weld(graph::EdgeId e);

  /// True iff some electrical node currently holds >= 2 distinct terminals
  /// — byte-equivalent to FaultInstance::terminals_shorted() on the same
  /// stuck set.
  [[nodiscard]] bool shorted() const noexcept {
    return shorted_components_ > 0;
  }

  /// A currently-shorted terminal pair (representatives of the offending
  /// electrical node with the lowest root id); nullopt while healthy.
  [[nodiscard]] std::optional<std::pair<graph::VertexId, graph::VertexId>>
  shorted_pair() const;

  [[nodiscard]] std::size_t weld_count() const noexcept {
    return welds_.size();
  }

 private:
  /// Returns vertex `v` to its pristine census: its own node, holding
  /// itself iff it is a terminal.
  void reset_census(graph::VertexId v);
  /// Unites a weld's endpoints and maintains the per-node terminal census.
  void contract(graph::EdgeId e);

  const graph::Network* net_ = nullptr;
  mutable graph::Dsu dsu_;  // find() path-halves; logically const
  std::vector<graph::EdgeId> welds_;        // current stuck-on set, in
                                            // the order added
  std::vector<std::uint8_t> is_welded_;     // by edge id
  std::vector<std::uint8_t> is_terminal_;   // by vertex id (inputs ∪ outputs)
  // Distinct-terminal census per electrical node, valid at DSU roots. An
  // entry >= 2 is a Lemma 7 short; shorted_components_ counts those nodes.
  std::vector<std::uint32_t> terminal_count_;
  // One terminal representative per node (kNoVertex if none), valid at
  // roots; a second terminal merging in yields the diagnostic pair.
  std::vector<graph::VertexId> terminal_rep_;
  std::vector<graph::VertexId> terminal_rep2_;  // second distinct terminal
  std::size_t shorted_components_ = 0;
};

}  // namespace ftcs::fault
