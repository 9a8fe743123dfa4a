// Shared reach-guided depth-first search over idle vertices.
//
// §4: "because the contained network is strictly nonblocking, routing can
// be performed by a greedy application of a standard path-finding
// algorithm" — any idle path will do, so the routers take the first one a
// depth-first search finds. The search lives here so the single-thread and
// concurrent routers run the SAME search (same expansion order, same
// tie-breaks — the 1-worker ConcurrentRouter is path-for-path identical to
// GreedyRouter by construction). The busy test is a template parameter:
// GreedyRouter plugs in a plain util::Bitset read, ConcurrentRouter a
// relaxed AtomicBitset read (optimistic dirty snapshot, re-validated later
// by CAS claiming). The edge_blocked test likewise carries the routers'
// liveness overlay (runtime switch failures) alongside any static fault
// mask, so the search routes around open-failed switches with no state of
// its own.
//
// The walk: an explicit stack of (vertex, cursor) frames starting at src.
// The top frame advances its cursor over the vertex's out-edges to the
// first usable child — switch not blocked, child idle, not yet stamped this
// search — stamps it, records parent_f, and pushes it; a frame whose cursor
// runs out is popped (backtrack). The first arrival at dst ends the search,
// so the path is the stack itself and parent_f walks it back from dst. A
// vertex is stamped once per search, so the work is bounded by the vertices
// and edges of the idle part of the network.
//
// Guidance: core::ReachIndex (ftcs/reach_index.hpp) knows, for every vertex,
// the outputs it can reach in the healthy network. With no live weld the
// search skips every child that cannot reach the requested output: busy
// vertices, dead vertices and open faults only remove paths, so the static
// index is a sound filter and verdicts stay exact. On the staged §6
// networks this keeps the walk inside the output's cone, and the search
// stamps little more than the path it returns.
//
// The returned path is AN idle path, not necessarily a shortest one: it is
// shortest wherever every input->output path has the same length (Cantor,
// crossbar, the §6 FT network), and may be longer elsewhere.
//
// CLOSED (stuck-on) failures — the paper's §2 contraction — ride the
// edge_contracted predicate: a welded switch conducts in BOTH directions,
// so a contracted in-edge w->u is also a hop u->w. Occupancy is still
// enforced on the hop's target (the merged electrical node carries at most
// one call) and the settled path claims every vertex it crosses as usual.
// Reverse conductors can reach outputs the static index does not know
// about, so under welds the search prunes nothing: each frame tries the
// in-cone children first, then the others, then the reverse hops over
// contracted in-edges (the cursor runs through the three ranges in turn).
// Reachability — the property the offline contraction equivalence pins —
// is exact. The machinery is a COMPILE-TIME branch (`kContraction`): the
// dispatcher instantiates the contraction-free variant until a stuck-on
// event exists.
//
// Dirty snapshots: every parent_f entry is written on the single stamp of
// its vertex, to the frame below it on the stack, so the chain from dst is
// always a real src..dst path even when relaxed busy reads disagree between
// probes of one vertex.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftcs/reach_index.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ftcs::core::detail {

/// Per-searcher scratch, sized once with init(); no allocation afterwards.
/// Epoch-stamped visited array: one bulk clear per 2^32 searches.
struct SearchScratch {
  struct Frame {
    graph::VertexId v;
    std::uint32_t cursor;  // next incidence slot to try
  };
  std::vector<std::uint32_t> epoch_f;    // visited stamps
  std::vector<graph::VertexId> parent_f;  // toward the input
  std::vector<Frame> stack;              // the current partial path
  std::uint32_t epoch = 0;

  void init(std::size_t v_count) {
    epoch_f.assign(v_count, 0);
    parent_f.assign(v_count, graph::kNoVertex);
    stack.resize(v_count);
    epoch = 0;
  }
};

/// The search body; kContraction selects the stuck-on machinery at compile
/// time. Use the find_idle_path dispatcher below.
template <bool kContraction, class BusyFn, class EdgeBlockedFn,
          class EdgeContractedFn>
[[nodiscard]] graph::VertexId find_idle_path_impl(
    const graph::CsrGraph& g, const ReachIndex::Probe in_cone,
    graph::VertexId src, graph::VertexId dst, SearchScratch& s,
    std::uint64_t& visited, BusyFn&& is_busy, EdgeBlockedFn&& edge_blocked,
    EdgeContractedFn&& edge_contracted) {
  if (++s.epoch == 0) {  // epoch wrap: one bulk clear per 2^32 searches
    std::fill(s.epoch_f.begin(), s.epoch_f.end(), 0u);
    s.epoch = 1;
  }
  const std::uint32_t epoch = s.epoch;
  s.epoch_f[src] = epoch;
  s.parent_f[src] = graph::kNoVertex;
  if (src == dst) return dst;

  const auto usable = [&](graph::VertexId v) {
    return s.epoch_f[v] != epoch && !is_busy(v);
  };
  std::uint64_t stamped = 0;
  graph::VertexId found = graph::kNoVertex;
  std::size_t top = 0;
  s.stack[top++] = {src, 0};
  while (top > 0) {
    SearchScratch::Frame& f = s.stack[top - 1];
    const auto eids = g.out_edges(f.v);
    const auto tgts = g.out_targets(f.v);
    const auto deg = static_cast<std::uint32_t>(eids.size());
    graph::VertexId next = graph::kNoVertex;
    if constexpr (!kContraction) {
      while (f.cursor < deg) {
        const std::uint32_t i = f.cursor++;
        const graph::VertexId v = tgts[i];
        if (in_cone(v) && usable(v) && !edge_blocked(eids[i])) {
          next = v;
          break;
        }
      }
    } else {
      // Cursor ranges: [0, deg) in-cone children, [deg, 2 deg) the other
      // children, then [2 deg, 2 deg + in-degree) reverse hops over
      // contracted in-edges.
      while (f.cursor < 2 * deg) {
        const std::uint32_t c = f.cursor++;
        const std::uint32_t i = c < deg ? c : c - deg;
        const graph::VertexId v = tgts[i];
        if (in_cone(v) == (c < deg) && usable(v) && !edge_blocked(eids[i])) {
          next = v;
          break;
        }
      }
      if (next == graph::kNoVertex) {
        const auto reids = g.in_edges(f.v);
        const auto rsrcs = g.in_sources(f.v);
        while (f.cursor < 2 * deg + reids.size()) {
          const std::uint32_t i = f.cursor++ - 2 * deg;
          const graph::VertexId v = rsrcs[i];
          if (usable(v) && edge_contracted(reids[i]) &&
              !edge_blocked(reids[i])) {
            next = v;
            break;
          }
        }
      }
    }
    if (next == graph::kNoVertex) {
      --top;  // every child tried: backtrack
      continue;
    }
    s.epoch_f[next] = epoch;
    s.parent_f[next] = f.v;
    ++stamped;
    if (next == dst) {
      found = dst;
      break;
    }
    s.stack[top++] = {next, 0};
  }
  visited += stamped;
  return found;
}

/// Finds an idle src->dst path, where dst is the output `in_cone` probes
/// (ReachIndex::probe). Returns dst (parent_f in `s` walks the path back to
/// src) or graph::kNoVertex if no idle path exists. `is_busy(v)` and
/// `edge_blocked(e)` gate expansion; `edge_contracted(e)` marks stuck-on
/// switches that also conduct against their direction. `contraction_live`
/// selects the instantiation: false runs the contraction-free hot path.
/// `visited` accumulates stamped vertices for RouterStats. Allocation-free.
template <class BusyFn, class EdgeBlockedFn, class EdgeContractedFn>
[[nodiscard]] graph::VertexId find_idle_path(
    const graph::CsrGraph& g, const ReachIndex::Probe in_cone,
    graph::VertexId src, graph::VertexId dst, SearchScratch& s,
    std::uint64_t& visited, BusyFn&& is_busy, EdgeBlockedFn&& edge_blocked,
    EdgeContractedFn&& edge_contracted, bool contraction_live) {
  if (contraction_live)
    return find_idle_path_impl<true>(
        g, in_cone, src, dst, s, visited, static_cast<BusyFn&&>(is_busy),
        static_cast<EdgeBlockedFn&&>(edge_blocked),
        static_cast<EdgeContractedFn&&>(edge_contracted));
  return find_idle_path_impl<false>(
      g, in_cone, src, dst, s, visited, static_cast<BusyFn&&>(is_busy),
      static_cast<EdgeBlockedFn&&>(edge_blocked),
      static_cast<EdgeContractedFn&&>(edge_contracted));
}

}  // namespace ftcs::core::detail
