// Shared reach-guided depth-first search over idle vertices.
//
// §4: "because the contained network is strictly nonblocking, routing can
// be performed by a greedy application of a standard path-finding
// algorithm" — any idle path will do, so the router takes the first one a
// depth-first search finds, with its first hop started in a plane chosen by
// the output (below). core::Router (ftcs/router.hpp) calls it from
// one site for both of its busy stores, so a one-session shared router is
// path-for-path identical to the solo router by construction (same
// expansion order, same tie-breaks). The busy test is a template
// parameter: the solo store plugs in a plain util::Bitset read, the shared
// store a relaxed AtomicBitset read (optimistic dirty snapshot, re-validated
// later by CAS claiming). The edge_blocked test likewise carries the
// router's liveness overlay (runtime switch failures) alongside any static
// fault mask, so the search routes around open-failed switches with no
// state of its own.
//
// The walk: an explicit stack of (vertex, cursor) frames starting at src.
// The top frame advances its cursor over the vertex's out-edges to the
// next usable child — switch not blocked, child idle, not yet stamped this
// search — stamps it, records parent_f, and pushes it; a frame whose cursor
// runs out is popped (backtrack). The first arrival at dst ends the search,
// so the path is the stack itself and parent_f walks it back from dst. A
// vertex is stamped once per search, so the work is bounded by the vertices
// and edges of the idle part of the network.
//
// Child order: every frame scans its out-edges in incidence order, except
// the source frame, which starts at slot `first` and runs cyclically over
// all of src's out-edges. The router passes ReachIndex::first_hop(in, out):
// the first child in the plane P(in)[out mod p] (ftcs/reach_index.hpp), so
// calls to different outputs enter different planes (Cantor's Beneš copies)
// instead of all entering the first and backtracking when it is congested
// nearer the output. The start depends only on (in, out), so one request
// sequence still gives one sequence of paths; on the §6 network every
// input's children lie in one plane, `first` is 0 and the order is plain.
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
// about, so under welds a second filter joins it: `reaches_weld(v)` is true
// iff v reaches the head (the edge's `to`, where the reverse hop starts)
// of some live weld forward in the static graph — the router keeps one
// count per vertex (core::Router::weld_reach), read only for out-of-cone
// vertices. Each frame tries the in-cone children first, then the
// out-of-cone children that reach a weld head, then the reverse hops over
// contracted in-edges (the cursor runs through the three ranges in turn;
// the source frame rotates both child passes by `first`, never the reverse
// hops).
// Sound: a vertex that reaches dst over forward hops and reverse weld hops
// either reaches it forward (in cone) or first reaches some weld head
// forward. Reverse hops need no filter, since a weld's tail always reaches
// its head. Only vertices that cannot reach dst at all are skipped, and
// nothing reachable from them can reach dst, so the search stamps the same
// dst-reaching vertices in the same order and returns the same path as
// with `reaches_weld` always true; only the visits fall. Reachability —
// the property the offline contraction equivalence pins — is exact. The
// machinery is a COMPILE-TIME branch (`kContraction`): the dispatcher
// instantiates the contraction-free variant until a stuck-on event exists.
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
          class EdgeContractedFn, class ReachesWeldFn>
[[nodiscard]] graph::VertexId find_idle_path_impl(
    const graph::CsrGraph& g, const ReachIndex::Probe in_cone,
    graph::VertexId src, graph::VertexId dst, std::uint32_t first,
    SearchScratch& s, std::uint64_t& visited, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked, EdgeContractedFn&& edge_contracted,
    ReachesWeldFn&& reaches_weld) {
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
    // Child pass position -> incidence slot: rotated by `first` in the
    // source frame (the stack's bottom), plain everywhere else.
    const std::uint32_t rot = top == 1 ? first : 0;
    const auto slot = [rot, deg](std::uint32_t c) {
      const std::uint32_t i = c + rot;
      return i < deg ? i : i - deg;
    };
    graph::VertexId next = graph::kNoVertex;
    if constexpr (!kContraction) {
      while (f.cursor < deg) {
        const std::uint32_t i = slot(f.cursor++);
        const graph::VertexId v = tgts[i];
        if (in_cone(v) && usable(v) && !edge_blocked(eids[i])) {
          next = v;
          break;
        }
      }
    } else {
      // Cursor ranges: [0, deg) in-cone children, [deg, 2 deg) the other
      // children that reach a weld head, then [2 deg, 2 deg + in-degree)
      // reverse hops over contracted in-edges.
      while (f.cursor < 2 * deg) {
        const std::uint32_t c = f.cursor++;
        const std::uint32_t i = slot(c < deg ? c : c - deg);
        const graph::VertexId v = tgts[i];
        if ((c < deg ? in_cone(v) : !in_cone(v) && reaches_weld(v)) &&
            usable(v) && !edge_blocked(eids[i])) {
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
/// (ReachIndex::probe). The first hop is tried from src's out-edge slot
/// `first` (< src's out-degree, or 0) cyclically on; the router passes
/// ReachIndex::first_hop(in, out), and 0 gives the plain incidence order.
/// Returns dst (parent_f in `s` walks the path back to
/// src) or graph::kNoVertex if no idle path exists. `is_busy(v)` and
/// `edge_blocked(e)` gate expansion; `edge_contracted(e)` marks stuck-on
/// switches that also conduct against their direction, and
/// `reaches_weld(v)` admits out-of-cone children while they do (true iff v
/// reaches a live weld's head forward; always true reproduces the unpruned
/// walk, path for path). `contraction_live` selects the instantiation:
/// false runs the contraction-free hot path. `visited` accumulates stamped
/// vertices for RouterStats. Allocation-free.
template <class BusyFn, class EdgeBlockedFn, class EdgeContractedFn,
          class ReachesWeldFn>
[[nodiscard]] graph::VertexId find_idle_path(
    const graph::CsrGraph& g, const ReachIndex::Probe in_cone,
    graph::VertexId src, graph::VertexId dst, std::uint32_t first,
    SearchScratch& s, std::uint64_t& visited, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked, EdgeContractedFn&& edge_contracted,
    ReachesWeldFn&& reaches_weld, bool contraction_live) {
  if (contraction_live)
    return find_idle_path_impl<true>(
        g, in_cone, src, dst, first, s, visited,
        static_cast<BusyFn&&>(is_busy),
        static_cast<EdgeBlockedFn&&>(edge_blocked),
        static_cast<EdgeContractedFn&&>(edge_contracted),
        static_cast<ReachesWeldFn&&>(reaches_weld));
  return find_idle_path_impl<false>(
      g, in_cone, src, dst, first, s, visited, static_cast<BusyFn&&>(is_busy),
      static_cast<EdgeBlockedFn&&>(edge_blocked),
      static_cast<EdgeContractedFn&&>(edge_contracted),
      static_cast<ReachesWeldFn&&>(reaches_weld));
}

}  // namespace ftcs::core::detail
