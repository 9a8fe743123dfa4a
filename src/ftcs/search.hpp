// Shared reach-guided depth-first search over idle vertices.
//
// §4: "because the contained network is strictly nonblocking, routing can
// be performed by a greedy application of a standard path-finding
// algorithm" — any idle path will do, so the router takes the first one a
// depth-first search finds, with its first hop started in a plane chosen by
// the output (below). core::Router (ftcs/router.hpp) calls it from one
// site, so one request sequence gives one sequence of paths, on either
// service plane. The edge_blocked test
// carries the router's liveness overlay (its failed switches), which is
// stable for the whole search (the router flips it only between connects),
// so the search routes around open-failed switches with no state of its
// own.
//
// The walk: an explicit stack of (vertex, cursor) frames starting at src.
// The top frame advances its cursor over the vertex's out-edges to the
// next usable child — switch not blocked, child idle, not yet visited this
// search — marks it visited and pushes it; a frame whose cursor runs out is
// popped (backtrack). The first arrival at dst pushes dst and ends the
// search, so the stack IS the path: SearchScratch::path() is stack[0,
// depth), src first and dst last, and the router's settle reads it there. A
// vertex is visited once per search, so the work is bounded by the
// vertices and edges of the idle part of the network.
//
// Visited state: one bit per vertex, all zero between searches. A search
// lists every vertex it marks and zeroes their bitset words before it
// returns, whatever the verdict, so the router's resident scratch is the
// V-bit set plus the stack and list entries its searches touch (both are
// allocated without being written: untouched pages cost nothing).
//
// Prefetch: a frame's first entry issues prefetches for each child's
// reach-set id (ReachIndex::Probe::prefetch) and CSR offset row
// (CsrGraph::prefetch_out), so on a network beyond the cache the cone tests
// of the later children and the next frame's adjacency load overlap with
// the current test instead of waiting on one another. Prefetches change no
// result, only when the lines arrive.
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
// visits little more than the path it returns.
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
// nothing reachable from them can reach dst, so the search visits the same
// dst-reaching vertices in the same order and returns the same path as
// with `reaches_weld` always true; only the visits fall. Reachability —
// the property the offline contraction equivalence pins — is exact. The
// machinery is a COMPILE-TIME branch (`kContraction`): the dispatcher
// instantiates the contraction-free variant until a stuck-on event exists.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "ftcs/reach_index.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ftcs::core::detail {

/// Per-searcher scratch, sized once with init(); no allocation afterwards.
struct SearchScratch {
  struct Frame {
    graph::VertexId v;
    std::uint32_t cursor;  // next incidence slot to try
  };
  std::unique_ptr<std::uint64_t[]> seen;  // visited bits; zero between searches
  std::unique_ptr<graph::VertexId[]> marked;  // vertices the search marked
  std::unique_ptr<Frame[]> stack;  // the partial path; the path once found
  std::uint32_t depth = 0;  // frames of the last search's path (0: none)

  void init(std::size_t v_count) {
    seen = std::make_unique<std::uint64_t[]>((v_count + 63) / 64);
    marked = std::make_unique_for_overwrite<graph::VertexId[]>(v_count);
    stack = std::make_unique_for_overwrite<Frame[]>(v_count);
    depth = 0;
  }
  /// The last search's path, src first and dst last (empty if none).
  [[nodiscard]] std::span<const Frame> path() const noexcept {
    return {stack.get(), depth};
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
  std::uint64_t* const seen = s.seen.get();
  graph::VertexId* const list = s.marked.get();
  SearchScratch::Frame* const stack = s.stack.get();
  const auto bit = [](graph::VertexId v) {
    return std::uint64_t{1} << (v & 63);
  };
  std::size_t marked = 0;
  const auto mark = [&](graph::VertexId v) {
    seen[v >> 6] |= bit(v);
    list[marked++] = v;
  };
  const auto usable = [&](graph::VertexId v) {
    return (seen[v >> 6] & bit(v)) == 0 && !is_busy(v);
  };
  std::size_t top = 0;
  stack[top++] = {src, 0};
  if (src == dst) {
    s.depth = 1;
    return dst;
  }
  mark(src);
  while (top > 0) {
    SearchScratch::Frame& f = stack[top - 1];
    const auto eids = g.out_edges(f.v);
    const auto tgts = g.out_targets(f.v);
    const auto deg = static_cast<std::uint32_t>(eids.size());
    if (f.cursor == 0)
      for (const graph::VertexId v : tgts) {
        in_cone.prefetch(v);
        g.prefetch_out(v);
      }
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
    mark(next);
    stack[top++] = {next, 0};
    if (next == dst) break;  // the stack is the path
  }
  visited += marked - 1;
  for (std::size_t i = 0; i < marked; ++i) seen[list[i] >> 6] = 0;
  s.depth = static_cast<std::uint32_t>(top);
  return top == 0 ? graph::kNoVertex : dst;
}

/// Finds an idle src->dst path, where dst is the output `in_cone` probes
/// (ReachIndex::probe). The first hop is tried from src's out-edge slot
/// `first` (< src's out-degree, or 0) cyclically on; the router passes
/// ReachIndex::first_hop(in, out), and 0 gives the plain incidence order.
/// Returns dst (`s.path()` is the path src..dst) or graph::kNoVertex if no
/// idle path exists (`s.path()` is empty). `is_busy(v)` and
/// `edge_blocked(e)` gate expansion; `edge_contracted(e)` marks stuck-on
/// switches that also conduct against their direction, and
/// `reaches_weld(v)` admits out-of-cone children while they do (true iff v
/// reaches a live weld's head forward; always true reproduces the unpruned
/// walk, path for path). `contraction_live` selects the instantiation:
/// false runs the contraction-free hot path. `visited` accumulates the
/// vertices the search marked besides src, for RouterStats.
/// Allocation-free; leaves every visited bit of `s` zero.
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
