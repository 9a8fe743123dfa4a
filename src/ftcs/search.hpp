// Shared level-synchronized bidirectional BFS over idle vertices.
//
// Extracted from GreedyRouter so the single-thread and concurrent routers
// run the SAME search (same expansion order, same tie-breaks — the
// 1-worker ConcurrentRouter is path-for-path identical to GreedyRouter by
// construction). The busy test is a template parameter: GreedyRouter plugs
// in a plain util::Bitset read, ConcurrentRouter a relaxed AtomicBitset
// read (optimistic dirty snapshot, re-validated later by CAS claiming).
// The edge_blocked test likewise carries the routers' liveness overlay
// (runtime switch failures) alongside any static fault mask, so the search
// routes around open-failed switches with no state of its own: greedy folds
// failed switches into its blocked-edge bitset, the concurrent engine reads
// its AtomicBitset overlay relaxed and re-validates after the claim phase.
//
// CLOSED (stuck-on) failures — the paper's §2 contraction — ride the
// edge_contracted predicate: a contracted switch is permanently conducting,
// so the search crosses it as a FREE hop (cost 0 in the level sync, the 0-1
// BFS discipline: zero-cost discoveries expand within the current level)
// and in BOTH directions (a welded contact carries signal either way, so a
// contracted in-edge of u is a free hop out of u). Occupancy is still
// enforced on the hop's target — the merged electrical node can carry at
// most one call, exactly like the contracted-and-rebuilt network's merged
// vertex — and the settled path claims every vertex it crosses as usual.
// The whole machinery is a COMPILE-TIME branch (`kContraction`): the
// dispatcher instantiates the contraction-free variant until a stuck-on
// event exists, so a network that has never seen one runs the exact
// pre-contraction hot path (measured: the runtime-flag version cost ~15%
// on the greedy churn; this one is noise-level).
//
// Search invariants (unchanged from the PR 1 router):
//   - forward frontier expands out-edges from src, backward in-edges from
//     dst, always the smaller frontier first;
//   - a stamped-but-busy vertex gets no parent and never counts as a
//     meeting point, so every recorded meet lies on a fully idle path;
//   - termination: once best_total <= df + db + 1, every strictly shorter
//     path would already have produced a meet, so the best one is final
//     (with no live welds, already the first meet: see FIRST MEET below).
// With contracted edges the returned path is always a REAL idle path, but
// not necessarily a globally shortest one under the 0-1 metric: a vertex
// first stamped at level d+1 through a normal switch is not re-stamped when
// a later free hop would have reached it at level d (the epoch stamps admit
// one discovery per vertex). Reachability — the property the offline
// contraction equivalence pins — is exact.
//
// DIRECTION OPTIMIZATION: the leveled Cantor/Beneš topologies explode the
// mid-search frontier, and a top-down level pass then scans every edge
// hanging off the frontier. So the search decides per level, per direction,
// whether to expand TOP-DOWN (scan the frontier's out-edges) or BOTTOM-UP
// (mark the frontier in a util::Bitset and sweep every still-unstamped
// vertex, probing its in-edges for a frontier source with early exit — the
// GAPBS trick).
//   Heuristic: expand level bottom-up when
//       frontier_edges * kBottomUpAlpha > unvisited_vertices * avg_degree,
//   evaluated LAZILY at each level's start: a frontier_size * max_degree
//   upper bound screens the level first, and only when that bound could
//   trigger is the exact degree sum taken over the level's queue segment
//   (the bound is conservative, so the decision is identical to tracking
//   frontier edges per push — without the per-push degree load that made
//   the hot visit loop ~20% slower). The test
//   re-evaluates every level, so the search falls back to top-down as soon
//   as the frontier thins (the classic top-down -> bottom-up -> top-down
//   trajectory).
//   Interaction with dirty snapshots: a bottom-up level calls the SAME
//   is_busy/edge_blocked/edge_contracted predicates — relaxed (dirty)
//   overlay reads remain exactly as re-validatable as top-down ones, and
//   both sweep directions stamp the SAME vertex set per completed level
//   (every frontier-adjacent vertex), so busy/overlay races cost retries,
//   never correctness, identically in either sweep direction.
//   Interaction with 0-1 weld levels: bottom-up discoveries over a
//   contracted switch (probed forward along in-edges AND against the edge
//   direction via contracted out-edges) are still free hops — they go to
//   the zero stack and are drained top-down within the current level after
//   the sweep, preserving the 0-1 discipline. One caveat: when a vertex is
//   reachable in the same level both through a normal and a contracted
//   switch, the two sweep orders may assign it a different cost label
//   (first-discovery-wins differs), so under live welds the path returned
//   depends on which sweep ran — it is always a valid idle path. With no
//   welds both sweeps stamp the same vertex set per level, so verdicts and
//   path lengths are those of plain bidirectional BFS over idle vertices.
//
// FIRST MEET: without live welds (kContraction == false) every meet found
// while a level expands has the same total, df + db + 1 — a shorter one
// would have ended the previous level — so the first meet is final and the
// level stops there, top-down and bottom-up alike (the `total < best_total`
// rule could never replace it). Verdicts and paths are those of running
// the level to its end; only the tail of the level's visits is saved. Under
// welds, free hops make meet totals differ within a level, so the
// contraction variant keeps scanning for the best one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "util/bitset.hpp"

namespace ftcs::core::detail {

/// Per-searcher scratch, sized once with init(); no allocation afterwards.
/// Epoch-stamped visited arrays: one bulk clear per 2^32 searches.
struct SearchScratch {
  std::vector<std::uint32_t> epoch_f, epoch_b;  // visited stamps per side
  std::vector<std::uint32_t> dist_f, dist_b;    // valid where stamped
  std::vector<graph::VertexId> parent_f;        // toward the input
  std::vector<graph::VertexId> parent_b;        // toward the output
  std::vector<graph::VertexId> queue_f, queue_b;  // frontier rings
  std::vector<graph::VertexId> zero_f, zero_b;  // free-hop (contracted) stacks
  util::Bitset front_f, front_b;  // bottom-up: current-level frontier bitmaps
  std::uint32_t epoch = 0;

  void init(std::size_t v_count) {
    epoch_f.assign(v_count, 0);
    epoch_b.assign(v_count, 0);
    dist_f.resize(v_count);
    dist_b.resize(v_count);
    parent_f.assign(v_count, graph::kNoVertex);
    parent_b.assign(v_count, graph::kNoVertex);
    queue_f.resize(v_count);
    queue_b.resize(v_count);
    zero_f.resize(v_count);
    zero_b.resize(v_count);
    front_f.resize(v_count);
    front_b.resize(v_count);
    epoch = 0;
  }
};

/// Per-search counters of the direction-optimizing machinery, merged by the
/// routers into RouterStats (kept separate so search.hpp needs no router
/// include). visits_forward + visits_backward equals the `visited` delta.
struct DirStats {
  std::uint64_t bottom_up_levels = 0;  // levels expanded by bottom-up sweep
  std::uint64_t visits_forward = 0;    // stamps by the forward frontier
  std::uint64_t visits_backward = 0;   // stamps by the backward frontier
};

/// Bottom-up switch threshold: expand a level bottom-up when
/// frontier_edges * kBottomUpAlpha > unvisited_vertices * avg_degree.
inline constexpr std::uint64_t kBottomUpAlpha = 4;

/// The search body; kContraction selects the stuck-on machinery at compile
/// time. Use the bidir_shortest_idle_path dispatcher below.
template <bool kContraction, class BusyFn, class EdgeBlockedFn,
          class EdgeContractedFn>
[[nodiscard]] graph::VertexId bidir_shortest_idle_path_impl(
    const graph::CsrGraph& g, graph::VertexId src, graph::VertexId dst,
    SearchScratch& s, std::uint64_t& visited, DirStats& dir, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked, EdgeContractedFn&& edge_contracted) {
  if (++s.epoch == 0) {  // epoch wrap: one bulk clear per 2^32 searches
    std::fill(s.epoch_f.begin(), s.epoch_f.end(), 0u);
    std::fill(s.epoch_b.begin(), s.epoch_b.end(), 0u);
    s.epoch = 1;
  }
  if (src == dst) {
    s.epoch_f[src] = s.epoch;
    s.parent_f[src] = graph::kNoVertex;
    s.dist_f[src] = 0;
    return dst;
  }

  const std::size_t v_count = g.vertex_count();
  const auto e_count = static_cast<std::uint64_t>(g.edge_count());
  graph::VertexId best_meet = graph::kNoVertex;
  std::uint32_t best_total = graph::kNoVertex;  // path length in edges
  s.epoch_f[src] = s.epoch;
  s.parent_f[src] = graph::kNoVertex;
  s.dist_f[src] = 0;
  s.epoch_b[dst] = s.epoch;
  s.parent_b[dst] = graph::kNoVertex;
  s.dist_b[dst] = 0;
  std::size_t fh = 0, ft = 0, bh = 0, bt = 0;
  s.queue_f[ft++] = src;
  s.queue_b[bt++] = dst;
  std::size_t flevel = 1, blevel = 1;  // vertices in the current frontier
  std::uint32_t df = 0, db = 0;        // distance of those frontiers
  // Direction-switch bookkeeping: stamps per side (the unvisited estimate).
  // Frontier edge counts are NOT tracked per push — the level test below
  // screens with flevel * max_degree first and only then sums degrees, so
  // the top-down visit loop carries no degree loads (a per-push degree load
  // alone cost ~20% on the greedy churn).
  std::uint64_t stamped_f = 1, stamped_b = 1;
  const auto max_out = static_cast<std::uint64_t>(g.max_out_degree());
  const auto max_in = static_cast<std::uint64_t>(g.max_in_degree());

  while (flevel > 0 && blevel > 0 && best_total > df + db + 1) {
    if (flevel <= blevel) {
      std::size_t next_level = 0;
      std::size_t zt = 0;  // top of the free-hop stack (current level)
      const auto visit_f = [&](graph::VertexId v, graph::VertexId u,
                               bool free) {
        if (s.epoch_f[v] == s.epoch) return;
        s.epoch_f[v] = s.epoch;
        ++stamped_f;
        if (is_busy(v)) {
          // Record "no parent this epoch" EXPLICITLY. Parent arrays
          // persist across searches, and under a concurrent (dirty) busy
          // view the other side may probe v again after it went idle: a
          // stale parent from an earlier search would then chain a meet
          // through garbage (broken or even cyclic paths).
          s.parent_f[v] = graph::kNoVertex;
          return;
        }
        s.parent_f[v] = u;
        const std::uint32_t dv = free ? df : df + 1;
        s.dist_f[v] = dv;
        if (s.epoch_b[v] == s.epoch && s.parent_b[v] != graph::kNoVertex) {
          const std::uint32_t total = dv + s.dist_b[v];
          if (total < best_total) {
            best_total = total;
            best_meet = v;
          }
          return;  // expanding a meet can never improve on it
        }
        if (v == dst) {  // dst seeded backward with parent kNoVertex
          if (dv < best_total) {
            best_total = dv;
            best_meet = v;
          }
          return;
        }
        if (kContraction && free) {
          s.zero_f[zt++] = v;  // same level: expand before the level ends
        } else {
          s.queue_f[ft++] = v;
          ++next_level;
        }
      };
      const auto expand_f = [&](graph::VertexId u) {
        const auto eids = g.out_edges(u);
        const auto tgts = g.out_targets(u);
        for (std::size_t i = 0; i < eids.size(); ++i) {
          if (edge_blocked(eids[i])) continue;
          visit_f(tgts[i], u, kContraction && edge_contracted(eids[i]));
        }
        if constexpr (kContraction) {
          // A stuck-on switch conducts both ways: a contracted in-edge
          // w->u is a free hop u->w (traversed against the edge direction).
          const auto reids = g.in_edges(u);
          const auto rsrcs = g.in_sources(u);
          for (std::size_t i = 0; i < reids.size(); ++i) {
            if (!edge_contracted(reids[i]) || edge_blocked(reids[i]))
              continue;
            visit_f(rsrcs[i], u, true);
          }
        }
      };
      // Lazy header test: the frontier's edge count is bounded by
      // flevel * max_out, so when the bound can't trigger (the common
      // case) no degrees are read at all; otherwise one degree sum over
      // the level's queue segment decides exactly as the tracked count
      // would (the bound is conservative, never changing the decision).
      const std::uint64_t unvisited_scaled =
          (static_cast<std::uint64_t>(v_count) - stamped_f) * e_count;
      bool bottom_up = false;
      if (static_cast<std::uint64_t>(flevel) * max_out * kBottomUpAlpha *
              static_cast<std::uint64_t>(v_count) >
          unvisited_scaled) {
        std::uint64_t fedges = 0;
        for (std::size_t i = 0; i < flevel; ++i)
          fedges += g.out_degree(s.queue_f[fh + i]);
        bottom_up =
            fedges * kBottomUpAlpha * static_cast<std::uint64_t>(v_count) >
            unvisited_scaled;
      }
      if (!bottom_up) {
        std::size_t n = 0;
        for (;;) {
          graph::VertexId u;
          if (n < flevel) {
            u = s.queue_f[fh++];
            ++n;
          } else if (kContraction && zt > 0) {
            u = s.zero_f[--zt];
          } else {
            break;
          }
          expand_f(u);
          if (!kContraction && best_meet != graph::kNoVertex) break;
        }
      } else {
        ++dir.bottom_up_levels;
        // Mark the level's frontier in the bitmap, then sweep every
        // still-unstamped vertex probing its in-edges for a frontier source
        // (early exit on the first usable one).
        for (std::size_t i = 0; i < flevel; ++i)
          s.front_f.set(s.queue_f[fh + i]);
        for (std::size_t vi = 0; vi < v_count; ++vi) {
          const auto v = static_cast<graph::VertexId>(vi);
          if (s.epoch_f[v] == s.epoch) continue;
          const auto eids = g.in_edges(v);
          const auto srcs = g.in_sources(v);
          graph::VertexId from = graph::kNoVertex;
          bool free = false;
          for (std::size_t k = 0; k < eids.size(); ++k) {
            if (!s.front_f.test(srcs[k])) continue;
            if (edge_blocked(eids[k])) continue;
            from = srcs[k];
            free = kContraction && edge_contracted(eids[k]);
            break;
          }
          if constexpr (kContraction) {
            if (from == graph::kNoVertex) {
              // Reverse conduction, bottom-up view: a contracted out-edge
              // v->w with w in the frontier carries the hop w->v for free.
              const auto oids = g.out_edges(v);
              const auto otgts = g.out_targets(v);
              for (std::size_t k = 0; k < oids.size(); ++k) {
                if (!s.front_f.test(otgts[k])) continue;
                if (!edge_contracted(oids[k]) || edge_blocked(oids[k]))
                  continue;
                from = otgts[k];
                free = true;
                break;
              }
            }
          }
          if (from == graph::kNoVertex) continue;
          visit_f(v, from, free);
          if (!kContraction && best_meet != graph::kNoVertex) break;
        }
        for (std::size_t i = 0; i < flevel; ++i)
          s.front_f.reset(s.queue_f[fh + i]);
        fh += flevel;
        if constexpr (kContraction) {
          // Free-hop closure: zero-cost discoveries expand within the
          // current level, top-down off the stack (the 0-1 discipline is
          // sweep-direction independent).
          while (zt > 0) expand_f(s.zero_f[--zt]);
        }
      }
      flevel = next_level;
      ++df;
    } else {
      std::size_t next_level = 0;
      std::size_t zt = 0;
      const auto visit_b = [&](graph::VertexId v, graph::VertexId u,
                               bool free) {
        if (s.epoch_b[v] == s.epoch) return;
        s.epoch_b[v] = s.epoch;
        ++stamped_b;
        if (is_busy(v)) {  // src/dst rejected upfront if busy
          s.parent_b[v] = graph::kNoVertex;  // see the forward-side note
          return;
        }
        s.parent_b[v] = u;
        const std::uint32_t dv = free ? db : db + 1;
        s.dist_b[v] = dv;
        if (s.epoch_f[v] == s.epoch &&
            (s.parent_f[v] != graph::kNoVertex || v == src)) {
          const std::uint32_t total = s.dist_f[v] + dv;
          if (total < best_total) {
            best_total = total;
            best_meet = v;
          }
          return;
        }
        if (kContraction && free) {
          s.zero_b[zt++] = v;
        } else {
          s.queue_b[bt++] = v;
          ++next_level;
        }
      };
      const auto expand_b = [&](graph::VertexId u) {
        const auto eids = g.in_edges(u);
        const auto srcs = g.in_sources(u);
        for (std::size_t i = 0; i < eids.size(); ++i) {
          if (edge_blocked(eids[i])) continue;
          visit_b(srcs[i], u, kContraction && edge_contracted(eids[i]));
        }
        if constexpr (kContraction) {
          // Reverse conduction: a contracted out-edge u->w means the path
          // segment w -> u is carried by the welded switch for free.
          const auto reids = g.out_edges(u);
          const auto rtgts = g.out_targets(u);
          for (std::size_t i = 0; i < reids.size(); ++i) {
            if (!edge_contracted(reids[i]) || edge_blocked(reids[i]))
              continue;
            visit_b(rtgts[i], u, true);
          }
        }
      };
      // Backward mirror of the lazy header test, over in-degrees.
      const std::uint64_t unvisited_scaled =
          (static_cast<std::uint64_t>(v_count) - stamped_b) * e_count;
      bool bottom_up = false;
      if (static_cast<std::uint64_t>(blevel) * max_in * kBottomUpAlpha *
              static_cast<std::uint64_t>(v_count) >
          unvisited_scaled) {
        std::uint64_t bedges = 0;
        for (std::size_t i = 0; i < blevel; ++i)
          bedges += g.in_degree(s.queue_b[bh + i]);
        bottom_up =
            bedges * kBottomUpAlpha * static_cast<std::uint64_t>(v_count) >
            unvisited_scaled;
      }
      if (!bottom_up) {
        std::size_t n = 0;
        for (;;) {
          graph::VertexId u;
          if (n < blevel) {
            u = s.queue_b[bh++];
            ++n;
          } else if (kContraction && zt > 0) {
            u = s.zero_b[--zt];
          } else {
            break;
          }
          expand_b(u);
          if (!kContraction && best_meet != graph::kNoVertex) break;
        }
      } else {
        ++dir.bottom_up_levels;
        // Backward mirror of the sweep: the backward frontier expands
        // in-edges, so an unstamped v is discovered when one of its
        // OUT-edges points into the frontier.
        for (std::size_t i = 0; i < blevel; ++i)
          s.front_b.set(s.queue_b[bh + i]);
        for (std::size_t vi = 0; vi < v_count; ++vi) {
          const auto v = static_cast<graph::VertexId>(vi);
          if (s.epoch_b[v] == s.epoch) continue;
          const auto eids = g.out_edges(v);
          const auto tgts = g.out_targets(v);
          graph::VertexId from = graph::kNoVertex;
          bool free = false;
          for (std::size_t k = 0; k < eids.size(); ++k) {
            if (!s.front_b.test(tgts[k])) continue;
            if (edge_blocked(eids[k])) continue;
            from = tgts[k];
            free = kContraction && edge_contracted(eids[k]);
            break;
          }
          if constexpr (kContraction) {
            if (from == graph::kNoVertex) {
              // Reverse conduction, bottom-up view: a contracted in-edge
              // w->v with w in the backward frontier carries w -> v, i.e.
              // the backward step v <- w, for free.
              const auto iids = g.in_edges(v);
              const auto isrcs = g.in_sources(v);
              for (std::size_t k = 0; k < iids.size(); ++k) {
                if (!s.front_b.test(isrcs[k])) continue;
                if (!edge_contracted(iids[k]) || edge_blocked(iids[k]))
                  continue;
                from = isrcs[k];
                free = true;
                break;
              }
            }
          }
          if (from == graph::kNoVertex) continue;
          visit_b(v, from, free);
          if (!kContraction && best_meet != graph::kNoVertex) break;
        }
        for (std::size_t i = 0; i < blevel; ++i)
          s.front_b.reset(s.queue_b[bh + i]);
        bh += blevel;
        if constexpr (kContraction) {
          while (zt > 0) expand_b(s.zero_b[--zt]);
        }
      }
      blevel = next_level;
      ++db;
    }
  }
  // Visit counters are derived from the stamp counts AFTER the search (the
  // seed of each side never counts) so the visit loops carry no per-stamp
  // counter traffic.
  visited += (stamped_f - 1) + (stamped_b - 1);
  dir.visits_forward += stamped_f - 1;
  dir.visits_backward += stamped_b - 1;
  return best_meet;
}

/// Finds a shortest idle src->dst path; returns the meeting vertex (parents
/// in `s` recover the two halves) or graph::kNoVertex if no idle path
/// exists. `is_busy(v)` and `edge_blocked(e)` gate expansion;
/// `edge_contracted(e)` marks stuck-on switches crossed as free hops (both
/// directions). `contraction_live` selects the instantiation: false runs
/// the contraction-free hot path. `visited` accumulates stamped vertices for
/// RouterStats, `dir` the per-direction split and bottom-up levels.
/// Allocation-free.
template <class BusyFn, class EdgeBlockedFn, class EdgeContractedFn>
[[nodiscard]] graph::VertexId bidir_shortest_idle_path(
    const graph::CsrGraph& g, graph::VertexId src, graph::VertexId dst,
    SearchScratch& s, std::uint64_t& visited, DirStats& dir, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked, EdgeContractedFn&& edge_contracted,
    bool contraction_live) {
  if (contraction_live)
    return bidir_shortest_idle_path_impl<true>(
        g, src, dst, s, visited, dir, static_cast<BusyFn&&>(is_busy),
        static_cast<EdgeBlockedFn&&>(edge_blocked),
        static_cast<EdgeContractedFn&&>(edge_contracted));
  return bidir_shortest_idle_path_impl<false>(
      g, src, dst, s, visited, dir, static_cast<BusyFn&&>(is_busy),
      static_cast<EdgeBlockedFn&&>(edge_blocked),
      static_cast<EdgeContractedFn&&>(edge_contracted));
}

}  // namespace ftcs::core::detail
