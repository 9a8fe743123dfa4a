// The single-pair search (ftcs/search.hpp) against an independent
// reference.
//
// The routers' search is a direction-optimizing bidirectional BFS: each
// level expands top-down or, once a frontier outgrows the unvisited set, by
// a bottom-up bitmap sweep. Every connect of a contraction-free trace is
// checked against graph::shortest_path — a plain BFS over the router's busy
// and failed-switch state captured just before the connect — so the verdict
// and the path length must match. Under welds (runtime contraction) the 0-1
// cost labels depend on discovery order, so the welded pins check every
// settled path hop by hop and compare verdicts with plain-BFS reachability
// on the offline contracted network (fault::repair_by_contraction).
//
//  - churn traces on cantor, both engines (GreedyRouter and a one-worker
//    ConcurrentRouter), healthy and degraded (failed switches);
//  - a fan-out network that deterministically trips the bottom-up
//    heuristic (bottom_up_levels > 0), healthy, degraded and welded, both
//    engines — including the sweep's reverse-conduction probe;
//  - the per-direction visit split adds up to vertices_visited;
//  - the weld-free first-meet stop keeps every routed path of a seeded
//    churn (a digest recorded from the search that ran every level to its
//    end) while visiting fewer vertices.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/repair.hpp"
#include "ftcs/concurrent_router.hpp"
#include "ftcs/router.hpp"
#include "graph/algorithms.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

constexpr auto kNone = static_cast<std::uint32_t>(-1);  // both routers'
                                                        // kNoCall value

/// Is u -> v traversable for a settled path: a usable forward switch, or a
/// usable stuck-on (welded) switch v -> u conducting in reverse.
template <class Router>
bool hop_ok(const Router& r, const graph::CsrGraph& g, graph::VertexId u,
            graph::VertexId v) {
  {
    const auto eids = g.out_edges(u);
    const auto tgts = g.out_targets(u);
    for (std::size_t i = 0; i < eids.size(); ++i)
      if (tgts[i] == v && r.edge_usable(eids[i])) return true;
  }
  const auto eids = g.out_edges(v);
  const auto tgts = g.out_targets(v);
  for (std::size_t i = 0; i < eids.size(); ++i)
    if (tgts[i] == u && r.edge_usable(eids[i]) && r.edge_contracted(eids[i]))
      return true;
  return false;
}

template <class Router>
void expect_valid_path(const Router& r, const graph::CsrGraph& g,
                       const std::vector<graph::VertexId>& path) {
  ASSERT_GE(path.size(), 2u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_TRUE(hop_ok(r, g, path[i], path[i + 1]))
        << "hop " << path[i] << " -> " << path[i + 1] << " is not an edge";
}

/// Routes in -> out on `session` and checks the verdict and the path length
/// against graph::shortest_path over `router`'s busy vertices and unusable
/// switches as they were just before the connect. Works for GreedyRouter
/// (router == session) and ConcurrentRouter::Worker. Returns the call.
template <class Router, class Session>
std::uint32_t connect_checked(const Router& router, Session& session,
                              const graph::Network& net, std::uint32_t in,
                              std::uint32_t out) {
  const graph::CsrGraph& g = net.g;
  const bool idle = router.input_idle(in) && router.output_idle(out);
  std::vector<std::uint8_t> busy(g.vertex_count());
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    busy[v] = router.is_busy(v) ? 1 : 0;
  std::vector<std::uint8_t> unusable(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e)
    unusable[e] = router.edge_usable(e) ? 0 : 1;

  const std::uint32_t call = session.connect(in, out);
  if (!idle) {
    EXPECT_EQ(call, kNone) << "busy terminal admitted";
    return call;
  }
  const graph::VertexId src[] = {net.inputs[in]};
  std::vector<std::uint8_t> target(g.vertex_count(), 0);
  target[net.outputs[out]] = 1;
  const auto ref = graph::shortest_path(g, src, target, busy, unusable);
  EXPECT_EQ(call != kNone, ref.has_value())
      << "verdict differs from plain BFS for (" << in << "," << out << ")";
  if (call != kNone && ref) {
    EXPECT_EQ(session.path_length(call), ref->size())
        << "not a shortest idle path for (" << in << "," << out << ")";
  }
  return call;
}

void expect_visit_split(const core::RouterStats& s) {
  EXPECT_EQ(s.visits_forward + s.visits_backward, s.vertices_visited);
  EXPECT_GT(s.vertices_visited, 0u);
}

/// Random connect/disconnect churn, every connect checked by
/// connect_checked() and every settled path hop by hop.
template <class Router, class Session>
void run_reference_trace(const Router& router, Session& session,
                         const graph::Network& net, std::uint64_t seed,
                         std::size_t ops) {
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> active;
  std::size_t accepted = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active.size());
      session.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const auto call = connect_checked(router, session, net, in, out);
    if (call == kNone) continue;
    expect_valid_path(router, net.g, session.path_of(call));
    active.push_back(call);
    ++accepted;
  }
  ASSERT_GT(accepted, 0u);
  for (const auto c : active) session.disconnect(c);
  EXPECT_EQ(router.busy_vertices(), 0u);
  expect_visit_split(router.stats());
}

/// Verdict oracle for welded routing between idle terminals: plain-BFS
/// reachability on the offline rebuild that contracts every switch in
/// `welds` (a pure closed-failure instance, so no vertex is discarded and
/// terminal indices carry over). reach[in][out].
std::vector<std::vector<bool>> contracted_reachability(
    const graph::Network& net, const std::vector<graph::EdgeId>& welds) {
  std::vector<fault::Failure> failures;
  for (const auto e : welds)
    failures.push_back({e, fault::SwitchState::kClosedFail});
  const fault::FaultInstance inst(net, std::move(failures));
  const auto rebuilt = fault::repair_by_contraction(inst, false);
  EXPECT_EQ(rebuilt.net.inputs.size(), net.inputs.size());
  EXPECT_EQ(rebuilt.net.outputs.size(), net.outputs.size());
  const graph::CsrGraph& g = rebuilt.net.g;
  std::vector<std::vector<bool>> reach(net.inputs.size());
  for (std::size_t i = 0; i < net.inputs.size(); ++i) {
    const graph::VertexId src[] = {rebuilt.net.inputs[i]};
    for (std::size_t o = 0; o < net.outputs.size(); ++o) {
      std::vector<std::uint8_t> target(g.vertex_count(), 0);
      target[rebuilt.net.outputs[o]] = 1;
      reach[i].push_back(graph::shortest_path(g, src, target).has_value());
    }
  }
  return reach;
}

/// Stateless welded trace: route one pair at a time (connect, check,
/// disconnect) so every connect sees an idle network; verdicts must match
/// the offline contraction and every path must be electrically sound.
template <class Router, class Session>
void run_welded_trace(Router& router, Session& session,
                      const graph::Network& net,
                      const std::vector<graph::EdgeId>& welds,
                      std::uint64_t seed, int trials) {
  for (const auto e : welds) router.contract_edge(e);
  const auto reach = contracted_reachability(net, welds);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(seed);
  std::size_t routed = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const auto call = session.connect(in, out);
    ASSERT_EQ(call != kNone, reach[in][out])
        << "welded verdict differs from the offline contraction at trial "
        << trial;
    if (call == kNone) continue;
    expect_valid_path(router, net.g, session.path_of(call));
    session.disconnect(call);
    ++routed;
  }
  ASSERT_GT(routed, 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  expect_visit_split(router.stats());
}

std::vector<graph::EdgeId> every_nth_edge(const graph::Network& net,
                                          graph::EdgeId first,
                                          graph::EdgeId step) {
  std::vector<graph::EdgeId> out;
  for (graph::EdgeId e = first; e < net.g.edge_count(); e += step)
    out.push_back(e);
  return out;
}

TEST(Search, GreedyChurnMatchesPlainBfs) {
  const auto net = networks::build_cantor({4, 0});
  core::GreedyRouter r(net);
  run_reference_trace(r, r, net, 2024, 800);
}

TEST(Search, ConcurrentWorkerChurnMatchesPlainBfs) {
  const auto net = networks::build_cantor({4, 0});
  core::ConcurrentRouter r(net, 1);
  run_reference_trace(r, r.worker(0), net, 2024, 800);
}

TEST(Search, DegradedOverlayChurnMatchesPlainBfs) {
  // A deterministic spread of failed switches; contraction stays off, so
  // costs stay unit and plain BFS around the failures is exact.
  const auto net = networks::build_cantor({4, 0});
  core::GreedyRouter g(net);
  core::ConcurrentRouter c(net, 1);
  for (const auto e : every_nth_edge(net, 3, 17)) {
    g.fail_edge(e);
    c.fail_edge(e);
  }
  run_reference_trace(g, g, net, 4711, 800);
  run_reference_trace(c, c.worker(0), net, 4711, 800);
}

TEST(Search, WeldedCantorVerdictsMatchOfflineContraction) {
  const auto net = networks::build_cantor({4, 0});
  const auto welds = every_nth_edge(net, 5, 29);
  core::GreedyRouter g(net);
  run_welded_trace(g, g, net, welds, 99, 400);
  core::ConcurrentRouter c(net, 1);
  run_welded_trace(c, c.worker(0), net, welds, 99, 400);
}

/// FNV-1a digest of a seeded connect/disconnect churn: every routed path's
/// vertices in order, and a marker per connect (so rejects count too).
/// Returns {digest, vertices_visited}.
template <class Router, class Session>
std::pair<std::uint64_t, std::uint64_t> churn_path_digest(
    const Router& router, Session& session, const graph::Network& net,
    std::uint64_t seed, std::size_t ops) {
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> active;
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() && rng.below(2) == 0) {
      const auto idx = rng.below(active.size());
      session.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const auto call = session.connect(in, out);
    if (call != kNone) {
      for (const auto v : session.path_of(call)) mix(v);
      active.push_back(call);
    }
    mix(kNone);
  }
  for (const auto c : active) session.disconnect(c);
  EXPECT_EQ(router.busy_vertices(), 0u);
  expect_visit_split(router.stats());
  return {h, router.stats().vertices_visited};
}

// First-meet stop: with no live weld the search ends a level at its first
// meet. Both constants were recorded from the search that ran every level
// to its end: the digest must match (same paths, same verdicts) and the
// visit total must drop.
TEST(Search, FirstMeetStopKeepsEveryPathAndVisitsLess) {
  constexpr std::uint64_t kPathDigest = 11446843375804875499ull;
  constexpr std::uint64_t kFullLevelVisits = 4180240;
  const auto net = networks::build_cantor({6, 0});
  core::GreedyRouter g(net);
  const auto [g_digest, g_visits] = churn_path_digest(g, g, net, 401, 6000);
  core::ConcurrentRouter c(net, 1);
  const auto [c_digest, c_visits] =
      churn_path_digest(c, c.worker(0), net, 401, 6000);
  EXPECT_EQ(g_digest, kPathDigest);
  EXPECT_EQ(c_digest, kPathDigest);
  EXPECT_EQ(g_visits, c_visits);
  EXPECT_LT(g_visits, kFullLevelVisits);
}

// ---------------------------------------------------------------------------
// Bottom-up trigger coverage. Bidirectional frontiers on the layered nets
// stay near-balanced, so the heuristic rarely fires there; this fan-out net
// makes it fire deterministically: after one hop the forward frontier {hub}
// carries `mids` edges while almost every vertex is still unvisited, so
//   fedges * alpha * V > (V - stamped) * E
// holds at the second forward level.
//
//   in -> hub -> mid[0..mids) -> join -> out      (+ optionally back -> hub
//   and back -> join, giving the sweep a reverse-conduction probe target
//   when back->hub is welded shut).
// ---------------------------------------------------------------------------

struct Star {
  graph::Network net;
  graph::VertexId in, hub, join, out, back;
  graph::EdgeId back_to_hub;  // the weldable reverse conductor
};

Star build_star(std::size_t mids, bool with_back) {
  graph::NetworkBuilder nb;
  Star s;
  s.in = nb.g.add_vertex();
  s.hub = nb.g.add_vertex();
  std::vector<graph::VertexId> mid(mids);
  for (auto& m : mid) m = nb.g.add_vertex();
  s.join = nb.g.add_vertex();
  s.out = nb.g.add_vertex();
  s.back = graph::kNoVertex;
  s.back_to_hub = static_cast<graph::EdgeId>(-1);
  nb.g.add_edge(s.in, s.hub);
  for (const auto m : mid) nb.g.add_edge(s.hub, m);
  for (const auto m : mid) nb.g.add_edge(m, s.join);
  nb.g.add_edge(s.join, s.out);
  if (with_back) {
    s.back = nb.g.add_vertex();
    s.back_to_hub = nb.g.add_edge(s.back, s.hub);  // points AWAY from out
    nb.g.add_edge(s.back, s.join);
  }
  nb.inputs = {s.in};
  nb.outputs = {s.out};
  nb.name = "fanout-star";
  s.net = nb.finalize();
  return s;
}

/// One healthy and one degraded connect on the star, both checked against
/// plain BFS; the healthy one must have run a bottom-up level.
template <class Router, class Session>
void expect_star_matches_plain_bfs(Router& router, Session& session,
                                   const graph::Network& net) {
  const auto c = connect_checked(router, session, net, 0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(session.path_length(c), 5u);  // in, hub, mid, join, out
  expect_valid_path(router, net.g, session.path_of(c));
  EXPECT_GT(router.stats().bottom_up_levels, 0u)
      << "the fan-out level should have tripped the bottom-up heuristic";
  session.disconnect(c);

  // Degraded: fail most of the fan; the search must still route through a
  // surviving mid.
  for (graph::EdgeId e = 1; e <= 256; e += 2)  // hub->mid edges are 1..256
    router.fail_edge(e);
  const auto d = connect_checked(router, session, net, 0, 0);
  ASSERT_NE(d, kNone);
  expect_valid_path(router, net.g, session.path_of(d));
  session.disconnect(d);
  EXPECT_EQ(router.busy_vertices(), 0u);
  expect_visit_split(router.stats());
}

TEST(Search, BottomUpSweepMatchesPlainBfsOnBothEngines) {
  const auto star = build_star(256, false);
  core::GreedyRouter g(star.net);
  expect_star_matches_plain_bfs(g, g, star.net);
  core::ConcurrentRouter c(star.net, 1);
  expect_star_matches_plain_bfs(c, c.worker(0), star.net);
}

TEST(Search, BottomUpWeldedOverlayMatchesOfflineContraction) {
  // Weld back->hub shut: it conducts both ways for free, so the cheapest
  // route is in, hub, back, join, out (2 unit hops + the weld + join->out)
  // and the forward sweep can only discover `back` through its
  // reverse-conduction probe (back has no in-edges; its out-edge points
  // INTO the frontier).
  const auto star = build_star(256, true);
  const std::vector<graph::EdgeId> welds{star.back_to_hub};
  core::GreedyRouter g(star.net);
  run_welded_trace(g, g, star.net, welds, 7, 1);
  EXPECT_GT(g.stats().bottom_up_levels, 0u);
  core::ConcurrentRouter c(star.net, 1);
  run_welded_trace(c, c.worker(0), star.net, welds, 7, 1);
  EXPECT_GT(c.stats().bottom_up_levels, 0u);
}

}  // namespace
}  // namespace ftcs
