// The single-pair search (ftcs/search.hpp) against independent references.
//
// The routers' search is a reach-guided depth-first search: it settles AN
// idle path (the paper's §4 greedy routing needs no more), which is a
// shortest one wherever every input->output path has the same length.
//
//  - churn traces on cantor (one input->output length), on both stores
//    (the typed RouterStores suite, tests/router_stores.hpp), healthy and
//    degraded (failed switches): every connect's verdict and path length
//    match graph::shortest_path, a plain BFS over the router's busy and
//    failed-switch state captured just before the connect;
//  - welded overlays (runtime contraction), where the search stops pruning:
//    verdicts match plain-BFS reachability on the offline contracted
//    network (fault::repair_by_contraction) and every settled path is
//    checked hop by hop;
//  - a seeded cantor-k6 churn: every path is valid, every verdict matches
//    plain BFS and every path has the network's uniform length;
//  - the §4 oracle: on fault-free strictly nonblocking networks (cantor
//    k5-k7, the §6 FT network at nu = 1 and 2, crossbar) no call between
//    idle terminals is ever refused, and every path has the uniform length;
//  - a fan-out net that forces the search to backtrack, healthy, degraded
//    and welded.
// Every test routes through AuditedRouter (router_stores.hpp), so the
// structural audit runs after every operation.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/repair.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/router.hpp"
#include "graph/algorithms.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "util/prng.hpp"
#include "router_stores.hpp"

namespace ftcs {
namespace {

using namespace test;

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

/// Routes in -> out on `router`'s session 0 and checks the verdict and the
/// path length against graph::shortest_path over the router's busy vertices
/// and unusable switches as they were just before the connect. Returns the
/// call.
template <class Router>
std::uint32_t connect_checked(Router& router, const graph::Network& net,
                              std::uint32_t in, std::uint32_t out) {
  const graph::CsrGraph& g = net.g;
  const bool idle = router.input_idle(in) && router.output_idle(out);
  std::vector<std::uint8_t> busy(g.vertex_count());
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    busy[v] = router.is_busy(v) ? 1 : 0;
  std::vector<std::uint8_t> unusable(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e)
    unusable[e] = router.edge_usable(e) ? 0 : 1;

  const std::uint32_t call = router.connect(in, out);
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
    EXPECT_EQ(router.path_length(call), ref->size())
        << "not a shortest idle path for (" << in << "," << out << ")";
  }
  return call;
}

/// Vertices on an input->output path of `net` while it is idle; the
/// networks the uniform-length checks run on have exactly one such length.
std::size_t idle_path_length(const graph::Network& net) {
  const graph::VertexId src[] = {net.inputs[0]};
  std::vector<std::uint8_t> target(net.g.vertex_count(), 0);
  target[net.outputs[0]] = 1;
  const auto ref = graph::shortest_path(net.g, src, target);
  EXPECT_TRUE(ref.has_value());
  return ref ? ref->size() : 0;
}

/// Random connect/disconnect churn on a network with one input->output
/// length: every connect checked by connect_checked(), every settled path
/// hop by hop and against that length.
template <class Router>
void run_reference_trace(Router& router, const graph::Network& net,
                         std::uint64_t seed, std::size_t ops) {
  const std::size_t length = idle_path_length(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> active;
  std::size_t settled = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active.size());
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(rng.below(n));
      const auto out = static_cast<std::uint32_t>(rng.below(n));
      const auto call = connect_checked(router, net, in, out);
      if (call != kNone) {
        const auto path = router.path_of(call);
        expect_valid_path(router, net.g, path);
        EXPECT_EQ(path.size(), length);
        active.push_back(call);
        ++settled;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "after op " << op;
  }
  EXPECT_GT(settled, 0u);
  for (const auto c : active) router.disconnect(c);
  EXPECT_EQ(router.busy_vertices(), 0u);
  EXPECT_GT(router.stats().vertices_visited, 0u);
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
template <class Router>
void run_welded_trace(Router& router, const graph::Network& net,
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
    const auto call = router.connect(in, out);
    ASSERT_EQ(call != kNone, reach[in][out])
        << "welded verdict differs from the offline contraction at trial "
        << trial;
    if (call == kNone) continue;
    expect_valid_path(router, net.g, router.path_of(call));
    router.disconnect(call);
    ++routed;
  }
  ASSERT_GT(routed, 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  EXPECT_GT(router.stats().vertices_visited, 0u);
}

std::vector<graph::EdgeId> every_nth_edge(const graph::Network& net,
                                          graph::EdgeId first,
                                          graph::EdgeId step) {
  std::vector<graph::EdgeId> out;
  for (graph::EdgeId e = first; e < net.g.edge_count(); e += step)
    out.push_back(e);
  return out;
}

TYPED_TEST(RouterStores, ChurnMatchesPlainBfs) {
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter<TypeParam> router(net);
  run_reference_trace(router, net, 2024, 800);
}

TYPED_TEST(RouterStores, DegradedOverlayChurnMatchesPlainBfs) {
  // A deterministic spread of failed switches; contraction stays off, so
  // costs stay unit and plain BFS around the failures is exact.
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter<TypeParam> router(net);
  for (const auto e : every_nth_edge(net, 3, 17)) router.fail_edge(e);
  run_reference_trace(router, net, 4711, 800);
}

TYPED_TEST(RouterStores, WeldedCantorVerdictsMatchOfflineContraction) {
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter<TypeParam> router(net);
  run_welded_trace(router, net, every_nth_edge(net, 5, 29), 99, 400);
}

// The search may settle any of several equally long paths, so the pin is
// on what any correct search must deliver.
TYPED_TEST(RouterStores, CantorChurnPathsAreValidUniformAndMatchPlainBfs) {
  const auto net = networks::build_cantor({6, 0});
  AuditedRouter<TypeParam> router(net);
  run_reference_trace(router, net, 401, 6000);
}

/// The §4 oracle as a churn: on a fault-free strictly nonblocking network a
/// call between idle terminals must always connect, over a path of the
/// network's uniform length.
template <class Store>
void run_oracle_churn(const graph::Network& net, std::uint64_t seed,
                      std::size_t ops) {
  AuditedRouter<Store> router(net);
  const std::size_t length = idle_path_length(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> active;
  std::size_t routed = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() && rng.below(3) == 0) {
      const auto idx = rng.below(active.size());
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(rng.below(n));
      const auto out = static_cast<std::uint32_t>(rng.below(n));
      const bool idle = router.input_idle(in) && router.output_idle(out);
      const auto call = router.connect(in, out);
      if (!idle) {
        ASSERT_EQ(call, kNone) << "busy terminal admitted";
      } else {
        ASSERT_NE(call, kNone) << net.name << ": no path between idle "
                               << "terminals (" << in << "," << out
                               << ") at op " << op;
        ASSERT_EQ(router.path_length(call), length) << net.name;
        active.push_back(call);
        ++routed;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "after op " << op;
  }
  EXPECT_GT(routed, 0u);
  EXPECT_EQ(router.stats().rejected_no_path, 0u);
  for (const auto c : active) router.disconnect(c);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TYPED_TEST(RouterStores, NoIdleTerminalRefusedOnFaultFreeCantor) {
  for (const std::uint32_t k : {5u, 6u, 7u})
    run_oracle_churn<TypeParam>(networks::build_cantor({k, 0}), 100 + k, 4000);
}

TYPED_TEST(RouterStores, NoIdleTerminalRefusedOnFaultFreeFtNetwork) {
  for (const std::uint32_t nu : {1u, 2u})
    run_oracle_churn<TypeParam>(
        core::build_ft_network(core::FtParams::sim(nu, 8, 6, 1, 1000 + nu))
            .net,
        200 + nu, 2000);
}

TYPED_TEST(RouterStores, NoIdleTerminalRefusedOnCrossbar) {
  run_oracle_churn<TypeParam>(networks::build_crossbar(32), 300, 4000);
}

// ---------------------------------------------------------------------------
// Backtracking. The layered nets rarely send the reach-guided search into a
// dead end; this fan-out net does so deterministically once the mids' exits
// fail, so the search must pop back to the hub again and again.
//
//   in -> hub -> mid[0..mids) -> join -> out      (+ optionally back -> hub
//   and back -> join: a reverse conductor when back->hub is welded shut).
// ---------------------------------------------------------------------------

struct Star {
  graph::Network net;
  graph::VertexId in, hub, join, out, back;
  std::vector<graph::VertexId> mid;
  std::vector<graph::EdgeId> mid_exit;  // mid[i] -> join
  graph::EdgeId back_to_hub;            // the weldable reverse conductor
};

Star build_star(std::size_t mids, bool with_back) {
  graph::NetworkBuilder nb;
  Star s;
  s.in = nb.g.add_vertex();
  s.hub = nb.g.add_vertex();
  s.mid.resize(mids);
  for (auto& m : s.mid) m = nb.g.add_vertex();
  s.join = nb.g.add_vertex();
  s.out = nb.g.add_vertex();
  s.back = graph::kNoVertex;
  s.back_to_hub = static_cast<graph::EdgeId>(-1);
  nb.g.add_edge(s.in, s.hub);
  for (const auto m : s.mid) nb.g.add_edge(s.hub, m);
  for (const auto m : s.mid) s.mid_exit.push_back(nb.g.add_edge(m, s.join));
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

/// A healthy connect takes the first mid and stamps nothing else; with the
/// first `dead` mids' exits failed, the search stamps and abandons each of
/// them before it settles through mid[dead]. Both checked against plain BFS.
TYPED_TEST(RouterStores, FanOutNetBacktracks) {
  const auto star = build_star(256, false);
  constexpr std::size_t kDead = 200;
  AuditedRouter<TypeParam> router(star.net);
  const auto c = connect_checked(router, star.net, 0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c), (std::vector<graph::VertexId>{
                                   star.in, star.hub, star.mid[0], star.join,
                                   star.out}));
  EXPECT_EQ(router.stats().vertices_visited, 4u);  // hub, mid[0], join, out
  router.disconnect(c);

  for (std::size_t i = 0; i < kDead; ++i) router.fail_edge(star.mid_exit[i]);
  const auto d = connect_checked(router, star.net, 0, 0);
  ASSERT_NE(d, kNone);
  EXPECT_EQ(router.path_of(d), (std::vector<graph::VertexId>{
                                   star.in, star.hub, star.mid[kDead],
                                   star.join, star.out}));
  // hub, the dead mids, mid[kDead], join, out.
  EXPECT_EQ(router.stats().vertices_visited, 4u + kDead + 4u);
  router.disconnect(d);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TYPED_TEST(RouterStores, FanOutNetWeldedReverseHopAfterEveryMidDies) {
  // Every mid's exit fails and back->hub is welded shut: the search must
  // exhaust the hub's children, then leave it backwards over the weld:
  // in, hub, back, join, out.
  const auto star = build_star(256, true);
  AuditedRouter<TypeParam> router(star.net);
  for (const auto e : star.mid_exit) router.fail_edge(e);
  router.contract_edge(star.back_to_hub);
  const auto c = router.connect(0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c),
            (std::vector<graph::VertexId>{star.in, star.hub, star.back,
                                          star.join, star.out}));
  expect_valid_path(router, star.net.g, router.path_of(c));
  router.disconnect(c);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

}  // namespace
}  // namespace ftcs
