// The single-pair search (ftcs/search.hpp) against independent references.
//
// The routers' search is a reach-guided depth-first search: it settles AN
// idle path (the paper's §4 greedy routing needs no more), which is a
// shortest one wherever every input->output path has the same length.
//
//  - churn traces on cantor (one input->output length) (the RouterStores
//    suite, tests/router_stores.hpp), healthy and
//    degraded (failed switches): every connect's verdict and path length
//    match graph::shortest_path, a plain BFS over the router's busy and
//    failed-switch state captured just before the connect;
//  - welded overlays (runtime contraction), where the search prunes by the
//    reach index and the router's weld-ancestor counts together: verdicts
//    match plain-BFS reachability on the offline contracted network
//    (fault::repair_by_contraction) and every settled path is checked hop
//    by hop;
//  - the weld pruning against its oracle: on seeded mixed fail/weld/repair
//    storms (cantor-k5, the §6 FT network at nu = 2, and one storm that
//    crosses grow() with welds outstanding) every connect gives the same
//    verdict and path as the unpruned weld body (the weld filter always
//    true), in no more visits;
//  - a seeded cantor-k6 churn: every path is valid, every verdict matches
//    plain BFS and every path has the network's uniform length;
//  - the §4 oracle: on fault-free strictly nonblocking networks (cantor
//    k5-k7, the §6 FT network at nu = 1 and 2, crossbar) no call between
//    idle terminals is ever refused, and every path has the uniform length;
//  - planes: the reach index's per-input plane table matches a graph::Dsu
//    split; on idle cantor-k5 every call enters plane P(in)[out mod p]; on
//    the FT network (one plane per input) every path equals the search's
//    in plain child order; a router grown k5 -> k6 enters the grown
//    network's six planes and refuses no idle pair;
//  - a fan-out net that forces the search to backtrack, healthy, degraded
//    and welded;
//  - a search-work ratchet: a seeded half-load churn on cantor k4-k9 and
//    two grown Cantor networks visits no more vertices than a table of the
//    current search's exact totals, so search work may only fall.
// Every test but the ratchet routes through AuditedRouter
// (router_stores.hpp), so the structural audit runs after every operation;
// the ratchet serves cantor-k9 at speed on a plain Router.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/repair.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/reach_index.hpp"
#include "ftcs/router.hpp"
#include "ftcs/search.hpp"
#include "graph/algorithms.hpp"
#include "graph/dsu.hpp"
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
      if (tgts[i] == v && !r.edge_failed(eids[i])) return true;
  }
  const auto eids = g.out_edges(v);
  const auto tgts = g.out_targets(v);
  for (std::size_t i = 0; i < eids.size(); ++i)
    if (tgts[i] == u && !r.edge_failed(eids[i]) && r.edge_contracted(eids[i]))
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

/// Routes in -> out on `router` and checks the verdict and the
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
    unusable[e] = router.edge_failed(e) ? 1 : 0;

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

TEST(RouterStores, ChurnMatchesPlainBfs) {
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter router(net);
  run_reference_trace(router, net, 2024, 800);
}

TEST(RouterStores, DegradedOverlayChurnMatchesPlainBfs) {
  // A deterministic spread of failed switches; contraction stays off, so
  // costs stay unit and plain BFS around the failures is exact.
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter router(net);
  for (const auto e : every_nth_edge(net, 3, 17)) router.fail_edge(e);
  run_reference_trace(router, net, 4711, 800);
}

TEST(RouterStores, WeldedCantorVerdictsMatchOfflineContraction) {
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter router(net);
  run_welded_trace(router, net, every_nth_edge(net, 5, 29), 99, 400);
}

// The search may settle any of several equally long paths, so the pin is
// on what any correct search must deliver.
TEST(RouterStores, CantorChurnPathsAreValidUniformAndMatchPlainBfs) {
  const auto net = networks::build_cantor({6, 0});
  AuditedRouter router(net);
  run_reference_trace(router, net, 401, 6000);
}

/// The §4 oracle as a churn on `router` over `net`: on a fault-free
/// strictly nonblocking network a call between idle terminals must always
/// connect, and with `uniform` over a path of the network's one
/// input->output length.
template <class Router>
void run_oracle_churn(Router& router, const graph::Network& net,
                      std::uint64_t seed, std::size_t ops,
                      bool uniform = true) {
  const std::size_t length = uniform ? idle_path_length(net) : 0;
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
        if (uniform) {
          ASSERT_EQ(router.path_length(call), length) << net.name;
        }
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

TEST(RouterStores, NoIdleTerminalRefusedOnFaultFreeCantor) {
  for (const std::uint32_t k : {5u, 6u, 7u}) {
    const auto net = networks::build_cantor({k, 0});
    AuditedRouter router(net);
    run_oracle_churn(router, net, 100 + k, 4000);
  }
}

TEST(RouterStores, NoIdleTerminalRefusedOnFaultFreeFtNetwork) {
  for (const std::uint32_t nu : {1u, 2u}) {
    const auto net =
        core::build_ft_network(core::FtParams::sim(nu, 8, 6, 1, 1000 + nu))
            .net;
    AuditedRouter router(net);
    run_oracle_churn(router, net, 200 + nu, 2000);
  }
}

TEST(RouterStores, NoIdleTerminalRefusedOnCrossbar) {
  const auto net = networks::build_crossbar(32);
  AuditedRouter router(net);
  run_oracle_churn(router, net, 300, 4000);
}

// ---------------------------------------------------------------------------
// Weld pruning against its oracle. With the weld filter always true the weld
// body is the unpruned walk; the router's weld-ancestor counts may only skip
// children that cannot reach the output, so the pruned search must return
// the same verdict and the same path in no more visits.
// ---------------------------------------------------------------------------

/// A seeded storm of connects, disconnects, open failures, welds and their
/// repairs on an AuditedRouter. Before each connect between idle terminals
/// the storm runs the router's search itself twice on its own scratch —
/// once with the router's weld filter (weld_reach() > 0), once with the
/// oracle filter (always true) — then connects: the router must settle the
/// pruned search's path in its visits, and the two searches must agree.
class WeldStorm {
 public:
  /// Outstanding open failures and welds hover around `per_open` and
  /// `per_weld` switches in 1000.
  WeldStorm(AuditedRouter& router, const graph::Network& net,
            std::uint64_t seed, std::size_t per_open, std::size_t per_weld)
      : router_(router), rng_(seed), per_open_(per_open), per_weld_(per_weld) {
    rebind(net);
  }

  /// Grows the router onto `grown` (which must outlive it) and follows.
  void grow(const graph::Network& grown) {
    router_.grow(grown);
    rebind(grown);
  }

  void run(std::size_t ops) {
    const auto n = static_cast<std::uint32_t>(net_->inputs.size());
    const auto edges = static_cast<graph::EdgeId>(net_->g.edge_count());
    const std::size_t open_target =
        std::max<std::size_t>(edges * per_open_ / 1000, 2);
    const std::size_t weld_target =
        std::max<std::size_t>(edges * per_weld_ / 1000, 2);
    // Start at the targets, then let the storm wander around them.
    while (failed_.size() < open_target) flip(failed_, open_target, edges, false);
    while (welded_.size() < weld_target) flip(welded_, weld_target, edges, true);
    for (std::size_t op = 0; op < ops; ++op) {
      const auto roll = rng_.below(16);
      if (roll == 0) {
        flip(failed_, open_target, edges, false);
      } else if (roll == 1) {
        flip(welded_, weld_target, edges, true);
      } else if (roll < 6 && !active_.empty()) {
        const auto idx = rng_.below(active_.size());
        router_.disconnect(active_[idx]);
        active_[idx] = active_.back();
        active_.pop_back();
      } else {
        connect(static_cast<std::uint32_t>(rng_.below(n)),
                static_cast<std::uint32_t>(rng_.below(n)));
      }
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "after op " << op;
    }
  }

  [[nodiscard]] std::size_t outstanding_welds() const {
    return welded_.size();
  }

  /// Connects searched while a weld was live, and their summed visits.
  std::size_t welded_connects = 0;
  std::uint64_t pruned_total = 0, oracle_total = 0;

 private:
  void rebind(const graph::Network& net) {
    net_ = &net;
    reach_ = core::ReachIndex(net);
    pruned_.init(net.g.vertex_count());
    oracle_.init(net.g.vertex_count());
  }

  /// Moves `set` (open failures or welds) one event toward `target`:
  /// repairs a random member with probability size / (2 target), else
  /// fails or welds a random switch not already down.
  void flip(std::vector<graph::EdgeId>& set, std::size_t target,
            graph::EdgeId edges, bool weld) {
    if (rng_.below(2 * target) < set.size()) {
      const auto idx = rng_.below(set.size());
      if (weld)
        router_.uncontract_edge(set[idx]);
      else
        router_.repair_edge(set[idx]);
      set[idx] = set.back();
      set.pop_back();
      return;
    }
    const auto e = static_cast<graph::EdgeId>(rng_.below(edges));
    if (router_.edge_failed(e) || router_.edge_contracted(e)) return;
    if (weld)
      router_.contract_edge(e);
    else
      router_.fail_edge(e);
    set.push_back(e);
  }

  /// One search as the router runs it, on `scratch`, with `reaches_weld` as
  /// the weld filter: the path src..dst (empty if none) and its visits.
  template <class ReachesWeldFn>
  std::pair<std::vector<graph::VertexId>, std::uint64_t> search(
      core::detail::SearchScratch& scratch, std::uint32_t in,
      std::uint32_t out, ReachesWeldFn&& reaches_weld) const {
    const graph::VertexId src = net_->inputs[in];
    const graph::VertexId dst = net_->outputs[out];
    std::uint64_t visits = 0;
    const auto& r = router_;
    const graph::VertexId end = core::detail::find_idle_path(
        net_->g, reach_.probe(out), src, dst, reach_.first_hop(in, out),
        scratch, visits,
        [&r](graph::VertexId v) { return r.is_busy(v); },
        [&r](graph::EdgeId e) { return r.edge_failed(e); },
        [&r](graph::EdgeId e) { return r.edge_contracted(e); }, reaches_weld,
        !welded_.empty());
    EXPECT_TRUE(visited_clear(scratch, net_->g.vertex_count()))
        << "visited bits survived";
    std::vector<graph::VertexId> path = stack_path(scratch);
    EXPECT_EQ(end != graph::kNoVertex, !path.empty());
    return {std::move(path), visits};
  }

  void connect(std::uint32_t in, std::uint32_t out) {
    const bool searched = router_.input_idle(in) && router_.output_idle(out) &&
                          !router_.is_busy(net_->inputs[in]) &&
                          !router_.is_busy(net_->outputs[out]);
    if (!searched) {
      EXPECT_EQ(router_.connect(in, out), kNone) << "busy terminal admitted";
      return;
    }
    const auto& r = router_;
    const auto [pruned, pruned_visits] = search(
        pruned_, in, out,
        [&r](graph::VertexId v) { return r.weld_reach(v) != 0; });
    const auto [oracle, oracle_visits] =
        search(oracle_, in, out, [](graph::VertexId) { return true; });
    ASSERT_EQ(pruned, oracle) << "pruned search left the oracle's path for ("
                              << in << "," << out << ")";
    ASSERT_LE(pruned_visits, oracle_visits);
    if (!welded_.empty()) {
      ++welded_connects;
      pruned_total += pruned_visits;
      oracle_total += oracle_visits;
    }

    const std::uint64_t before = router_.stats().vertices_visited;
    const std::uint32_t call = router_.connect(in, out);
    ASSERT_EQ(call != kNone, !pruned.empty())
        << "router verdict differs from its own search for (" << in << ","
        << out << ")";
    EXPECT_EQ(router_.stats().vertices_visited - before, pruned_visits);
    if (call == kNone) return;
    ASSERT_EQ(router_.path_of(call), pruned);
    expect_valid_path(router_, net_->g, pruned);
    active_.push_back(call);
  }

  AuditedRouter& router_;
  const graph::Network* net_ = nullptr;
  core::ReachIndex reach_;
  core::detail::SearchScratch pruned_, oracle_;
  util::Xoshiro256 rng_;
  std::size_t per_open_, per_weld_;
  std::vector<std::uint32_t> active_;
  std::vector<graph::EdgeId> failed_, welded_;
};

/// The storm's pruning must have bitten: welded connects ran, and the
/// pruned searches visited strictly fewer vertices than the oracle's.
void expect_pruned(const WeldStorm& storm) {
  EXPECT_GT(storm.welded_connects, 0u);
  EXPECT_LT(storm.pruned_total, storm.oracle_total);
}

TEST(RouterStores, WeldPruningMatchesTheUnprunedOracleOnCantor) {
  const auto net = networks::build_cantor({5, 0});
  AuditedRouter router(net);
  WeldStorm storm(router, net, 2201, 10, 1);
  storm.run(3000);
  expect_pruned(storm);
}

TEST(RouterStores, WeldPruningMatchesTheUnprunedOracleOnFtNetwork) {
  const auto ft =
      core::build_ft_network(core::FtParams::sim(2, 8, 6, 1, 1002));
  AuditedRouter router(ft.net);
  WeldStorm storm(router, ft.net, 2202, 50, 1);
  storm.run(1500);
  expect_pruned(storm);
}

TEST(RouterStores, WeldPruningMatchesTheUnprunedOracleAcrossGrow) {
  // Welds stay outstanding across the merge: the grown network adds
  // ancestors to their heads, which the router must recount.
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter router(net);
  WeldStorm storm(router, net, 2203, 10, 1);
  storm.run(1500);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_GT(storm.outstanding_welds(), 0u);
  const auto grown = networks::grow_cantor(net, {4, 0});
  storm.grow(grown);
  storm.run(1500);
  expect_pruned(storm);
}

// ---------------------------------------------------------------------------
// Planes. The search starts each call's first hop in plane P(in)[out mod p]
// (ftcs/reach_index.hpp). The oracle splits the network with graph::Dsu:
// every switch between two non-terminal vertices unites its endpoints, and
// a terminal is a class of its own.
// ---------------------------------------------------------------------------

/// The plane class of every vertex (a terminal's is its own id).
std::vector<std::uint32_t> plane_classes(const graph::Network& net) {
  const graph::CsrGraph& g = net.g;
  std::vector<std::uint8_t> terminal(g.vertex_count(), 0);
  for (const graph::VertexId t : net.inputs) terminal[t] = 1;
  for (const graph::VertexId t : net.outputs) terminal[t] = 1;
  graph::Dsu dsu(g.vertex_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    if (!terminal[ed.from] && !terminal[ed.to]) dsu.unite(ed.from, ed.to);
  }
  std::vector<std::uint32_t> cls(g.vertex_count());
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    cls[v] = terminal[v] ? v : dsu.find(v);
  return cls;
}

/// P(in): the distinct classes of input `in`'s children in incidence
/// order, each with the slot of its first child there.
std::vector<std::pair<std::uint32_t, std::uint32_t>> input_planes(
    const graph::Network& net, const std::vector<std::uint32_t>& cls,
    std::uint32_t in) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> planes;
  const auto tgts = net.g.out_targets(net.inputs[in]);
  for (std::uint32_t slot = 0; slot < tgts.size(); ++slot) {
    const std::uint32_t c = cls[tgts[slot]];
    if (std::none_of(planes.begin(), planes.end(),
                     [c](const auto& p) { return p.first == c; }))
      planes.emplace_back(c, slot);
  }
  return planes;
}

/// The index's plane table against the oracle: every input of `net` enters
/// `planes` planes, and its slots are P(in)'s first slots.
void expect_plane_table(const graph::Network& net, std::size_t planes) {
  const core::ReachIndex reach(net);
  const auto cls = plane_classes(net);
  for (std::uint32_t in = 0; in < net.inputs.size(); ++in) {
    std::vector<std::uint32_t> want;
    for (const auto& [c, slot] : input_planes(net, cls, in))
      want.push_back(slot);
    ASSERT_EQ(want.size(), planes) << net.name << " input " << in;
    const auto got = reach.plane_slots(in);
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
        << net.name << " input " << in;
  }
}

/// On the idle `router` over `net`, every call (in, out) settles a path
/// whose first hop lies in plane P(in)[out mod p].
template <class Router>
void expect_calls_enter_their_plane(Router& router, const graph::Network& net) {
  const auto cls = plane_classes(net);
  for (std::uint32_t in = 0; in < net.inputs.size(); ++in) {
    const auto planes = input_planes(net, cls, in);
    for (std::uint32_t out = 0; out < net.outputs.size(); ++out) {
      const auto call = router.connect(in, out);
      ASSERT_NE(call, kNone) << "idle (" << in << "," << out << ") refused";
      const auto path = router.path_of(call);
      ASSERT_EQ(cls[path[1]], planes[out % planes.size()].first)
          << "(" << in << "," << out << ") entered the wrong plane";
      router.disconnect(call);
    }
  }
}

TEST(Planes, TableMatchesTheDsuSplit) {
  for (const std::uint32_t k : {5u, 6u, 7u})
    expect_plane_table(networks::build_cantor({k, 0}), k);
  const auto base = networks::build_cantor({5, 0});
  expect_plane_table(networks::grow_cantor(base, {5, 0}), 6);
  for (const std::uint32_t nu : {1u, 2u})
    expect_plane_table(
        core::build_ft_network(core::FtParams::sim(nu, 8, 6, 1, 1000 + nu))
            .net,
        1);
  // Every crossbar child is an output: a plane of its own.
  expect_plane_table(networks::build_crossbar(32), 32);
}

TEST(RouterStores, IdleCantorCallsEnterThePlaneTheirOutputPicks) {
  const auto net = networks::build_cantor({5, 0});
  AuditedRouter router(net);
  expect_calls_enter_their_plane(router, net);
}

/// A seeded churn on `net` in which every router path must equal the
/// search's with rotation 0 (the plain incidence order) on the same busy
/// state: the §6 network's inputs enter one plane each, so its paths are
/// the plain order's.
void expect_plain_order_churn(const graph::Network& net, std::uint64_t seed,
                              std::size_t ops) {
  AuditedRouter router(net);
  const core::ReachIndex reach(net);
  core::detail::SearchScratch scratch;
  scratch.init(net.g.vertex_count());
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> active;
  std::size_t compared = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() && rng.below(3) == 0) {
      const auto idx = rng.below(active.size());
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const graph::VertexId src = net.inputs[in], dst = net.outputs[out];
    if (!router.input_idle(in) || !router.output_idle(out) ||
        router.is_busy(src) || router.is_busy(dst)) {
      ASSERT_EQ(router.connect(in, out), kNone);
      continue;
    }
    std::uint64_t visits = 0;
    const auto no_edge = [](graph::EdgeId) { return false; };
    const graph::VertexId end = core::detail::find_idle_path(
        net.g, reach.probe(out), src, dst, 0, scratch, visits,
        [&router](graph::VertexId v) { return router.is_busy(v); }, no_edge,
        no_edge, [](graph::VertexId) { return false; }, false);
    ASSERT_TRUE(visited_clear(scratch, net.g.vertex_count()))
        << "visited bits survived";
    const std::vector<graph::VertexId> plain = stack_path(scratch);
    ASSERT_EQ(end != graph::kNoVertex, !plain.empty());
    const auto call = router.connect(in, out);
    ASSERT_EQ(call != kNone, !plain.empty()) << "(" << in << "," << out << ")";
    if (call == kNone) continue;
    ASSERT_EQ(router.path_of(call), plain) << "(" << in << "," << out << ")";
    active.push_back(call);
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(RouterStores, FtNetworkPathsKeepThePlainChildOrder) {
  for (const std::uint32_t nu : {1u, 2u}) {
    const auto net =
        core::build_ft_network(core::FtParams::sim(nu, 8, 6, 1, 1000 + nu))
            .net;
    expect_plain_order_churn(net, 500 + nu, 2000);
  }
}

TEST(RouterStores, GrownCantorSpreadsOverSixPlanesAndRefusesNoIdlePair) {
  // grow() rebuilds the plane table with the reach index: the grown
  // router's calls enter the grown network's planes. Its legacy shortcut
  // switches give paths of several lengths, so the §4 churn checks
  // verdicts only.
  const auto base = networks::build_cantor({5, 0});
  AuditedRouter router(base);
  const auto grown = networks::grow_cantor(base, {5, 0});
  router.grow(grown);
  expect_plane_table(grown, 6);
  expect_calls_enter_their_plane(router, grown);
  run_oracle_churn(router, grown, 601, 4000, /*uniform=*/false);
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
TEST(RouterStores, FanOutNetBacktracks) {
  const auto star = build_star(256, false);
  constexpr std::size_t kDead = 200;
  // One child, one plane: the first hop starts at slot 0.
  ASSERT_EQ(core::ReachIndex(star.net).plane_slots(0).size(), 1u);
  AuditedRouter router(star.net);
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

TEST(RouterStores, FanOutNetWeldedReverseHopAfterEveryMidDies) {
  // Every mid's exit fails and back->hub is welded shut: the search must
  // exhaust the hub's children, then leave it backwards over the weld:
  // in, hub, back, join, out.
  const auto star = build_star(256, true);
  AuditedRouter router(star.net);
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

// ---------------------------------------------------------------------------
// Search work. A seeded churn at half load on one router: fill half the
// terminals, then each step hangs up a random live call and dials a random
// idle input to a random idle output, so every dial runs a search. Each row
// of the table is the exact number of vertices the current search visits
// over the steps. The test fails if a network's total rises above its row:
// a change that lowers a total lowers the row with it, and search work may
// only fall.
// ---------------------------------------------------------------------------

struct SearchWorkRow {
  std::uint32_t k;       // cantor-k, or the base order of a grown network
  bool grown;            // cantor-k doubled once by networks::grow_cantor
  std::uint64_t visits;  // the current total: the ceiling
};

// The k4, k8 and grown k7 -> k8 rows carry the plane-key defect: with a
// power-of-two plane count p, first_hop's `out mod p` correlates with the
// Benes output bits, so calls pile onto few planes and the search
// backtracks. Per call, k8 visits 153.7 vertices for a 19-vertex path and
// grown k7 -> k8 137.3 for 18.3, against k9's 23.1 for 21; k4 visits 14.4
// for 11. A fix of the key lowers these rows most.
constexpr SearchWorkRow kSearchWork[] = {
    {4, false, 144229},  {5, false, 122384},  {6, false, 174906},
    {7, false, 171369},  {8, false, 1536738}, {9, false, 230961},
    {5, true, 168544},   {7, true, 1372809},
};

TEST(SearchWork, HalfLoadChurnVisitsNoMoreThanTheRatchet) {
  constexpr std::size_t kSteps = 10000;
  for (const SearchWorkRow& row : kSearchWork) {
    const graph::Network base = networks::build_cantor({row.k, 0});
    core::Router router(base);
    graph::Network grown;
    if (row.grown) {
      grown = networks::grow_cantor(base, {row.k, 0});
      router.grow(grown);
    }
    const graph::Network& net = row.grown ? grown : base;
    const std::string label =
        row.grown ? base.name + " grown to " + net.name : net.name;
    const auto n = static_cast<std::uint32_t>(net.inputs.size());
    std::vector<std::uint32_t> idle_in(n), idle_out(n);
    std::iota(idle_in.begin(), idle_in.end(), 0u);
    std::iota(idle_out.begin(), idle_out.end(), 0u);
    struct Live {
      std::uint32_t call, in, out;
    };
    std::vector<Live> live;
    util::Xoshiro256 rng(util::derive_seed(31, row.k));
    const auto take = [&rng](std::vector<std::uint32_t>& pool) {
      const auto i = rng.below(pool.size());
      const std::uint32_t t = pool[i];
      pool[i] = pool.back();
      pool.pop_back();
      return t;
    };
    const auto dial = [&] {
      const std::uint32_t in = take(idle_in), out = take(idle_out);
      const auto call = router.connect(in, out);
      ASSERT_NE(call, kNone) << label << ": idle (" << in << "," << out
                             << ") refused";
      live.push_back({call, in, out});
    };
    for (std::uint32_t i = 0; i < n / 2; ++i) ASSERT_NO_FATAL_FAILURE(dial());
    router.reset_stats();
    for (std::size_t step = 0; step < kSteps; ++step) {
      const auto i = rng.below(live.size());
      router.disconnect(live[i].call);
      idle_in.push_back(live[i].in);
      idle_out.push_back(live[i].out);
      live[i] = live.back();
      live.pop_back();
      ASSERT_NO_FATAL_FAILURE(dial());
    }
    const core::RouterStats st = router.stats();
    ASSERT_EQ(st.accepted, kSteps);
    const auto per_call = [&](std::uint64_t total) {
      return static_cast<double>(total) / static_cast<double>(kSteps);
    };
    std::cout << label << ": " << st.vertices_visited << " visits, "
              << per_call(st.vertices_visited) << " per call for "
              << per_call(st.path_vertices) << " path vertices\n";
    EXPECT_LE(st.vertices_visited, row.visits) << label;
  }
}

}  // namespace
}  // namespace ftcs
