// The live fault plane: the router's liveness overlay (the RouterStores
// suite, router_stores.hpp) for BOTH §2 failure modes — open (routed
// around) and closed/stuck-on (runtime contraction: the welded switch is a
// free forced hop conducting both ways) — the overlay-vs-repair_by_discard
// and live-contraction-vs-repair_by_contraction equivalences, the runtime
// mixed-mode FaultSchedule, svc::Exchange inject/repair with call teardown
// + reroute (including weld repairs severing reverse crossers), fault-aware
// traffic simulation on both service planes, flips between the connects of
// a seeded churn, and the TSan-run storm of submitters racing the serving
// thread. (This file carries the `tsan` ctest label the sanitizer CI jobs
// select by.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/repair.hpp"
#include "fault/schedule.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/router.hpp"
#include "ftcs/traffic.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "certain_kill.hpp"
#include "racing_submitters.hpp"
#include "router_stores.hpp"

namespace ftcs {
namespace {

using namespace test;

/// First edge id from u to v (kNoEdge-style sentinel: edge_count).
graph::EdgeId edge_between(const graph::CsrGraph& g, graph::VertexId u,
                           graph::VertexId v) {
  const auto eids = g.out_edges(u);
  const auto tgts = g.out_targets(u);
  for (std::size_t i = 0; i < eids.size(); ++i)
    if (tgts[i] == v) return eids[i];
  return static_cast<graph::EdgeId>(g.edge_count());
}

/// in -> a -> m -> b -> out line network, plus a spur switch m -> spur.
/// Unique path between the terminals; the spur gives m a second incident
/// switch that is NOT on the path.
graph::Network build_line_with_spur() {
  graph::NetworkBuilder nb;
  const auto in = nb.g.add_vertex();
  const auto a = nb.g.add_vertex();
  const auto m = nb.g.add_vertex();
  const auto b = nb.g.add_vertex();
  const auto out = nb.g.add_vertex();
  const auto spur = nb.g.add_vertex();
  nb.g.add_edge(in, a);    // edge 0
  nb.g.add_edge(a, m);     // edge 1
  nb.g.add_edge(m, b);     // edge 2
  nb.g.add_edge(b, out);   // edge 3
  nb.g.add_edge(m, spur);  // edge 4: m's off-path switch
  nb.inputs = {in};
  nb.outputs = {out};
  nb.name = "line-with-spur";
  return nb.finalize();
}

/// Two arms between the terminals: a short one (3 switches, tried first)
/// and a long one (4 switches). With the short arm failed and two of the
/// long arm's switches welded, the call must settle across the welds.
graph::Network build_two_arm_net() {
  graph::NetworkBuilder nb;
  const auto in = nb.g.add_vertex();   // 0
  const auto x = nb.g.add_vertex();    // 1
  const auto y = nb.g.add_vertex();    // 2
  const auto a = nb.g.add_vertex();    // 3
  const auto b = nb.g.add_vertex();    // 4
  const auto c = nb.g.add_vertex();    // 5
  const auto out = nb.g.add_vertex();  // 6
  nb.g.add_edge(in, x);   // 0  short arm
  nb.g.add_edge(x, y);    // 1
  nb.g.add_edge(y, out);  // 2
  nb.g.add_edge(in, a);   // 3  long arm
  nb.g.add_edge(a, b);    // 4
  nb.g.add_edge(b, c);    // 5
  nb.g.add_edge(c, out);  // 6
  nb.inputs = {in};
  nb.outputs = {out};
  nb.name = "two-arm";
  return nb.finalize();
}

/// in -> a, b -> a (REVERSED: points away from the output), b -> out. No
/// directed in->out path exists; only a stuck-on b->a switch — which
/// conducts both ways — can carry the a..b hop.
graph::Network build_reversed_line() {
  graph::NetworkBuilder nb;
  const auto in = nb.g.add_vertex();   // 0
  const auto a = nb.g.add_vertex();    // 1
  const auto b = nb.g.add_vertex();    // 2
  const auto out = nb.g.add_vertex();  // 3
  nb.g.add_edge(in, a);   // edge 0
  nb.g.add_edge(b, a);    // edge 1: the only a..b conductor, reversed
  nb.g.add_edge(b, out);  // edge 2
  nb.inputs = {in};
  nb.outputs = {out};
  nb.name = "reversed-line";
  return nb.finalize();
}

/// Two lanes. Lane 0 joins in0 to out0 by a short forward arm
/// in0 -> x -> out0 (tried first) and a long arm in0 -> a, b -> a, b -> out0
/// whose middle switch points AWAY from the output, so only a weld on it
/// can carry a..b. Lane 1 is a plain in1 -> z -> out1.
graph::Network build_weld_lane_net() {
  graph::NetworkBuilder nb;
  const auto in0 = nb.g.add_vertex();   // 0
  const auto x = nb.g.add_vertex();     // 1
  const auto a = nb.g.add_vertex();     // 2
  const auto b = nb.g.add_vertex();     // 3
  const auto out0 = nb.g.add_vertex();  // 4
  const auto in1 = nb.g.add_vertex();   // 5
  const auto z = nb.g.add_vertex();     // 6
  const auto out1 = nb.g.add_vertex();  // 7
  nb.g.add_edge(in0, x);    // edge 0: short arm
  nb.g.add_edge(x, out0);   // edge 1
  nb.g.add_edge(in0, a);    // edge 2: long arm
  nb.g.add_edge(b, a);      // edge 3: reversed, the only a..b conductor
  nb.g.add_edge(b, out0);   // edge 4
  nb.g.add_edge(in1, z);    // edge 5: lane 1
  nb.g.add_edge(z, out1);   // edge 6
  nb.inputs = {in0, in1};
  nb.outputs = {out0, out1};
  nb.name = "weld-lanes";
  return nb.finalize();
}

/// in -> u -> v -> out with TWO parallel u -> v switches (edges 1 and 2):
/// the hop survives as long as either sibling carries it.
graph::Network build_parallel_hop() {
  graph::NetworkBuilder nb;
  const auto in = nb.g.add_vertex();   // 0
  const auto u = nb.g.add_vertex();    // 1
  const auto v = nb.g.add_vertex();    // 2
  const auto out = nb.g.add_vertex();  // 3
  nb.g.add_edge(in, u);   // edge 0
  nb.g.add_edge(u, v);    // edge 1: parallel switch A
  nb.g.add_edge(u, v);    // edge 2: parallel switch B
  nb.g.add_edge(v, out);  // edge 3
  nb.inputs = {in};
  nb.outputs = {out};
  nb.name = "parallel-hop";
  return nb.finalize();
}

// ------------------------------------------------------- router overlays
// The typed RouterStores suite (router_stores.hpp): each test runs on both
// stores, with the structural audit after every operation.

TEST(RouterStores, FailAndRepairEdge) {
  const auto net = networks::build_crossbar(3);
  AuditedRouter router(net);
  const auto e00 = edge_between(net.g, net.inputs[0], net.outputs[0]);
  ASSERT_LT(e00, net.g.edge_count());

  ASSERT_NE(router.connect(0, 0), kNone);
  router.disconnect(0);
  router.fail_edge(e00);
  EXPECT_TRUE(router.edge_failed(e00));
  EXPECT_EQ(router.connect(0, 0), kNone);
  const auto detour = router.connect(0, 1);  // other switches unaffected
  ASSERT_NE(detour, kNone);
  router.disconnect(detour);
  router.repair_edge(e00);
  EXPECT_FALSE(router.edge_failed(e00));
  EXPECT_NE(router.connect(0, 0), kNone);
}

TEST(RouterStores, KillAndReviveVertex) {
  const auto net = build_line_with_spur();
  AuditedRouter router(net);
  const graph::VertexId m = 2;
  router.kill_vertex(m);
  EXPECT_TRUE(router.vertex_dead(m));
  EXPECT_EQ(router.connect(0, 0), kNone);
  router.kill_vertex(m);  // idempotent
  router.revive_vertex(m);
  EXPECT_FALSE(router.vertex_dead(m));
  const auto call = router.connect(0, 0);
  ASSERT_NE(call, kNone);
  router.disconnect(call);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TEST(RouterStores, FailRepairAndKillReviveOnALine) {
  const auto net = build_line_with_spur();
  AuditedRouter router(net);
  const auto e1 = edge_between(net.g, 1, 2);  // a -> m
  router.fail_edge(e1);
  EXPECT_TRUE(router.edge_failed(e1));
  EXPECT_EQ(router.connect(0, 0), kNone);
  router.repair_edge(e1);
  const auto call = router.connect(0, 0);
  ASSERT_NE(call, kNone);
  router.disconnect(call);

  router.kill_vertex(2);
  EXPECT_TRUE(router.vertex_dead(2));
  EXPECT_EQ(router.connect(0, 0), kNone);
  router.revive_vertex(2);
  EXPECT_FALSE(router.vertex_dead(2));
  EXPECT_NE(router.connect(0, 0), kNone);
}

// The overlay gates count OUTSTANDING faults and welds: once every weld and
// fault is repaired, a router searches exactly like one that never saw
// them (the weld-free, reach-pruned body; no overlay reads).
TEST(RouterStores, RepairedOverlaySearchesLikeANeverFaultedRouter) {
  const auto net = networks::build_cantor({5, 0});
  const auto churn = [&net](AuditedRouter& router) {
    const auto n = static_cast<std::uint32_t>(net.inputs.size());
    util::Xoshiro256 rng(515);
    std::vector<std::uint32_t> active;
    for (int op = 0; op < 3000; ++op) {
      if (!active.empty() && rng.below(4) == 0) {
        const auto idx = rng.below(active.size());
        router.disconnect(active[idx]);
        active[idx] = active.back();
        active.pop_back();
      } else {
        const auto call = router.connect(static_cast<std::uint32_t>(rng.below(n)),
                                         static_cast<std::uint32_t>(rng.below(n)));
        if (call != kNone) active.push_back(call);
      }
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "after op " << op;
    }
  };
  AuditedRouter fresh(net), welded(net), faulted(net);
  welded.contract_edge(7);
  welded.uncontract_edge(7);
  faulted.fail_edge(7);
  faulted.repair_edge(7);
  churn(fresh);
  churn(welded);
  churn(faulted);
  const core::RouterStats a = fresh.stats();
  const core::RouterStats b = welded.stats();
  const core::RouterStats c = faulted.stats();
  ASSERT_GT(a.accepted, 0u);
  EXPECT_EQ(b.vertices_visited, a.vertices_visited);
  EXPECT_EQ(b.path_vertices, a.path_vertices);
  EXPECT_EQ(b.accepted, a.accepted);
  EXPECT_EQ(c.vertices_visited, a.vertices_visited);
  EXPECT_EQ(c.accepted, a.accepted);
}

// ---------------------------------------- stuck-on (contracted) switches

TEST(RouterStores, ContractedSwitchesCarryTheLongArm) {
  const auto net = build_two_arm_net();
  AuditedRouter router(net);
  const std::vector<graph::VertexId> short_arm{0, 1, 2, 6};
  const std::vector<graph::VertexId> long_arm{0, 3, 4, 5, 6};

  // Baseline: the search takes the first arm it tries, the short one.
  auto c = router.connect(0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c), short_arm);
  router.disconnect(c);

  // Fail the short arm and weld two of the long arm's switches: the call
  // must cross the welds. The welded hops conduct without switching, but
  // every junction they join is still claimed (one call per junction).
  router.fail_edge(1);
  for (const graph::EdgeId e : {4u, 5u}) {
    router.contract_edge(e);
    EXPECT_TRUE(router.edge_contracted(e));
  }
  c = router.connect(0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c), long_arm);
  EXPECT_EQ(router.busy_vertices(), long_arm.size());
  router.disconnect(c);
  EXPECT_EQ(router.busy_vertices(), 0u);

  // Repairing the welds and the short arm restores the original route.
  router.repair_edge(1);
  for (const graph::EdgeId e : {4u, 5u}) router.uncontract_edge(e);
  c = router.connect(0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c), short_arm);
  router.disconnect(c);
}

TEST(RouterStores, WeldedSwitchConductsAgainstItsDirection) {
  const auto net = build_reversed_line();
  AuditedRouter router(net);
  const std::vector<graph::VertexId> line{0, 1, 2, 3};
  // No directed path exists: edge 1 points b -> a.
  EXPECT_EQ(router.connect(0, 0), kNone);
  EXPECT_FALSE(router.path_carried(line));

  router.contract_edge(1);
  EXPECT_TRUE(router.path_carried(line));  // the weld carries a -> b
  const auto c = router.connect(0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c), line);
  router.disconnect(c);

  // Un-welding severs the only conductor again.
  router.uncontract_edge(1);
  EXPECT_FALSE(router.path_carried(line));
  EXPECT_EQ(router.connect(0, 0), kNone);
  EXPECT_EQ(router.busy_vertices(), 0u);
  // A failed weld carries nothing, in either direction.
  router.fail_edge(1);
  router.contract_edge(1);
  EXPECT_FALSE(router.path_carried(line));
}

// Stuck-on and open failures coexisting on PARALLEL switches of the same
// hop. The weld must never mask an open-failed sibling: the weld carries
// the hop while it lasts, but the open switch stays dead, and once the weld
// is repaired the hop lives or dies on the remaining siblings alone.
TEST(RouterStores, StuckAndOpenSiblingsOnOneHop) {
  const auto net = build_parallel_hop();
  AuditedRouter router(net);
  const auto connect_ok = [&]() -> bool {
    const auto c = router.connect(0, 0);
    if (c == kNone) return false;
    router.disconnect(c);
    return true;
  };

  EXPECT_TRUE(connect_ok());
  router.fail_edge(1);  // sibling A opens: B still switches the hop
  EXPECT_TRUE(connect_ok());
  router.contract_edge(2);  // sibling B welds shut: the hop is forced
  EXPECT_TRUE(connect_ok());
  // The weld must not have masked A's open failure...
  EXPECT_TRUE(router.edge_failed(1));
  // ...so repairing ONLY the weld leaves the hop dead (A is still open).
  router.uncontract_edge(2);
  router.fail_edge(2);  // B now fails open too
  EXPECT_FALSE(connect_ok());
  router.repair_edge(1);  // A heals: the hop switches normally again
  EXPECT_TRUE(connect_ok());
  router.repair_edge(2);
  EXPECT_TRUE(connect_ok());
}

// ------------------------------ overlay == offline discard / contraction

/// Routing on the FULL network with `inst` applied through the runtime
/// primitives reaches exactly the terminal pairs `reference` (the offline
/// rebuilt network) reaches. The router kills the vertices of `dead` and
/// fails every failed switch of `inst`, except that with `contract_stuck`
/// the closed failures are contracted (welds) instead. `in_map`/`out_map`
/// carry terminal indices into the rebuild (-1: discarded).
void expect_overlay_matches_rebuild(const graph::Network& net,
                                    const fault::FaultInstance& inst,
                                    const std::vector<std::uint8_t>& dead,
                                    bool contract_stuck,
                                    const graph::Network& reference,
                                    const std::vector<std::uint32_t>& in_map,
                                    const std::vector<std::uint32_t>& out_map,
                                    const std::string& what) {
  AuditedRouter router(net);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    if (dead[v]) router.kill_vertex(v);
  for (const fault::Failure& f : inst.failures()) {
    if (contract_stuck && f.state == fault::SwitchState::kClosedFail)
      router.contract_edge(f.edge);
    else
      router.fail_edge(f.edge);
  }

  core::Router rebuilt(reference);
  constexpr auto kDiscarded = static_cast<std::uint32_t>(-1);
  for (std::uint32_t i = 0; i < net.inputs.size(); ++i) {
    for (std::uint32_t o = 0; o < net.outputs.size(); ++o) {
      bool reference_reaches = false;
      if (in_map[i] != kDiscarded && out_map[o] != kDiscarded) {
        const auto c = rebuilt.connect(in_map[i], out_map[o]);
        if (c != kNone) {
          reference_reaches = true;
          rebuilt.disconnect(c);
        }
      }
      const auto c = router.connect(i, o);
      EXPECT_EQ(c != kNone, reference_reaches)
          << what << " pair (" << i << "," << o << ")";
      if (c != kNone) router.disconnect(c);
    }
  }
}

// A sampled FaultInstance applied live == repair_by_discard's rebuilt
// network: every failed switch fails, either mode, and the router kills
// the instance's §6 faulty mask verbatim (terminals included).
void expect_overlay_matches_discard(const graph::Network& net, double eps,
                                    std::uint64_t seed) {
  const fault::FaultInstance inst(net, fault::FaultModel::symmetric(eps),
                                  seed);
  const auto repaired = fault::repair_by_discard(inst);
  // Terminal-index mapping into the rebuilt network.
  const auto index_map = [&](const std::vector<graph::VertexId>& old_list,
                             const std::vector<graph::VertexId>& new_list) {
    std::vector<std::uint32_t> map(old_list.size(),
                                   static_cast<std::uint32_t>(-1));
    for (std::size_t i = 0; i < old_list.size(); ++i) {
      const auto nv = repaired.old_to_new[old_list[i]];
      if (nv == graph::kNoVertex) continue;
      for (std::size_t k = 0; k < new_list.size(); ++k)
        if (new_list[k] == nv) map[i] = static_cast<std::uint32_t>(k);
    }
    return map;
  };
  expect_overlay_matches_rebuild(
      net, inst, inst.faulty_vertices(), false, repaired.net,
      index_map(net.inputs, repaired.net.inputs),
      index_map(net.outputs, repaired.net.outputs),
      "discard eps " + std::to_string(eps) + " seed " + std::to_string(seed));
}

TEST(RouterStores, OverlayMatchesRepairByDiscard) {
  const auto& ft = core::build_ft_network(core::FtParams::sim(1, 8, 6, 1, 3));
  for (const std::uint64_t seed : {11u, 12u, 13u})
    expect_overlay_matches_discard(ft.net, 0.02, seed);
  const auto cantor = networks::build_cantor({4, 0});
  for (const std::uint64_t seed : {21u, 22u})
    expect_overlay_matches_discard(cantor, 0.01, seed);
  // Heavier damage: discard tears real holes, the overlay must follow.
  expect_overlay_matches_discard(networks::build_crossbar(6), 0.15,
                                            31);
}

// The live-contraction pin, mirroring the discard equivalence above: with
// open failures failed (their endpoints killed by the instance's
// open_faulty_mask) and stuck-on switches welded via the runtime
// contract_edge primitive, the router reaches exactly the terminal pairs
// the OFFLINE contracted-and-rebuilt network (repair_by_contraction)
// reaches.
void expect_contraction_matches_offline(const graph::Network& net,
                                        const fault::FaultModel& model,
                                        std::uint64_t seed) {
  const fault::FaultInstance inst(net, model, seed);
  const auto rebuilt = fault::repair_by_contraction(inst, false);
  // Rebuilt terminal lists keep the original order, skipping discarded
  // terminals (merged terminals share a vertex but keep distinct indices).
  const auto index_map = [&](const std::vector<graph::VertexId>& old_list,
                             std::size_t rebuilt_count) {
    std::vector<std::uint32_t> map(old_list.size(),
                                   static_cast<std::uint32_t>(-1));
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < old_list.size(); ++i)
      if (rebuilt.old_to_new[old_list[i]] != graph::kNoVertex) map[i] = next++;
    EXPECT_EQ(next, rebuilt_count);
    return map;
  };
  expect_overlay_matches_rebuild(
      net, inst, inst.open_faulty_mask(false), true, rebuilt.net,
      index_map(net.inputs, rebuilt.net.inputs.size()),
      index_map(net.outputs, rebuilt.net.outputs.size()),
      "contraction on " + net.name + " seed " + std::to_string(seed));
}

TEST(RouterStores, LiveStuckOnMatchesOfflineContraction) {
  // Pure closed failures: every fault is a weld, nothing dies.
  const auto& ft = core::build_ft_network(core::FtParams::sim(1, 8, 6, 1, 3));
  for (const std::uint64_t seed : {51u, 52u, 53u})
    expect_contraction_matches_offline(ft.net, {0.0, 0.02}, seed);
  const auto cantor = networks::build_cantor({4, 0});
  for (const std::uint64_t seed : {61u, 62u})
    expect_contraction_matches_offline(cantor, {0.0, 0.01}, seed);
  // Heavy pure-closed damage on a dense net: long weld chains, terminal
  // shorts (Lemma 7's catastrophe is a legal, reachable state here).
  expect_contraction_matches_offline(networks::build_crossbar(6),
                                                {0.0, 0.2}, 71);
}

TEST(RouterStores, MixedOpenAndStuckMatchesOfflineContraction) {
  // Both failure modes at once: open failures discard, welds contract, and
  // the interactions (a weld severed by a dead endpoint, a hop carried only
  // by a weld) must agree with the offline rebuild.
  const auto& ft = core::build_ft_network(core::FtParams::sim(1, 8, 6, 1, 3));
  for (const std::uint64_t seed : {81u, 82u, 83u})
    expect_contraction_matches_offline(
        ft.net, fault::FaultModel::symmetric(0.02), seed);
  const auto cantor = networks::build_cantor({4, 0});
  for (const std::uint64_t seed : {91u, 92u})
    expect_contraction_matches_offline(
        cantor, fault::FaultModel::symmetric(0.01), seed);
  expect_contraction_matches_offline(
      networks::build_crossbar(6), fault::FaultModel::symmetric(0.12), 99);
}

// ------------------------------------------------------- fault schedule

TEST(FaultSchedule, DeterministicSortedAndAlternating) {
  fault::FaultSchedule::Params params;
  params.failure_rate = 2e-3;
  params.mean_repair = 20.0;
  params.horizon = 500.0;
  params.seed = 77;
  const fault::FaultSchedule a(4000, params);
  const fault::FaultSchedule b(4000, params);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].edge, b.events()[i].edge);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
  }
  // Sorted by time; per edge the stream alternates fail, repair, fail, ...
  std::map<graph::EdgeId, fault::FaultEvent::Kind> last;
  double prev = 0.0;
  for (const auto& ev : a.events()) {
    EXPECT_GE(ev.time, prev);
    EXPECT_LT(ev.time, params.horizon);
    prev = ev.time;
    const auto it = last.find(ev.edge);
    if (it == last.end())
      EXPECT_EQ(ev.kind, fault::FaultEvent::Kind::kFail);
    else
      EXPECT_NE(ev.kind, it->second);
    last[ev.edge] = ev.kind;
  }
  EXPECT_GE(a.fail_count(), a.repair_count());
  EXPECT_GT(a.repair_count(), 0u);
}

TEST(FaultSchedule, PermanentFaultsAndRateScaling) {
  fault::FaultSchedule::Params params;
  params.failure_rate = 1e-3;
  params.mean_repair = 0.0;  // permanent
  params.horizon = 1000.0;
  params.seed = 5;
  const fault::FaultSchedule permanent(2000, params);
  EXPECT_EQ(permanent.repair_count(), 0u);
  // ~ E * (1 - exp(-rate * horizon)) ~ 2000 * 0.63 ~ 1264 expected fails.
  EXPECT_GT(permanent.fail_count(), 900u);
  EXPECT_LT(permanent.fail_count(), 1600u);
  // At most one (permanent) failure per switch.
  std::set<graph::EdgeId> seen;
  for (const auto& ev : permanent.events()) {
    EXPECT_TRUE(seen.insert(ev.edge).second);
  }
  const auto quiet = fault::FaultSchedule::from_model(
      fault::FaultModel::none(), 2000, 1000.0, 0.0, 5);
  EXPECT_TRUE(quiet.empty());
}

TEST(FaultSchedule, MixedModeCarriesTheModelSplit) {
  // A symmetric model welds half its failures shut; the stream stays
  // deterministic and alternates failure (either kind) / repair per edge.
  const auto mixed = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(1e-3), 4000, /*horizon=*/500.0,
      /*mean_repair=*/20.0, /*seed=*/123);
  const auto again = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(1e-3), 4000, 500.0, 20.0, 123);
  ASSERT_EQ(mixed.events().size(), again.events().size());
  for (std::size_t i = 0; i < mixed.events().size(); ++i)
    EXPECT_EQ(mixed.events()[i].kind, again.events()[i].kind);
  EXPECT_GT(mixed.stuck_count(), 0u);
  EXPECT_GT(mixed.fail_count(), mixed.stuck_count());  // open events too
  std::size_t fails = 0, stuck = 0;
  std::map<graph::EdgeId, bool> down;  // edge -> currently failed
  for (const auto& ev : mixed.events()) {
    if (fault::is_failure(ev.kind)) {
      ++fails;
      if (ev.kind == fault::FaultEvent::Kind::kStuckOn) ++stuck;
      EXPECT_FALSE(down[ev.edge]);  // never two failures without a repair
      down[ev.edge] = true;
    } else {
      EXPECT_TRUE(down[ev.edge]);  // repairs only follow a failure
      down[ev.edge] = false;
    }
  }
  EXPECT_EQ(fails, mixed.fail_count());
  EXPECT_EQ(stuck, mixed.stuck_count());

  // An open-only model never welds; a closed-only model always does.
  const auto open_only = fault::FaultSchedule::from_model(
      {2e-3, 0.0}, 4000, 500.0, 20.0, 123);
  EXPECT_EQ(open_only.stuck_count(), 0u);
  const auto closed_only = fault::FaultSchedule::from_model(
      {0.0, 2e-3}, 4000, 500.0, 20.0, 123);
  EXPECT_EQ(closed_only.stuck_count(), closed_only.fail_count());
  EXPECT_GT(closed_only.stuck_count(), 0u);
}

/// The generator as first written, with std::stable_sort on (time, edge):
/// the reference the linear-time sort must reproduce bit for bit.
struct ReferenceSchedule {
  std::vector<fault::FaultEvent> events;
  std::size_t fails = 0, stuck = 0;
};

ReferenceSchedule reference_schedule(std::size_t edge_count,
                                     const fault::FaultSchedule::Params& p) {
  using Kind = fault::FaultEvent::Kind;
  ReferenceSchedule r;
  if (p.failure_rate == 0.0 || p.horizon == 0.0 || edge_count == 0) return r;
  const double p_hit = -std::expm1(-p.failure_rate * p.horizon);
  util::Xoshiro256 skip_rng(p.seed);
  for (std::uint64_t e = skip_rng.geometric(p_hit); e < edge_count;
       e += 1 + skip_rng.geometric(p_hit)) {
    util::Xoshiro256 rng(util::derive_seed(p.seed, e));
    double t = -std::log1p(-rng.uniform() * p_hit) / p.failure_rate;
    const auto edge = static_cast<graph::EdgeId>(e);
    while (t < p.horizon) {
      const bool stuck =
          p.stuck_fraction > 0.0 && rng.uniform() < p.stuck_fraction;
      r.events.push_back({t, edge, stuck ? Kind::kStuckOn : Kind::kFail});
      if (p.mean_repair <= 0.0) break;
      t += rng.exponential(1.0 / p.mean_repair);
      if (t >= p.horizon) break;
      r.events.push_back({t, edge, Kind::kRepair});
      t += rng.exponential(p.failure_rate);
    }
  }
  std::stable_sort(r.events.begin(), r.events.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.edge < b.edge;
                   });
  for (const fault::FaultEvent& ev : r.events) {
    r.fails += fault::is_failure(ev.kind) ? 1 : 0;
    r.stuck += ev.kind == Kind::kStuckOn ? 1 : 0;
  }
  return r;
}

void expect_matches_reference(std::size_t edge_count,
                              const fault::FaultSchedule::Params& p) {
  SCOPED_TRACE(::testing::Message()
               << edge_count << " switches, rate " << p.failure_rate
               << ", repair " << p.mean_repair << ", horizon " << p.horizon
               << ", stuck " << p.stuck_fraction << ", seed " << p.seed);
  const fault::FaultSchedule fs(edge_count, p);
  const ReferenceSchedule ref = reference_schedule(edge_count, p);
  ASSERT_EQ(fs.events().size(), ref.events.size());
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    const fault::FaultEvent& a = fs.events()[i];
    const fault::FaultEvent& b = ref.events[i];
    ASSERT_TRUE(a.time == b.time && a.edge == b.edge && a.kind == b.kind)
        << "event " << i << ": (" << a.time << ", " << a.edge << ", "
        << static_cast<int>(a.kind) << ") vs (" << b.time << ", " << b.edge
        << ", " << static_cast<int>(b.kind) << ")";
  }
  EXPECT_EQ(fs.fail_count(), ref.fails);
  EXPECT_EQ(fs.stuck_count(), ref.stuck);
  EXPECT_EQ(fs.repair_count(), ref.events.size() - ref.fails);
}

TEST(FaultSchedule, LinearSortMatchesTheStableSortReference) {
  const double inf = std::numeric_limits<double>::infinity();
  // storm-fed's member shape (cantor-k7's switches) and its trunk shape.
  for (const double stuck : {0.0, 0.25, 1.0})
    expect_matches_reference(26'880, {2e-4, 8.0, 3939.0, stuck, 11});
  expect_matches_reference(128, {5e-2, 8.0, 3939.0, 0.0, 12});
  // Exact fail/repair ties: each repair lands on its failure's time.
  expect_matches_reference(4000, {2e-3, 1e-300, 500.0, 0.25, 13});
  // Permanent faults with rate x horizon >> 1: every switch fails once,
  // crowded near time 0.
  expect_matches_reference(200'000, {1.0, 0.0, 1e5, 0.25, 14});
  // Fast failures and long repairs: the first failures crowd the first
  // buckets (thousands per bucket), so the crowded-bucket fallback sorts.
  expect_matches_reference(10'000, {1.0, 1e4, 1e5, 0.25, 15});
  // Permanent faults over an unbounded horizon; times too small for a
  // finite bucket scale; a single event.
  expect_matches_reference(1000, {1e-3, 0.0, inf, 0.0, 16});
  expect_matches_reference(1000, {1e308, 0.0, 1.0, 0.5, 17});
  expect_matches_reference(1, {1.0, 0.0, 10.0, 0.0, 18});
  // The empty cases: no switches, no rate, no horizon, no switch hit.
  const std::pair<std::size_t, fault::FaultSchedule::Params> empties[] = {
      {0, {2e-4, 8.0, 3939.0, 0.25, 19}},
      {50, {0.0, 8.0, 3939.0, 0.25, 19}},
      {50, {2e-4, 8.0, 0.0, 0.25, 19}},
      {50, {1e-12, 8.0, 1.0, 0.25, 19}}};
  for (const auto& [edges, p] : empties) {
    expect_matches_reference(edges, p);
    EXPECT_TRUE(fault::FaultSchedule(edges, p).empty());
  }
  // A rate so small that the skip gap passes 2^64 hits no switch (the
  // gap once wrapped to 0 and failed every one).
  EXPECT_TRUE(fault::FaultSchedule(1000, {1e-300, 8.0, 1.0, 0.25, 20}).empty());
}

/// Params with one field replaced; the rest a valid repairing schedule.
fault::FaultSchedule::Params with(double fault::FaultSchedule::Params::*field,
                                  double value) {
  fault::FaultSchedule::Params p{2e-3, 20.0, 500.0, 0.25, 1};
  p.*field = value;
  return p;
}

TEST(FaultSchedule, RejectsANanFailureRate) {
  using P = fault::FaultSchedule::Params;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(fault::FaultSchedule(100, with(&P::failure_rate, nan)),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultSchedule(100, with(&P::failure_rate, -1.0)),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultSchedule(
                   100, with(&P::failure_rate,
                             std::numeric_limits<double>::infinity())),
               std::invalid_argument);
}

TEST(FaultSchedule, RejectsAnInfiniteHorizonWithRepairs) {
  using P = fault::FaultSchedule::Params;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fault::FaultSchedule(100, with(&P::horizon, inf)),
               std::invalid_argument);
  EXPECT_THROW(
      fault::FaultSchedule(
          100, with(&P::horizon, std::numeric_limits<double>::quiet_NaN())),
      std::invalid_argument);
  // Permanent faults end by themselves: every switch fails once.
  P permanent = with(&P::horizon, inf);
  permanent.mean_repair = 0.0;
  const fault::FaultSchedule all(100, permanent);
  EXPECT_EQ(all.fail_count(), 100u);
  EXPECT_EQ(all.repair_count(), 0u);
}

TEST(FaultSchedule, RejectsANanMeanRepair) {
  using P = fault::FaultSchedule::Params;
  EXPECT_THROW(
      fault::FaultSchedule(
          100, with(&P::mean_repair, std::numeric_limits<double>::quiet_NaN())),
      std::invalid_argument);
  EXPECT_THROW(
      fault::FaultSchedule(
          100, with(&P::mean_repair, std::numeric_limits<double>::infinity())),
      std::invalid_argument);
}

TEST(FaultSchedule, RejectsAStuckFractionOutsideTheUnitInterval) {
  using P = fault::FaultSchedule::Params;
  for (const double bad :
       {-0.25, 1.5, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(fault::FaultSchedule(100, with(&P::stuck_fraction, bad)),
                 std::invalid_argument)
        << bad;
  EXPECT_NO_THROW(fault::FaultSchedule(100, with(&P::stuck_fraction, 0.0)));
  EXPECT_NO_THROW(fault::FaultSchedule(100, with(&P::stuck_fraction, 1.0)));
}

// ------------------------------------------------- exchange fault plane

TEST(ExchangeFaultPlane, InjectKillsAndReroutesOnRichTopology) {
  const auto net = networks::build_cantor({5, 0});
  svc::Exchange ex(net, {});
  const svc::Outcome o = ex.call({0, 3, 0, /*tag=*/42});
  ASSERT_TRUE(o.connected());
  const auto path = ex.path_of(o.id);
  ASSERT_GE(path.size(), 2u);
  const auto e = edge_between(net.g, path[0], path[1]);
  ASSERT_LT(e, net.g.edge_count());

  fault::FaultEvent ev;
  ev.edge = e;
  const svc::FaultImpact impact = ex.inject(ev);
  ASSERT_EQ(impact.calls_killed(), 1u);
  EXPECT_EQ(impact.killed[0].reject, svc::RejectReason::kFaulted);
  EXPECT_EQ(impact.killed[0].tag, 42u);
  EXPECT_STREQ(to_string(impact.killed[0].reject), "killed_by_fault");
  // Cantor has path diversity: the victim must come back on a detour.
  ASSERT_EQ(impact.reroutes.size(), 1u);
  EXPECT_EQ(impact.reroute_succeeded, 1u);
  EXPECT_EQ(impact.reroute_failed, 0u);
  ASSERT_TRUE(impact.reroutes[0].connected());
  EXPECT_EQ(impact.reroutes[0].tag, 42u);

  // The retained old handle gets the typed kFaulted ack, not a misuse.
  EXPECT_EQ(ex.hangup(o.id), svc::RejectReason::kFaulted);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.handle_errors, 0u);
  EXPECT_EQ(st.faults_injected, 1u);
  EXPECT_EQ(st.calls_killed_by_fault, 1u);
  EXPECT_EQ(st.reroute_succeeded, 1u);
  EXPECT_EQ(ex.failed_switch_count(), 1u);

  // Double inject of the same switch is a no-op.
  EXPECT_EQ(ex.inject(ev).calls_killed(), 0u);
  EXPECT_EQ(ex.stats().faults_injected, 1u);

  EXPECT_EQ(ex.hangup(impact.reroutes[0].id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

TEST(ExchangeFaultPlane, RerouteFailsWithoutDetourAndRepairRestores) {
  const auto net = build_line_with_spur();
  svc::Exchange ex(net, {});
  const svc::Outcome o = ex.call({0, 0, 0, /*tag=*/7});
  ASSERT_TRUE(o.connected());

  fault::FaultEvent ev;
  ev.edge = edge_between(net.g, 1, 2);  // a -> m: only path dies, m dies
  const svc::FaultImpact impact = ex.inject(ev);
  ASSERT_EQ(impact.calls_killed(), 1u);
  EXPECT_EQ(impact.reroute_failed, 1u);
  EXPECT_EQ(impact.reroute_succeeded, 0u);
  EXPECT_FALSE(impact.reroutes[0].connected());
  EXPECT_EQ(impact.reroutes[0].reject, svc::RejectReason::kNoPath);
  // Terminals were released by the kill; only the topology is degraded.
  EXPECT_TRUE(ex.input_idle(0));
  EXPECT_TRUE(ex.output_idle(0));
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_FALSE(ex.call({0, 0}).connected());

  const svc::FaultImpact healed = ex.repair(ev);
  EXPECT_EQ(healed.calls_killed(), 0u);
  EXPECT_EQ(ex.failed_switch_count(), 0u);
  const svc::Outcome back = ex.call({0, 0});
  ASSERT_TRUE(back.connected());
  EXPECT_EQ(ex.hangup(back.id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.stats().faults_repaired, 1u);
}

TEST(ExchangeFaultPlane, VertexRevivesOnlyWithLastIncidentRepair) {
  const auto net = build_line_with_spur();
  svc::Exchange ex(net, {});
  fault::FaultEvent spur_ev;  // m -> spur: kills m without touching the path
  spur_ev.edge = edge_between(net.g, 2, 5);
  fault::FaultEvent path_ev;  // a -> m
  path_ev.edge = edge_between(net.g, 1, 2);

  ex.inject(spur_ev);
  EXPECT_FALSE(ex.call({0, 0}).connected());  // m §6-faulty: unusable
  ex.inject(path_ev);                         // second incident failure
  ex.repair(spur_ev);
  // m still has a failed incident switch (AND the path edge is dead).
  EXPECT_FALSE(ex.call({0, 0}).connected());
  ex.repair(path_ev);  // last incident switch healed -> m revives
  const svc::Outcome o = ex.call({0, 0});
  ASSERT_TRUE(o.connected());
  EXPECT_EQ(ex.hangup(o.id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

TEST(ExchangeFaultPlane, StuckOnKeepsCallsAndCountsSeparately) {
  const auto net = networks::build_cantor({5, 0});
  svc::Exchange ex(net, {});
  const svc::Outcome o = ex.call({0, 3, 0, /*tag=*/77});
  ASSERT_TRUE(o.connected());
  const auto path = ex.path_of(o.id);
  ASSERT_GE(path.size(), 2u);
  fault::FaultEvent ev;
  ev.edge = edge_between(net.g, path[0], path[1]);
  ev.kind = fault::FaultEvent::Kind::kStuckOn;
  ASSERT_LT(ev.edge, net.g.edge_count());

  // The switch welds CONDUCTING: the call keeps its path (the hop is now a
  // free ride), nothing is killed, no vertex dies.
  const svc::FaultImpact impact = ex.apply(ev);
  EXPECT_EQ(impact.calls_killed(), 0u);
  EXPECT_EQ(ex.failed_switch_count(), 1u);
  EXPECT_EQ(ex.stuck_switch_count(), 1u);
  EXPECT_TRUE(ex.call({1, 1}).connected());  // topology still serves

  // A second failure of a down switch — either mode — is a no-op.
  EXPECT_EQ(ex.inject(ev).calls_killed(), 0u);
  fault::FaultEvent open_ev = ev;
  open_ev.kind = fault::FaultEvent::Kind::kFail;
  EXPECT_EQ(ex.inject(open_ev).calls_killed(), 0u);
  svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.faults_stuck, 1u);
  EXPECT_EQ(st.faults_injected, 0u);  // the open inject was the no-op
  EXPECT_EQ(st.calls_killed_by_fault, 0u);

  // The original call is still the owner's to hang up — a kNone ack, not a
  // fault notification.
  EXPECT_EQ(ex.hangup(o.id), svc::RejectReason::kNone);

  // Repair un-welds: a forward crosser would have kept its hop; with no
  // calls up nothing dies, and the books settle at one stuck + one repair.
  fault::FaultEvent rep = ev;
  rep.kind = fault::FaultEvent::Kind::kRepair;
  EXPECT_EQ(ex.apply(rep).calls_killed(), 0u);
  st = ex.stats();
  EXPECT_EQ(st.faults_repaired, 1u);
  EXPECT_EQ(ex.failed_switch_count(), 0u);
  EXPECT_EQ(ex.stuck_switch_count(), 0u);
  EXPECT_EQ(st.handle_errors, 0u);
}

TEST(ExchangeFaultPlane, StuckOnDoesNotKillEndpointVertices) {
  // Open-failing m's spur switch kills m (§6); welding the SAME switch
  // must not — a stuck-on contact still conducts, so m keeps serving.
  const auto net = build_line_with_spur();
  svc::Exchange ex(net, {});
  fault::FaultEvent weld;
  weld.edge = edge_between(net.g, 2, 5);  // m -> spur
  weld.kind = fault::FaultEvent::Kind::kStuckOn;
  ex.apply(weld);
  const svc::Outcome o = ex.call({0, 0});
  ASSERT_TRUE(o.connected());  // m alive: the unique path still works
  EXPECT_EQ(ex.hangup(o.id), svc::RejectReason::kNone);

  // Contrast: the open failure of the same switch kills m.
  fault::FaultEvent rep = weld;
  rep.kind = fault::FaultEvent::Kind::kRepair;
  ex.apply(rep);
  fault::FaultEvent open = weld;
  open.kind = fault::FaultEvent::Kind::kFail;
  ex.apply(open);
  EXPECT_FALSE(ex.call({0, 0}).connected());
}

TEST(ExchangeFaultPlane, RepairOfAWeldSeversReverseCrossersOnly) {
  // Reverse crosser: the call exists only because the weld conducts
  // against its direction; the repair severs it, and the degraded
  // topology has no detour.
  const auto net = build_reversed_line();
  svc::Exchange ex(net, {});
  fault::FaultEvent weld;
  weld.edge = 1;  // b -> a, the only a..b conductor
  weld.kind = fault::FaultEvent::Kind::kStuckOn;
  ex.apply(weld);
  const svc::Outcome o = ex.call({0, 0, 0, /*tag=*/9});
  ASSERT_TRUE(o.connected());
  EXPECT_EQ(o.path_length, 4u);

  fault::FaultEvent rep = weld;
  rep.kind = fault::FaultEvent::Kind::kRepair;
  const svc::FaultImpact impact = ex.apply(rep);
  ASSERT_EQ(impact.calls_killed(), 1u);
  EXPECT_EQ(impact.killed[0].reject, svc::RejectReason::kFaulted);
  EXPECT_EQ(impact.killed[0].tag, 9u);
  ASSERT_EQ(impact.reroutes.size(), 1u);
  EXPECT_FALSE(impact.reroutes[0].connected());
  EXPECT_EQ(impact.reroute_failed, 1u);
  // The retained handle gets the typed fault ack, not a misuse.
  EXPECT_EQ(ex.hangup(o.id), svc::RejectReason::kFaulted);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.calls_killed_by_fault, 1u);
  EXPECT_EQ(st.handle_errors, 0u);

  // Forward crosser: a call OVER a welded path-edge survives the repair
  // (the switch keeps conducting in its own direction).
  const auto line = build_line_with_spur();
  svc::Exchange ex2(line, {});
  fault::FaultEvent weld2;
  weld2.edge = edge_between(line.g, 1, 2);  // a -> m, ON the unique path
  weld2.kind = fault::FaultEvent::Kind::kStuckOn;
  ex2.apply(weld2);
  const svc::Outcome o2 = ex2.call({0, 0, 0, /*tag=*/10});
  ASSERT_TRUE(o2.connected());
  fault::FaultEvent rep2 = weld2;
  rep2.kind = fault::FaultEvent::Kind::kRepair;
  EXPECT_EQ(ex2.apply(rep2).calls_killed(), 0u);
  EXPECT_EQ(ex2.hangup(o2.id), svc::RejectReason::kNone);
  EXPECT_EQ(ex2.stats().calls_killed_by_fault, 0u);
}

// A weld-carried settle on a drain. The short arm's open failure and the
// long arm's weld leave the weld, crossed against its direction, as the
// only idle path for in0 -> out0. The drain settles the long arm, which the
// hop rule carries. Repairing the short arm
// kills nothing; repairing the weld then reaps the call as kFaulted and
// reroutes it over the short arm.
TEST(ExchangeFaultPlane, DrainSettlesAReverseWeldHop) {
  const auto net = build_weld_lane_net();
  svc::Exchange ex(net, {});
  const auto event = [](graph::EdgeId e, fault::FaultEvent::Kind kind) {
    fault::FaultEvent ev;
    ev.edge = e;
    ev.kind = kind;
    return ev;
  };
  using Kind = fault::FaultEvent::Kind;
  ASSERT_EQ(ex.apply(event(1, Kind::kFail)).calls_killed(), 0u);
  ASSERT_EQ(ex.apply(event(3, Kind::kStuckOn)).calls_killed(), 0u);
  const svc::Ticket t0 = ex.submit({0, 0, 0, /*tag=*/40});
  const svc::Ticket t1 = ex.submit({1, 1, 0, /*tag=*/41});
  ASSERT_EQ(ex.drain(), 2u);
  EXPECT_EQ(ex.stats().epochs, 1u);
  const auto o0 = ex.poll(t0);
  const auto o1 = ex.poll(t1);
  ASSERT_TRUE(o0 && o0->connected());
  ASSERT_TRUE(o1 && o1->connected());
  const std::vector<graph::VertexId> long_arm{0, 2, 3, 4};
  const std::vector<graph::VertexId> path = ex.path_of(o0->id);
  EXPECT_EQ(path, long_arm);
  // The hop rule on the same overlay carries it; without the weld it would
  // not.
  core::Router mirror(net);
  mirror.fail_edge(1);
  EXPECT_FALSE(mirror.path_carried(path));
  mirror.contract_edge(3);
  EXPECT_TRUE(mirror.path_carried(path));

  ASSERT_EQ(ex.apply(event(1, Kind::kRepair)).calls_killed(), 0u);
  const svc::FaultImpact impact = ex.apply(event(3, Kind::kRepair));
  ASSERT_EQ(impact.calls_killed(), 1u);
  EXPECT_EQ(impact.killed[0].reject, svc::RejectReason::kFaulted);
  EXPECT_EQ(impact.killed[0].tag, 40u);
  ASSERT_EQ(impact.reroutes.size(), 1u);
  ASSERT_TRUE(impact.reroutes[0].connected());
  EXPECT_EQ(impact.reroute_succeeded, 1u);
  const std::vector<graph::VertexId> short_arm{0, 1, 4};
  EXPECT_EQ(ex.path_of(impact.reroutes[0].id), short_arm);
  EXPECT_EQ(ex.hangup(o0->id), svc::RejectReason::kFaulted);
  EXPECT_EQ(ex.hangup(impact.reroutes[0].id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.hangup(o1->id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

/// The first switch on a live call's path.
graph::EdgeId first_hop(svc::Exchange& ex, svc::CallId id) {
  const auto path = ex.path_of(id);
  EXPECT_GE(path.size(), 2u);
  return edge_between(ex.network().g, path[0], path[1]);
}

// Victims never pass through the admission queue: inject() reroutes its
// victim before it returns, and no request is submitted and no epoch runs.
TEST(ExchangeFaultPlane, VictimReroutesInsideInjectWithoutAnEpoch) {
  const auto net = networks::build_cantor({4, 0});
  svc::Exchange ex(net, {});
  const svc::Outcome o = ex.call({0, 1, 0, /*tag=*/5});
  ASSERT_TRUE(o.connected());
  fault::FaultEvent ev;
  ev.edge = first_hop(ex, o.id);
  const svc::FaultImpact impact = ex.inject(ev);
  ASSERT_EQ(impact.calls_killed(), 1u);
  ASSERT_TRUE(impact.reroutes[0].connected());
  EXPECT_EQ(impact.reroutes[0].tag, 5u);
  EXPECT_EQ(impact.reroute_succeeded, 1u);
  EXPECT_EQ(ex.pending(), 0u);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.submitted, 0u);
  EXPECT_EQ(st.epochs, 0u);
  EXPECT_EQ(ex.hangup(impact.reroutes[0].id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

// A fault event that kills a call leaves a queued backlog as it found it:
// no request is admitted, no epoch runs, and the next drains serve the
// whole backlog window by window.
TEST(ExchangeFaultPlane, BacklogSurvivesAVictimProducingInject) {
  const auto net = networks::build_cantor({5, 0});
  svc::ExchangeConfig cfg;
  cfg.window = 4;
  svc::Exchange ex(net, cfg);
  const svc::Outcome o = ex.call({0, 1, 0, /*tag=*/77});
  ASSERT_TRUE(o.connected());
  constexpr std::uint32_t kBacklog = 29;
  for (std::uint32_t i = 2; i < 2 + kBacklog; ++i) ex.submit({i, i, 0, i});
  const svc::ExchangeStats before = ex.stats();
  ASSERT_EQ(ex.pending(), kBacklog);

  fault::FaultEvent ev;
  ev.edge = first_hop(ex, o.id);
  const svc::FaultImpact impact = ex.inject(ev);
  ASSERT_EQ(impact.calls_killed(), 1u);
  ASSERT_TRUE(impact.reroutes[0].connected());
  EXPECT_EQ(impact.reroutes[0].tag, 77u);
  const auto path = ex.path_of(impact.reroutes[0].id);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), net.inputs[0]);
  EXPECT_EQ(path.back(), net.outputs[1]);

  EXPECT_EQ(ex.pending(), kBacklog);
  const svc::ExchangeStats after = ex.stats();
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.epochs, before.epochs);
  EXPECT_EQ(after.admitted, 0u);
  EXPECT_EQ(after.reroute_succeeded, 1u);

  EXPECT_EQ(ex.drain_all(), kBacklog);
  EXPECT_EQ(ex.stats().epochs, (kBacklog + 3) / 4);
}

// Two victims of one event: the first reroute may take the
// second victim's freed slot, so every request is read before any routes.
// Each reroute must carry its own victim's tag and terminals.
TEST(ExchangeFaultPlane, TwoVictimsOfOneEventRerouteTheirOwnRequests) {
  const auto net = networks::build_cantor({5, 0});
  svc::Exchange ex(net, {});
  const auto n = static_cast<std::uint32_t>(ex.input_count());
  // Half load; tag = input, output = input + n/2 rotated.
  std::map<graph::VertexId, std::uint64_t> holder;  // vertex -> tag
  for (std::uint32_t in = 0; in < n / 2; ++in) {
    const svc::Outcome o = ex.call({in, (in * 5 + 3) % n, 0, in});
    ASSERT_TRUE(o.connected());
    for (const graph::VertexId v : ex.path_of(o.id)) holder[v] = in;
  }
  // A switch between two interior vertices held by different calls: its
  // open failure kills both endpoints, and with them both calls.
  std::vector<std::uint8_t> terminal(net.g.vertex_count(), 0);
  for (const graph::VertexId v : net.inputs) terminal[v] = 1;
  for (const graph::VertexId v : net.outputs) terminal[v] = 1;
  graph::EdgeId hit = net.g.edge_count();
  for (graph::EdgeId e = 0; e < net.g.edge_count() && hit == net.g.edge_count();
       ++e) {
    const auto& edge = net.g.edge(e);
    const auto a = holder.find(edge.from), b = holder.find(edge.to);
    if (a != holder.end() && b != holder.end() && a->second != b->second &&
        !terminal[edge.from] && !terminal[edge.to])
      hit = e;
  }
  ASSERT_LT(hit, net.g.edge_count()) << "no switch joins two calls";
  fault::FaultEvent ev;
  ev.edge = hit;
  const svc::FaultImpact impact = ex.inject(ev);
  ASSERT_EQ(impact.calls_killed(), 2u);
  ASSERT_EQ(impact.reroutes.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t tag = impact.killed[i].tag;
    EXPECT_EQ(impact.reroutes[i].tag, tag);
    ASSERT_TRUE(impact.reroutes[i].connected())
        << to_string(impact.reroutes[i].reject);
    const auto path = ex.path_of(impact.reroutes[i].id);
    ASSERT_GE(path.size(), 2u);
    const auto in = static_cast<std::uint32_t>(tag);
    EXPECT_EQ(path.front(), net.inputs[in]);
    EXPECT_EQ(path.back(), net.outputs[(in * 5 + 3) % n]);
  }
  EXPECT_EQ(ex.stats().submitted, 0u);
}

// ----------------------------------------------- traffic with live faults

TEST(TrafficFaults, ImmediatePlaneSurvivesAnOutageStorm) {
  const auto net = networks::build_cantor({5, 0});
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(2e-4), net.g.edge_count(),
      /*horizon=*/2000.0, /*mean_repair=*/50.0, /*seed=*/3);
  ASSERT_FALSE(schedule.empty());
  svc::Exchange ex(net, {});
  core::TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 4.0;
  p.sim_time = 2000.0;
  p.seed = 17;
  p.faults = &schedule;
  const auto report = simulate_traffic(ex, p);
  EXPECT_GT(report.offered, 1000u);
  EXPECT_GT(report.faults_injected, 0u);
  // A symmetric model makes the storm MIXED: half the failures weld shut
  // (runtime contraction) and ride the same schedule.
  EXPECT_GT(report.stuck_injected, 0u);
  EXPECT_GT(report.faults_repaired, 0u);
  EXPECT_GT(report.killed_by_fault, 0u);
  EXPECT_EQ(report.killed_by_fault,
            report.reroute_succeeded + report.reroute_failed);
  // Every accepted call is accounted for: hung up by its owner or torn
  // down by the fault plane — nothing leaks.
  EXPECT_EQ(report.service.router.accepted,
            report.service.hangups + report.killed_by_fault);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.service.handle_errors, 0u);
}

TEST(TrafficFaults, BatchedPlaneSurvivesTheSameStorm) {
  const auto net = networks::build_cantor({5, 0});
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(2e-4), net.g.edge_count(),
      /*horizon=*/1500.0, /*mean_repair=*/40.0, /*seed=*/9);
  svc::Exchange ex(net, {});
  core::TrafficParams p;
  p.arrival_rate = 3.0;
  p.mean_holding = 3.0;
  p.sim_time = 1500.0;
  p.seed = 23;
  p.epoch_interval = 0.5;  // batched admission plane
  p.faults = &schedule;
  const auto report = simulate_traffic(ex, p);
  EXPECT_GT(report.offered, 1000u);
  EXPECT_GT(report.service.epochs, 100u);
  EXPECT_EQ(report.service.admitted, report.service.submitted);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(report.stuck_injected, 0u);  // mixed open/closed storm
  EXPECT_EQ(report.killed_by_fault,
            report.reroute_succeeded + report.reroute_failed);
  EXPECT_EQ(report.service.router.accepted,
            report.service.hangups + report.killed_by_fault);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(report.service.handle_errors, 0u);
}

TEST(TrafficFaults, BatchedPlaneMatchesImmediateBooksWithoutFaults) {
  const auto net = networks::build_cantor({4, 0});
  svc::Exchange ex(net, {});
  core::TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 2.0;
  p.sim_time = 500.0;
  p.seed = 31;
  p.epoch_interval = 1.0;
  const auto report = simulate_traffic(ex, p);
  EXPECT_GT(report.offered, 300u);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.blocked, 0u);  // §4: a fault-free Cantor never blocks
  EXPECT_EQ(report.service.router.accepted, report.service.hangups);
  EXPECT_EQ(report.killed_by_fault, 0u);
  EXPECT_EQ(ex.active_calls(), 0u);
}

// --------------------------------------------------- concurrency stress

// Router-level flips between connects: a seeded churn runs while, every
// 64 ops, a flip open-fails one switch set and
// WELDS another (stuck-on) for good, then unwelds and re-welds a third,
// output-side set round after round, so the weld-ancestor counts rise and
// fall between the searches. Every connect must settle a path the overlay
// carries as it stands, and after every flip the structural audit holds,
// owner map included: it is built before the churn starts, so every
// connect also writes it.
TEST(RouterOverlay, FlipsBetweenConnectsKeepEveryPathCarried) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kRounds = 16;  // transient unweld/re-weld pairs
  core::Router router(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  // Disjoint flip sets off a probe's paths: first hops open-fail, second
  // hops weld for good, and the hops into the last stage before the output
  // weld and unweld. Those heads' ancestors include the output side's
  // vertices, whose counts the searches read when they leave the cone.
  std::vector<graph::EdgeId> doomed, welded, transient;
  {
    core::Router probe(net);
    for (std::uint32_t i = 0; i + 1 < n; i += 2) {
      const auto c = probe.connect(i, i + 1);
      if (c == core::Router::kNoCall) continue;
      const auto path = probe.path_of(c);
      const std::size_t len = path.size();
      if (len >= 5) {
        doomed.push_back(edge_between(net.g, path[0], path[1]));
        welded.push_back(edge_between(net.g, path[1], path[2]));
        transient.push_back(edge_between(net.g, path[len - 3], path[len - 2]));
      }
      probe.disconnect(c);
    }
  }
  ASSERT_FALSE(doomed.empty());
  ASSERT_EQ(router.call_at(net.inputs[0]),
            core::Router::kNoCall);  // builds the owner map

  std::vector<std::function<void()>> flips;
  flips.emplace_back([&] {
    for (const auto e : doomed) router.fail_edge(e);
    for (const auto e : welded) router.contract_edge(e);
    for (const auto e : transient) router.contract_edge(e);
  });
  for (unsigned round = 0; round < kRounds; ++round) {
    flips.emplace_back([&] {
      for (const auto e : transient) router.uncontract_edge(e);
    });
    flips.emplace_back([&] {
      for (const auto e : transient) router.contract_edge(e);
    });
  }
  flips.emplace_back([&] {
    for (const auto e : transient) router.uncontract_edge(e);
  });

  util::Xoshiro256 rng(977);
  std::vector<core::Router::CallId> active;
  std::size_t flipped = 0, settled = 0;
  for (std::size_t op = 0; op < 12000 || flipped < flips.size(); ++op) {
    if (op % 64 == 63 && flipped < flips.size()) {
      flips[flipped++]();
      audit(router, net, true);
      if (HasFatalFailure()) return;
    }
    if (!active.empty() && (rng() & 3u) == 0) {
      const auto idx = rng() % active.size();
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng() % n);
    const auto out = static_cast<std::uint32_t>(rng() % n);
    const auto call = router.connect(in, out);
    if (call == core::Router::kNoCall) continue;
    active.push_back(call);
    ++settled;
    EXPECT_TRUE(router.path_carried(router.path(call)))
        << "op " << op << " settled a path the overlay does not carry";
  }
  EXPECT_GT(settled, 0u);
  for (const auto c : active) router.disconnect(c);

  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (const auto e : doomed) EXPECT_TRUE(router.edge_failed(e));
  for (const auto e : welded) EXPECT_TRUE(router.edge_contracted(e));
  for (const auto e : transient) EXPECT_FALSE(router.edge_contracted(e));
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    EXPECT_EQ(router.call_at(v), core::Router::kNoCall);
}

// The acceptance-criteria storm: 4 submitter threads race the serving
// thread, which drains their requests, hangs calls up
// and, after every epoch that admitted work, applies the next event of a
// deterministic mixed fault schedule (racing_submitters.hpp). Invariants:
// every settled path crosses only switches that carry it under the
// overlay as it stands (checked in the completion callback, right after
// the commit), every kill surfaces as a typed kFaulted ack (never a
// corrupted slot), and busy state balances exactly after the final
// hangups.
TEST(ExchangeFaultPlane, SubmittersRacingAFaultStormStaySound) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSubmitters = 4;
  constexpr std::uint64_t kPerSubmitter = 2500;
  svc::Exchange ex(net, {});

  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(4e-4), net.g.edge_count(),
      /*horizon=*/400.0, /*mean_repair=*/15.0, /*seed=*/41);
  ASSERT_GT(schedule.fail_count(), 10u);

  ASSERT_GT(schedule.stuck_count(), 0u);  // symmetric model: mixed storm

  std::vector<std::uint8_t> failed_now(net.g.edge_count(), 0);
  std::vector<std::uint8_t> stuck_now(net.g.edge_count(), 0);
  std::vector<svc::Outcome> strays;  // rerouted survivors
  // Before the storm: a kill that is certain, so every run re-admits a
  // victim (certain_kill.hpp).
  test::kill_a_call(ex, strays);

  std::vector<svc::CallId> held;
  std::size_t next_event = 0;
  util::Xoshiro256 rng(util::derive_seed(613, 99));
  test::race_submitters(
      ex, {kSubmitters, kPerSubmitter, 613},
      [&](const svc::Outcome& o) {
        if (!o.connected()) return;
        // No fault event runs between a commit and its callback: the path
        // must be fully alive w.r.t. the CURRENT failed set. A hop is
        // carried by any non-open forward sibling (normal or welded) or by
        // a welded switch conducting against its direction.
        const auto path = ex.path_of(o.id);
        EXPECT_FALSE(path.empty());
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          bool hop_alive = false;
          const auto eids = net.g.out_edges(path[i]);
          const auto tgts = net.g.out_targets(path[i]);
          for (std::size_t k = 0; k < eids.size(); ++k)
            if (tgts[k] == path[i + 1] && !failed_now[eids[k]])
              hop_alive = true;
          if (!hop_alive) {
            const auto reids = net.g.in_edges(path[i]);
            const auto rsrcs = net.g.in_sources(path[i]);
            for (std::size_t k = 0; k < reids.size(); ++k)
              if (rsrcs[k] == path[i + 1] && stuck_now[reids[k]])
                hop_alive = true;
          }
          EXPECT_TRUE(hop_alive)
              << "tag " << o.tag << " path crosses a dead switch";
        }
        held.push_back(o.id);
      },
      [&](std::size_t admitted) {
        if (admitted > 0 && next_event < schedule.events().size()) {
          const auto& ev = schedule.events()[next_event++];
          const svc::FaultImpact impact = ex.apply(ev);
          failed_now[ev.edge] = ev.kind == fault::FaultEvent::Kind::kFail;
          stuck_now[ev.edge] = ev.kind == fault::FaultEvent::Kind::kStuckOn;
          for (const auto& re : impact.reroutes)
            if (re.connected()) strays.push_back(re);
        }
        for (std::size_t k = 0; k < held.size();) {
          if (rng.below(4) != 0) {
            ++k;
            continue;
          }
          const svc::RejectReason r = ex.hangup(held[k]);
          EXPECT_TRUE(test::storm_hangup_ack(r)) << to_string(r);
          held[k] = held.back();
          held.pop_back();
        }
      });
  EXPECT_GT(next_event, 0u);

  // Every handle still held is either live (kNone) or was killed by a
  // fault (typed kFaulted / stale after slot reuse) — never anything that
  // corrupts another call.
  for (const auto id : held) {
    const svc::RejectReason r = ex.hangup(id);
    EXPECT_TRUE(test::storm_hangup_ack(r)) << to_string(r);
  }
  for (const auto& o : strays) {
    const svc::RejectReason r = ex.hangup(o.id);
    EXPECT_TRUE(test::storm_hangup_ack(r)) << to_string(r);
  }
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.accepted, st.hangups + st.calls_killed_by_fault);
  EXPECT_GT(st.faults_injected, 0u);
  EXPECT_GT(st.calls_killed_by_fault, 0u);
  EXPECT_EQ(st.calls_killed_by_fault,
            st.reroute_succeeded + st.reroute_failed);
  // Victims reroute inside their fault event: no fault event touches the
  // admission queue, so it admits and completes exactly the submissions.
  EXPECT_EQ(st.submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(st.admitted, st.submitted);
  EXPECT_EQ(st.completed, st.submitted);
}

}  // namespace
}  // namespace ftcs
