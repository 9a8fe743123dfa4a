// The live fault plane: liveness overlay on both router stores (the typed
// RouterStores suite, router_stores.hpp) for BOTH §2 failure modes — open (routed around) and closed/stuck-on (runtime
// contraction: the welded switch is a free forced hop conducting both
// ways) — the overlay-vs-repair_by_discard and live-contraction-vs-
// repair_by_contraction equivalences, the runtime mixed-mode FaultSchedule,
// svc::Exchange inject/repair with call teardown + reroute (including weld
// repairs severing reverse crossers), fault-aware traffic simulation on
// both service planes, and the TSan-run churn-with-faults stresses. (This
// file carries the `tsan` ctest label the sanitizer CI jobs select by.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/overlay.hpp"
#include "fault/repair.hpp"
#include "fault/schedule.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/router.hpp"
#include "ftcs/traffic.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/admission.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
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

TYPED_TEST(RouterStores, FailAndRepairEdge) {
  const auto net = networks::build_crossbar(3);
  AuditedRouter<TypeParam> router(net);
  const auto e00 = edge_between(net.g, net.inputs[0], net.outputs[0]);
  ASSERT_LT(e00, net.g.edge_count());

  ASSERT_NE(router.connect(0, 0), kNone);
  router.disconnect(0);
  router.fail_edge(e00);
  EXPECT_TRUE(router.edge_failed(e00));
  EXPECT_FALSE(router.edge_usable(e00));
  EXPECT_EQ(router.connect(0, 0), kNone);
  const auto detour = router.connect(0, 1);  // other switches unaffected
  ASSERT_NE(detour, kNone);
  router.disconnect(detour);
  router.repair_edge(e00);
  EXPECT_FALSE(router.edge_failed(e00));
  EXPECT_NE(router.connect(0, 0), kNone);
}

TYPED_TEST(RouterStores, RepairNeverReleasesStaticBlockedEdges) {
  const auto net = networks::build_crossbar(3);
  const auto e00 = edge_between(net.g, net.inputs[0], net.outputs[0]);
  std::vector<std::uint8_t> blocked_edges(net.g.edge_count(), 0);
  blocked_edges[e00] = 1;
  AuditedRouter<TypeParam> router(net, {}, blocked_edges);
  EXPECT_EQ(router.connect(0, 0), kNone);
  // A runtime fail + repair cycle over the statically blocked switch must
  // not resurrect it.
  router.fail_edge(e00);
  router.repair_edge(e00);
  EXPECT_FALSE(router.edge_usable(e00));
  EXPECT_EQ(router.connect(0, 0), kNone);
}

TYPED_TEST(RouterStores, KillAndReviveVertex) {
  const auto net = build_line_with_spur();
  AuditedRouter<TypeParam> router(net);
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

TYPED_TEST(RouterStores, FailRepairAndKillReviveOnALine) {
  const auto net = build_line_with_spur();
  AuditedRouter<TypeParam> router(net);
  const auto e1 = edge_between(net.g, 1, 2);  // a -> m
  router.fail_edge(e1);
  EXPECT_TRUE(router.edge_failed(e1));
  EXPECT_FALSE(router.edge_usable(e1));
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
TYPED_TEST(RouterStores, RepairedOverlaySearchesLikeANeverFaultedRouter) {
  const auto net = networks::build_cantor({5, 0});
  const auto churn = [&net](AuditedRouter<TypeParam>& router) {
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
  AuditedRouter<TypeParam> fresh(net), welded(net), faulted(net);
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
  EXPECT_EQ(b.overlay_conflicts + c.overlay_conflicts, 0u);
}

// ---------------------------------------- stuck-on (contracted) switches

TYPED_TEST(RouterStores, ContractedSwitchesCarryTheLongArm) {
  const auto net = build_two_arm_net();
  AuditedRouter<TypeParam> router(net);
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

TYPED_TEST(RouterStores, WeldedSwitchConductsAgainstItsDirection) {
  const auto net = build_reversed_line();
  AuditedRouter<TypeParam> router(net);
  // No directed path exists: edge 1 points b -> a.
  EXPECT_EQ(router.connect(0, 0), kNone);

  router.contract_edge(1);
  const auto c = router.connect(0, 0);
  ASSERT_NE(c, kNone);
  EXPECT_EQ(router.path_of(c), (std::vector<graph::VertexId>{0, 1, 2, 3}));
  router.disconnect(c);

  // Un-welding severs the only conductor again.
  router.uncontract_edge(1);
  EXPECT_EQ(router.connect(0, 0), kNone);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

// Stuck-on and open failures coexisting on PARALLEL switches of the same
// hop. The weld must never mask an open-failed sibling: the weld carries
// the hop while it lasts, but the open switch stays dead, and once the weld
// is repaired the hop lives or dies on the remaining siblings alone.
TYPED_TEST(RouterStores, StuckAndOpenSiblingsOnOneHop) {
  const auto net = build_parallel_hop();
  AuditedRouter<TypeParam> router(net);
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
  EXPECT_FALSE(router.edge_usable(1));
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

/// Routing on the FULL network under a liveness overlay, applied through
/// the runtime primitives, reaches exactly the terminal pairs `reference`
/// (the offline rebuilt network) reaches. `in_map`/`out_map` carry terminal
/// indices into the rebuild (-1: discarded).
template <class Store>
void expect_overlay_matches_rebuild(const graph::Network& net,
                                    const fault::LivenessOverlay& overlay,
                                    const graph::Network& reference,
                                    const std::vector<std::uint32_t>& in_map,
                                    const std::vector<std::uint32_t>& out_map,
                                    const std::string& what) {
  AuditedRouter<Store> router(net);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    if (overlay.dead_vertices[v]) router.kill_vertex(v);
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e) {
    if (overlay.dead_edges[e]) router.fail_edge(e);
    if (!overlay.contracted_edges.empty() && overlay.contracted_edges[e])
      router.contract_edge(e);
  }

  core::GreedyRouter rebuilt(reference);
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

// Overlay built from a sampled FaultInstance == repair_by_discard's rebuilt
// network. Overlay semantics: spare_terminals = false, i.e. the §6 faulty
// mask verbatim.
template <class Store>
void expect_overlay_matches_discard(const graph::Network& net, double eps,
                                    std::uint64_t seed) {
  const fault::FaultInstance inst(net, fault::FaultModel::symmetric(eps),
                                  seed);
  const auto overlay = fault::overlay_from_instance(inst, false);
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
  expect_overlay_matches_rebuild<Store>(
      net, overlay, repaired.net, index_map(net.inputs, repaired.net.inputs),
      index_map(net.outputs, repaired.net.outputs),
      "discard eps " + std::to_string(eps) + " seed " + std::to_string(seed));
}

TYPED_TEST(RouterStores, OverlayMatchesRepairByDiscard) {
  const auto& ft = core::build_ft_network(core::FtParams::sim(1, 8, 6, 1, 3));
  for (const std::uint64_t seed : {11u, 12u, 13u})
    expect_overlay_matches_discard<TypeParam>(ft.net, 0.02, seed);
  const auto cantor = networks::build_cantor({4, 0});
  for (const std::uint64_t seed : {21u, 22u})
    expect_overlay_matches_discard<TypeParam>(cantor, 0.01, seed);
  // Heavier damage: discard tears real holes, the overlay must follow.
  expect_overlay_matches_discard<TypeParam>(networks::build_crossbar(6), 0.15,
                                            31);
}

// The live-contraction pin, mirroring the discard equivalence above: under
// the kContractStuck overlay (open failures kill, stuck-on switches become
// welds via the runtime contract_edge primitive) the router reaches exactly
// the terminal pairs the OFFLINE contracted-and-rebuilt network
// (repair_by_contraction) reaches.
template <class Store>
void expect_contraction_matches_offline(const graph::Network& net,
                                        const fault::FaultModel& model,
                                        std::uint64_t seed) {
  const fault::FaultInstance inst(net, model, seed);
  const auto overlay = fault::overlay_from_instance(
      inst, false, fault::OverlayMode::kContractStuck);
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
  expect_overlay_matches_rebuild<Store>(
      net, overlay, rebuilt.net,
      index_map(net.inputs, rebuilt.net.inputs.size()),
      index_map(net.outputs, rebuilt.net.outputs.size()),
      "contraction on " + net.name + " seed " + std::to_string(seed));
}

TYPED_TEST(RouterStores, LiveStuckOnMatchesOfflineContraction) {
  // Pure closed failures: every fault is a weld, nothing dies.
  const auto& ft = core::build_ft_network(core::FtParams::sim(1, 8, 6, 1, 3));
  for (const std::uint64_t seed : {51u, 52u, 53u})
    expect_contraction_matches_offline<TypeParam>(ft.net, {0.0, 0.02}, seed);
  const auto cantor = networks::build_cantor({4, 0});
  for (const std::uint64_t seed : {61u, 62u})
    expect_contraction_matches_offline<TypeParam>(cantor, {0.0, 0.01}, seed);
  // Heavy pure-closed damage on a dense net: long weld chains, terminal
  // shorts (Lemma 7's catastrophe is a legal, reachable state here).
  expect_contraction_matches_offline<TypeParam>(networks::build_crossbar(6),
                                                {0.0, 0.2}, 71);
}

TYPED_TEST(RouterStores, MixedOpenAndStuckMatchesOfflineContraction) {
  // Both failure modes at once: open failures discard, welds contract, and
  // the interactions (a weld severed by a dead endpoint, a hop carried only
  // by a weld) must agree with the offline rebuild.
  const auto& ft = core::build_ft_network(core::FtParams::sim(1, 8, 6, 1, 3));
  for (const std::uint64_t seed : {81u, 82u, 83u})
    expect_contraction_matches_offline<TypeParam>(
        ft.net, fault::FaultModel::symmetric(0.02), seed);
  const auto cantor = networks::build_cantor({4, 0});
  for (const std::uint64_t seed : {91u, 92u})
    expect_contraction_matches_offline<TypeParam>(
        cantor, fault::FaultModel::symmetric(0.01), seed);
  expect_contraction_matches_offline<TypeParam>(
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
  for (const svc::Backend backend :
       {svc::Backend::kGreedy, svc::Backend::kConcurrent}) {
    const auto net = build_line_with_spur();
    svc::ExchangeConfig cfg;
    cfg.backend = backend;
    svc::Exchange ex(net, std::move(cfg));
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
  for (const svc::Backend backend :
       {svc::Backend::kGreedy, svc::Backend::kConcurrent}) {
    // Reverse crosser: the call exists only because the weld conducts
    // against its direction; the repair severs it, and the degraded
    // topology has no detour.
    const auto net = build_reversed_line();
    svc::ExchangeConfig cfg;
    cfg.backend = backend;
    svc::Exchange ex(net, std::move(cfg));
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
    svc::ExchangeConfig cfg2;
    cfg2.backend = backend;
    svc::Exchange ex2(line, std::move(cfg2));
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
}

TEST(ExchangeFaultPlane, ZeroWindowPolicyLeavesVictimsQueuedAsRefused) {
  const auto net = networks::build_cantor({4, 0});
  svc::ExchangeConfig cfg;
  cfg.admission = std::make_unique<svc::FixedWindowAdmission>(0);
  svc::Exchange ex(net, std::move(cfg));
  const svc::Outcome o = ex.call({0, 1, 0, /*tag=*/5});
  ASSERT_TRUE(o.connected());
  const auto path = ex.path_of(o.id);
  fault::FaultEvent ev;
  ev.edge = edge_between(net.g, path[0], path[1]);
  // The kill succeeds; re-admission cannot drain (zero window), so the
  // victim's submission is CANCELLED and reported kRefused — every victim
  // resolves inside inject(), nothing fires after it returns.
  const svc::FaultImpact impact = ex.inject(ev);
  ASSERT_EQ(impact.calls_killed(), 1u);
  EXPECT_EQ(impact.reroutes[0].reject, svc::RejectReason::kRefused);
  EXPECT_EQ(impact.reroutes[0].tag, 5u);
  EXPECT_EQ(impact.reroute_failed, 1u);
  EXPECT_EQ(ex.pending(), 0u);  // cancelled, not left to a later drain
}

// -------------------------------------------------- latency-aware policy

TEST(DeadlineAdmission, WindowTracksEpochDuration) {
  svc::DeadlineAdmission policy(/*deadline_seconds=*/0.010, /*initial=*/64,
                                /*min_window=*/8, /*max_window=*/256);
  svc::EpochFeedback fb;
  fb.queued = 10'000;
  // No feedback yet: initial window.
  EXPECT_EQ(policy.epoch_window(fb), 64u);
  // Previous epoch overran 2x: window shrinks proportionally in ONE step.
  fb.admitted_last = 64;
  fb.last_epoch_seconds = 0.020;
  EXPECT_EQ(policy.epoch_window(fb), 32u);
  // Comfortably inside the budget (< half the deadline): additive growth.
  fb.admitted_last = 32;
  fb.last_epoch_seconds = 0.002;
  EXPECT_EQ(policy.epoch_window(fb), 40u);
  // Between half-deadline and deadline: hold steady.
  fb.admitted_last = 40;
  fb.last_epoch_seconds = 0.008;
  EXPECT_EQ(policy.epoch_window(fb), 40u);
  // Massive overrun clamps at the floor.
  fb.last_epoch_seconds = 10.0;
  EXPECT_EQ(policy.epoch_window(fb), 8u);
  // Sustained headroom climbs to the ceiling.
  fb.last_epoch_seconds = 0.001;
  for (int i = 0; i < 40; ++i) {
    fb.admitted_last = policy.current_window();
    (void)policy.epoch_window(fb);
  }
  EXPECT_EQ(policy.current_window(), 256u);
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

TEST(TrafficFaults, BatchedMultiSessionPlaneSurvivesTheSameStorm) {
  const auto net = networks::build_cantor({5, 0});
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(2e-4), net.g.edge_count(),
      /*horizon=*/1500.0, /*mean_repair=*/40.0, /*seed=*/9);
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = 4;
  svc::Exchange ex(net, std::move(cfg));
  core::TrafficParams p;
  p.arrival_rate = 3.0;
  p.mean_holding = 3.0;
  p.sim_time = 1500.0;
  p.seed = 23;
  p.epoch_interval = 0.5;  // batched admission plane across all 4 sessions
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
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = 2;
  svc::Exchange ex(net, std::move(cfg));
  core::TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 2.0;
  p.sim_time = 500.0;
  p.seed = 31;
  p.epoch_interval = 1.0;
  const auto report = simulate_traffic(ex, p);
  EXPECT_GT(report.offered, 300u);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.service.router.accepted, report.service.hangups);
  EXPECT_EQ(report.killed_by_fault, 0u);
  EXPECT_EQ(ex.active_calls(), 0u);
}

// --------------------------------------------------- concurrency stress

// Router-level happens-before guarantee: once a thread has observed (with
// acquire) that a set of switches failed, no connect it runs afterwards may
// settle a path that NEEDS a failed switch. Claim-phase re-validation is
// what closes the search's dirty-read window. TSan-run.
TEST(ConcurrentOverlay, EdgeFlipsRacingConnectsNeverSettleDeadPaths) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kWorkers = 4;
  core::ConcurrentRouter router(net, kWorkers);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  // The doomed set: every switch leaving the first TWO layers' vertices on
  // paths of a probe call — enough density that racing searches keep
  // crossing it.
  std::vector<graph::EdgeId> doomed;
  {
    core::GreedyRouter probe(net);
    for (std::uint32_t i = 0; i + 1 < n; i += 2) {
      const auto c = probe.connect(i, i + 1);
      if (c == core::GreedyRouter::kNoCall) continue;
      const auto path = probe.path_of(c);
      if (path.size() >= 2) doomed.push_back(edge_between(net.g, path[0], path[1]));
      probe.disconnect(c);
    }
  }
  ASSERT_FALSE(doomed.empty());

  std::atomic<bool> flipped{false};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      auto& w = router.session(t);
      util::Xoshiro256 rng(util::derive_seed(311, t));
      std::vector<core::ConcurrentRouter::CallId> mine;
      for (int op = 0; op < 3000; ++op) {
        const bool after_flip = flipped.load(std::memory_order_acquire);
        if (!mine.empty() && (rng() & 3u) == 0) {
          const auto idx = rng() % mine.size();
          w.disconnect(mine[idx]);
          mine[idx] = mine.back();
          mine.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const auto call = w.connect(in, out);
          if (call == core::ConcurrentRouter::kNoCall) continue;
          if (after_flip) {
            // Every hop must still be routable on a LIVE switch.
            const auto path = w.path_of(call);
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
              bool hop_alive = false;
              const auto eids = net.g.out_edges(path[i]);
              const auto tgts = net.g.out_targets(path[i]);
              for (std::size_t k = 0; k < eids.size(); ++k)
                if (tgts[k] == path[i + 1] && router.edge_usable(eids[k]))
                  hop_alive = true;
              EXPECT_TRUE(hop_alive)
                  << "worker " << t << " settled through a dead switch";
            }
          }
          mine.push_back(call);
        }
      }
      for (const auto c : mine) w.disconnect(c);
    });
  }
  threads.emplace_back([&] {
    // Let the churn get going, then fail the doomed set while searches are
    // mid-flight; never repaired, so the assertion above is stable.
    for (int spin = 0; spin < 1000; ++spin) std::this_thread::yield();
    for (const auto e : doomed) router.fail_edge(e);
    flipped.store(true, std::memory_order_release);
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (const auto e : doomed) EXPECT_TRUE(router.edge_failed(e));
}

// Mixed-mode router-level race: while 4 workers churn, a flipper thread
// open-fails one switch set and WELDS another (stuck-on) mid-flight. Both
// flips are monotone (never undone), so once a thread observes the flip
// every later settled path must be carried hop by hop: by a non-failed
// forward switch (normal or welded) or by a welded switch conducting
// against its direction. Exercises the contraction branches of the shared
// search and the extended claim-phase re-validation under TSan.
TEST(ConcurrentOverlay, StuckFlipsRacingConnectsStayCarried) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kWorkers = 4;
  core::ConcurrentRouter router(net, kWorkers);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  // Disjoint flip sets off a probe's paths: first hops open-fail, second
  // hops weld shut.
  std::vector<graph::EdgeId> doomed, welded;
  {
    core::GreedyRouter probe(net);
    for (std::uint32_t i = 0; i + 1 < n; i += 2) {
      const auto c = probe.connect(i, i + 1);
      if (c == core::GreedyRouter::kNoCall) continue;
      const auto path = probe.path_of(c);
      if (path.size() >= 3) {
        doomed.push_back(edge_between(net.g, path[0], path[1]));
        welded.push_back(edge_between(net.g, path[1], path[2]));
      }
      probe.disconnect(c);
    }
  }
  ASSERT_FALSE(doomed.empty());
  ASSERT_FALSE(welded.empty());

  std::atomic<bool> flipped{false};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      auto& w = router.session(t);
      util::Xoshiro256 rng(util::derive_seed(977, t));
      std::vector<core::ConcurrentRouter::CallId> mine;
      for (int op = 0; op < 3000; ++op) {
        const bool after_flip = flipped.load(std::memory_order_acquire);
        if (!mine.empty() && (rng() & 3u) == 0) {
          const auto idx = rng() % mine.size();
          w.disconnect(mine[idx]);
          mine[idx] = mine.back();
          mine.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const auto call = w.connect(in, out);
          if (call == core::ConcurrentRouter::kNoCall) continue;
          if (after_flip) {
            const auto path = w.path_of(call);
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
              bool hop_alive = false;
              const auto eids = net.g.out_edges(path[i]);
              const auto tgts = net.g.out_targets(path[i]);
              for (std::size_t k = 0; k < eids.size(); ++k)
                if (tgts[k] == path[i + 1] && router.edge_usable(eids[k]))
                  hop_alive = true;
              if (!hop_alive) {
                const auto reids = net.g.in_edges(path[i]);
                const auto rsrcs = net.g.in_sources(path[i]);
                for (std::size_t k = 0; k < reids.size(); ++k)
                  if (rsrcs[k] == path[i + 1] &&
                      router.edge_contracted(reids[k]) &&
                      router.edge_usable(reids[k]))
                    hop_alive = true;
              }
              EXPECT_TRUE(hop_alive)
                  << "worker " << t << " settled an uncarried hop";
            }
          }
          mine.push_back(call);
        }
      }
      for (const auto c : mine) w.disconnect(c);
    });
  }
  threads.emplace_back([&] {
    for (int spin = 0; spin < 1000; ++spin) std::this_thread::yield();
    for (const auto e : doomed) router.fail_edge(e);
    for (const auto e : welded) router.contract_edge(e);
    flipped.store(true, std::memory_order_release);
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (const auto e : doomed) EXPECT_TRUE(router.edge_failed(e));
  for (const auto e : welded) EXPECT_TRUE(router.edge_contracted(e));
}

// The acceptance-criteria churn: N concurrent sessions serve calls while a
// fault plane injects and repairs switches from a deterministic schedule.
// Sessions hold the plane shared; a fault event holds it exclusively (the
// documented inject/repair contract: a fault event owns every session, like
// drain). Invariants: a session's settled path never crosses a component
// that was dead when it connected, every kill surfaces as a typed kFaulted
// ack (never a corrupted slot), and busy state balances exactly after the
// final drain. TSan-run.
TEST(ExchangeFaultPlane, ChurnWithInjectRepairRacingSessionsStaysSound) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSessions = 4;
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = kSessions;
  svc::Exchange ex(net, std::move(cfg));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(4e-4), net.g.edge_count(),
      /*horizon=*/400.0, /*mean_repair=*/15.0, /*seed=*/41);
  ASSERT_GT(schedule.fail_count(), 10u);

  ASSERT_GT(schedule.stuck_count(), 0u);  // symmetric model: mixed storm

  std::shared_mutex plane;  // sessions shared, fault events exclusive
  std::vector<std::uint8_t> failed_now(net.g.edge_count(), 0);  // rwlock'd
  std::vector<std::uint8_t> stuck_now(net.g.edge_count(), 0);   // rwlock'd
  std::vector<svc::Outcome> strays;  // rerouted survivors (injector-owned)
  std::atomic<bool> done{false};
  // Sessions start only once the first fault event has landed: the shared
  // lock prefers readers, so four sessions that start first can finish
  // their whole churn before the injector ever gets the plane.
  std::atomic<bool> injecting{false};

  std::vector<std::thread> threads;
  threads.reserve(kSessions + 1);
  std::vector<std::vector<svc::CallId>> leftover(kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      util::Xoshiro256 rng(util::derive_seed(613, s));
      std::vector<svc::Outcome> mine;
      while (!injecting.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (int op = 0; op < 2500; ++op) {
        std::shared_lock<std::shared_mutex> lk(plane);
        if (!mine.empty() && (rng() & 3u) == 0) {
          const auto idx = rng() % mine.size();
          const svc::RejectReason r = ex.hangup(mine[idx].id);
          // kNone: still ours. kFaulted: the fault plane tore it down and
          // this ack is the typed notification. kStaleHandle: killed AND the
          // slot's replacement call has already retired (the one-generation
          // ack memory expired). Nothing else is legal, and none of these
          // can touch another call's state.
          EXPECT_TRUE(r == svc::RejectReason::kNone ||
                      r == svc::RejectReason::kFaulted ||
                      r == svc::RejectReason::kStaleHandle)
              << to_string(r);
          mine[idx] = mine.back();
          mine.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const svc::Outcome o = ex.call({in, out, 0, 0}, s);
          if (!o.connected()) continue;
          // Under the shared lock no fault event can intervene: the path
          // must be fully alive w.r.t. the CURRENT failed set. A hop is
          // carried by any non-open forward sibling (normal or welded) or
          // by a welded switch conducting against its direction.
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
                << "session " << s << " path crosses a dead switch";
          }
          mine.push_back(o);
        }
      }
      // Keep handles for the final quiescent drain (kills may have staled
      // them — that is the point).
      for (const auto& o : mine) leftover[s].push_back(o.id);
    });
  }
  threads.emplace_back([&] {
    for (const auto& ev : schedule.events()) {
      if (done.load(std::memory_order_acquire)) break;
      std::unique_lock<std::shared_mutex> lk(plane);
      const svc::FaultImpact impact = ex.apply(ev);
      failed_now[ev.edge] = ev.kind == fault::FaultEvent::Kind::kFail;
      stuck_now[ev.edge] = ev.kind == fault::FaultEvent::Kind::kStuckOn;
      for (const auto& re : impact.reroutes)
        if (re.connected()) strays.push_back(re);
      injecting.store(true, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  for (unsigned s = 0; s < kSessions; ++s) threads[s].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  // Quiescent drain: this thread now owns every session. Every collected
  // handle is either still live (kNone) or was killed by a fault (typed
  // kFaulted / stale after slot reuse) — never anything that corrupts
  // another call.
  for (const auto& session_calls : leftover)
    for (const auto id : session_calls) {
      const svc::RejectReason r = ex.hangup(id);
      EXPECT_TRUE(r == svc::RejectReason::kNone ||
                  r == svc::RejectReason::kFaulted ||
                  r == svc::RejectReason::kStaleHandle)
          << to_string(r);
    }
  for (const auto& o : strays) {
    const svc::RejectReason r = ex.hangup(o.id);
    EXPECT_TRUE(r == svc::RejectReason::kNone ||
                r == svc::RejectReason::kFaulted ||
                r == svc::RejectReason::kStaleHandle)
        << to_string(r);
  }
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.accepted, st.hangups + st.calls_killed_by_fault);
  EXPECT_GT(st.faults_injected, 0u);
  EXPECT_EQ(st.calls_killed_by_fault,
            st.reroute_succeeded + st.reroute_failed);
}

}  // namespace
}  // namespace ftcs
