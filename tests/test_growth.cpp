// Hitless capacity growth: the append-only contract (NetworkDelta /
// finalize_grown invariants), grow_cantor's doubled topology, live calls
// carried across Exchange::grow with their paths unchanged, the grow gate rejecting each kind of non-append-only network
// untouched (directly and through the ops::ControlPlane kGrow ack),
// overlay/fault-bookkeeping survival, the batched drain plane serving the
// new terminals the epoch after the growth, and a report of the mean
// settled path length on a grown network against the shortest one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/schedule.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "networks/cantor.hpp"
#include "ops/command_queue.hpp"
#include "ops/control.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

/// First edge id from u to v (sentinel: edge_count).
graph::EdgeId edge_between(const graph::CsrGraph& g, graph::VertexId u,
                           graph::VertexId v) {
  const auto eids = g.out_edges(u);
  const auto tgts = g.out_targets(u);
  for (std::size_t i = 0; i < eids.size(); ++i)
    if (tgts[i] == v) return eids[i];
  return static_cast<graph::EdgeId>(g.edge_count());
}

/// The exchange's network doubled by grow_cantor.
graph::Network doubled(const svc::Exchange& ex,
                       const networks::CantorParams& base_params) {
  return networks::grow_cantor(ex.network(), base_params);
}

/// `net` copied into a NetworkBuilder, edge for edge in id order, with
/// switch `rewired` (none by default) ending at `to` instead.
graph::NetworkBuilder rebuilt(const graph::Network& net,
                              graph::EdgeId rewired = graph::EdgeId(-1),
                              graph::VertexId to = 0) {
  graph::NetworkBuilder nb;
  nb.g.add_vertices(net.g.vertex_count());
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e)
    nb.g.add_edge(net.g.edge(e).from, e == rewired ? to : net.g.edge(e).to);
  nb.inputs = net.inputs;
  nb.outputs = net.outputs;
  nb.stage = net.stage;
  nb.name = net.name;
  return nb;
}

// ------------------------------------------------------- merge unit layer

TEST(NetworkDelta, MergeKeepsBasePrefixAndAppendsInEdgeIdOrder) {
  const auto base = networks::build_cantor({2, 0});
  const auto old_v = base.g.vertex_count();
  const auto old_e = base.g.edge_count();

  graph::NetworkDelta d(base);
  const auto a = d.add_vertex(0);
  const auto b = d.add_vertex(1);
  const auto e0 = d.add_edge(base.inputs[0], a);  // base -> new
  const auto e1 = d.add_edge(a, b);               // new  -> new
  const auto e2 = d.add_edge(b, base.outputs[0]); // new  -> base
  const auto e3 = d.add_edge(base.inputs[0], b);  // second append, same tail
  d.add_input(a);
  d.add_output(b);
  d.rename("grown-unit");
  const graph::Network grown = d.finalize_grown();

  // New vertices continue densely after the old ids.
  EXPECT_EQ(grown.g.vertex_count(), old_v + 2);
  EXPECT_EQ(grown.g.edge_count(), old_e + 4);
  EXPECT_EQ(grown.name, "grown-unit");

  // Edge ids are stable for the base and sequential for the delta.
  EXPECT_EQ(e0, old_e + 0);
  EXPECT_EQ(e3, old_e + 3);
  for (graph::EdgeId e = 0; e < old_e; ++e) {
    EXPECT_EQ(grown.g.edge(e).from, base.g.edge(e).from);
    EXPECT_EQ(grown.g.edge(e).to, base.g.edge(e).to);
  }
  EXPECT_EQ(grown.g.edge(e1).from, a);
  EXPECT_EQ(grown.g.edge(e1).to, b);
  EXPECT_EQ(grown.g.edge(e2).to, base.outputs[0]);

  // Every base vertex's incidence lists keep their original order as a
  // prefix; appended edges follow in ascending edge-id order.
  const auto expect_prefix = [](std::span<const graph::EdgeId> now,
                                std::span<const graph::EdgeId> was) {
    ASSERT_GE(now.size(), was.size());
    for (std::size_t i = 0; i < was.size(); ++i) EXPECT_EQ(now[i], was[i]);
    for (std::size_t i = was.size(); i + 1 < now.size(); ++i)
      EXPECT_LT(now[i], now[i + 1]);
  };
  for (graph::VertexId v = 0; v < old_v; ++v) {
    expect_prefix(grown.g.out_edges(v), base.g.out_edges(v));
    expect_prefix(grown.g.in_edges(v), base.g.in_edges(v));
  }
  const auto in0 = grown.g.out_edges(base.inputs[0]);
  ASSERT_GE(in0.size(), 2u);
  EXPECT_EQ(in0[in0.size() - 2], e0);
  EXPECT_EQ(in0[in0.size() - 1], e3);

  // Terminal lists are prefix-stable with the new terminals appended.
  ASSERT_EQ(grown.inputs.size(), base.inputs.size() + 1);
  ASSERT_EQ(grown.outputs.size(), base.outputs.size() + 1);
  for (std::size_t i = 0; i < base.inputs.size(); ++i)
    EXPECT_EQ(grown.inputs[i], base.inputs[i]);
  EXPECT_EQ(grown.inputs.back(), a);
  EXPECT_EQ(grown.outputs.back(), b);
}

// --------------------------------------------------- growth equivalence

// The grown network serves exactly the terminal pairs a from-scratch
// double-size Cantor serves: every pair, on an idle exchange — plus a full
// simultaneous permutation (the strictly-nonblocking load the appended
// planes must carry).
TEST(GrowthEquivalence, GrownReachesEveryPairAFreshDoubleReaches) {
  const auto base = networks::build_cantor({3, 0});
  const auto fresh = networks::build_cantor({4, 0});
  svc::Exchange grown_ex(base);
  ASSERT_TRUE(grown_ex.grow(doubled(grown_ex, {3, 0})).applied);
  svc::Exchange fresh_ex(fresh);
  ASSERT_EQ(grown_ex.input_count(), fresh_ex.input_count());

  const auto n = static_cast<std::uint32_t>(grown_ex.input_count());
  for (std::uint32_t in = 0; in < n; ++in)
    for (std::uint32_t out = 0; out < n; ++out) {
      const svc::Outcome a = grown_ex.call({in, out, 0, 1});
      const svc::Outcome b = fresh_ex.call({in, out, 0, 1});
      EXPECT_TRUE(a.connected()) << in << "->" << out;
      EXPECT_EQ(a.connected(), b.connected());
      if (a.connected()) grown_ex.hangup(a.id);
      if (b.connected()) fresh_ex.hangup(b.id);
    }

  // Full reversal permutation held simultaneously.
  std::vector<svc::CallId> held;
  for (std::uint32_t i = 0; i < n; ++i) {
    const svc::Outcome o = grown_ex.call({i, n - 1 - i, 0, i + 1});
    ASSERT_TRUE(o.connected()) << "pair " << i;
    held.push_back(o.id);
  }
  for (const auto id : held)
    EXPECT_EQ(grown_ex.hangup(id), svc::RejectReason::kNone);
  EXPECT_EQ(grown_ex.active_calls(), 0u);
  EXPECT_EQ(grown_ex.busy_vertices(), 0u);
}

// ------------------------------------------------------ live-call remap

TEST(ExchangeGrowth, LiveCallsSurviveWithUnchangedPaths) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);
  const auto n = static_cast<std::uint32_t>(ex.input_count());

  std::vector<std::pair<svc::CallId, std::vector<graph::VertexId>>> pre;
  for (std::uint32_t i = 0; i < n; ++i) {
    const svc::Outcome o =
        ex.call({i, static_cast<std::uint32_t>((3 * i + 1) % n), 0, i + 1});
    ASSERT_TRUE(o.connected());
    pre.emplace_back(o.id, ex.path_of(o.id));
  }

  const svc::GrowthReport rep = ex.grow(doubled(ex, {3, 0}));
  ASSERT_TRUE(rep.applied) << rep.error;
  EXPECT_EQ(rep.calls_carried, pre.size());
  EXPECT_EQ(rep.calls_killed, 0u);
  EXPECT_EQ(rep.inputs_added, n);
  EXPECT_GT(rep.switches_added, 0u);
  EXPECT_GE(rep.quiesce_seconds, 0.0);

  // Growth only appends, so every live path is exactly its pre-growth
  // path.
  for (const auto& [id, old_path] : pre) EXPECT_EQ(ex.path_of(id), old_path);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.growths, 1u);
  EXPECT_EQ(st.calls_carried_by_growth, pre.size());
  EXPECT_EQ(st.calls_killed_by_growth, 0u);

  // Handles stay first-class: hangup drains to all-idle.
  for (const auto& [id, unused] : pre)
    EXPECT_EQ(ex.hangup(id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

TEST(ExchangeGrowth, RejectsAPlanForTheWrongBase) {
  const auto base = networks::build_cantor({3, 0});
  const auto other = networks::build_cantor({2, 0});
  svc::Exchange ex(base);
  const svc::GrowthReport rep = ex.grow(networks::grow_cantor(other, {2, 0}));
  EXPECT_FALSE(rep.applied);
  EXPECT_NE(rep.error.find("growth plan rejected"), std::string::npos);
  EXPECT_EQ(ex.stats().growths, 0u);
  // The exchange still works.
  const svc::Outcome o = ex.call({0, 1, 0, 1});
  EXPECT_TRUE(o.connected());
}

// ------------------------------------------------------------ grow gate

/// Serves four live calls on cantor-k3, offers `bad` to grow(), and checks
/// it is rejected with an error naming `why` while the exchange is left
/// untouched: no growth counted, the same network, calls and busy
/// vertices, and it still routes and hangs up.
void expect_rejected_untouched(const graph::Network& bad, const char* why) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);
  std::vector<svc::CallId> held;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const svc::Outcome o = ex.call({i, 7 - i, 0, i + 1});
    ASSERT_TRUE(o.connected());
    held.push_back(o.id);
  }
  const std::size_t active = ex.active_calls();
  const std::size_t busy = ex.busy_vertices();

  const svc::GrowthReport rep = ex.grow(bad);
  EXPECT_FALSE(rep.applied);
  EXPECT_NE(rep.error.find("growth plan rejected"), std::string::npos);
  EXPECT_NE(rep.error.find(why), std::string::npos) << rep.error;
  EXPECT_EQ(ex.stats().growths, 0u);
  EXPECT_EQ(&ex.network(), &base);
  EXPECT_EQ(ex.active_calls(), active);
  EXPECT_EQ(ex.busy_vertices(), busy);

  const svc::Outcome o = ex.call({4, 0, 0, 9});
  ASSERT_TRUE(o.connected());
  held.push_back(o.id);
  for (const auto id : held) EXPECT_EQ(ex.hangup(id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

/// cantor-k3 doubled, as a builder the gate tests break one way each.
graph::NetworkBuilder doubled_k3(graph::EdgeId rewired = graph::EdgeId(-1),
                                 graph::VertexId to = 0) {
  return rebuilt(
      networks::grow_cantor(networks::build_cantor({3, 0}), {3, 0}), rewired,
      to);
}

TEST(GrowGate, RejectsASmallerNetwork) {
  expect_rejected_untouched(networks::build_cantor({2, 0}),
                            "smaller than the base");
}

TEST(GrowGate, RejectsARewiredOldSwitch) {
  const auto base = networks::build_cantor({3, 0});
  // Switch 0 keeps its tail but ends one vertex further on.
  expect_rejected_untouched(
      doubled_k3(0, base.g.edge(0).to + 1).finalize(),
      "switch ids are not stable");
}

TEST(GrowGate, RejectsAMovedOldTerminal) {
  graph::NetworkBuilder in_moved = doubled_k3();
  std::swap(in_moved.inputs[0], in_moved.inputs[1]);
  expect_rejected_untouched(in_moved.finalize(),
                            "input terminals not prefix-stable");
  graph::NetworkBuilder out_moved = doubled_k3();
  out_moved.outputs[2] = out_moved.outputs.back();
  expect_rejected_untouched(out_moved.finalize(),
                            "output terminals not prefix-stable");
}

TEST(GrowGate, RejectsAShrunkTerminalList) {
  graph::NetworkBuilder shrunk = doubled_k3();
  shrunk.outputs.resize(7);
  expect_rejected_untouched(shrunk.finalize(), "terminal lists shrank");
}

// A custom planner's network passes the same gate: the kGrow ack is a
// typed kUnsupported carrying the rejected report, and nothing grew.
TEST(GrowGate, ControlPlaneAcksARejectedPlannerNetworkUnsupported) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);
  ops::ControlPlane plane(ex);
  plane.set_growth_planner([](const svc::Exchange&, std::uint64_t) {
    graph::NetworkBuilder shrunk = doubled_k3();
    shrunk.inputs.resize(3);
    return std::optional<graph::Network>(shrunk.finalize());
  });
  ops::Command cmd;
  cmd.kind = ops::CommandKind::kGrow;
  const auto t = plane.queue().post(cmd);
  EXPECT_EQ(plane.pump(), 1u);
  const std::optional<ops::Ack> ack = plane.queue().try_ack(t);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, ops::AckStatus::kUnsupported);
  ASSERT_TRUE(ack->growth.has_value());
  EXPECT_FALSE(ack->growth->applied);
  EXPECT_NE(ack->text.find("terminal lists shrank"), std::string::npos)
      << ack->text;
  EXPECT_EQ(ex.stats().growths, 0u);
  EXPECT_EQ(&ex.network(), &base);
  EXPECT_TRUE(ex.call({0, 0, 0, 1}).connected());
}

// --------------------------------------------- overlays across the merge

// Mixed open/stuck overlays injected pre-growth survive the merge at their
// stable edge ids, and the grown exchange routes exactly like a fresh
// exchange over the same grown topology with the same faults.
TEST(ExchangeGrowth, MixedOverlaysSurviveAndMatchAFreshExchange) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);
  const auto n = static_cast<std::uint32_t>(ex.input_count());

  // Pick one mid-path switch to fail open and one to weld, off a probe.
  const svc::Outcome probe = ex.call({0, 3, 0, 99});
  ASSERT_TRUE(probe.connected());
  const auto path = ex.path_of(probe.id);
  ASSERT_GE(path.size(), 3u);
  const graph::EdgeId dead = edge_between(ex.network().g, path[0], path[1]);
  const graph::EdgeId weld = edge_between(ex.network().g, path[1], path[2]);
  ex.hangup(probe.id);
  ex.apply({0.0, dead, fault::FaultEvent::Kind::kFail});
  ex.apply({0.0, weld, fault::FaultEvent::Kind::kStuckOn});
  const auto failed_before = ex.failed_switch_count();
  const auto stuck_before = ex.stuck_switch_count();
  const bool shorted_before = ex.shorted();
  ASSERT_GT(failed_before, 0u);
  ASSERT_GT(stuck_before, 0u);

  // A couple of live calls ride across the merge too.
  std::vector<svc::CallId> held;
  for (std::uint32_t i = 1; i < 4; ++i) {
    const svc::Outcome o = ex.call({i, static_cast<std::uint32_t>(i + 4), 0, i});
    ASSERT_TRUE(o.connected());
    held.push_back(o.id);
  }

  ASSERT_TRUE(ex.grow(doubled(ex, {3, 0})).applied);
  EXPECT_EQ(ex.failed_switch_count(), failed_before);
  EXPECT_EQ(ex.stuck_switch_count(), stuck_before);
  EXPECT_EQ(ex.shorted(), shorted_before);

  // Parity against a fresh exchange on the SAME grown network with the
  // same fault events (edge ids are stable, so they name the same
  // switches) and the same held pairs.
  svc::Exchange fresh(ex.network());
  fresh.apply({0.0, dead, fault::FaultEvent::Kind::kFail});
  fresh.apply({0.0, weld, fault::FaultEvent::Kind::kStuckOn});
  std::vector<svc::CallId> fresh_held;
  for (std::uint32_t i = 1; i < 4; ++i) {
    const svc::Outcome o =
        fresh.call({i, static_cast<std::uint32_t>(i + 4), 0, i});
    ASSERT_TRUE(o.connected());
    fresh_held.push_back(o.id);
  }
  const auto n2 = static_cast<std::uint32_t>(ex.input_count());
  ASSERT_EQ(n2, 2 * n);
  for (std::uint32_t in = 0; in < n2; ++in)
    for (std::uint32_t out = 0; out < n2; ++out) {
      if (!ex.input_idle(in) || !ex.output_idle(out)) continue;
      const svc::Outcome a = ex.call({in, out, 0, 7});
      const svc::Outcome b = fresh.call({in, out, 0, 7});
      EXPECT_EQ(a.connected(), b.connected()) << in << "->" << out;
      if (a.connected()) ex.hangup(a.id);
      if (b.connected()) fresh.hangup(b.id);
    }
  for (const auto id : held) EXPECT_EQ(ex.hangup(id), svc::RejectReason::kNone);
  for (const auto id : fresh_held) fresh.hangup(id);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

// --------------------------------------------------- ops plane kGrow ack

TEST(ControlPlaneGrowth, KGrowAcksRealEffectsAndDeclinesARegrow) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);
  ops::ControlPlane plane(ex);

  // Live calls make the remap count real.
  std::vector<svc::CallId> held;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const svc::Outcome o = ex.call({i, i, 0, i + 1});
    ASSERT_TRUE(o.connected());
    held.push_back(o.id);
  }

  ops::Command cmd;
  cmd.kind = ops::CommandKind::kGrow;
  const auto t1 = plane.queue().post(cmd);
  EXPECT_EQ(plane.pump(), 1u);
  const std::optional<ops::Ack> ack = plane.queue().try_ack(t1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, ops::AckStatus::kOk);
  ASSERT_TRUE(ack->growth.has_value());
  EXPECT_TRUE(ack->growth->applied);
  EXPECT_GT(ack->growth->switches_added, 0u);
  EXPECT_EQ(ack->growth->calls_carried, held.size());
  EXPECT_EQ(ack->growth->calls_killed, 0u);
  EXPECT_NE(ack->text.find("grew to cantor-16-m4"), std::string::npos)
      << ack->text;
  EXPECT_EQ(ex.network().name, "cantor-16-m4");

  // Regrowing the (now non-canonical) grown exchange is declined typed.
  const auto t2 = plane.queue().post(cmd);
  plane.pump();
  const std::optional<ops::Ack> ack2 = plane.queue().try_ack(t2);
  ASSERT_TRUE(ack2.has_value());
  EXPECT_EQ(ack2->status, ops::AckStatus::kUnsupported);
  EXPECT_NE(ack2->text.find("growth planning failed"), std::string::npos)
      << ack2->text;
  EXPECT_EQ(ex.stats().growths, 1u);

  // A custom planner that declines produces the typed no-plan ack.
  plane.set_growth_planner(
      [](const svc::Exchange&, std::uint64_t) { return std::nullopt; });
  const auto t3 = plane.queue().post(cmd);
  plane.pump();
  const std::optional<ops::Ack> ack3 = plane.queue().try_ack(t3);
  ASSERT_TRUE(ack3.has_value());
  EXPECT_EQ(ack3->status, ops::AckStatus::kUnsupported);
  EXPECT_NE(ack3->text.find("no growth plan"), std::string::npos);

  for (const auto id : held) EXPECT_EQ(ex.hangup(id), svc::RejectReason::kNone);
}

// ------------------------------------------------ batched plane + growth

TEST(ExchangeGrowth, BatchedDrainServesNewTerminalsTheEpochAfterTheMerge) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);
  const auto n = static_cast<std::uint32_t>(ex.input_count());

  // Callbacks fire on the draining thread.
  std::vector<svc::Outcome> done;
  const auto on_done = [&](const svc::Outcome& o) { done.push_back(o); };

  // Epoch 1: old terminals through the batched plane.
  for (std::uint32_t i = 0; i < n; ++i)
    ex.submit({i, static_cast<std::uint32_t>((i + 1) % n), 0, i + 1}, on_done);
  EXPECT_EQ(ex.drain_all(), static_cast<std::size_t>(n));
  std::vector<svc::CallId> held;
  for (const auto& o : done)
    if (o.connected()) held.push_back(o.id);
  EXPECT_EQ(held.size(), n);
  done.clear();

  // The merge lands at the epoch boundary (the grow's quiesce).
  ASSERT_TRUE(ex.grow(doubled(ex, {3, 0})).applied);

  // Epoch 2: every NEW terminal pair routes on the grown topology.
  const auto n2 = static_cast<std::uint32_t>(ex.input_count());
  for (std::uint32_t i = n; i < n2; ++i)
    ex.submit({i, static_cast<std::uint32_t>(n2 - 1 - (i - n)), 0, 100 + i},
              on_done);
  EXPECT_EQ(ex.drain_all(), static_cast<std::size_t>(n2 - n));
  std::size_t new_connected = 0;
  for (const auto& o : done)
    if (o.connected()) {
      ++new_connected;
      held.push_back(o.id);
    }
  EXPECT_EQ(new_connected, static_cast<std::size_t>(n2 - n));

  for (const auto id : held) EXPECT_EQ(ex.hangup(id), svc::RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

// -------------------------------------------------- handle-typing rigor

TEST(ExchangeGrowth, StaleAndFaultedHandlesStayTypedAcrossGrowth) {
  const auto base = networks::build_cantor({3, 0});
  svc::Exchange ex(base);

  // A call killed by a fault BEFORE growth keeps its typed kFaulted ack
  // after the growth (fault ack memory is kept, not dropped).
  const svc::Outcome doomed = ex.call({0, 1, 0, 1});
  ASSERT_TRUE(doomed.connected());
  const auto path = ex.path_of(doomed.id);
  const graph::EdgeId e = edge_between(ex.network().g, path[0], path[1]);
  ex.apply({0.0, e, fault::FaultEvent::Kind::kFail});
  ex.apply({0.0, e, fault::FaultEvent::Kind::kRepair});

  // A call hung up before growth: its handle is stale after the merge.
  const svc::Outcome finished = ex.call({2, 3, 0, 2});
  ASSERT_TRUE(finished.connected());
  EXPECT_EQ(ex.hangup(finished.id), svc::RejectReason::kNone);

  ASSERT_TRUE(ex.grow(doubled(ex, {3, 0})).applied);

  const svc::RejectReason dead_ack = ex.hangup(doomed.id);
  EXPECT_TRUE(dead_ack == svc::RejectReason::kFaulted ||
              dead_ack == svc::RejectReason::kStaleHandle)
      << to_string(dead_ack);
  EXPECT_EQ(ex.hangup(finished.id), svc::RejectReason::kStaleHandle);
  EXPECT_EQ(ex.stats().calls_killed_by_growth, 0u);
}

// ------------------------------------------------------ path length report

// The grown Cantor keeps the base's direct input->plane switches as
// shortcuts, so its input->output paths no longer share one length, and
// the router's depth-first search (which settles AN idle path) can take a
// longer one than the shortest. Every pair is routed on the idle grown
// network; the mean settled length is reported next to the mean shortest
// length and bounded loosely, so a search that starts to wander shows up.
TEST(GrowthPathLength, GrownCantorMeanPathLengthReport) {
  const auto base = networks::build_cantor({5, 0});
  svc::Exchange ex(base);
  ASSERT_TRUE(ex.grow(doubled(ex, {5, 0})).applied);
  const graph::Network& net = ex.network();
  const auto n = static_cast<std::uint32_t>(ex.input_count());
  std::size_t settled = 0, shortest = 0;
  for (std::uint32_t in = 0; in < n; ++in)
    for (std::uint32_t out = 0; out < n; ++out) {
      const svc::Outcome o = ex.call({in, out, 0, 1});
      ASSERT_TRUE(o.connected()) << in << "->" << out;
      const std::size_t len = ex.path_of(o.id).size();
      ASSERT_EQ(ex.hangup(o.id), svc::RejectReason::kNone);
      const graph::VertexId src[] = {net.inputs[in]};
      std::vector<std::uint8_t> target(net.g.vertex_count(), 0);
      target[net.outputs[out]] = 1;
      const auto ref = graph::shortest_path(net.g, src, target);
      ASSERT_TRUE(ref.has_value());
      EXPECT_GE(len, ref->size());
      settled += len;
      shortest += ref->size();
    }
  const double pairs = static_cast<double>(n) * n;
  const double mean = static_cast<double>(settled) / pairs;
  const double mean_shortest = static_cast<double>(shortest) / pairs;
  std::printf("grown cantor-k6: mean path %.3f vertices, shortest %.3f "
              "(+%.2f%%)\n",
              mean, mean_shortest, (mean / mean_shortest - 1.0) * 100.0);
  RecordProperty("mean_path_vertices", std::to_string(mean));
  RecordProperty("mean_shortest_path_vertices", std::to_string(mean_shortest));
  EXPECT_LT(mean, 1.10 * mean_shortest);
}

}  // namespace
}  // namespace ftcs
