#include <gtest/gtest.h>

#include "ftcs/router.hpp"
#include "ftcs/traffic.hpp"
#include "networks/cantor.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "router_stores.hpp"

namespace ftcs::core {
namespace {

using namespace test;

// The call lifecycle on both stores (the typed RouterStores suite,
// router_stores.hpp), audited after every operation.

TYPED_TEST(RouterStores, ConnectDisconnectLifecycle) {
  const auto net = networks::build_crossbar(4);
  AuditedRouter<TypeParam> router(net);
  EXPECT_TRUE(router.input_idle(0));
  const auto call = router.connect(0, 2);
  ASSERT_NE(call, kNone);
  EXPECT_FALSE(router.input_idle(0));
  EXPECT_FALSE(router.output_idle(2));
  EXPECT_EQ(router.active_calls(), 1u);
  EXPECT_EQ(router.path_of(call).size(), 2u);
  router.disconnect(call);
  EXPECT_TRUE(router.input_idle(0));
  EXPECT_TRUE(router.output_idle(2));
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TYPED_TEST(RouterStores, RejectsBusyTerminals) {
  const auto net = networks::build_crossbar(3);
  AuditedRouter<TypeParam> router(net);
  ASSERT_NE(router.connect(0, 0), kNone);
  EXPECT_EQ(router.connect(0, 1), kNone);
  EXPECT_EQ(router.connect(1, 0), kNone);
  EXPECT_NE(router.connect(1, 1), kNone);
  EXPECT_EQ(router.stats().rejected_terminal, 2u);
}

// Killed vertices are never routed through or claimed: a killed input
// reads busy and is refused at admission, and with every non-terminal
// killed no path exists and nothing is left claimed.
TYPED_TEST(RouterStores, BlockedVerticesNeverUsed) {
  {
    const auto net = networks::build_crossbar(3);
    AuditedRouter<TypeParam> router(net);
    router.kill_vertex(net.inputs[1]);
    EXPECT_FALSE(router.input_idle(1));
    EXPECT_EQ(router.connect(1, 0), kNone);
    EXPECT_NE(router.connect(0, 0), kNone);
  }
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter<TypeParam> router(net);
  std::vector<std::uint8_t> terminal(net.g.vertex_count(), 0);
  for (const auto v : net.inputs) terminal[v] = 1;
  for (const auto v : net.outputs) terminal[v] = 1;
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    if (!terminal[v]) router.kill_vertex(v);
  EXPECT_EQ(router.connect(0, 1), kNone);
  EXPECT_EQ(router.stats().rejected_no_path, 1u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  EXPECT_TRUE(router.input_idle(0));
  EXPECT_TRUE(router.output_idle(1));
}

// A killed terminal is refused at admission, before any search, exactly
// as a busy one is; reviving it puts it back in service.
TYPED_TEST(RouterStores, KilledInputIsRefusedAsTerminal) {
  const auto net = networks::build_crossbar(3);
  AuditedRouter<TypeParam> router(net);
  router.kill_vertex(net.inputs[0]);
  EXPECT_FALSE(router.input_idle(0));
  EXPECT_EQ(router.connect(0, 1), kNone);
  EXPECT_EQ(router.stats().rejected_terminal, 1u);
  EXPECT_EQ(router.stats().rejected_no_path, 0u);
  EXPECT_EQ(router.stats().vertices_visited, 0u);
  router.kill_vertex(net.outputs[2]);
  EXPECT_FALSE(router.output_idle(2));
  EXPECT_EQ(router.connect(1, 2), kNone);
  EXPECT_EQ(router.stats().rejected_terminal, 2u);
  EXPECT_TRUE(router.input_idle(1));  // the refusal released the input slot
  router.revive_vertex(net.inputs[0]);
  EXPECT_TRUE(router.input_idle(0));
  EXPECT_NE(router.connect(0, 1), kNone);
}

TYPED_TEST(RouterStores, SlotReuseAfterDisconnect) {
  const auto net = networks::build_crossbar(4);
  AuditedRouter<TypeParam> router(net);
  const auto c1 = router.connect(0, 0);
  router.disconnect(c1);
  const auto c2 = router.connect(1, 1);
  EXPECT_EQ(c1, c2);  // slot reused
  router.disconnect(c2);
}

TYPED_TEST(RouterStores, FullLoadOnCrossbar) {
  const auto net = networks::build_crossbar(5);
  AuditedRouter<TypeParam> router(net);
  for (std::uint32_t i = 0; i < 5; ++i)
    ASSERT_NE(router.connect(i, (i + 2) % 5), kNone);
  EXPECT_EQ(router.active_calls(), 5u);
}

/// The report's call counters must be exactly the exchange's counter
/// deltas — one set of books (the double-bookkeeping fix).
void expect_report_agrees_with_stats(const TrafficReport& report) {
  const core::RouterStats& r = report.service.router;
  EXPECT_EQ(report.offered, r.connect_calls - r.rejected_terminal);
  EXPECT_EQ(report.carried, r.accepted);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.blocked, r.rejected_no_path + r.rejected_contention);
  // The simulator pre-checks terminal idleness, so nothing should ever be
  // rejected at a terminal by the engine on the single-session plane.
  EXPECT_EQ(r.rejected_terminal, 0u);
  // Every carried call is hung up by the end of the run.
  EXPECT_EQ(report.service.hangups, report.carried);
  EXPECT_EQ(report.service.handle_errors, 0u);
}

TEST(Traffic, LightLoadNoBlockingOnStrictClos) {
  const auto net = networks::build_clos({2, 3, 4});  // strictly nonblocking
  TrafficParams p;
  p.arrival_rate = 0.5;
  p.mean_holding = 1.0;
  p.sim_time = 2000;
  p.seed = 3;
  // The same simulation must hold on BOTH engine backends.
  for (const svc::Backend backend :
       {svc::Backend::kGreedy, svc::Backend::kConcurrent}) {
    svc::ExchangeConfig cfg;
    cfg.backend = backend;
    svc::Exchange exchange(net, std::move(cfg));
    const auto report = simulate_traffic(exchange, p);
    EXPECT_GT(report.offered, 500u);
    EXPECT_EQ(report.blocked, 0u);  // strictly nonblocking: never blocks
    EXPECT_EQ(report.carried, report.offered);
    EXPECT_GT(report.mean_path_length, 0.0);
    expect_report_agrees_with_stats(report);
  }
}

TEST(Traffic, BothBackendsProduceIdenticalReports) {
  const auto net = networks::build_crossbar(8);
  TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 1.0;
  p.sim_time = 800;
  p.seed = 9;
  svc::Exchange greedy(net, {});
  svc::ExchangeConfig ccfg;
  ccfg.backend = svc::Backend::kConcurrent;
  ccfg.sessions = 1;
  svc::Exchange concurrent(net, std::move(ccfg));
  const auto a = simulate_traffic(greedy, p);
  const auto b = simulate_traffic(concurrent, p);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.carried, b.carried);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.terminal_busy, b.terminal_busy);
  EXPECT_DOUBLE_EQ(a.mean_active, b.mean_active);
  EXPECT_DOUBLE_EQ(a.mean_path_length, b.mean_path_length);
  EXPECT_EQ(a.service.router.vertices_visited, b.service.router.vertices_visited);
  EXPECT_EQ(a.service.router.path_vertices, b.service.router.path_vertices);
  EXPECT_EQ(a.service.hangups, b.service.hangups);
}

TEST(Traffic, OfferedLoadMatchesLittleLaw) {
  const auto net = networks::build_crossbar(16);
  svc::Exchange exchange(net, {});
  TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 1.5;
  p.sim_time = 3000;
  p.seed = 4;
  const auto report = simulate_traffic(exchange, p);
  // Little's law: mean active ~ lambda * holding = 3 (minus terminal-busy
  // rejections, small at 16 terminals).
  EXPECT_NEAR(report.mean_active, 3.0, 0.5);
  EXPECT_EQ(report.blocked, 0u);
  expect_report_agrees_with_stats(report);
}

TEST(Traffic, SaturationDropsAtTerminals) {
  const auto net = networks::build_crossbar(2);
  svc::Exchange exchange(net, {});
  TrafficParams p;
  p.arrival_rate = 50.0;
  p.mean_holding = 1.0;
  p.sim_time = 100;
  p.seed = 5;
  const auto report = simulate_traffic(exchange, p);
  EXPECT_GT(report.terminal_busy, 0u);
  EXPECT_LE(report.mean_active, 2.01);
  expect_report_agrees_with_stats(report);
}

TEST(Traffic, ZeroFaultCrossbarAllCarried) {
  const auto net = networks::build_crossbar(8);
  svc::Exchange exchange(net, {});
  TrafficParams p;
  p.arrival_rate = 1.0;
  p.sim_time = 500;
  p.seed = 6;
  const auto report = simulate_traffic(exchange, p);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.blocked, 0u);
  expect_report_agrees_with_stats(report);
}

}  // namespace
}  // namespace ftcs::core
