// One router under churn: it keeps the structural invariants, and serves N
// submitter threads racing one draining thread.
//
//  - Drain race: 8 submitter threads submit() random requests to an
//    exchange on fault-free cantor-k5 while the draining thread
//    commits them and hangs calls up (racing_submitters.hpp). Each
//    completion checks its path on the draining thread: a chain of
//    switches from an input to an output over vertices no other live call
//    holds, and §4's guarantee — no kNoPath between idle terminals. At the
//    end the books balance and a full hangup leaves the network idle.
//  - Seeded interleaving: one router churns in a seeded order; after every
//    connect the structural audit (router_stores.hpp) checks every
//    invariant at once — no vertex on two paths, busy bits exactly the live
//    paths, busy_vertices() the sum of path lengths, call_at() naming each
//    vertex's call — and every disconnect releases its path down to an
//    all-idle network. The owner map is built first, so every connect also
//    writes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "racing_submitters.hpp"
#include "router_stores.hpp"

namespace ftcs {
namespace {

using namespace test;

TEST(RouterChurn, SubmittersRacingOneDrainKeepEveryPathAndTheBooks) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kThreads = 8;
  svc::Exchange ex(net);

  std::vector<svc::CallId> held;
  std::vector<std::uint8_t> on_path(net.g.vertex_count(), 0);
  std::size_t held_vertices = 0;
  std::uint64_t terminal_busy = 0;
  util::Xoshiro256 rng(util::derive_seed(777, 99));
  const auto release = [&](std::size_t idx) {
    for (const graph::VertexId v : ex.path_of(held[idx])) on_path[v] = 0;
    held_vertices -= ex.path_of(held[idx]).size();
    EXPECT_EQ(ex.hangup(held[idx]), svc::RejectReason::kNone);
    held[idx] = held.back();
    held.pop_back();
  };
  race_submitters(
      ex, {kThreads, 2000, 777},
      [&](const svc::Outcome& o) {
        if (!o.connected()) {
          // §4: on a strictly nonblocking network the greedy search never
          // fails between idle terminals.
          EXPECT_EQ(o.reject, svc::RejectReason::kTerminalBusy)
              << to_string(o.reject);
          ++terminal_busy;
          return;
        }
        const auto path = ex.path_of(o.id);
        ASSERT_EQ(path.size(), o.path_length);
        ASSERT_GE(path.size(), 2u);
        EXPECT_NE(std::find(net.inputs.begin(), net.inputs.end(),
                            path.front()),
                  net.inputs.end());
        EXPECT_NE(std::find(net.outputs.begin(), net.outputs.end(),
                            path.back()),
                  net.outputs.end());
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          EXPECT_TRUE(joined(net.g, path[i], path[i + 1]));
        for (const graph::VertexId v : path) {
          EXPECT_EQ(on_path[v], 0) << "vertex " << v << " on two live paths";
          on_path[v] = 1;
        }
        held_vertices += path.size();
        held.push_back(o.id);
      },
      [&](std::size_t) {
        for (std::size_t k = 0; k < held.size();)
          if (rng.below(4) == 0)
            release(k);
          else
            ++k;
      });

  EXPECT_EQ(ex.active_calls(), held.size());
  EXPECT_EQ(ex.busy_vertices(), held_vertices);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.connect_calls, st.router.accepted +
                                         st.router.rejected_terminal +
                                         st.router.rejected_no_path);
  EXPECT_EQ(st.router.rejected_no_path, 0u);
  EXPECT_EQ(st.router.rejected_terminal, terminal_busy);
  EXPECT_EQ(st.router.accepted - st.router.disconnects, held.size());
  EXPECT_EQ(st.submitted, kThreads * 2000u);
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.handle_errors, 0u);

  while (!held.empty()) release(held.size() - 1);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  for (std::uint32_t i = 0; i < net.inputs.size(); ++i) {
    EXPECT_TRUE(ex.input_idle(i));
    EXPECT_TRUE(ex.output_idle(i));
  }
}

TEST(RouterChurn, SeededInterleavingKeepsTheAuditAfterEveryConnect) {
  const auto net = networks::build_cantor({5, 0});
  core::Router router(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  ASSERT_EQ(router.call_at(net.inputs[0]), kNone);  // builds the map

  util::Xoshiro256 rng(777);
  std::vector<core::Router::CallId> active;
  for (std::size_t op = 0; op < 32000; ++op) {
    if (!active.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active.size());
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(rng.below(n));
      const auto out = static_cast<std::uint32_t>(rng.below(n));
      const auto call = router.connect(in, out);
      if (call != core::Router::kNoCall) active.push_back(call);
      // No vertex may lie on two active paths, and no busy bit may outlive
      // the path that took it.
      ASSERT_NO_FATAL_FAILURE(audit(router, net, true)) << "op " << op;
    }
  }
  EXPECT_EQ(router.active_call_ids().size(), active.size());

  // Counter bookkeeping.
  const auto& stats = router.stats();
  EXPECT_EQ(stats.connect_calls, stats.accepted + stats.rejected_terminal +
                                     stats.rejected_no_path);
  EXPECT_EQ(stats.accepted - stats.disconnects, active.size());

  // Every disconnect must release its path: drain to an all-idle network.
  for (const auto id : router.active_call_ids()) router.disconnect(id);
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v) {
    EXPECT_FALSE(router.is_busy(v));
    EXPECT_EQ(router.call_at(v), kNone) << "stale owner of " << v;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(router.input_idle(i));
    EXPECT_TRUE(router.output_idle(i));
  }
}

TEST(RouterStats, MergeWithOperatorPlusEquals) {
  core::RouterStats a;
  a.connect_calls = 10;
  a.accepted = 7;
  a.rejected_terminal = 2;
  a.path_vertices = 70;
  core::RouterStats b;
  b.connect_calls = 5;
  b.accepted = 3;
  b.disconnects = 1;
  b.rejected_no_path = 1;
  b.path_vertices = 30;
  core::RouterStats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.connect_calls, 15u);
  EXPECT_EQ(sum.accepted, 10u);
  EXPECT_EQ(sum.rejected_terminal, 2u);
  EXPECT_EQ(sum.disconnects, 1u);
  EXPECT_EQ(sum.rejected_no_path, 1u);
  EXPECT_EQ(sum.path_vertices, 100u);
}

// The search's stack is a real chain whatever its busy predicate answers:
// every frame is pushed as a usable child of the frame below it and every
// vertex at most once per search. Pinned with an adversarial busy view: a
// random quarter of the vertices reads busy on its first probe of a search
// and idle afterwards, so the depth-first search meets them again from
// other frames after backtracking. Every returned path (the search's
// stack, which the settle reads) must start at src, end at dst, cross only
// edges and repeat no vertex, and no search may leave a visited bit set.
TEST(SearchChain, InconsistentBusyViewNeverYieldsBrokenPaths) {
  const auto net = networks::build_cantor({5, 0});
  const auto& g = net.g;
  const core::ReachIndex reach(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  core::detail::SearchScratch scratch;
  scratch.init(g.vertex_count());
  std::vector<std::uint32_t> probe_epoch(g.vertex_count(), 0);
  std::uint32_t search_id = 0;
  std::uint64_t visited = 0;
  std::size_t found = 0, none = 0;

  const auto has_edge = [&g](graph::VertexId from, graph::VertexId to) {
    for (const graph::VertexId t : g.out_targets(from))
      if (t == to) return true;
    return false;
  };

  util::Xoshiro256 rng(util::derive_seed(555, 1));
  for (int trial = 0; trial < 2000; ++trial) {
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const graph::VertexId src = net.inputs[in];
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const graph::VertexId dst = net.outputs[out];
    ++search_id;
    // Terminals always idle (connect() checks them upfront). A per-search
    // random quarter of the other vertices reads busy on its FIRST probe
    // and idle on any later probe.
    const auto flaky_busy = [&](graph::VertexId v) {
      if (v == src || v == dst) return false;
      std::uint64_t h = (static_cast<std::uint64_t>(search_id) << 32) | v;
      if (util::splitmix64(h) % 4 != 0) return false;  // stable this search
      if (probe_epoch[v] == search_id) return false;   // later probes: idle
      probe_epoch[v] = search_id;
      return true;  // first probe: busy
    };
    const auto no_edge = [](graph::EdgeId) { return false; };
    const auto no_weld = [](graph::VertexId) { return false; };
    const graph::VertexId end = core::detail::find_idle_path(
        g, reach.probe(out), src, dst, reach.first_hop(in, out), scratch,
        visited, flaky_busy, no_edge, no_edge, no_weld,
        /*contraction_live=*/false);
    ASSERT_TRUE(test::visited_clear(scratch, g.vertex_count()))
        << "visited bits survived";
    const auto path = test::stack_path(scratch);
    if (end == graph::kNoVertex) {
      ASSERT_TRUE(path.empty());
      ++none;
      continue;
    }
    ASSERT_EQ(end, dst);
    ++found;

    ASSERT_GE(path.size(), 2u);
    ASSERT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      ASSERT_TRUE(has_edge(path[i], path[i + 1]))
          << "path hop " << path[i] << " -> " << path[i + 1]
          << " is not an edge";
    auto sorted = path;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "path repeats a vertex";
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(none, 0u);
}

}  // namespace
}  // namespace ftcs
