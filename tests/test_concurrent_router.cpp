// The shared store's claim protocol (core::Router<SharedStore>, alias
// ConcurrentRouter) under real contention, and exact equivalence with the
// solo store when contention is impossible.
//
//  - Churn stress: 8 threads connect/disconnect randomly over one shared
//    cantor network, then the structural audit (router_stores.hpp) checks
//    the claim invariants at quiescence — no vertex on two paths, busy bits
//    exactly the live paths, busy_vertices() the sum of path lengths, and
//    call_at() naming each vertex's call — and every disconnect releases
//    its claims down to an all-idle network. The owner map is built before
//    the threads start, so every settle writes its entries concurrently.
//    Run under TSan in CI, this is also the data-race proof of the claim
//    path.
//  - 1-session equivalence: both stores run one search (ftcs/search.hpp)
//    and an uncontended claim always succeeds first try, so a fixed request
//    trace must produce identical decisions, call ids, paths, and counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"
#include "router_stores.hpp"

namespace ftcs {
namespace {

using namespace test;

TEST(ConcurrentRouter, ChurnStressClaimInvariants) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kOpsPerThread = 4000;
  core::ConcurrentRouter router(net, kThreads);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  ASSERT_EQ(router.call_at(net.inputs[0]).call, kNone);  // builds the map

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& session = router.session(t);
      util::Xoshiro256 rng(util::derive_seed(777, t));
      std::vector<core::ConcurrentRouter::CallId> active;
      active.reserve(n);
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        if (!active.empty() && rng.below(4) == 0) {
          const auto idx = rng.below(active.size());
          session.disconnect(active[idx]);
          active[idx] = active.back();
          active.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng.below(n));
          const auto out = static_cast<std::uint32_t>(rng.below(n));
          const auto call = session.connect(in, out);
          if (call != core::ConcurrentRouter::kNoCall) active.push_back(call);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Quiescent invariants. No vertex may lie on two active paths: ownership
  // transfers only through the busy-bit CAS, so a double-claim would mean
  // the claim protocol leaked a vertex; a busy bit no live path explains
  // would mean a conflicting claim's back-off leaked it.
  audit(router, net, true);
  std::size_t total_active = 0;
  for (unsigned t = 0; t < kThreads; ++t)
    total_active += router.session(t).active_call_ids().size();

  // Counter bookkeeping across all sessions.
  const auto stats = router.stats();
  EXPECT_EQ(stats.connect_calls, stats.accepted + stats.rejected_terminal +
                                     stats.rejected_no_path +
                                     stats.rejected_contention);
  EXPECT_EQ(stats.accepted - stats.disconnects, total_active);

  // Every disconnect must release its claims: drain to an all-idle network.
  for (unsigned t = 0; t < kThreads; ++t) {
    auto& session = router.session(t);
    for (const auto id : session.active_call_ids()) session.disconnect(id);
  }
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v) {
    EXPECT_FALSE(router.is_busy(v));
    EXPECT_EQ(router.call_at(v).call, kNone) << "stale owner of " << v;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(router.input_idle(i));
    EXPECT_TRUE(router.output_idle(i));
  }
}

// Fixed request trace applied to both stores; every observable must match.
TEST(ConcurrentRouter, OneWorkerEquivalentToGreedyRouter) {
  const auto net = networks::build_cantor({4, 0});
  core::GreedyRouter greedy(net);
  core::ConcurrentRouter concurrent(net, 1);
  auto& session = concurrent.session(0);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  util::Xoshiro256 rng(2024);
  std::vector<core::GreedyRouter::CallId> active_g;
  std::vector<core::ConcurrentRouter::CallId> active_c;
  std::size_t accepted = 0;
  for (std::size_t op = 0; op < 800; ++op) {
    if (!active_g.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active_g.size());
      greedy.disconnect(active_g[idx]);
      session.disconnect(active_c[idx]);
      active_g[idx] = active_g.back();
      active_g.pop_back();
      active_c[idx] = active_c.back();
      active_c.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const auto cg = greedy.connect(in, out);
    const auto cc = session.connect(in, out);
    ASSERT_EQ(cg == core::GreedyRouter::kNoCall,
              cc == core::ConcurrentRouter::kNoCall)
        << "accept/reject divergence at op " << op;
    if (cg == core::GreedyRouter::kNoCall) continue;
    ASSERT_EQ(cg, cc) << "slot allocation divergence at op " << op;
    EXPECT_EQ(greedy.path_of(cg), session.path_of(cc));
    active_g.push_back(cg);
    active_c.push_back(cc);
    ++accepted;
  }
  ASSERT_GT(accepted, 0u);

  const auto& sg = greedy.stats();
  const auto sc = concurrent.stats();
  EXPECT_EQ(sg.connect_calls, sc.connect_calls);
  EXPECT_EQ(sg.accepted, sc.accepted);
  EXPECT_EQ(sg.rejected_terminal, sc.rejected_terminal);
  EXPECT_EQ(sg.rejected_no_path, sc.rejected_no_path);
  EXPECT_EQ(sg.disconnects, sc.disconnects);
  EXPECT_EQ(sg.vertices_visited, sc.vertices_visited);
  EXPECT_EQ(sg.path_vertices, sc.path_vertices);
  EXPECT_EQ(sc.claim_conflicts, 0u);      // impossible with one worker
  EXPECT_EQ(sc.search_retries, 0u);
  EXPECT_EQ(sc.rejected_contention, 0u);
  EXPECT_EQ(greedy.busy_vertices(), concurrent.busy_vertices());
  EXPECT_EQ(greedy.active_calls(), concurrent.active_calls());
}

TEST(ConcurrentRouter, StatsMergeWithOperatorPlusEquals) {
  core::RouterStats a;
  a.connect_calls = 10;
  a.accepted = 7;
  a.claim_conflicts = 2;
  a.path_vertices = 70;
  core::RouterStats b;
  b.connect_calls = 5;
  b.accepted = 3;
  b.search_retries = 1;
  b.rejected_contention = 1;
  b.path_vertices = 30;
  core::RouterStats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.connect_calls, 15u);
  EXPECT_EQ(sum.accepted, 10u);
  EXPECT_EQ(sum.claim_conflicts, 2u);
  EXPECT_EQ(sum.search_retries, 1u);
  EXPECT_EQ(sum.rejected_contention, 1u);
  EXPECT_EQ(sum.path_vertices, 100u);
}

// Regression: under the shared store's DIRTY busy snapshot a vertex
// can probe busy once and idle later in the same search (another worker
// released it in between). The search must still return a real chain —
// a broken or cyclic "path" would corrupt the successor array (a SEGV in
// Session::connect). Simulated deterministically with an adversarial busy
// view: a random quarter of the vertices reads busy on its first probe of
// a search and idle afterwards, so the depth-first search meets them again
// from other frames after backtracking. Every returned path (the search's
// stack, which the claims read) must start at src, end at dst, cross only
// edges and repeat no vertex, and no search may leave a visited bit set.
TEST(ConcurrentRouter, DirtyBusyViewNeverYieldsBrokenPaths) {
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
