// ConcurrentRouter correctness: the claim protocol under real contention and
// exact equivalence with GreedyRouter when contention is impossible.
//
//  - Churn stress: 8 threads connect/disconnect randomly over one shared
//    cantor network, then the claim invariants are checked at quiescence —
//    no vertex on two paths, busy_vertices() equals the sum of active path
//    lengths (and the busy bitset popcount), every disconnect releases its
//    claims down to an all-idle network. Run under TSan in CI, this is also
//    the data-race proof of the claim path.
//  - 1-worker equivalence: ConcurrentRouter shares GreedyRouter's search
//    (ftcs/search.hpp) and an uncontended claim always succeeds first try,
//    so a fixed request trace must produce identical decisions, call ids,
//    paths, and counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "ftcs/concurrent_router.hpp"
#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

TEST(ConcurrentRouter, ChurnStressClaimInvariants) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kOpsPerThread = 4000;
  core::ConcurrentRouter router(net, kThreads);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& worker = router.worker(t);
      util::Xoshiro256 rng(util::derive_seed(777, t));
      std::vector<core::ConcurrentRouter::CallId> active;
      active.reserve(n);
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        if (!active.empty() && rng.below(4) == 0) {
          const auto idx = rng.below(active.size());
          worker.disconnect(active[idx]);
          active[idx] = active.back();
          active.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng.below(n));
          const auto out = static_cast<std::uint32_t>(rng.below(n));
          const auto call = worker.connect(in, out);
          if (call != core::ConcurrentRouter::kNoCall) active.push_back(call);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Quiescent invariants. No vertex may lie on two active paths: ownership
  // transfers only through the busy-bit CAS, so a double-claim here would
  // mean the claim protocol leaked a vertex.
  std::vector<int> owner(net.g.vertex_count(), -1);
  std::size_t total_path_vertices = 0;
  std::size_t total_active = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    auto& worker = router.worker(t);
    for (const auto id : worker.active_call_ids()) {
      const auto path = worker.path_of(id);
      ASSERT_EQ(path.size(), worker.path_length(id));
      ASSERT_FALSE(path.empty());
      total_path_vertices += path.size();
      ++total_active;
      for (const auto v : path) {
        EXPECT_EQ(owner[v], -1)
            << "vertex " << v << " claimed by workers " << owner[v] << " and "
            << t;
        owner[v] = static_cast<int>(t);
        EXPECT_TRUE(router.is_busy(v));
      }
    }
  }
  EXPECT_EQ(router.active_calls(), total_active);
  EXPECT_EQ(router.busy_vertices(), total_path_vertices);
  std::size_t busy_popcount = 0;
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    if (router.is_busy(v)) ++busy_popcount;
  EXPECT_EQ(busy_popcount, total_path_vertices)
      << "busy bits leaked by a conflicting claim's back-off";

  // Counter bookkeeping across all workers.
  const auto stats = router.stats();
  EXPECT_EQ(stats.connect_calls, stats.accepted + stats.rejected_terminal +
                                     stats.rejected_no_path +
                                     stats.rejected_contention);
  EXPECT_EQ(stats.accepted - stats.disconnects, total_active);

  // Every disconnect must release its claims: drain to an all-idle network.
  for (unsigned t = 0; t < kThreads; ++t) {
    auto& worker = router.worker(t);
    for (const auto id : worker.active_call_ids()) worker.disconnect(id);
  }
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    EXPECT_FALSE(router.is_busy(v));
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(router.input_idle(i));
    EXPECT_TRUE(router.output_idle(i));
  }
}

// Fixed request trace applied to both engines; every observable must match.
TEST(ConcurrentRouter, OneWorkerEquivalentToGreedyRouter) {
  const auto net = networks::build_cantor({4, 0});
  core::GreedyRouter greedy(net);
  core::ConcurrentRouter concurrent(net, 1);
  auto& worker = concurrent.worker(0);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  util::Xoshiro256 rng(2024);
  std::vector<core::GreedyRouter::CallId> active_g;
  std::vector<core::ConcurrentRouter::CallId> active_c;
  std::size_t accepted = 0;
  for (std::size_t op = 0; op < 800; ++op) {
    if (!active_g.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active_g.size());
      greedy.disconnect(active_g[idx]);
      worker.disconnect(active_c[idx]);
      active_g[idx] = active_g.back();
      active_g.pop_back();
      active_c[idx] = active_c.back();
      active_c.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const auto cg = greedy.connect(in, out);
    const auto cc = worker.connect(in, out);
    ASSERT_EQ(cg == core::GreedyRouter::kNoCall,
              cc == core::ConcurrentRouter::kNoCall)
        << "accept/reject divergence at op " << op;
    if (cg == core::GreedyRouter::kNoCall) continue;
    ASSERT_EQ(cg, cc) << "slot allocation divergence at op " << op;
    EXPECT_EQ(greedy.path_of(cg), worker.path_of(cc));
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

TEST(ConcurrentRouter, BlockedVerticesNeverClaimed) {
  const auto net = networks::build_cantor({4, 0});
  // Block everything except terminals: every connect must fail cleanly.
  std::vector<std::uint8_t> blocked(net.g.vertex_count(), 1);
  for (const auto v : net.inputs) blocked[v] = 0;
  for (const auto v : net.outputs) blocked[v] = 0;
  core::ConcurrentRouter router(net, 2, blocked);
  auto& worker = router.worker(0);
  EXPECT_EQ(worker.connect(0, 1), core::ConcurrentRouter::kNoCall);
  EXPECT_EQ(worker.stats().rejected_no_path, 1u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  EXPECT_TRUE(router.input_idle(0));
  EXPECT_TRUE(router.output_idle(1));
}

// Regression: under the concurrent engine's DIRTY busy snapshot a vertex
// can probe busy once and idle later in the same search (another worker
// released it in between). The search must never chain a path through a
// parent left over from an EARLIER search — that would settle broken or
// cyclic "paths" (a SEGV in Worker::connect). Simulated deterministically with an adversarial busy
// view: a random quarter of the vertices reads busy on its first probe of
// a search and idle afterwards, so the depth-first search meets them again
// from other parents after backtracking. Every returned path must recover
// a real src..dst chain of edges.
TEST(ConcurrentRouter, DirtyBusyViewNeverYieldsBrokenParentChains) {
  const auto net = networks::build_cantor({5, 0});
  const auto& g = net.g;
  const core::ReachIndex reach(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  core::detail::SearchScratch scratch;
  scratch.init(g.vertex_count());
  std::vector<std::uint32_t> probe_epoch(g.vertex_count(), 0);
  std::uint32_t search_id = 0;
  std::uint64_t visited = 0;
  std::size_t found = 0;

  const auto has_edge = [&g](graph::VertexId from, graph::VertexId to) {
    for (const graph::VertexId t : g.out_targets(from))
      if (t == to) return true;
    return false;
  };

  util::Xoshiro256 rng(util::derive_seed(555, 1));
  for (int trial = 0; trial < 2000; ++trial) {
    const graph::VertexId src = net.inputs[rng.below(n)];
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
    const graph::VertexId end = core::detail::find_idle_path(
        g, reach.probe(out), src, dst, scratch, visited, flaky_busy, no_edge,
        no_edge, /*contraction_live=*/false);
    if (end == graph::kNoVertex) continue;
    ASSERT_EQ(end, dst);
    ++found;

    // Recover the path exactly as Worker::connect does, bounded: a sound
    // chain reaches src within vertex_count hops and every hop is a real
    // edge of the graph.
    graph::VertexId v = dst;
    for (std::size_t hops = 0; v != src; ++hops) {
      ASSERT_LE(hops, g.vertex_count()) << "cyclic parent chain";
      const graph::VertexId p = scratch.parent_f[v];
      ASSERT_NE(p, graph::kNoVertex) << "parent chain broke before src";
      ASSERT_TRUE(has_edge(p, v)) << "parent chain hop is not an edge";
      v = p;
    }
    EXPECT_EQ(scratch.parent_f[src], graph::kNoVertex);
  }
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace ftcs
