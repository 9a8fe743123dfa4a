// CSR-core and router hot-path tests for the two-phase graph lifecycle:
//  - GraphBuilder -> CsrGraph round-trip equivalence on random multigraphs;
//  - router determinism (same seed + request sequence -> identical paths)
//    and verdict equivalence against graph::shortest_path, the reference
//    implementation the pre-CSR router was built on (with exact path
//    lengths where every input->output path has the same length);
//  - connect()/disconnect() perform no heap allocation after construction,
//    verified by a counting global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "ftcs/router.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "networks/cantor.hpp"
#include "networks/superconcentrator.hpp"
#include "util/prng.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hooks: every global new is tallied so tests can assert
// a region of code allocates nothing. GCC's -Wmismatched-new-delete cannot
// see that these replacement operators pair malloc/aligned_alloc with free
// consistently, so the (false-positive) diagnostic is silenced here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al), size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ftcs {
namespace {

graph::GraphBuilder random_multigraph(std::size_t vertices, std::size_t edges,
                                      std::uint64_t seed) {
  graph::GraphBuilder b(vertices);
  util::Xoshiro256 rng(seed);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto from = static_cast<graph::VertexId>(rng.below(vertices));
    auto to = static_cast<graph::VertexId>(rng.below(vertices));
    if (to == from) to = (to + 1) % vertices;  // no self-loops
    b.add_edge(from, to);
  }
  return b;
}

TEST(CsrRoundTrip, EquivalentToIncidenceListsOnRandomMultigraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto b = random_multigraph(40 + seed * 13, 200 + seed * 57, seed);
    const graph::CsrGraph g = b.finalize();
    ASSERT_EQ(g.vertex_count(), b.vertex_count());
    ASSERT_EQ(g.edge_count(), b.edge_count());
    // Reference incidence lists: every edge id appended to its endpoints'
    // lists in insertion order.
    std::vector<std::vector<graph::EdgeId>> outs(b.vertex_count());
    std::vector<std::vector<graph::EdgeId>> ins(b.vertex_count());
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(g.edge(e).from, b.edge(e).from);
      EXPECT_EQ(g.edge(e).to, b.edge(e).to);
      outs[b.edge(e).from].push_back(e);
      ins[b.edge(e).to].push_back(e);
    }
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      ASSERT_EQ(g.out_degree(v), outs[v].size());
      ASSERT_EQ(g.in_degree(v), ins[v].size());
      EXPECT_EQ(g.degree(v), outs[v].size() + ins[v].size());
      const auto go = g.out_edges(v);
      const auto gt = g.out_targets(v);
      for (std::size_t i = 0; i < outs[v].size(); ++i) {
        EXPECT_EQ(go[i], outs[v][i]);  // same edge ids, same incidence order
        EXPECT_EQ(gt[i], g.edge(outs[v][i]).to);
      }
      const auto gi = g.in_edges(v);
      const auto gs = g.in_sources(v);
      for (std::size_t i = 0; i < ins[v].size(); ++i) {
        EXPECT_EQ(gi[i], ins[v][i]);
        EXPECT_EQ(gs[i], g.edge(ins[v][i]).from);
      }
    }
  }
}

TEST(CsrRoundTrip, EmptyAndIsolatedVertices) {
  graph::GraphBuilder b;
  EXPECT_EQ(b.finalize().vertex_count(), 0u);
  b.add_vertices(5);
  const auto g = b.finalize();
  EXPECT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (graph::VertexId v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.out_edges(v).empty());
    EXPECT_TRUE(g.in_edges(v).empty());
  }
}

// What churn_paths() checks against the reference BFS, beyond path validity.
enum class Check { kNone, kVerdicts, kVerdictsAndLength };

// Drives a deterministic churn against a router and records every accepted
// path; used for determinism and reference-BFS equivalence checks.
std::vector<std::vector<graph::VertexId>> churn_paths(
    const graph::Network& net, std::uint64_t seed, std::size_t ops,
    Check check) {
  const bool check_verdicts = check != Check::kNone;
  core::GreedyRouter router(net);
  util::Xoshiro256 rng(seed);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::vector<core::GreedyRouter::CallId> active;
  std::vector<std::vector<graph::VertexId>> paths;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active.size());
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    std::vector<std::uint8_t> busy_before;
    if (check_verdicts) busy_before = router.busy_mask();
    const auto call = router.connect(in, out);
    if (call == core::GreedyRouter::kNoCall) {
      if (check_verdicts && router.input_idle(in) && router.output_idle(out)) {
        // The reference search must agree that no idle path exists.
        std::vector<std::uint8_t> target(net.g.vertex_count(), 0);
        target[net.outputs[out]] = 1;
        const graph::VertexId srcs[1] = {net.inputs[in]};
        EXPECT_FALSE(
            graph::shortest_path(net.g, srcs, target, busy_before).has_value());
      }
      continue;
    }
    const auto path = router.path_of(call);
    EXPECT_EQ(path.size(), router.path_length(call));
    EXPECT_EQ(path.front(), net.inputs[in]);
    EXPECT_EQ(path.back(), net.outputs[out]);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      bool edge_found = false;
      for (graph::VertexId t : net.g.out_targets(path[i]))
        edge_found |= t == path[i + 1];
      EXPECT_TRUE(edge_found) << "settled path skips a missing edge";
    }
    if (check_verdicts) {
      // The reference BFS must find a path on the same busy state too; on a
      // network whose input->output paths all have one length, the settled
      // path must be exactly as short as the reference's.
      std::vector<std::uint8_t> target(net.g.vertex_count(), 0);
      target[net.outputs[out]] = 1;
      const graph::VertexId srcs[1] = {net.inputs[in]};
      const auto ref = graph::shortest_path(net.g, srcs, target, busy_before);
      EXPECT_TRUE(ref.has_value());
      if (ref && check == Check::kVerdictsAndLength) {
        EXPECT_EQ(path.size(), ref->size());
      }
    }
    paths.push_back(path);
    active.push_back(call);
  }
  return paths;
}

TEST(RouterDeterminism, SameSeedSameRequestsIdenticalPaths) {
  const auto net = networks::build_cantor({4, 0});
  const auto a = churn_paths(net, 99, 400, Check::kNone);
  const auto b = churn_paths(net, 99, 400, Check::kNone);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(RouterDeterminism, SettlesIdlePathsWithReferenceBfsVerdicts) {
  // Cantor: uniform path lengths, so the depth-first search's path is a
  // shortest one. Superconcentrator: direct input->output edges compete
  // with long recursive detours; the search returns AN idle path (the
  // paper's §4 greedy routing needs no more), so only verdicts and path
  // validity are pinned there.
  churn_paths(networks::build_cantor({4, 0}), 7, 300,
              Check::kVerdictsAndLength);
  churn_paths(networks::build_superconcentrator({32, 4, 4, 11}), 8, 300,
              Check::kVerdicts);
}

TEST(RouterStatsBlock, CountsAddUp) {
  const auto net = networks::build_cantor({4, 0});
  core::GreedyRouter router(net);
  const auto c1 = router.connect(0, 1);
  ASSERT_NE(c1, core::GreedyRouter::kNoCall);
  EXPECT_EQ(router.connect(0, 2), core::GreedyRouter::kNoCall);  // input busy
  router.disconnect(c1);
  const auto& s = router.stats();
  EXPECT_EQ(s.connect_calls, 2u);
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.rejected_terminal, 1u);
  EXPECT_EQ(s.disconnects, 1u);
  EXPECT_GT(s.vertices_visited, 0u);
  EXPECT_EQ(s.path_vertices, router.stats().path_vertices);
  EXPECT_GE(s.path_vertices, 2u);
  router.reset_stats();
  EXPECT_EQ(router.stats().connect_calls, 0u);
}

TEST(RouterDeterminism, RejectsTerminalBusyAsIntermediateHop) {
  // 0 -> 1 -> 2 and 1 -> 3, with vertex 1 both an input and an interior hop.
  // Once call (0,0) settles 0-1-2, input 1 is busy as an intermediate; a
  // second call from it must be rejected — the per-vertex successor array
  // stores at most one call per vertex, so admitting it would corrupt both.
  graph::NetworkBuilder nb;
  nb.g.add_vertices(4);
  nb.g.add_edge(0, 1);
  nb.g.add_edge(1, 2);
  nb.g.add_edge(1, 3);
  nb.inputs = {0, 1};
  nb.outputs = {2, 3};
  const auto net = nb.finalize();
  core::GreedyRouter router(net);
  const auto c1 = router.connect(0, 0);
  ASSERT_NE(c1, core::GreedyRouter::kNoCall);
  EXPECT_EQ(router.path_of(c1), (std::vector<graph::VertexId>{0, 1, 2}));
  EXPECT_EQ(router.connect(1, 1), core::GreedyRouter::kNoCall);
  router.disconnect(c1);
  EXPECT_EQ(router.busy_vertices(), 0u);
  const auto c2 = router.connect(1, 1);
  ASSERT_NE(c2, core::GreedyRouter::kNoCall);
  EXPECT_EQ(router.path_of(c2), (std::vector<graph::VertexId>{1, 3}));
}

TEST(RouterHotPath, ConnectPerformsNoHeapAllocation) {
  const auto net = networks::build_cantor({5, 0});
  core::GreedyRouter router(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(42);
  std::vector<core::GreedyRouter::CallId> active;
  active.reserve(n);
  // Warmup: touch every slot-bookkeeping path once.
  for (std::uint32_t i = 0; i < n / 2; ++i) {
    const auto c = router.connect(i, (i * 5 + 2) % n);
    if (c != core::GreedyRouter::kNoCall) active.push_back(c);
  }
  for (auto c : active) router.disconnect(c);
  active.clear();

  const std::uint64_t allocs_before = g_alloc_count.load();
  for (std::size_t op = 0; op < 2000; ++op) {
    if (!active.empty() && rng.below(3) == 0) {
      const auto idx = rng.below(active.size());
      router.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
    } else {
      const auto c = router.connect(static_cast<std::uint32_t>(rng.below(n)),
                                    static_cast<std::uint32_t>(rng.below(n)));
      if (c != core::GreedyRouter::kNoCall) active.push_back(c);
    }
  }
  EXPECT_EQ(g_alloc_count.load(), allocs_before)
      << "connect()/disconnect() allocated on the hot path";
}

}  // namespace
}  // namespace ftcs
