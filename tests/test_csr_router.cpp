// CSR-core and router hot-path tests for the two-phase graph lifecycle:
//  - GraphBuilder -> CsrGraph round-trip equivalence on random multigraphs;
//  - router determinism (same seed + request sequence -> identical paths)
//    and verdict equivalence against graph::shortest_path, the reference
//    implementation the pre-CSR router was built on (with exact path
//    lengths where every input->output path has the same length);
//  - connect()/disconnect() perform no heap allocation, verified by a
//    counting global operator new: from the first connect after
//    construction or grow() on; also under welds, whose reverse hops make
//    paths longer than the stage count; and an Exchange's open-switch
//    inject that kills no call allocates nothing once its fault books
//    exist, and neither does a steady-state drain();
//  - the path records: a churn long enough to compact the record store
//    many times keeps every live call's path equal to the path it settled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "ftcs/router.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "networks/cantor.hpp"
#include "networks/superconcentrator.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "router_stores.hpp"

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
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ftcs {
namespace {

using namespace test;

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
  core::Router router(net);
  util::Xoshiro256 rng(seed);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::vector<core::Router::CallId> active;
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
    if (call == core::Router::kNoCall) {
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
  core::Router router(net);
  const auto c1 = router.connect(0, 1);
  ASSERT_NE(c1, core::Router::kNoCall);
  EXPECT_EQ(router.connect(0, 2), core::Router::kNoCall);  // input busy
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
  // second call from it must be rejected — a vertex carries at most one
  // call, so admitting it would let either hangup free the other's vertex.
  graph::NetworkBuilder nb;
  nb.g.add_vertices(4);
  nb.g.add_edge(0, 1);
  nb.g.add_edge(1, 2);
  nb.g.add_edge(1, 3);
  nb.inputs = {0, 1};
  nb.outputs = {2, 3};
  const auto net = nb.finalize();
  core::Router router(net);
  const auto c1 = router.connect(0, 0);
  ASSERT_NE(c1, core::Router::kNoCall);
  EXPECT_EQ(router.path_of(c1), (std::vector<graph::VertexId>{0, 1, 2}));
  EXPECT_EQ(router.connect(1, 1), core::Router::kNoCall);
  router.disconnect(c1);
  EXPECT_EQ(router.busy_vertices(), 0u);
  const auto c2 = router.connect(1, 1);
  ASSERT_NE(c2, core::Router::kNoCall);
  EXPECT_EQ(router.path_of(c2), (std::vector<graph::VertexId>{1, 3}));
}

// A long churn after a warmup that touches every slot-bookkeeping path.
TEST(RouterStores, ConnectPerformsNoHeapAllocation) {
  const auto net = networks::build_cantor({5, 0});
  core::Router router(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(42);
  std::vector<std::uint32_t> active;
  active.reserve(n);
  // Warmup: touch every slot-bookkeeping path once.
  for (std::uint32_t i = 0; i < n / 2; ++i) {
    const auto c = router.connect(i, (i * 5 + 2) % n);
    if (c != kNone) active.push_back(c);
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
      if (c != kNone) active.push_back(c);
    }
  }
  EXPECT_EQ(g_alloc_count.load(), allocs_before)
      << "connect()/disconnect() allocated on the hot path";
}

// Welds let the search cross a stuck-on switch backwards, so a path can be
// longer than the stage count, with no bound below V: the record store
// must take any such path without allocating, compaction included.
TEST(RouterStores, ConnectPerformsNoHeapAllocationUnderWelds) {
  const auto net = networks::build_cantor({5, 0});
  const auto stages = static_cast<std::size_t>(
      *std::max_element(net.stage.begin(), net.stage.end()) + 1);
  core::Router router(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(7);
  // The storm: one switch in twelve stuck on, welded before the warmup
  // (the first weld sizes the router's weld-ancestor counts).
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e)
    if (rng.below(12) == 0) router.contract_edge(e);
  std::vector<std::uint32_t> active;
  active.reserve(n);
  const auto churn = [&](std::size_t ops) {
    std::size_t longest = 0;
    for (std::size_t op = 0; op < ops; ++op) {
      if (!active.empty() && rng.below(3) == 0) {
        const auto idx = rng.below(active.size());
        router.disconnect(active[idx]);
        active[idx] = active.back();
        active.pop_back();
      } else {
        const auto c = router.connect(static_cast<std::uint32_t>(rng.below(n)),
                                      static_cast<std::uint32_t>(rng.below(n)));
        if (c == kNone) continue;
        active.push_back(c);
        longest = std::max(longest, router.path_length(c));
      }
    }
    return longest;
  };
  churn(200);  // warmup
  const std::uint64_t allocs_before = g_alloc_count.load();
  const std::size_t longest = churn(4000);
  EXPECT_EQ(g_alloc_count.load(), allocs_before)
      << "connect()/disconnect() allocated under welds";
  EXPECT_GT(longest, stages) << "no path crossed a weld backwards";
}

// The router's construction and grow() build the search scratch and the
// record store, so the very first connects allocate nothing: on a fresh
// router, and on terminals and vertices that only the grown network has,
// with calls carried across the growth.
TEST(RouterStores, FirstConnectsAfterConstructionAndGrowthAllocateNothing) {
  const auto net = networks::build_cantor({5, 0});
  // cantor-k5 doubled: a cantor-k6-sized network.
  const auto grown = networks::grow_cantor(net, {5, 0});
  core::Router r(net);
  // Returns the allocations the requests made.
  const auto first_requests = [&](std::uint32_t n, std::uint32_t first_in) {
    const std::uint64_t before = g_alloc_count.load();
    for (std::uint32_t i = 0; i < 16; ++i) {
      const std::uint32_t in = (first_in + i) % n;
      (void)r.connect(in, (in * 5 + 2) % n);
    }
    return g_alloc_count.load() - before;
  };
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  EXPECT_EQ(first_requests(n, 0), 0u) << "first requests after construction";
  EXPECT_GT(r.active_calls(), 0u);

  r.grow(grown);
  const std::size_t carried = r.active_calls();
  const auto n2 = static_cast<std::uint32_t>(grown.inputs.size());
  ASSERT_EQ(n2, 2 * n);
  // Inputs n.. exist only in the grown network.
  EXPECT_EQ(first_requests(n2, n), 0u) << "first requests after grow()";
  EXPECT_GT(r.active_calls(), carried);
  audit(r, grown);
}

// The fault plane's open-switch path: an inject's newly dead endpoints
// live on the stack, so once the first inject has sized the fault books,
// an open fault that kills no call allocates nothing. One counted inject
// hits the live call's input terminal (a terminal never dies), so the
// victim check judges that call and finds its path alive; the others miss
// every call.
TEST(ExchangeFaultPlane, OpenInjectThatKillsNoCallPerformsNoHeapAllocation) {
  const auto net = networks::build_cantor({5, 0});
  svc::Exchange ex(net);
  const svc::Outcome held = ex.call({0, 1, 0, 0});
  ASSERT_TRUE(held.connected());
  const std::vector<graph::VertexId> path = ex.path_of(held.id);
  ASSERT_GE(path.size(), 2u);
  const auto on_path = [&](graph::VertexId v) {
    return std::find(path.begin(), path.end(), v) != path.end();
  };
  const auto open = [](graph::EdgeId e) {
    fault::FaultEvent ev;
    ev.edge = e;
    ev.kind = fault::FaultEvent::Kind::kFail;
    return ev;
  };
  // Switches off the call's path, and one from its input terminal to a
  // vertex off the path.
  std::vector<graph::EdgeId> misses;
  graph::EdgeId from_terminal = net.g.edge_count();
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e) {
    const graph::Edge& edge = net.g.edge(e);
    if (!on_path(edge.from) && !on_path(edge.to)) {
      if (misses.size() < 4) misses.push_back(e);
    } else if (edge.from == path.front() && !on_path(edge.to)) {
      from_terminal = e;
    }
  }
  ASSERT_EQ(misses.size(), 4u);
  ASSERT_LT(from_terminal, net.g.edge_count());

  ASSERT_TRUE(ex.inject(open(misses[0])).killed.empty());  // warmup
  const std::uint64_t allocs_before = g_alloc_count.load();
  std::size_t killed = 0;
  killed += ex.inject(open(from_terminal)).calls_killed();
  for (std::size_t i = 1; i < misses.size(); ++i)
    killed += ex.inject(open(misses[i])).calls_killed();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;
  EXPECT_EQ(killed, 0u);
  EXPECT_EQ(allocs, 0u) << "an open inject that killed no call allocated";
  EXPECT_EQ(ex.failed_switch_count(), misses.size() + 1);
  EXPECT_EQ(ex.hangup(held.id), svc::RejectReason::kNone);
}

// drain()'s epoch buffers (the batch and its outcomes) live across epochs,
// so once a window of some size has been drained, a later window no larger
// allocates nothing. The exchange runs on cantor-k7; each epoch first hangs
// up every call, then submits a window of distinct terminals with a
// callback (a pollable outcome would book a map node). Only drain() is
// counted, and the warm-up's largest window comes first.
TEST(ExchangeDrain, SteadyStateDrainPerformsNoHeapAllocation) {
  const auto net = networks::build_cantor({7, 0});
  svc::Exchange ex(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::vector<svc::CallId> live;
  live.reserve(n);
  const svc::Exchange::CompletionFn done = [&live](const svc::Outcome& o) {
    if (o.connected()) live.push_back(o.id);
  };
  std::vector<std::uint32_t> ins(n), outs(n);
  for (std::uint32_t i = 0; i < n; ++i) ins[i] = outs[i] = i;
  util::Xoshiro256 rng(3838);
  constexpr std::uint32_t kMaxWindow = 96;
  const auto epoch = [&](std::uint32_t window) {
    for (const svc::CallId id : live) ex.hangup(id);
    live.clear();
    for (std::uint32_t i = 0; i < window; ++i) {
      std::swap(ins[i], ins[i + rng.below(n - i)]);
      std::swap(outs[i], outs[i + rng.below(n - i)]);
      ex.submit({ins[i], outs[i]}, done);
    }
    const std::uint64_t before = g_alloc_count.load();
    EXPECT_EQ(ex.drain(), window);
    return g_alloc_count.load() - before;
  };
  for (int i = 0; i < 8; ++i) epoch(kMaxWindow);  // warm-up
  std::uint64_t allocs = 0;
  for (int i = 0; i < 400; ++i)
    allocs += epoch(1 + static_cast<std::uint32_t>(rng.below(kMaxWindow)));
  EXPECT_EQ(allocs, 0u) << "a steady-state drain allocated";
}

// A call reuses its slot's last record when the path fits, so on a network
// whose paths all have one length the record store never fills. Here each
// of kLanes lanes is input -> c_1 -> ... -> c_kChain with an exit switch
// c_j -> output at every step, tried before the step on. Failing the
// first k - 1 exits of a lane before a connect makes its path k + 2
// vertices long, so lengths vary from call to call, settles keep
// appending, and the store (V + 2 x (max calls) = 226 words) compacts every
// dozen or so appends. A compaction moves live records, so it shows as a
// live call whose path() view changed address; its vertices must not.
TEST(RouterStores, PathRecordsSurviveCompaction) {
  constexpr std::uint32_t kLanes = 8, kChain = 24;
  graph::NetworkBuilder nb;
  std::vector<std::vector<graph::EdgeId>> exits(kLanes);
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    const graph::VertexId in = nb.g.add_vertex(), out = nb.g.add_vertex();
    nb.inputs.push_back(in);
    nb.outputs.push_back(out);
    graph::VertexId prev = in;
    for (std::uint32_t j = 0; j < kChain; ++j) {
      const graph::VertexId c = nb.g.add_vertex();
      nb.g.add_edge(prev, c);
      exits[l].push_back(nb.g.add_edge(c, out));
      prev = c;
    }
  }
  const auto net = nb.finalize();
  AuditedRouter router(net);
  auto& plain = static_cast<core::Router&>(router);  // unaudited
  (void)router.call_at(0);  // the audit checks the owner map from here on
  util::Xoshiro256 rng(2024);
  struct Live {
    std::uint32_t call = kNone;
    std::vector<graph::VertexId> path;  // as settled
    const graph::VertexId* at = nullptr;  // where the record was last seen
  };
  std::vector<Live> live(kLanes);
  std::size_t moves = 0;
  for (std::size_t op = 0; op < 3000; ++op) {
    const auto l = static_cast<std::uint32_t>(rng.below(kLanes));
    if (live[l].call != kNone) {
      router.disconnect(live[l].call);
      live[l].call = kNone;
    } else {
      const auto k = static_cast<std::uint32_t>(rng.below(kChain)) + 1;
      for (std::uint32_t j = 0; j < kChain; ++j)
        if (j + 1 < k)
          plain.fail_edge(exits[l][j]);
        else
          plain.repair_edge(exits[l][j]);
      const std::uint32_t c = router.connect(l, l);
      ASSERT_NE(c, kNone);
      ASSERT_EQ(router.path_length(c), k + 2);
      live[l] = {c, router.path_of(c), router.path(c).data()};
    }
    bool moved = false;
    for (Live& x : live) {
      if (x.call == kNone) continue;
      const auto p = router.path(x.call);
      ASSERT_TRUE(std::equal(p.begin(), p.end(), x.path.begin(), x.path.end()))
          << "call " << x.call << " changed path at op " << op;
      moved |= p.data() != x.at;
      x.at = p.data();
    }
    moves += moved;
  }
  EXPECT_GE(moves, 20u) << "the record store compacted too rarely to test";
}

}  // namespace
}  // namespace ftcs
