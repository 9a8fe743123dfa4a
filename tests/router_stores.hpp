// The typed router suite's shared machinery. Every TYPED_TEST of the
// `RouterStores` suite runs once per busy store of core::Router:
// `RouterStores/Solo.*` on the one-session store (GreedyRouter) and
// `RouterStores/Shared.*` on a one-session router over the shared atomic
// store (ConcurrentRouter), so each router feature is written and tested
// once. Path-for-path agreement of the two stores is pinned separately
// (ConcurrentRouter.OneWorkerEquivalentToGreedyRouter, the Exchange trace
// identity, Traffic.BothBackendsProduceIdenticalReports).
//
// audit() is the structural safety net: the typed tests route through
// AuditedRouter, which runs it after every operation. It reads only the
// router's public accessors.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ftcs/reach_index.hpp"
#include "ftcs/router.hpp"
#include "graph/digraph.hpp"

namespace ftcs::test {

using StoreTypes = ::testing::Types<core::SoloStore, core::SharedStore>;

struct StoreNames {
  template <class Store>
  static std::string GetName(int) {
    return Store::kShared ? "Shared" : "Solo";
  }
};

template <class Store>
class RouterStores : public ::testing::Test {};
TYPED_TEST_SUITE(RouterStores, StoreTypes, StoreNames);

/// Both stores' kNoCall value.
inline constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// The path of the last search on `s` (its stack), src first; empty if the
/// search found none.
inline std::vector<graph::VertexId> stack_path(
    const core::detail::SearchScratch& s) {
  std::vector<graph::VertexId> path;
  for (const auto& f : s.path()) path.push_back(f.v);
  return path;
}

/// True iff no visited bit of `s` (sized for `v_count` vertices) is set, as
/// every search must leave it.
inline bool visited_clear(const core::detail::SearchScratch& s,
                          std::size_t v_count) {
  return std::all_of(s.seen.get(), s.seen.get() + (v_count + 63) / 64,
                     [](std::uint64_t w) { return w == 0; });
}

/// A plain one-session router over `net` on `Store` (for tests that must
/// not pay for the audit).
template <class Store>
std::unique_ptr<core::Router<Store>> make_router(const graph::Network& net) {
  if constexpr (Store::kShared)
    return std::make_unique<core::Router<Store>>(net, 1u);
  else
    return std::make_unique<core::Router<Store>>(net);
}

/// Weld-ancestor counts recounted from scratch: entry v is the number of
/// contracted switches of `r` whose head (`edge.to`) v reaches forward in
/// the static graph of `net` (v itself included), or 0 if v reaches every
/// output (such a vertex is in every cone, and the router keeps no count).
template <class Store>
std::vector<std::uint32_t> recount_weld_reach(const core::Router<Store>& r,
                                              const graph::Network& net) {
  const graph::CsrGraph& g = net.g;
  std::vector<std::uint32_t> count(g.vertex_count(), 0);
  bool welded = false;
  for (graph::EdgeId e = 0; e < g.edge_count() && !welded; ++e)
    welded = r.edge_contracted(e);
  if (!welded) return count;
  const core::ReachIndex reach(net);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!r.edge_contracted(e)) continue;
    std::vector<std::uint8_t> seen(g.vertex_count(), 0);
    std::vector<graph::VertexId> stack{g.edge(e).to};
    seen[g.edge(e).to] = 1;
    while (!stack.empty()) {
      const graph::VertexId v = stack.back();
      stack.pop_back();
      if (!reach.reaches_all(v)) ++count[v];
      for (const graph::VertexId u : g.in_sources(v))
        if (!seen[u]) {
          seen[u] = 1;
          stack.push_back(u);
        }
    }
  }
  return count;
}

/// True iff a switch of `g` joins u to v: forward, or backward (the
/// reverse hop of a weld; whether the overlay still carries it is the
/// fault plane's question, Router::path_carried).
inline bool joined(const graph::CsrGraph& g, graph::VertexId u,
                   graph::VertexId v) {
  const auto fwd = g.out_targets(u);
  const auto bwd = g.in_sources(u);
  return std::find(fwd.begin(), fwd.end(), v) != fwd.end() ||
         std::find(bwd.begin(), bwd.end(), v) != bwd.end();
}

/// Structural audit of `r` over `net`:
///  - busy bits are exactly the union of every live path's vertices and
///    the dead vertices, and no vertex lies on two live paths;
///  - each live path (its record) runs from an input terminal to an output
///    terminal, neither terminal reads idle, and every pair of consecutive
///    vertices is joined by a switch (joined());
///  - busy_vertices() is the sum of path_length(), and active_calls() the
///    number of live calls;
///  - every weld-ancestor count (weld_reach()) equals recount_weld_reach();
///  - the overlay gates count their bits: failed_edge_count() is the
///    number of switches reading edge_failed(), and contracted_edge_count()
///    the number reading edge_contracted();
///  - with `owner_map` (the router's call_at() has been asked, so its owner
///    map exists), call_at(v) names v's live call for every vertex of every
///    live path, and no call for every other vertex.
template <class Store>
void audit(core::Router<Store>& r, const graph::Network& net,
           bool owner_map = false) {
  const auto terminal = [](const std::vector<graph::VertexId>& list,
                           graph::VertexId v) {
    return static_cast<std::uint32_t>(
        std::find(list.begin(), list.end(), v) - list.begin());
  };
  std::vector<std::uint8_t> expect(net.g.vertex_count(), 0);
  std::vector<core::CallRef> holder(net.g.vertex_count());
  std::size_t lengths = 0, calls = 0;
  for (unsigned s = 0; s < r.session_count(); ++s) {
    const auto& session = r.session(s);
    for (const auto id : session.active_call_ids()) {
      const auto path = session.path(id);
      ASSERT_FALSE(path.empty());
      ASSERT_EQ(path.size(), session.path_length(id));
      const std::uint32_t in = terminal(net.inputs, path.front());
      const std::uint32_t out = terminal(net.outputs, path.back());
      ASSERT_LT(in, net.inputs.size()) << "call " << id << " starts off-input";
      ASSERT_LT(out, net.outputs.size()) << "call " << id << " ends off-output";
      EXPECT_FALSE(r.input_idle(in)) << "live call on an idle input " << in;
      EXPECT_FALSE(r.output_idle(out)) << "live call on an idle output " << out;
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        ASSERT_TRUE(joined(net.g, path[i], path[i + 1]))
            << "call " << id << " hops " << path[i] << " -> " << path[i + 1]
            << " with no switch between them";
      for (const graph::VertexId v : path) {
        EXPECT_EQ(expect[v], 0) << "vertex " << v << " on two live paths";
        expect[v] = 1;
        holder[v] = {s, id};
      }
      lengths += session.path_length(id);
      ++calls;
    }
  }
  for (graph::VertexId v = 0; v < expect.size(); ++v) {
    if (r.vertex_dead(v)) expect[v] = 1;
    ASSERT_EQ(r.is_busy(v), expect[v] != 0) << "busy bit of vertex " << v;
  }
  EXPECT_EQ(r.busy_vertices(), lengths);
  EXPECT_EQ(r.active_calls(), calls);
  const auto welds = recount_weld_reach(r, net);
  for (graph::VertexId v = 0; v < welds.size(); ++v)
    ASSERT_EQ(r.weld_reach(v), welds[v]) << "weld-ancestor count of " << v;
  std::size_t failed = 0, contracted = 0;
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e) {
    failed += r.edge_failed(e) ? 1 : 0;
    contracted += r.edge_contracted(e) ? 1 : 0;
  }
  EXPECT_EQ(r.failed_edge_count(), failed);
  EXPECT_EQ(r.contracted_edge_count(), contracted);
  if (!owner_map) return;
  for (graph::VertexId v = 0; v < holder.size(); ++v) {
    const core::CallRef at = r.call_at(v);
    ASSERT_EQ(at.call, holder[v].call) << "call_at(" << v << ")";
    if (at.call != kNone) {
      ASSERT_EQ(at.session, holder[v].session) << "call_at(" << v << ")";
    }
  }
}

/// A one-session router on `Store` that runs audit() after every connect,
/// disconnect, overlay flip and grow(): the typed suite's router. Once the
/// test has asked call_at(), the audit checks the owner map too.
template <class Store>
class AuditedRouter : public core::Router<Store> {
  using Base = core::Router<Store>;

 public:
  explicit AuditedRouter(const graph::Network& net)
    requires(!Store::kShared)
      : Base(net), net_(&net) {}
  explicit AuditedRouter(const graph::Network& net)
    requires(Store::kShared)
      : Base(net, 1u), net_(&net) {}

  std::uint32_t connect(std::uint32_t in, std::uint32_t out) {
    const std::uint32_t call = Base::connect(in, out);
    check();
    return call;
  }
  void disconnect(std::uint32_t call) { Base::disconnect(call); check(); }
  void fail_edge(graph::EdgeId e) { Base::fail_edge(e); check(); }
  void repair_edge(graph::EdgeId e) { Base::repair_edge(e); check(); }
  void contract_edge(graph::EdgeId e) { Base::contract_edge(e); check(); }
  void uncontract_edge(graph::EdgeId e) { Base::uncontract_edge(e); check(); }
  void kill_vertex(graph::VertexId v) { Base::kill_vertex(v); check(); }
  void revive_vertex(graph::VertexId v) { Base::revive_vertex(v); check(); }
  core::CallRef call_at(graph::VertexId v) {
    const core::CallRef at = Base::call_at(v);
    owner_map_ = true;
    check();
    return at;
  }
  /// Grows onto `net` (which must outlive the router).
  void grow(const graph::Network& net) {
    Base::grow(net);
    net_ = &net;
    check();
  }

 private:
  void check() { audit<Store>(*this, *net_, owner_map_); }

  const graph::Network* net_;
  bool owner_map_ = false;
};

}  // namespace ftcs::test
