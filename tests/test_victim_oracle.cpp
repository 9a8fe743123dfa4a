// The fault plane's victim lookup against the full scan it replaced.
//
// Exchange::inject/repair find an event's victims by index: the calls
// through the switch's two endpoints (Engine::call_at), judged by the one
// hop rule. The oracle here is the old sweep, kept test-side: every live
// handle, its path, and the hop rule re-derived from the test's own model
// of the overlay. Seeded random storms (open faults, stuck-on welds, weld
// repairs crossed against their direction, faults on terminal-incident
// switches, a mid-storm grow()) on Cantor and §6 FT networks run on the
// solo store, a one-session shared store and four shared sessions; after
// every event the killed handles and their order must equal the oracle's.
//
// RouterStores.CallAtNamesTheCallThroughEveryVertex pins the router query
// itself on both stores, and RouterStores.CallAtIgnoresEntriesOfAReusedSlot
// its check of an entry a hangup left behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "ftcs/ft_network.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "router_stores.hpp"

namespace ftcs::test {
namespace {

// ------------------------------------------------------- the router query

TYPED_TEST(RouterStores, CallAtNamesTheCallThroughEveryVertex) {
  const auto net = networks::build_cantor({4, 0});
  auto r = make_router<TypeParam>(net);
  const auto expect_holders = [&](const std::vector<std::uint32_t>& calls) {
    std::vector<std::uint32_t> holder(net.g.vertex_count(), kNone);
    for (const std::uint32_t c : calls)
      for (const graph::VertexId v : r->path_of(c)) holder[v] = c;
    for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v) {
      const core::CallRef at = r->call_at(v);
      EXPECT_EQ(at.call, holder[v]) << "vertex " << v;
      if (at.call != kNone) {
        EXPECT_EQ(at.session, 0u);
      }
    }
  };
  expect_holders({});
  std::vector<std::uint32_t> calls;
  for (std::uint32_t i = 0; i < net.inputs.size(); i += 2) {
    const std::uint32_t c = r->connect(i, (i * 5 + 3) % net.outputs.size());
    ASSERT_NE(c, kNone);
    calls.push_back(c);
  }
  expect_holders(calls);
  r->disconnect(calls[1]);
  r->disconnect(calls[4]);
  calls.erase(calls.begin() + 4);
  calls.erase(calls.begin() + 1);
  expect_holders(calls);
  // A new call reuses a freed id and becomes its output's holder.
  const std::uint32_t c = r->connect(1, 0);
  ASSERT_NE(c, kNone);
  calls.push_back(c);
  expect_holders(calls);
}

// A hangup leaves its owner-map entries behind. Once its slot carries a
// call on another path, the old entries name a live call whose record no
// longer holds them: call_at() must answer no call there.
TYPED_TEST(RouterStores, CallAtIgnoresEntriesOfAReusedSlot) {
  const auto net = networks::build_cantor({4, 0});
  AuditedRouter<TypeParam> r(net);
  const std::uint32_t a = r.connect(0, 5);
  ASSERT_NE(a, kNone);
  const auto old_path = r.path_of(a);
  ASSERT_EQ(r.call_at(old_path[1]).call, a);  // builds the owner map
  r.disconnect(a);
  const std::uint32_t b = r.connect(3, 12);
  ASSERT_EQ(b, a) << "the new call should reuse the freed slot";
  const auto new_path = r.path_of(b);
  std::size_t stale = 0;
  for (const graph::VertexId v : old_path) {
    const bool reused =
        std::find(new_path.begin(), new_path.end(), v) != new_path.end();
    EXPECT_EQ(r.call_at(v).call, reused ? b : kNone) << "vertex " << v;
    stale += !reused;
  }
  EXPECT_GT(stale, 0u);
  for (const graph::VertexId v : new_path) EXPECT_EQ(r.call_at(v).call, b);
}

// ------------------------------------------------------------- the oracle

template <svc::Backend B, unsigned S>
struct Config {
  static constexpr svc::Backend kBackend = B;
  static constexpr unsigned kSessions = S;
};
using Solo = Config<svc::Backend::kGreedy, 1>;
using Shared = Config<svc::Backend::kConcurrent, 1>;
using Shared4 = Config<svc::Backend::kConcurrent, 4>;

struct ConfigNames {
  template <class C>
  static std::string GetName(int) {
    if (C::kBackend == svc::Backend::kGreedy) return "Solo";
    return C::kSessions == 1 ? "Shared" : "Shared4";
  }
};

/// What the storms exercised, summed over a suite's runs.
struct Coverage {
  std::size_t open_kills = 0;         // victims of open faults
  std::size_t weld_repair_kills = 0;  // reverse crossers of a repaired weld
  std::size_t terminal_kills = 0;     // victims of terminal-incident switches
  std::size_t head_side_kills = 0;    // victims that never touch edge.from
};

/// One seeded storm against one Exchange, checked event by event.
class Storm {
 public:
  Storm(svc::Exchange& ex, std::uint64_t seed) : ex_(ex), rng_(seed) {
    live_.resize(ex.sessions());
    resize_model();
  }

  /// Runs `events` fault events, each after a few churn operations.
  void run(std::size_t events, Coverage& cov) {
    for (std::size_t i = 0; i < events; ++i) {
      for (int k = 0; k < 6; ++k) churn();
      event(cov);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  /// Grows the exchange by one Cantor doubling mid-storm.
  void grow(const networks::CantorParams& base) {
    const svc::GrowthReport rep =
        ex_.grow(networks::grow_cantor(ex_.network(), base));
    ASSERT_TRUE(rep.applied) << rep.error;
    resize_model();
  }

 private:
  const graph::Network& net() const { return ex_.network(); }

  void resize_model() {
    failed_.resize(net().g.edge_count(), 0);
    welded_.resize(net().g.edge_count(), 0);
    open_deg_.resize(net().g.vertex_count(), 0);
  }

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const auto& s : live_) n += s.size();
    return n;
  }

  /// A random live handle (the table must be non-empty).
  svc::CallId pick_live() {
    std::size_t i = rng_.below(live_count());
    for (const auto& s : live_)
      for (const auto& [slot, id] : s)
        if (i-- == 0) return id;
    return {};
  }

  /// Hangs up or places one call, keeping ~3/4 of the terminals busy so
  /// searches reach for welds crossed against their direction.
  void churn() {
    const std::size_t n = ex_.input_count();
    if (live_count() > 0 && rng_.below(8 * n) < live_count()) {
      const svc::CallId id = pick_live();
      ASSERT_EQ(ex_.hangup(id), svc::RejectReason::kNone);
      live_[id.session()].erase(id.slot());
      return;
    }
    const auto in = static_cast<std::uint32_t>(rng_.below(n));
    const auto out = static_cast<std::uint32_t>(rng_.below(ex_.output_count()));
    const auto session = static_cast<unsigned>(rng_.below(ex_.sessions()));
    const svc::Outcome o = ex_.call({in, out, 0, next_tag_++}, session);
    if (o.connected()) live_[o.session][o.id.slot()] = o.id;
  }

  /// The edge an event hits: a hop of a live call (the welded switch it
  /// crosses backwards, if any), a terminal's switch, or any switch; with
  /// many switches down, a down one.
  graph::EdgeId pick_edge() {
    const auto& g = net().g;
    if (down_.size() * 12 > g.edge_count() && rng_.bernoulli(0.5))
      return down_[rng_.below(down_.size())];
    const double u = rng_.uniform();
    if (u < 0.4 && live_count() > 0) {
      const auto path = ex_.path_of(pick_live());
      const std::size_t h = rng_.below(path.size() - 1);
      const graph::VertexId a = path[h], b = path[h + 1];
      const auto rids = g.in_edges(a);
      const auto rsrc = g.in_sources(a);
      for (std::size_t k = 0; k < rids.size(); ++k)
        if (rsrc[k] == b && welded_[rids[k]]) return rids[k];
      const auto ids = g.out_edges(a);
      const auto tgt = g.out_targets(a);
      for (std::size_t k = 0; k < ids.size(); ++k)
        if (tgt[k] == b) return ids[k];
    }
    if (u < 0.6) {
      const auto& ins = net().inputs;
      const auto& outs = net().outputs;
      const auto ids = rng_.bernoulli(0.5)
                           ? g.out_edges(ins[rng_.below(ins.size())])
                           : g.in_edges(outs[rng_.below(outs.size())]);
      return ids[rng_.below(ids.size())];
    }
    return static_cast<graph::EdgeId>(rng_.below(g.edge_count()));
  }

  /// The old hop rule, on the test's model of the overlay.
  bool carried(graph::VertexId u, graph::VertexId v) const {
    const auto& g = net().g;
    const auto ids = g.out_edges(u);
    const auto tgt = g.out_targets(u);
    for (std::size_t k = 0; k < ids.size(); ++k)
      if (tgt[k] == v && !failed_[ids[k]]) return true;
    const auto rids = g.in_edges(u);
    const auto rsrc = g.in_sources(u);
    for (std::size_t k = 0; k < rids.size(); ++k)
      if (rsrc[k] == v && welded_[rids[k]] && !failed_[rids[k]]) return true;
    return false;
  }

  void event(Coverage& cov) {
    const graph::EdgeId e = pick_edge();
    const graph::Edge edge = net().g.edge(e);
    fault::FaultEvent ev;
    ev.edge = e;
    const bool down = failed_[e] || welded_[e];
    ev.kind = down ? fault::FaultEvent::Kind::kRepair
                   : rng_.bernoulli(0.6) ? fault::FaultEvent::Kind::kStuckOn
                                         : fault::FaultEvent::Kind::kFail;
    const bool repairs_weld = down && welded_[e];

    // Paths as they stand, then the model moves to the event's overlay.
    std::vector<std::pair<svc::CallId, std::vector<graph::VertexId>>> paths;
    for (const auto& s : live_)
      for (const auto& [slot, id] : s) paths.emplace_back(id, ex_.path_of(id));
    std::vector<graph::VertexId> newly_dead;
    const auto step_deg = [&](int d) {
      for (const graph::VertexId v : {edge.from, edge.to}) {
        if (!net().is_terminal(v)) {
          if (d > 0 && ++open_deg_[v] == 1) newly_dead.push_back(v);
          if (d < 0) --open_deg_[v];
        }
        if (edge.from == edge.to) break;
      }
    };
    if (ev.kind == fault::FaultEvent::Kind::kFail) {
      failed_[e] = 1;
      step_deg(+1);
      down_.push_back(e);
    } else if (ev.kind == fault::FaultEvent::Kind::kStuckOn) {
      welded_[e] = 1;
      down_.push_back(e);
    } else {
      if (failed_[e]) step_deg(-1);
      failed_[e] = welded_[e] = 0;
      down_.erase(std::find(down_.begin(), down_.end(), e));
    }

    // The oracle: the full scan over every live handle in (session, slot)
    // order — a dead vertex or an uncarried hop kills.
    std::vector<svc::CallId> expect;
    std::vector<bool> touches_from;
    for (const auto& [id, path] : paths) {
      bool alive = true;
      for (std::size_t i = 0; alive && i < path.size(); ++i) {
        for (const graph::VertexId d : newly_dead)
          alive = alive && path[i] != d;
        if (i + 1 < path.size())
          alive = alive && carried(path[i], path[i + 1]);
      }
      if (!alive) {
        expect.push_back(id);
        touches_from.push_back(std::find(path.begin(), path.end(), edge.from) !=
                               path.end());
      }
    }

    const svc::FaultImpact impact = ex_.apply(ev);
    std::vector<svc::CallId> got;
    for (const svc::Outcome& o : impact.killed) got.push_back(o.id);
    ASSERT_EQ(got, expect) << "event " << events_ << " on switch " << e
                           << " (kind " << static_cast<int>(ev.kind) << ")";
    ASSERT_EQ(impact.reroutes.size(), impact.killed.size());
    ++events_;

    for (const svc::CallId id : got) live_[id.session()].erase(id.slot());
    for (const svc::Outcome& o : impact.reroutes)
      if (o.connected()) live_[o.session][o.id.slot()] = o.id;
    ASSERT_EQ(ex_.active_calls(), live_count());

    const bool terminal =
        net().is_terminal(edge.from) || net().is_terminal(edge.to);
    (repairs_weld ? cov.weld_repair_kills : cov.open_kills) += got.size();
    if (terminal) cov.terminal_kills += got.size();
    for (const bool t : touches_from) cov.head_side_kills += !t;
  }

  svc::Exchange& ex_;
  util::Xoshiro256 rng_;
  std::vector<std::map<std::uint32_t, svc::CallId>> live_;  // by session, slot
  std::vector<std::uint8_t> failed_, welded_;  // the overlay, by switch
  std::vector<std::uint32_t> open_deg_;        // open faults per vertex
  std::vector<graph::EdgeId> down_;
  std::uint64_t next_tag_ = 1;
  std::size_t events_ = 0;
};

template <class C>
class VictimOracle : public ::testing::Test {
 protected:
  static svc::ExchangeConfig config() {
    svc::ExchangeConfig cfg;
    cfg.backend = C::kBackend;
    cfg.sessions = C::kSessions;
    return cfg;
  }
  /// Every storm must have exercised each kind of victim.
  static void expect_covered(const Coverage& cov) {
    EXPECT_GT(cov.open_kills, 0u);
    EXPECT_GT(cov.weld_repair_kills, 0u);
    EXPECT_GT(cov.terminal_kills, 0u);
    EXPECT_GT(cov.head_side_kills, 0u);
  }
};
using Configs = ::testing::Types<Solo, Shared, Shared4>;
TYPED_TEST_SUITE(VictimOracle, Configs, ConfigNames);

TYPED_TEST(VictimOracle, SeededStormsKillExactlyTheFullScansVictims) {
  // A layered Cantor network and the §6 FT network (terminal stubs,
  // majority-access stages).
  std::vector<graph::Network> nets;
  nets.push_back(networks::build_cantor({4, 0}));
  nets.push_back(
      core::build_ft_network(core::FtParams::sim(2, 8, 6, 1, 5)).net);
  Coverage cov;
  for (const graph::Network& net : nets) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      svc::Exchange ex(net, TestFixture::config());
      Storm storm(ex, seed);
      storm.run(400, cov);
      if (this->HasFatalFailure()) return;
    }
  }
  TestFixture::expect_covered(cov);
}

TYPED_TEST(VictimOracle, StormAcrossAGrowKillsExactlyTheFullScansVictims) {
  const auto net = networks::build_cantor({3, 0});
  Coverage cov;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    svc::Exchange ex(net, TestFixture::config());
    Storm storm(ex, seed);
    storm.run(150, cov);
    if (this->HasFatalFailure()) return;
    storm.grow({3, 0});
    if (this->HasFatalFailure()) return;
    storm.run(300, cov);
    if (this->HasFatalFailure()) return;
  }
  TestFixture::expect_covered(cov);
}

}  // namespace
}  // namespace ftcs::test
