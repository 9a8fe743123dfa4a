// Live Lemma 7 short detection: fault::WeldComponents unit behaviour and
// the acceptance-criteria equivalence pin — for mixed fault storms across
// networks/seeds/eps, the Exchange's ShortAlarm fires exactly when
// FaultInstance::terminals_shorted on the accumulated fault set is true,
// raised at the triggering inject() and cleared at the clearing repair().
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/schedule.hpp"
#include "fault/weld_components.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

/// in -> a -> m -> b -> out: a unique chain of 4 switches between the only
/// terminal pair; welding all 4 contracts in and out into one node.
graph::Network build_line_net() {
  graph::NetworkBuilder nb;
  const auto in = nb.g.add_vertex();
  const auto a = nb.g.add_vertex();
  const auto m = nb.g.add_vertex();
  const auto b = nb.g.add_vertex();
  const auto out = nb.g.add_vertex();
  nb.g.add_edge(in, a);   // edge 0
  nb.g.add_edge(a, m);    // edge 1
  nb.g.add_edge(m, b);    // edge 2
  nb.g.add_edge(b, out);  // edge 3
  nb.inputs = {in};
  nb.outputs = {out};
  nb.name = "line";
  return nb.finalize();
}

TEST(WeldComponents, ChainBridgeRaisesOnLastWeldAndClearsOnRepair) {
  const auto net = build_line_net();
  fault::WeldComponents wc(net);
  EXPECT_FALSE(wc.shorted());
  EXPECT_FALSE(wc.add_weld(0));  // {in, a}: one terminal in the node
  EXPECT_FALSE(wc.add_weld(1));  // {in, a, m}
  EXPECT_FALSE(wc.add_weld(2));  // {in, a, m, b}
  EXPECT_FALSE(wc.shorted());
  EXPECT_TRUE(wc.add_weld(3));  // out joins in's node: Lemma 7
  EXPECT_TRUE(wc.shorted());
  const auto pair = wc.shorted_pair();
  ASSERT_TRUE(pair.has_value());
  EXPECT_TRUE((pair->first == net.inputs[0] && pair->second == net.outputs[0]) ||
              (pair->first == net.outputs[0] && pair->second == net.inputs[0]));

  // Repairing a MIDDLE weld splits the chain: the short clears even though
  // the terminal-adjacent welds survive.
  EXPECT_TRUE(wc.remove_weld(1));
  EXPECT_FALSE(wc.shorted());
  EXPECT_EQ(wc.weld_count(), 3u);
  // Re-welding it bridges again.
  EXPECT_TRUE(wc.add_weld(1));
  EXPECT_TRUE(wc.shorted());
  // Idempotence: re-adding or re-removing a weld never flips state.
  EXPECT_FALSE(wc.add_weld(1));
  wc.remove_weld(0);
  EXPECT_FALSE(wc.shorted());
  EXPECT_FALSE(wc.remove_weld(0));
}

TEST(WeldComponents, CrossbarSingleWeldShortsItsTerminalPair) {
  // In a crossbar the switch (i, j) connects input i directly to output j:
  // one weld is already the catastrophe.
  const auto net = networks::build_crossbar(4);
  fault::WeldComponents wc(net);
  EXPECT_TRUE(wc.add_weld(5));
  EXPECT_TRUE(wc.shorted());
  const auto pair = wc.shorted_pair();
  ASSERT_TRUE(pair.has_value());
  EXPECT_TRUE(net.is_terminal(pair->first));
  EXPECT_TRUE(net.is_terminal(pair->second));
  EXPECT_NE(pair->first, pair->second);
  // A second weld keeps the state shorted (no new raise edge).
  EXPECT_FALSE(wc.add_weld(6));
  // Removing one of two shorting welds keeps the other short alive.
  EXPECT_FALSE(wc.remove_weld(5));
  EXPECT_TRUE(wc.shorted());
  EXPECT_TRUE(wc.remove_weld(6));
  EXPECT_FALSE(wc.shorted());
}

// The endpoint-only repair against a rebuild: over random add/remove
// sequences the tracker must agree after every step with a fresh tracker
// that re-adds the surviving welds in their original order — shorted(), the
// raise/clear edge each call returns, and shorted_pair().
TEST(WeldComponents, RandomAddRemoveMatchesAFreshTrackerOverSurvivors) {
  std::vector<graph::Network> nets;
  nets.push_back(networks::build_crossbar(6));
  nets.push_back(networks::build_cantor({3, 0}));
  nets.push_back(build_line_net());
  std::size_t raises = 0, clears = 0;
  for (const graph::Network& net : nets) {
    for (const std::uint64_t seed : {3u, 29u, 71u}) {
      util::Xoshiro256 rng(seed);
      fault::WeldComponents live(net);
      std::vector<graph::EdgeId> welds;  // survivors, in the order added
      bool was = false;
      for (int step = 0; step < 400; ++step) {
        // Keep the weld set small (up to ~8 welds) so shorts come and go.
        graph::EdgeId e;
        if (!welds.empty() && rng.below(10) < welds.size())
          e = welds[rng.below(welds.size())];
        else
          e = static_cast<graph::EdgeId>(rng.below(net.g.edge_count()));
        const auto it = std::find(welds.begin(), welds.end(), e);
        const bool removing = it != welds.end();
        bool edge;
        if (removing) {
          welds.erase(it);
          edge = live.remove_weld(e);
        } else {
          welds.push_back(e);
          edge = live.add_weld(e);
        }
        fault::WeldComponents fresh(net);
        for (const graph::EdgeId w : welds) (void)fresh.add_weld(w);
        ASSERT_EQ(live.shorted(), fresh.shorted())
            << net.name << " seed " << seed << " step " << step;
        const bool expect_edge =
            removing ? was && !fresh.shorted() : !was && fresh.shorted();
        ASSERT_EQ(edge, expect_edge)
            << net.name << " seed " << seed << " step " << step;
        ASSERT_EQ(live.shorted_pair(), fresh.shorted_pair())
            << net.name << " seed " << seed << " step " << step;
        EXPECT_EQ(live.weld_count(), welds.size());
        if (edge) ++(removing ? clears : raises);
        was = fresh.shorted();
      }
    }
  }
  EXPECT_GT(raises, 0u);
  EXPECT_GT(clears, 0u);
}

TEST(ExchangeShortAlarm, InjectRaisesRepairClearsWithTypedAlarm) {
  const auto net = build_line_net();
  svc::Exchange ex(net);
  using Kind = fault::FaultEvent::Kind;
  for (const graph::EdgeId e : {0u, 1u, 2u}) {
    const auto impact = ex.inject({0.0, e, Kind::kStuckOn});
    EXPECT_FALSE(impact.alarm.has_value());
    EXPECT_FALSE(ex.shorted());
  }
  const auto raise = ex.inject({0.0, 3u, Kind::kStuckOn});
  ASSERT_TRUE(raise.alarm.has_value());
  EXPECT_TRUE(raise.alarm->raised);
  EXPECT_EQ(raise.alarm->trigger, 3u);
  EXPECT_TRUE(ex.shorted());
  ASSERT_TRUE(ex.last_short_alarm().has_value());
  EXPECT_TRUE(ex.last_short_alarm()->raised);

  const auto clear = ex.repair({1.0, 2u, Kind::kRepair});
  ASSERT_TRUE(clear.alarm.has_value());
  EXPECT_FALSE(clear.alarm->raised);
  EXPECT_EQ(clear.alarm->trigger, 2u);
  // The clear echoes the pair the raise reported.
  EXPECT_EQ(clear.alarm->a, raise.alarm->a);
  EXPECT_EQ(clear.alarm->b, raise.alarm->b);
  EXPECT_GT(clear.alarm->seq, raise.alarm->seq);
  EXPECT_FALSE(ex.shorted());

  const auto st = ex.stats();
  EXPECT_EQ(st.shorts_raised, 1u);
  EXPECT_EQ(st.shorts_cleared, 1u);
}

// The acceptance pin: replay mixed storms event by event and require the
// live short state to match the offline reference — a FaultInstance built
// from the ACCUMULATED currently-down set — after every single event, with
// the typed alarm appearing exactly on the transitions.
TEST(ExchangeShortAlarm, LiveDetectionMatchesOfflineReferenceUnderStorms) {
  struct Config {
    graph::Network net;
    double eps;
    std::uint64_t seed;
  };
  std::vector<Config> configs;
  for (const std::uint64_t seed : {7u, 19u, 101u}) {
    configs.push_back({networks::build_crossbar(6), 0.04, seed});
    configs.push_back({networks::build_cantor({3, 0}), 0.02, seed});
    configs.push_back({build_line_net(), 0.12, seed});
  }

  std::uint64_t total_raises = 0;
  for (const Config& c : configs) {
    svc::Exchange ex(c.net);
    const auto schedule = fault::FaultSchedule::from_model(
        fault::FaultModel::symmetric(c.eps), c.net.g.edge_count(),
        /*horizon=*/30.0, /*mean_repair=*/8.0, c.seed);
    std::map<graph::EdgeId, fault::SwitchState> down;
    bool prev_shorted = false;
    for (const auto& ev : schedule.events()) {
      const svc::FaultImpact impact = ex.apply(ev);
      // Mirror the Exchange's idempotency in the accumulated set.
      if (ev.kind == fault::FaultEvent::Kind::kRepair) {
        down.erase(ev.edge);
      } else if (down.find(ev.edge) == down.end()) {
        down[ev.edge] = ev.kind == fault::FaultEvent::Kind::kStuckOn
                            ? fault::SwitchState::kClosedFail
                            : fault::SwitchState::kOpenFail;
      }
      std::vector<fault::Failure> failures;
      failures.reserve(down.size());
      for (const auto& [edge, state] : down) failures.push_back({edge, state});
      fault::FaultInstance ref(c.net, std::move(failures));
      ASSERT_EQ(ex.shorted(), ref.terminals_shorted())
          << c.net.name << " seed " << c.seed << " eps " << c.eps << " at t="
          << ev.time << " edge " << ev.edge;
      // Typed alarm exactly on the transition, silent otherwise.
      if (ex.shorted() != prev_shorted) {
        ASSERT_TRUE(impact.alarm.has_value());
        EXPECT_EQ(impact.alarm->raised, ex.shorted());
        EXPECT_EQ(impact.alarm->trigger, ev.edge);
        if (impact.alarm->raised) {
          ++total_raises;
          // The reported pair is a genuinely shorted one: two distinct
          // terminals in one electrical node of the reference contraction.
          ASSERT_NE(impact.alarm->a, graph::kNoVertex);
          ASSERT_NE(impact.alarm->b, graph::kNoVertex);
          EXPECT_NE(impact.alarm->a, impact.alarm->b);
          EXPECT_TRUE(c.net.is_terminal(impact.alarm->a));
          EXPECT_TRUE(c.net.is_terminal(impact.alarm->b));
          EXPECT_TRUE(ref.contraction().same(impact.alarm->a, impact.alarm->b));
        }
      } else {
        EXPECT_FALSE(impact.alarm.has_value());
      }
      prev_shorted = ex.shorted();
    }
    const auto st = ex.stats();
    EXPECT_EQ(st.shorts_raised - st.shorts_cleared,
              ex.shorted() ? 1u : 0u);
  }
  // The storm parameters are chosen so the pin actually exercises raises.
  EXPECT_GT(total_raises, 0u);
}

}  // namespace
}  // namespace ftcs
