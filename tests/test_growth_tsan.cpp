// Growth racing live traffic, under ThreadSanitizer: four submitter
// threads race the serving thread (racing_submitters.hpp), which drains
// their requests, hangs calls up, runs a mixed fault
// storm and lands ONE hitless doubling in the middle of it. Invariants:
// submitters dial the doubled terminal space only once the merge has
// published it (input_count() is thread-safe), every handle settles to a
// typed ack, growth kills nothing, and busy state balances after the final
// hangups.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/schedule.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "certain_kill.hpp"
#include "racing_submitters.hpp"

namespace ftcs {
namespace {

TEST(ExchangeGrowthTsan, GrowthMidFaultStormRacingSubmittersStaysSound) {
  const auto net = networks::build_cantor({4, 0});
  constexpr unsigned kSubmitters = 4;
  constexpr std::uint64_t kPerSubmitter = 2000;
  svc::Exchange ex(net);

  // The storm names base edge ids only — they stay valid across the merge
  // (edge-id stability is the contract the remap rides on).
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(6e-4), net.g.edge_count(),
      /*horizon=*/400.0, /*mean_repair=*/15.0, /*seed=*/43);
  ASSERT_GT(schedule.fail_count(), 5u);
  const auto& events = schedule.events();
  const std::size_t grow_at = events.size() / 2;

  // The doubled network is built from the quiescent base before any
  // thread starts; the serving thread moves it in mid-storm.
  graph::Network doubled = networks::grow_cantor(ex.network(), {4, 0});
  bool grown = false;
  const auto grow = [&] {
    const svc::GrowthReport rep = ex.grow(std::move(doubled));
    EXPECT_TRUE(rep.applied) << rep.error;
    EXPECT_EQ(rep.calls_killed, 0u);
    grown = true;
  };

  std::vector<svc::Outcome> strays;  // rerouted survivors
  // Before the storm: a kill that is certain, so every run re-admits a
  // victim (certain_kill.hpp).
  test::kill_a_call(ex, strays);

  std::vector<svc::CallId> held;
  std::size_t next_event = 0;
  util::Xoshiro256 rng(util::derive_seed(617, 99));
  test::race_submitters(
      ex, {kSubmitters, kPerSubmitter, 617},
      [&](const svc::Outcome& o) {
        if (!o.connected()) return;
        EXPECT_FALSE(ex.path_of(o.id).empty());
        held.push_back(o.id);
      },
      [&](std::size_t admitted) {
        if (admitted > 0 && next_event < events.size()) {
          if (next_event == grow_at) grow();
          const svc::FaultImpact impact = ex.apply(events[next_event++]);
          for (const auto& re : impact.reroutes)
            if (re.connected()) strays.push_back(re);
        }
        for (std::size_t k = 0; k < held.size();) {
          if (rng.below(4) != 0) {
            ++k;
            continue;
          }
          const svc::RejectReason r = ex.hangup(held[k]);
          EXPECT_TRUE(test::storm_hangup_ack(r)) << to_string(r);
          held[k] = held.back();
          held.pop_back();
        }
      });
  // The submitters may outlast a short storm; land the doubling regardless.
  if (!grown) grow();

  for (const auto id : held) {
    const svc::RejectReason r = ex.hangup(id);
    EXPECT_TRUE(test::storm_hangup_ack(r)) << to_string(r);
  }
  for (const auto& o : strays) {
    const svc::RejectReason r = ex.hangup(o.id);
    EXPECT_TRUE(test::storm_hangup_ack(r)) << to_string(r);
  }
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(ex.input_count(), 2 * net.inputs.size());

  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.growths, 1u);
  EXPECT_EQ(st.calls_killed_by_growth, 0u);
  EXPECT_EQ(st.router.accepted, st.hangups + st.calls_killed_by_fault);
  EXPECT_GT(st.calls_killed_by_fault, 0u);
  EXPECT_EQ(st.calls_killed_by_fault,
            st.reroute_succeeded + st.reroute_failed);
  // Victims reroute inside their fault event: no fault event or growth
  // touches the admission queue, so it admits and completes exactly the
  // submissions.
  EXPECT_EQ(st.submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(st.admitted, st.submitted);
  EXPECT_EQ(st.completed, st.submitted);
}

}  // namespace
}  // namespace ftcs
