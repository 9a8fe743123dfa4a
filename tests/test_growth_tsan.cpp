// Growth racing live traffic, under ThreadSanitizer: four concurrent
// sessions churn calls while a mutator thread runs a mixed fault storm and
// lands ONE hitless doubling in the middle of it. The drain contract is
// the synchronization story: sessions hold the plane shared, every
// topology mutation (fault or growth) holds it exclusively — growth owns
// every session for its quiesce window exactly like inject/repair does.
// Invariants: sessions observe the doubled terminal space only after the
// merge (input_count re-read under the shared lock), every handle settles
// to a typed ack, growth kills nothing, and busy state balances after the
// final quiescent drain.
#include <gtest/gtest.h>

#include <atomic>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "fault/schedule.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "certain_kill.hpp"

namespace ftcs {
namespace {

TEST(ExchangeGrowthTsan, GrowthMidFaultStormRacingSessionsStaysSound) {
  const auto net = networks::build_cantor({4, 0});
  constexpr unsigned kSessions = 4;
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = kSessions;
  svc::Exchange ex(net, std::move(cfg));

  // The storm names base edge ids only — they stay valid across the merge
  // (edge-id stability is the contract the remap rides on).
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(6e-4), net.g.edge_count(),
      /*horizon=*/400.0, /*mean_repair=*/15.0, /*seed=*/43);
  ASSERT_GT(schedule.fail_count(), 5u);

  // The doubled network is built from the quiescent base before any
  // thread starts; the mutator moves it in mid-storm.
  graph::Network doubled = networks::grow_cantor(ex.network(), {4, 0});

  std::shared_mutex plane;  // sessions shared; faults and growth exclusive
  std::atomic<bool> done{false};
  // Sessions start only once the certain kill and the first storm event
  // have landed: sessions that start first can hold every one of the 16
  // terminals before the certain kill places its call, and the shared lock
  // prefers readers, so they can finish their whole churn before the
  // mutator ever gets the plane.
  std::atomic<bool> injecting{false};
  std::vector<svc::Outcome> strays;  // mutator-owned rerouted survivors

  std::vector<std::thread> threads;
  threads.reserve(kSessions + 1);
  std::vector<std::vector<svc::CallId>> leftover(kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      util::Xoshiro256 rng(util::derive_seed(617, s));
      std::vector<svc::Outcome> mine;
      while (!injecting.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (int op = 0; op < 2000; ++op) {
        std::shared_lock<std::shared_mutex> lk(plane);
        // The terminal space doubles mid-run: re-read it every op, under
        // the lock, so the session dials new lines the epoch they appear.
        const auto n = static_cast<std::uint32_t>(ex.input_count());
        if (!mine.empty() && (rng() & 3u) == 0) {
          const auto idx = rng() % mine.size();
          const svc::RejectReason r = ex.hangup(mine[idx].id);
          EXPECT_TRUE(r == svc::RejectReason::kNone ||
                      r == svc::RejectReason::kFaulted ||
                      r == svc::RejectReason::kStaleHandle)
              << to_string(r);
          mine[idx] = mine.back();
          mine.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const svc::Outcome o = ex.call({in, out, 0, 0}, s);
          if (!o.connected()) continue;
          EXPECT_FALSE(ex.path_of(o.id).empty());
          mine.push_back(o);
        }
      }
      for (const auto& o : mine) leftover[s].push_back(o.id);
    });
  }

  threads.emplace_back([&] {
    {
      // Before the storm: a kill that is certain, so every run re-admits a
      // victim (certain_kill.hpp).
      std::unique_lock<std::shared_mutex> lk(plane);
      test::kill_a_call(ex, strays);
    }
    const auto& events = schedule.events();
    const std::size_t grow_at = events.size() / 2;
    bool grown = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (done.load(std::memory_order_acquire)) break;
      std::unique_lock<std::shared_mutex> lk(plane);
      if (i == grow_at) {
        const svc::GrowthReport rep = ex.grow(std::move(doubled));
        EXPECT_TRUE(rep.applied) << rep.error;
        EXPECT_EQ(rep.calls_killed, 0u);
        grown = true;
      }
      const svc::FaultImpact impact = ex.apply(events[i]);
      for (const auto& re : impact.reroutes)
        if (re.connected()) strays.push_back(re);
      lk.unlock();
      injecting.store(true, std::memory_order_release);
      std::this_thread::yield();
    }
    // Sessions may outlast a short storm; land the doubling regardless.
    if (!grown) {
      std::unique_lock<std::shared_mutex> lk(plane);
      const svc::GrowthReport rep = ex.grow(std::move(doubled));
      EXPECT_TRUE(rep.applied) << rep.error;
    }
  });

  for (unsigned s = 0; s < kSessions; ++s) threads[s].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  // Quiescent drain: this thread owns every session now.
  for (const auto& session_calls : leftover)
    for (const auto id : session_calls) {
      const svc::RejectReason r = ex.hangup(id);
      EXPECT_TRUE(r == svc::RejectReason::kNone ||
                  r == svc::RejectReason::kFaulted ||
                  r == svc::RejectReason::kStaleHandle)
          << to_string(r);
    }
  for (const auto& o : strays) {
    const svc::RejectReason r = ex.hangup(o.id);
    EXPECT_TRUE(r == svc::RejectReason::kNone ||
                r == svc::RejectReason::kFaulted ||
                r == svc::RejectReason::kStaleHandle)
        << to_string(r);
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
  // Victims reroute on their own sessions: no fault event touches the
  // admission queue. The pool's hand-off under a fault storm is covered by
  // TrafficFaults.BatchedMultiSessionPlaneSurvivesTheSameStorm.
  EXPECT_EQ(st.epochs, 0u);
  EXPECT_EQ(st.submitted, 0u);
}

}  // namespace
}  // namespace ftcs
