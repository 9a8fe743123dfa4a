// TSan churn for the federation's documented threading contract: any number
// of producer threads submit()/poll() mixed intra- and inter-shard traffic
// while an operator thread storms trunk faults/repairs (plus reads) through
// the ops command queue, and ONE serving thread owns everything else —
// drain(), ControlPlane::pump(), hangup(). Run under -fsanitize=thread via
// the `tsan` ctest label; the final sweep checks cross-plane consistency at
// quiescence (the exact-zero balance proofs live in test_federation.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "networks/cantor.hpp"
#include "ops/control.hpp"
#include "svc/federation.hpp"
#include "util/prng.hpp"

namespace ftcs::svc {
namespace {

TEST(FederationChurnTsan, SubmittersRaceTrunkFaultsThroughCommandQueue) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 3);
  ops::ControlPlane cp(fed);

  constexpr int kProducers = 2;
  constexpr std::uint64_t kPerProducer = 2000;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  constexpr int kCommands = 400;

  std::atomic<std::uint64_t> delivered{0};
  std::mutex mu;
  std::vector<FedCallId> connected;  // callback-filled, serving thread drains

  auto on_done = [&](const FedOutcome& o) {
    if (o.connected()) {
      const std::lock_guard<std::mutex> lk(mu);
      connected.push_back(o.id);
    }
    delivered.fetch_add(1, std::memory_order_release);
  };

  // Producers: thread-safe plane only (submit). Back off when the serving
  // thread falls behind so the queue stays bounded.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Xoshiro256 rng(util::derive_seed(1992, 100 + p));
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        CallRequest req;
        req.input = static_cast<std::uint32_t>(rng.below(fed.input_count()));
        req.output = static_cast<std::uint32_t>(rng.below(fed.input_count()));
        req.tag = (static_cast<std::uint64_t>(p) << 32) | i;
        fed.submit(req, on_done);
        while (fed.pending() > 512) std::this_thread::yield();
      }
    });
  }

  // Operator: posts trunk faults/repairs and reads from its own thread; the
  // serving thread executes them inside pump() between epochs.
  std::thread oper([&] {
    util::Xoshiro256 rng(util::derive_seed(1992, 7));
    std::vector<ops::CmdTicket> tickets;
    for (int i = 0; i < kCommands; ++i) {
      ops::Command cmd;
      const auto group =
          static_cast<std::uint32_t>(rng.below(fed.trunk_group_count()));
      const auto line = static_cast<std::uint32_t>(
          rng.below(fed.trunk_group(group).capacity()));
      switch (rng.below(4)) {
        case 0:
          cmd.kind = ops::CommandKind::kTrunkFault;
          cmd.arg = group;
          cmd.arg2 = line;
          break;
        case 1:
          cmd.kind = ops::CommandKind::kTrunkRepair;
          cmd.arg = group;
          cmd.arg2 = line;
          break;
        case 2:
          cmd.kind = ops::CommandKind::kTrunks;
          break;
        default:
          cmd.kind = ops::CommandKind::kQuery;
          break;
      }
      tickets.push_back(cp.queue().post(cmd));
      // Poll a stale ticket now and then; acks are take-once.
      if (!tickets.empty() && rng.below(4) == 0) {
        if (const auto ack = cp.queue().try_ack(tickets.front())) {
          EXPECT_EQ(ack->trunks.size(), fed.trunk_group_count());
          tickets.erase(tickets.begin());
        }
      }
      if (i % 16 == 0) std::this_thread::yield();
    }
  });

  // Serving thread (this one): owns drain/pump/hangup.
  util::Xoshiro256 rng(util::derive_seed(1992, 1));
  std::vector<FedCallId> held;
  auto serve_once = [&] {
    fed.drain();
    cp.pump();
    {
      const std::lock_guard<std::mutex> lk(mu);
      held.insert(held.end(), connected.begin(), connected.end());
      connected.clear();
    }
    // Churn: hang up about half of what we hold. A call the trunk-fault
    // storm already reaped acks kFaulted/kStaleHandle — typed, harmless.
    for (std::size_t k = 0; k < held.size();) {
      if (rng.below(2) == 0) {
        fed.hangup(held[k]);
        held[k] = held.back();
        held.pop_back();
      } else {
        ++k;
      }
    }
  };
  while (delivered.load(std::memory_order_acquire) < kTotal ||
         fed.pending() > 0)
    serve_once();
  for (std::thread& t : producers) t.join();
  oper.join();
  fed.drain_all();
  cp.pump();  // flush any commands posted after the last pump
  {
    const std::lock_guard<std::mutex> lk(mu);
    held.insert(held.end(), connected.begin(), connected.end());
    connected.clear();
  }
  for (const FedCallId id : held) fed.hangup(id);

  // Quiescent consistency sweep. Trunk-fault re-admissions we never saw a
  // handle for may legitimately still be up; every book must agree on them.
  EXPECT_EQ(delivered.load(), kTotal);
  const FederationStats st = fed.stats();
  std::size_t occupancy = 0;
  for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g)
    occupancy += fed.trunk_group(g).occupancy();
  const std::size_t live_inter = fed.active_inter_calls();
  EXPECT_EQ(occupancy, live_inter);
  EXPECT_EQ(st.trunks.claims - st.trunks.releases, live_inter);
  // Only unseen re-admitted inter calls remain: two member halves each.
  EXPECT_EQ(fed.active_calls(), 2 * live_inter);
  if (live_inter == 0) {
    EXPECT_EQ(fed.busy_vertices(), 0u);
  }
  // Every original submission was booked exactly once as intra or inter;
  // each trunk-fault re-admission books one extra inter call AND exactly
  // one reroute outcome, so the difference recovers the offered load.
  EXPECT_EQ(st.inter_calls + st.intra_calls -
                st.reroute_succeeded - st.reroute_failed,
            kTotal);
  // Trunk fault/repair counters move only on state change, so their
  // difference is the number of lines still out of the pool.
  std::uint64_t down = 0;
  for (const TrunkGauge& g : fed.trunk_gauges()) down += g.capacity - g.usable;
  EXPECT_EQ(st.trunks.faults - st.trunks.repairs, down);
  // The front end books requests, not half-calls: every submission was
  // admitted and completed exactly once, and the trunk-fault re-admissions
  // never entered the queue.
  EXPECT_EQ(st.members.submitted, kTotal);
  EXPECT_EQ(st.members.admitted, kTotal);
  EXPECT_EQ(st.members.completed, kTotal);
  std::uint64_t booked = 0;
  for (const ops::ClassStats& c : st.members.classes)
    booked += c.served + c.rejected;
  EXPECT_EQ(booked, kTotal);
}

}  // namespace
}  // namespace ftcs::svc
