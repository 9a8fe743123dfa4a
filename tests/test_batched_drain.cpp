// The Exchange's batched drain: the draining thread commits an admitted
// window one request at a time, in window order, with the same single-pair
// search as the immediate plane (call()). These pins hold that books
// contract (this file carries the `tsan` ctest label):
//
//  - a drained window delivers the same Outcomes as the same requests
//    routed one by one through call() in window order;
//  - two requests for one terminal in one window get window-order verdicts:
//    the first connects, the second finds the slot busy;
//  - completion callbacks fire in window order.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs::svc {
namespace {

// The batched drain's books contract: a drained window routes exactly as
// the same requests routed one by one through call() in window order. On
// the layered nets a terminal is never an interior hop, so verdicts must
// match EXACTLY.
TEST(Exchange, BatchedDrainMatchesImmediateCalls) {
  const auto net = networks::build_cantor({4, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  Exchange a(net);
  Exchange b(net);

  // Identical request trace. Unbounded admission drains the whole queue as
  // one window, and an admitted window keeps arrival order, so the
  // reference is b.call() in submit order. Mixed priorities exercise the
  // admission path without changing that order.
  util::Xoshiro256 rng(4242);
  std::vector<Ticket> ta;
  std::vector<Outcome> ob;
  constexpr std::size_t kRequests = 96;
  for (std::size_t i = 0; i < kRequests; ++i) {
    CallRequest req;
    req.input = static_cast<std::uint32_t>(rng.below(n));
    req.output = static_cast<std::uint32_t>(rng.below(n));
    req.priority = static_cast<std::uint8_t>(rng.below(3));
    req.tag = i;
    ta.push_back(a.submit(req));
    ob.push_back(b.call(req));
  }
  a.drain_all();

  std::size_t connected = 0;
  std::vector<CallId> live_a, live_b;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto oa = a.poll(ta[i]);
    ASSERT_TRUE(oa.has_value());
    EXPECT_EQ(oa->reject, ob[i].reject)
        << "drain/immediate outcome divergence for request " << i;
    EXPECT_EQ(oa->deferrals, 0u);
    EXPECT_EQ(oa->tag, i);
    EXPECT_EQ(ob[i].tag, i);
    if (oa->connected()) {
      EXPECT_GT(oa->path_length, 0u);
      live_a.push_back(oa->id);
      ++connected;
    }
    if (ob[i].connected()) live_b.push_back(ob[i].id);
  }
  ASSERT_GT(connected, 0u);
  EXPECT_EQ(live_a.size(), live_b.size());
  EXPECT_EQ(a.active_calls(), b.active_calls());

  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.admitted, kRequests);
  EXPECT_EQ(sa.completed, kRequests);
  EXPECT_EQ(sa.router.accepted, sb.router.accepted);
  EXPECT_EQ(sa.router.rejected_terminal, sb.router.rejected_terminal);
  EXPECT_EQ(sa.router.rejected_no_path, sb.router.rejected_no_path);

  for (const auto id : live_a) EXPECT_EQ(a.hangup(id), RejectReason::kNone);
  for (const auto id : live_b) EXPECT_EQ(b.hangup(id), RejectReason::kNone);
  EXPECT_EQ(a.busy_vertices(), 0u);
  EXPECT_EQ(b.busy_vertices(), 0u);
}

// Two requests for one terminal in one window: the first in window order
// takes the slot and the second finds it busy. A request rejected on one
// slot does not hold the other, so a later mate may take it.
TEST(Exchange, DuplicateTerminalsInOneWindowGetWindowOrderVerdicts) {
  const auto net = networks::build_cantor({3, 0});
  Exchange ex(net);
  const Outcome held = ex.call({5, 5});  // output 5 busy before the window
  ASSERT_TRUE(held.connected());
  const std::vector<CallRequest> window{
      {0, 0, 0, 0},  // connects
      {0, 1, 0, 1},  // same input as 0: busy
      {1, 0, 0, 2},  // same output as 0: busy
      {2, 5, 0, 3},  // output held by the immediate call: busy
      {2, 2, 0, 4},  // input 2 was never held by request 3: connects
  };
  std::vector<Ticket> tickets;
  for (const auto& req : window) tickets.push_back(ex.submit(req));
  EXPECT_EQ(ex.drain(), window.size());
  const RejectReason expected[] = {
      RejectReason::kNone, RejectReason::kTerminalBusy,
      RejectReason::kTerminalBusy, RejectReason::kTerminalBusy,
      RejectReason::kNone};
  std::vector<CallId> live{held.id};
  for (std::size_t i = 0; i < window.size(); ++i) {
    const auto o = ex.poll(tickets[i]);
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->reject, expected[i]) << "request " << i;
    if (o->connected()) live.push_back(o->id);
  }
  EXPECT_EQ(ex.stats().router.rejected_terminal, 3u);
  for (const auto id : live) EXPECT_EQ(ex.hangup(id), RejectReason::kNone);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

// Completion callbacks fire in window order, each right after its own
// request routes: by the time request k's callback runs, the callbacks of
// the earlier requests have all fired.
TEST(Exchange, CompletionCallbacksFireInWindowOrder) {
  const auto net = networks::build_cantor({5, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  Exchange ex(net);
  std::vector<std::uint64_t> fired;
  constexpr std::uint32_t kRequests = 64;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    // The tag is the arrival index (= window order: one priority class).
    ex.submit({i % n, (i * 7 + 3) % n, 0, /*tag=*/i},
              [&](const Outcome& o) { fired.push_back(o.tag); });
  }
  EXPECT_EQ(ex.drain(), kRequests);
  ASSERT_EQ(fired.size(), kRequests);
  for (std::size_t k = 0; k < fired.size(); ++k)
    EXPECT_EQ(fired[k], k) << "position " << k;
}

}  // namespace
}  // namespace ftcs::svc
