// svc::Exchange — the call service facade over one core::Router: typed
// rejections (bad terminals and bad switches included), generation-tagged
// handle safety, equivalence with the bare router through the facade,
// batched admission (defer/refuse), async completion on the draining
// thread, and drain churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "racing_submitters.hpp"

namespace ftcs::svc {
namespace {

TEST(Exchange, ImmediateCallLifecycle) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome o = ex.call({0, 2, 0, 77});
  ASSERT_TRUE(o.connected());
  EXPECT_TRUE(o.id.valid());
  EXPECT_EQ(o.reject, RejectReason::kNone);
  EXPECT_EQ(o.path_length, 2u);
  EXPECT_EQ(o.tag, 77u);
  EXPECT_FALSE(ex.input_idle(0));
  EXPECT_FALSE(ex.output_idle(2));
  EXPECT_EQ(ex.active_calls(), 1u);
  const auto path = ex.path_of(o.id);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path.front(), net.inputs[0]);
  EXPECT_EQ(path.back(), net.outputs[2]);
  EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_TRUE(ex.input_idle(0));
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.accepted, 1u);
  EXPECT_EQ(st.hangups, 1u);
  EXPECT_EQ(st.handle_errors, 0u);
}

TEST(Exchange, TypedRejections) {
  const auto net = networks::build_crossbar(3);
  // Edge (input 0 -> output 0) of the crossbar is edge id 0; failing it
  // leaves the terminals idle but removes the only path between them.
  Exchange ex(net, {});
  ex.inject({0.0, 0, fault::FaultEvent::Kind::kFail});
  // No idle path despite idle terminals.
  const Outcome no_path = ex.call({0, 0});
  EXPECT_EQ(no_path.reject, RejectReason::kNoPath);
  EXPECT_FALSE(no_path.id.valid());
  // Busy terminal: no search is run.
  const Outcome held = ex.call({1, 1});
  ASSERT_TRUE(held.connected());
  const Outcome busy_in = ex.call({1, 2});
  EXPECT_EQ(busy_in.reject, RejectReason::kTerminalBusy);
  const Outcome busy_out = ex.call({2, 1});
  EXPECT_EQ(busy_out.reject, RejectReason::kTerminalBusy);
  // The shared spelling is what reports print.
  EXPECT_STREQ(to_string(no_path.reject), "rejected_no_path");
  EXPECT_STREQ(to_string(busy_in.reject), "rejected_terminal");
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.rejected_no_path, 1u);
  EXPECT_EQ(st.router.rejected_terminal, 2u);
  EXPECT_EQ(ex.hangup(held.id), RejectReason::kNone);
}

TEST(Exchange, StaleAndDoubleHangupAreTypedErrors) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome a = ex.call({0, 0});
  ASSERT_TRUE(a.connected());
  const CallId stale = a.id;
  EXPECT_EQ(ex.hangup(a.id), RejectReason::kNone);
  // Double hangup via the retained copy: detected, nothing touched.
  EXPECT_EQ(ex.hangup(stale), RejectReason::kStaleHandle);
  EXPECT_EQ(ex.hangup(stale), RejectReason::kStaleHandle);
  // Null handle.
  EXPECT_EQ(ex.hangup(CallId{}), RejectReason::kStaleHandle);
  EXPECT_EQ(ex.stats().handle_errors, 3u);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

TEST(Exchange, StaleHandleCannotTouchReusedSlot) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome a = ex.call({0, 0});
  ASSERT_TRUE(a.connected());
  const CallId stale = a.id;
  ASSERT_EQ(ex.hangup(a.id), RejectReason::kNone);
  // The slot is reused for a new call; the stale handle's generation no
  // longer matches, so it cannot hang up the NEW call (the raw routers
  // would have silently done exactly that).
  const Outcome b = ex.call({1, 1});
  ASSERT_TRUE(b.connected());
  EXPECT_NE(stale, b.id);
  EXPECT_EQ(ex.hangup(stale), RejectReason::kStaleHandle);
  EXPECT_EQ(ex.active_calls(), 1u);
  EXPECT_FALSE(ex.input_idle(1));
  EXPECT_EQ(ex.hangup(b.id), RejectReason::kNone);
  EXPECT_EQ(ex.stats().handle_errors, 1u);
}

TEST(Exchange, ForeignHandleRejected) {
  const auto net = networks::build_crossbar(4);
  Exchange a(net, {});
  Exchange b(net, {});
  const Outcome oa = a.call({0, 0});
  ASSERT_TRUE(oa.connected());
  EXPECT_EQ(b.hangup(oa.id), RejectReason::kForeignHandle);
  EXPECT_EQ(b.stats().handle_errors, 1u);
  EXPECT_EQ(a.stats().handle_errors, 0u);
  EXPECT_EQ(a.active_calls(), 1u);  // untouched
  EXPECT_TRUE(b.path_of(oa.id).empty());
  EXPECT_EQ(a.hangup(oa.id), RejectReason::kNone);
}

// A terminal index outside the network is a typed error, never an
// out-of-bounds read: call() answers kBadTerminal, submit() bounces the
// request at once the way it delivers a refusal (pollable, or through its
// callback on the submitting thread), and each counts into handle_errors,
// not into the front-end books or the router's.
TEST(Exchange, OutOfRangeTerminalsAreTypedErrors) {
  const auto net = networks::build_cantor({3, 0});
  Exchange ex(net, {});
  const Outcome in = ex.call({100'000, 0, 0, 3});
  EXPECT_EQ(in.reject, RejectReason::kBadTerminal);
  EXPECT_EQ(in.tag, 3u);
  EXPECT_FALSE(in.id.valid());
  EXPECT_EQ(ex.call({0, 100'000}).reject, RejectReason::kBadTerminal);
  const std::optional<Outcome> polled = ex.poll(ex.submit({100'000, 0, 0, 4}));
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->reject, RejectReason::kBadTerminal);
  EXPECT_EQ(polled->tag, 4u);
  Outcome cb;
  ex.submit({0, 100'000, 0, 5}, [&cb](const Outcome& o) { cb = o; });
  EXPECT_EQ(cb.reject, RejectReason::kBadTerminal);
  EXPECT_EQ(cb.tag, 5u);
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_EQ(ex.drain(), 0u);
  EXPECT_STREQ(to_string(RejectReason::kBadTerminal), "bad_terminal");
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.handle_errors, 4u);
  EXPECT_EQ(st.submitted, 0u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.router.connect_calls, 0u);
  EXPECT_EQ(ex.active_calls(), 0u);
}

// A fault event naming a switch the network does not have is a typed
// error: kBadSwitch, booked into handle_errors, and nothing else moves. No
// call dies, no switch goes down, and every other stats() row reads as
// before. Both ids, edge_count() and far beyond it, for each event kind.
TEST(Exchange, OutOfRangeSwitchesAreTypedErrors) {
  using Kind = fault::FaultEvent::Kind;
  const auto net = networks::build_cantor({3, 0});
  Exchange ex(net, {});
  const Outcome live = ex.call({0, 1, 0, 7});
  ASSERT_TRUE(live.connected());
  const ExchangeStats before = ex.stats();
  const auto edges = static_cast<graph::EdgeId>(net.g.edge_count());
  std::uint64_t events = 0;
  for (const graph::EdgeId e : {edges, graph::EdgeId{50'000'000}})
    for (const Kind kind : {Kind::kFail, Kind::kStuckOn, Kind::kRepair}) {
      const FaultImpact imp = ex.apply({0.0, e, kind});
      EXPECT_EQ(imp.reject, RejectReason::kBadSwitch);
      EXPECT_EQ(imp.event.edge, e);
      EXPECT_EQ(imp.calls_killed(), 0u);
      EXPECT_TRUE(imp.reroutes.empty());
      EXPECT_FALSE(imp.alarm.has_value());
      EXPECT_EQ(ex.stats().handle_errors, before.handle_errors + ++events);
    }
  EXPECT_STREQ(to_string(RejectReason::kBadSwitch), "bad_switch");
  EXPECT_EQ(ex.failed_switch_count(), 0u);
  EXPECT_FALSE(ex.shorted());
  EXPECT_EQ(ex.active_calls(), 1u);
  EXPECT_EQ(ex.path_of(live.id).size(), live.path_length);
  const ExchangeStats after = ex.stats();
  for (const auto& f : ExchangeStats::fields()) {
    if (f.member != &ExchangeStats::handle_errors) {
      EXPECT_EQ(after.*f.member, before.*f.member) << f.name;
    }
  }
  const auto router_rows = core::RouterStats::fields();
  for (std::size_t i = 0; i < router_rows.size(); ++i)
    EXPECT_EQ(after.router.*router_rows[i].member,
              before.router.*router_rows[i].member)
        << "router row " << i;
  // The last switch is in range.
  EXPECT_EQ(ex.inject({0.0, edges - 1, Kind::kFail}).reject,
            RejectReason::kNone);
  EXPECT_EQ(ex.failed_switch_count(), 1u);
  EXPECT_EQ(ex.stats().handle_errors, before.handle_errors + events);
}

// An Exchange must be trace-identical to a bare core::Router on a fixed
// request trace — verdicts, paths, call slots and the router's books.
TEST(Exchange, EngineEquivalenceThroughFacade) {
  const auto net = networks::build_cantor({5, 0});
  Exchange ex(net, {});
  core::Router bare(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  util::Xoshiro256 rng(util::derive_seed(31, 7));
  std::vector<CallId> live_ex;
  std::vector<core::Router::CallId> live_bare;
  for (int op = 0; op < 4000; ++op) {
    if (!live_ex.empty() && (rng() & 3u) == 0) {
      const auto idx = rng() % live_ex.size();
      EXPECT_EQ(ex.hangup(live_ex[idx]), RejectReason::kNone);
      bare.disconnect(live_bare[idx]);
      live_ex[idx] = live_ex.back();
      live_ex.pop_back();
      live_bare[idx] = live_bare.back();
      live_bare.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(rng() % n);
      const auto out = static_cast<std::uint32_t>(rng() % n);
      const Outcome o = ex.call({in, out});
      const core::Router::CallId c = bare.connect(in, out);
      ASSERT_EQ(o.connected(), c != core::Router::kNoCall) << "op " << op;
      if (o.connected()) {
        EXPECT_EQ(o.id.slot(), c);
        EXPECT_EQ(o.path_length, bare.path_length(c));
        EXPECT_EQ(ex.path_of(o.id), bare.path_of(c));
        live_ex.push_back(o.id);
        live_bare.push_back(c);
      }
    }
  }
  const ExchangeStats a = ex.stats();
  const core::RouterStats& b = bare.stats();
  for (const auto& f : core::RouterStats::fields())
    EXPECT_EQ(a.router.*f.member, b.*f.member) << f.name;
  EXPECT_EQ(a.hangups, b.disconnects);
  EXPECT_EQ(a.handle_errors, 0u);
  EXPECT_EQ(ex.busy_vertices(), bare.busy_vertices());
  EXPECT_EQ(ex.active_calls(), bare.active_calls());
}

// Batched plane: the same trace submitted through batched admission
// (unbounded window) produces the same router books as the
// immediate plane.
TEST(Exchange, BatchedUnboundedMatchesImmediate) {
  const auto net = networks::build_clos({2, 3, 4});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  Exchange immediate(net, {});
  Exchange batched(net, {});
  std::vector<Ticket> tickets;
  util::Xoshiro256 rng(5);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reqs;
  for (int i = 0; i < 64; ++i)
    reqs.emplace_back(static_cast<std::uint32_t>(rng() % n),
                      static_cast<std::uint32_t>(rng() % n));
  for (const auto& [in, out] : reqs) immediate.call({in, out});
  for (const auto& [in, out] : reqs) tickets.push_back(batched.submit({in, out}));
  EXPECT_EQ(batched.pending(), reqs.size());
  EXPECT_EQ(batched.drain(), reqs.size());
  EXPECT_EQ(batched.pending(), 0u);
  std::size_t polled = 0;
  for (const Ticket t : tickets) {
    const auto o = batched.poll(t);
    ASSERT_TRUE(o.has_value());
    ++polled;
    EXPECT_FALSE(batched.poll(t).has_value());  // taken exactly once
  }
  EXPECT_EQ(polled, reqs.size());
  const ExchangeStats a = immediate.stats();
  const ExchangeStats b = batched.stats();
  EXPECT_EQ(a.router.accepted, b.router.accepted);
  EXPECT_EQ(a.router.rejected_terminal, b.router.rejected_terminal);
  EXPECT_EQ(a.router.rejected_no_path, b.router.rejected_no_path);
  EXPECT_EQ(b.submitted, reqs.size());
  EXPECT_EQ(b.admitted, reqs.size());
  EXPECT_EQ(b.completed, reqs.size());
  EXPECT_EQ(b.epochs, 1u);
  EXPECT_EQ(b.deferred, 0u);
  EXPECT_EQ(b.refused, 0u);
}

TEST(Exchange, FixedWindowDefersBeyondTheWindow) {
  const auto net = networks::build_crossbar(16);
  ExchangeConfig cfg;
  cfg.window = 4;
  Exchange ex(net, cfg);
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < 10; ++i)
    tickets.push_back(ex.submit({i, i}));
  EXPECT_EQ(ex.drain(), 4u);  // epoch 1: 4 admitted, 6 deferred
  EXPECT_EQ(ex.pending(), 6u);
  EXPECT_EQ(ex.drain(), 4u);  // epoch 2: 4 admitted, 2 deferred again
  EXPECT_EQ(ex.drain(), 2u);  // epoch 3: the stragglers
  EXPECT_EQ(ex.pending(), 0u);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.epochs, 3u);
  EXPECT_EQ(st.admitted, 10u);
  EXPECT_EQ(st.deferred, 6u + 2u);  // request-epochs spent waiting
  EXPECT_EQ(st.queue_high_water, 10u);
  // Deferral counts are surfaced in the outcomes.
  EXPECT_EQ(ex.poll(tickets[0])->deferrals, 0u);
  EXPECT_EQ(ex.poll(tickets[5])->deferrals, 1u);
  EXPECT_EQ(ex.poll(tickets[9])->deferrals, 2u);
}

TEST(Exchange, OverloadRefusesAtTheQueueCap) {
  const auto net = networks::build_crossbar(16);
  ExchangeConfig cfg;
  cfg.window = 2;
  cfg.max_queue = 4;
  Exchange ex(net, cfg);
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < 7; ++i)
    tickets.push_back(ex.submit({i, i, 0, /*tag=*/i}));
  // Submissions 5..7 found the queue at its cap of 4: refused outright,
  // outcome immediately pollable.
  for (std::size_t i = 4; i < 7; ++i) {
    const auto o = ex.poll(tickets[i]);
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->reject, RejectReason::kRefused);
    EXPECT_FALSE(o->id.valid());
    EXPECT_EQ(o->tag, i);
    EXPECT_STREQ(to_string(o->reject), "refused_overload");
  }
  EXPECT_EQ(ex.drain_all(), 4u);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.submitted, 7u);
  EXPECT_EQ(st.refused, 3u);
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.completed, 7u);  // 4 served + 3 refusals delivered
  EXPECT_EQ(st.epochs, 2u);
  EXPECT_EQ(st.deferred, 2u);  // the 2 that waited out epoch 1
  EXPECT_EQ(st.queue_high_water, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto o = ex.poll(tickets[i]);
    ASSERT_TRUE(o.has_value());
    EXPECT_TRUE(o->connected());
  }
}

TEST(Exchange, PriorityClassesAdmittedFirst) {
  const auto net = networks::build_crossbar(16);
  ExchangeConfig cfg;
  cfg.window = 2;
  Exchange ex(net, cfg);
  const Ticket t0 = ex.submit({0, 0, /*priority=*/0});
  const Ticket t1 = ex.submit({1, 1, /*priority=*/5});
  const Ticket t2 = ex.submit({2, 2, /*priority=*/1});
  const Ticket t3 = ex.submit({3, 3, /*priority=*/5});
  const Ticket t4 = ex.submit({4, 4, /*priority=*/5});
  EXPECT_EQ(ex.drain(), 2u);
  // The first two priority-5 requests went first (stable FIFO among
  // equals).
  EXPECT_TRUE(ex.poll(t1).has_value());
  EXPECT_TRUE(ex.poll(t3).has_value());
  EXPECT_FALSE(ex.poll(t0).has_value());
  EXPECT_FALSE(ex.poll(t2).has_value());
  EXPECT_FALSE(ex.poll(t4).has_value());
  // Then the deferred priority-5 request and the priority-1 one.
  EXPECT_EQ(ex.drain(), 2u);
  EXPECT_TRUE(ex.poll(t4).has_value());
  EXPECT_TRUE(ex.poll(t2).has_value());
  EXPECT_FALSE(ex.poll(t0).has_value());
  EXPECT_EQ(ex.drain(), 1u);
  ASSERT_TRUE(ex.poll(t0).has_value());
}

TEST(Exchange, AsyncCompletionCallbacks) {
  const auto net = networks::build_cantor({5, 0});
  Exchange ex(net, {});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::vector<Outcome> done;
  for (std::uint32_t i = 0; i < 64; ++i) {
    ex.submit({i % n, (i * 7 + 3) % n, 0, /*tag=*/i},
              [&](const Outcome& o) { done.push_back(o); });
  }
  EXPECT_EQ(ex.drain(), 64u);
  ASSERT_EQ(done.size(), 64u);
  std::size_t connected = 0;
  for (const Outcome& o : done) {
    if (o.connected()) {
      ++connected;
      EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
    }
  }
  EXPECT_GT(connected, 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(ex.stats().completed, 64u);
}

// Every callback fires on the thread that drains, as
// Exchange::CompletionFn promises: the draining thread commits the whole
// window, in window order.
TEST(Exchange, DrainFiresCallbacksOnTheDrainingThread) {
  const auto net = networks::build_cantor({5, 0});
  Exchange ex(net, {});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::vector<std::thread::id> fired_on;  // no lock: one thread must write
  std::vector<std::uint64_t> tags;
  for (std::uint32_t i = 0; i < 32; ++i)
    ex.submit({i % n, (i * 7 + 3) % n, 0, /*tag=*/i}, [&](const Outcome& o) {
      fired_on.push_back(std::this_thread::get_id());
      tags.push_back(o.tag);
    });
  std::thread::id drainer;
  std::thread([&] {
    drainer = std::this_thread::get_id();
    EXPECT_EQ(ex.drain(), 32u);
  }).join();
  ASSERT_EQ(fired_on.size(), 32u);
  for (const std::thread::id id : fired_on) EXPECT_EQ(id, drainer);
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));  // commit order
  EXPECT_EQ(ex.stats().epochs, 1u);
}

// Submitters racing the serving thread (racing_submitters.hpp; the TSan
// job runs this file), with misuse on both sides: every 64th request of a
// submitter is followed by one for a terminal that does not exist, which
// bounces at once as kBadTerminal; the serving thread hangs calls up and,
// as it goes, presents stale double hangups, null handles and handles from
// a different Exchange. Every misuse must come back as a typed error
// counted once, and busy state must balance exactly at the end.
TEST(Exchange, SubmittersRacingADrainWithHandleMisuseStaySound) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSubmitters = 4;
  constexpr std::uint64_t kPerSubmitter = 2000;
  Exchange ex(net, {});
  Exchange other(net, {});
  const Outcome foreign = other.call({0, 0});
  ASSERT_TRUE(foreign.connected());

  std::atomic<std::uint64_t> bounced{0};
  test::Race race{kSubmitters, kPerSubmitter, 97};
  race.after_submit = [&](unsigned, std::uint64_t i) {
    if (i % 64 != 0) return;
    const auto bad = static_cast<std::uint32_t>(ex.input_count() + i);
    const std::optional<Outcome> o = ex.poll(ex.submit({bad, 0, 0, i}));
    EXPECT_TRUE(o && o->reject == RejectReason::kBadTerminal && o->tag == i);
    bounced.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<Outcome> live;
  CallId retired{};  // a handle the serving thread already hung up
  std::uint64_t errors = 0, hangups = 0;
  util::Xoshiro256 rng(util::derive_seed(97, 99));
  test::race_submitters(
      ex, race,
      [&](const Outcome& o) {
        if (o.connected()) live.push_back(o);
      },
      [&](std::size_t) {
        const auto kind = rng() & 7u;
        if (kind == 0 && retired.valid()) {
          // Double hangup of an already-retired handle.
          if (ex.hangup(retired) == RejectReason::kStaleHandle) ++errors;
        } else if (kind == 1) {
          if (ex.hangup(CallId{}) == RejectReason::kStaleHandle) ++errors;
        } else if (kind == 2) {
          if (ex.hangup(foreign.id) == RejectReason::kForeignHandle) ++errors;
        }
        for (std::size_t k = 0; k < live.size();) {
          if (rng.below(4) != 0) {
            ++k;
            continue;
          }
          EXPECT_EQ(ex.hangup(live[k].id), RejectReason::kNone);
          retired = live[k].id;
          ++hangups;
          live[k] = live.back();
          live.pop_back();
        }
      });

  // The facade's books balance and misuse never leaked into busy state.
  std::size_t live_path_vertices = 0;
  for (const Outcome& o : live) live_path_vertices += o.path_length;
  EXPECT_EQ(ex.active_calls(), live.size());
  EXPECT_EQ(ex.busy_vertices(), live_path_vertices);
  const ExchangeStats st = ex.stats();
  EXPECT_GT(bounced.load(), 0u);
  EXPECT_EQ(st.handle_errors, errors + bounced.load());
  EXPECT_EQ(st.router.accepted, st.hangups + live.size());
  EXPECT_EQ(st.hangups, hangups);
  // A bounce is a misuse, not a submission: the front end never saw it.
  EXPECT_EQ(st.submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(st.completed, st.submitted);
  // Full hangup releases everything.
  for (const Outcome& o : live) EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(other.hangup(foreign.id), RejectReason::kNone);
}

// Drain churn (the TSan job runs this file): 200 windows of 64 requests
// with repeated terminals, so later requests of a window find their
// terminals taken; hangups run between windows. At quiescence the books
// balance and a full hangup leaves the network idle.
TEST(Exchange, DrainChurnBalancesBooks) {
  const auto net = networks::build_cantor({5, 0});
  constexpr std::size_t kWindows = 200;
  constexpr std::size_t kWindow = 64;
  Exchange ex(net, {});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(2718);

  // Completions land in the live list, on the draining thread.
  std::vector<Outcome> live;
  std::uint64_t hangups = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t k = 0; k < kWindow; ++k) {
      CallRequest req;
      req.input = static_cast<std::uint32_t>(rng.below(n));
      req.output = static_cast<std::uint32_t>(rng.below(n));
      ex.submit(req, [&live](const Outcome& o) {
        if (o.connected()) live.push_back(o);
      });
    }
    ASSERT_EQ(ex.drain_all(), kWindow);
    for (std::size_t k = 0; k < live.size();) {
      if (rng.below(2) == 0) {
        ASSERT_EQ(ex.hangup(live[k].id), RejectReason::kNone);
        ++hangups;
        live[k] = live.back();
        live.pop_back();
      } else {
        ++k;
      }
    }
  }

  std::size_t live_path_vertices = 0;
  for (const Outcome& o : live) live_path_vertices += o.path_length;
  EXPECT_EQ(ex.active_calls(), live.size());
  EXPECT_EQ(ex.busy_vertices(), live_path_vertices);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.completed, kWindows * kWindow);
  EXPECT_EQ(st.router.connect_calls, kWindows * kWindow);
  EXPECT_EQ(st.router.connect_calls, st.router.accepted +
                                         st.router.rejected_terminal +
                                         st.router.rejected_no_path);
  EXPECT_GT(st.router.rejected_terminal, 0u);  // windows did repeat terminals
  EXPECT_EQ(st.router.accepted, hangups + live.size());
  EXPECT_EQ(st.hangups, hangups);
  EXPECT_EQ(st.epochs, kWindows);
  for (const Outcome& o : live) EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

}  // namespace
}  // namespace ftcs::svc
