// svc::Exchange — the session-oriented call service facade: typed
// rejections, generation-tagged handle safety, engine equivalence through
// the facade, batched admission (defer/refuse), async completion, and the
// locality knobs (homed drain sessions, drain-pool affinity).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "networks/cantor.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/cpu_topology.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ftcs::svc {
namespace {

ExchangeConfig concurrent_cfg(unsigned sessions) {
  ExchangeConfig cfg;
  cfg.backend = Backend::kConcurrent;
  cfg.sessions = sessions;
  return cfg;
}

TEST(Exchange, ImmediateCallLifecycle) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  EXPECT_EQ(ex.sessions(), 1u);
  const Outcome o = ex.call({0, 2, 0, 77});
  ASSERT_TRUE(o.connected());
  EXPECT_TRUE(o.id.valid());
  EXPECT_EQ(o.reject, RejectReason::kNone);
  EXPECT_EQ(o.path_length, 2u);
  EXPECT_EQ(o.tag, 77u);
  EXPECT_EQ(o.session, 0u);
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

TEST(Exchange, TypedRejectionsOnBothBackends) {
  const auto net = networks::build_crossbar(3);
  // Edge (input 0 -> output 0) of the crossbar is edge id 0; failing it
  // leaves the terminals idle but removes the only path between them.
  for (const Backend backend : {Backend::kGreedy, Backend::kConcurrent}) {
    ExchangeConfig cfg;
    cfg.backend = backend;
    Exchange ex(net, std::move(cfg));
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

TEST(Exchange, BadSessionIsTypedError) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome o = ex.call({0, 0}, 5);
  EXPECT_EQ(o.reject, RejectReason::kBadSession);
  EXPECT_FALSE(o.id.valid());
  EXPECT_EQ(ex.active_calls(), 0u);
  // Misuse is visible in the books, not silently dropped.
  EXPECT_EQ(ex.stats().handle_errors, 1u);
}

// Exchange over a 1-worker ConcurrentRouter must be trace-identical to
// Exchange over GreedyRouter on a fixed request trace — outcomes, paths,
// and the full ExchangeStats block.
TEST(Exchange, EngineEquivalenceThroughFacade) {
  const auto net = networks::build_cantor({5, 0});
  Exchange greedy(net, {});
  Exchange concurrent(net, concurrent_cfg(1));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  util::Xoshiro256 rng(util::derive_seed(31, 7));
  std::vector<CallId> live_g, live_c;
  for (int op = 0; op < 4000; ++op) {
    if (!live_g.empty() && (rng() & 3u) == 0) {
      const auto idx = rng() % live_g.size();
      EXPECT_EQ(greedy.hangup(live_g[idx]), RejectReason::kNone);
      EXPECT_EQ(concurrent.hangup(live_c[idx]), RejectReason::kNone);
      live_g[idx] = live_g.back();
      live_g.pop_back();
      live_c[idx] = live_c.back();
      live_c.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(rng() % n);
      const auto out = static_cast<std::uint32_t>(rng() % n);
      const Outcome og = greedy.call({in, out});
      const Outcome oc = concurrent.call({in, out});
      ASSERT_EQ(og.reject, oc.reject) << "op " << op;
      ASSERT_EQ(og.path_length, oc.path_length) << "op " << op;
      if (og.connected()) {
        EXPECT_EQ(greedy.path_of(og.id), concurrent.path_of(oc.id));
        live_g.push_back(og.id);
        live_c.push_back(oc.id);
      }
    }
  }
  const ExchangeStats a = greedy.stats();
  const ExchangeStats b = concurrent.stats();
  EXPECT_EQ(a.router.connect_calls, b.router.connect_calls);
  EXPECT_EQ(a.router.accepted, b.router.accepted);
  EXPECT_EQ(a.router.rejected_terminal, b.router.rejected_terminal);
  EXPECT_EQ(a.router.rejected_no_path, b.router.rejected_no_path);
  EXPECT_EQ(a.router.rejected_contention, b.router.rejected_contention);
  EXPECT_EQ(a.router.vertices_visited, b.router.vertices_visited);
  EXPECT_EQ(a.router.path_vertices, b.router.path_vertices);
  EXPECT_EQ(a.router.disconnects, b.router.disconnects);
  EXPECT_EQ(a.hangups, b.hangups);
  EXPECT_EQ(a.handle_errors, 0u);
  EXPECT_EQ(b.handle_errors, 0u);
  EXPECT_EQ(greedy.busy_vertices(), concurrent.busy_vertices());
}

// Batched plane: the same trace submitted through batched admission
// (unbounded window, 1 session) produces the same engine books as the
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
  cfg.backend = Backend::kConcurrent;
  cfg.sessions = 2;
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

TEST(Exchange, AsyncCompletionCallbacksAcrossSessions) {
  const auto net = networks::build_cantor({5, 0});
  Exchange ex(net, concurrent_cfg(4));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::mutex mu;
  std::vector<Outcome> done;
  for (std::uint32_t i = 0; i < 64; ++i) {
    ex.submit({i % n, (i * 7 + 3) % n, 0, /*tag=*/i}, [&](const Outcome& o) {
      std::lock_guard<std::mutex> lk(mu);
      done.push_back(o);
    });
  }
  EXPECT_EQ(ex.drain(), 64u);
  ASSERT_EQ(done.size(), 64u);
  std::size_t connected = 0;
  bool multi_session = false;
  for (const Outcome& o : done) {
    if (o.session != done.front().session) multi_session = true;
    if (o.connected()) {
      ++connected;
      EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
    }
  }
  EXPECT_TRUE(multi_session);  // the window split across sessions
  EXPECT_GT(connected, 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(ex.stats().completed, 64u);
}

// Every callback fires on the thread that drains, as
// Exchange::CompletionFn promises, whatever the session count: the draining
// thread commits the whole window.
TEST(Exchange, DrainFiresCallbacksOnTheDrainingThread) {
  const auto net = networks::build_cantor({5, 0});
  for (const unsigned sessions : {1u, 4u}) {
    Exchange ex(net, concurrent_cfg(sessions));
    const auto n = static_cast<std::uint32_t>(net.inputs.size());
    std::vector<std::thread::id> fired_on;  // no lock: one thread must write
    std::vector<unsigned> served_by;
    for (std::uint32_t i = 0; i < 32; ++i)
      ex.submit({i % n, (i * 7 + 3) % n}, [&](const Outcome& o) {
        fired_on.push_back(std::this_thread::get_id());
        served_by.push_back(o.session);
      });
    std::thread::id drainer;
    std::thread([&] {
      drainer = std::this_thread::get_id();
      EXPECT_EQ(ex.drain(), 32u);
    }).join();
    ASSERT_EQ(fired_on.size(), 32u);
    for (const std::thread::id id : fired_on) EXPECT_EQ(id, drainer);
    // In commit order: session by session, each session's chunk in turn.
    EXPECT_TRUE(std::is_sorted(served_by.begin(), served_by.end()));
    EXPECT_EQ(served_by.back(), sessions - 1);
    EXPECT_EQ(ex.stats().epochs, 1u);
  }
}

// Churn stress (the TSan job runs this file): each thread drives its own
// session through the facade, deliberately misusing handles as it goes —
// stale double-hangups, null handles, handles from a different Exchange.
// Every misuse must come back as a typed error and busy state must balance
// exactly at the end.
TEST(Exchange, ConcurrentChurnWithHandleMisuseStaysSound) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSessions = 4;
  Exchange ex(net, concurrent_cfg(kSessions));
  Exchange other(net, {});
  const Outcome foreign = other.call({0, 0});
  ASSERT_TRUE(foreign.connected());
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  std::atomic<std::uint64_t> expected_errors{0};
  std::vector<std::vector<Outcome>> live(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      util::Xoshiro256 rng(util::derive_seed(97, s));
      auto& mine = live[s];
      CallId retired{};  // a handle this thread already hung up
      std::uint64_t errors = 0;
      for (int op = 0; op < 2000; ++op) {
        const auto kind = rng() & 15u;
        if (kind == 0 && retired.valid()) {
          // Double hangup of an already-retired handle.
          if (ex.hangup(retired) == RejectReason::kStaleHandle) ++errors;
        } else if (kind == 1) {
          if (ex.hangup(CallId{}) == RejectReason::kStaleHandle) ++errors;
        } else if (kind == 2) {
          if (ex.hangup(foreign.id) == RejectReason::kForeignHandle) ++errors;
        } else if (kind < 6 && !mine.empty()) {
          const auto idx = rng() % mine.size();
          EXPECT_EQ(ex.hangup(mine[idx].id), RejectReason::kNone);
          retired = mine[idx].id;
          mine[idx] = mine.back();
          mine.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const Outcome o = ex.call({in, out}, s);
          if (o.connected()) mine.push_back(o);
        }
      }
      expected_errors.fetch_add(errors, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  // Quiescent invariants: the facade's books balance and misuse never
  // leaked into busy state.
  std::size_t live_calls = 0, live_path_vertices = 0;
  for (const auto& session_calls : live) {
    live_calls += session_calls.size();
    for (const Outcome& o : session_calls) live_path_vertices += o.path_length;
  }
  EXPECT_EQ(ex.active_calls(), live_calls);
  EXPECT_EQ(ex.busy_vertices(), live_path_vertices);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.handle_errors, expected_errors.load());
  EXPECT_EQ(st.router.accepted, st.hangups + live_calls);
  // Full drain releases everything.
  for (const auto& session_calls : live)
    for (const Outcome& o : session_calls)
      EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(other.hangup(foreign.id), RejectReason::kNone);
}

// Multi-session drain churn (the TSan job runs this file): four sessions
// take 200 windows of 64 requests with repeated terminals, so later
// requests of a window find their terminals taken; hangups run between
// windows. At quiescence the books balance and a full hangup leaves the
// network idle.
TEST(Exchange, MultiSessionDrainChurnBalancesBooks) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSessions = 4;
  constexpr std::size_t kWindows = 200;
  constexpr std::size_t kWindow = 64;
  Exchange ex(net, concurrent_cfg(kSessions));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(2718);

  // Completions land in the serving session's list, on the draining
  // thread.
  std::vector<std::vector<Outcome>> served(kSessions);
  std::vector<Outcome> live;
  std::uint64_t hangups = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t k = 0; k < kWindow; ++k) {
      CallRequest req;
      req.input = static_cast<std::uint32_t>(rng.below(n));
      req.output = static_cast<std::uint32_t>(rng.below(n));
      ex.submit(req, [&served](const Outcome& o) {
        if (o.connected()) served[o.session].push_back(o);
      });
    }
    ASSERT_EQ(ex.drain_all(), kWindow);
    for (auto& list : served) {
      live.insert(live.end(), list.begin(), list.end());
      list.clear();
    }
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
  EXPECT_EQ(st.router.connect_calls,
            st.router.accepted + st.router.rejected_terminal +
                st.router.rejected_no_path + st.router.rejected_contention);
  EXPECT_GT(st.router.rejected_terminal, 0u);  // windows did repeat terminals
  EXPECT_EQ(st.router.accepted, hangups + live.size());
  EXPECT_EQ(st.hangups, hangups);
  EXPECT_EQ(st.epochs, kWindows);
  EXPECT_EQ(st.router.claim_conflicts, 0u);  // the drain claims without CAS
  for (const Outcome& o : live) EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

// drain() splits each window by arrival index: session s serves the
// contiguous chunk [m*s/S, m*(s+1)/S) of an m-request window.
TEST(Exchange, DrainSplitsTheWindowByArrivalIndex) {
  const auto net = networks::build_cantor({4, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  constexpr unsigned kSessions = 4;

  Exchange ex(net, concurrent_cfg(kSessions));
  ASSERT_EQ(ex.sessions(), kSessions);

  // Inputs in reverse, so that the split cannot follow the input range.
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < n; ++i) {
    CallRequest req;
    req.input = n - 1 - i;
    req.output = i;
    tickets.push_back(ex.submit(req));
  }
  ASSERT_EQ(ex.drain(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto o = ex.poll(tickets[i]);
    ASSERT_TRUE(o.has_value());
    // Every outcome, served or rejected, names the session whose chunk
    // holds the request's arrival index.
    EXPECT_EQ(o->session, i * kSessions / n) << "arrival " << i;
  }
}

TEST(Exchange, ExchangeAffinityMatchesPlanOutcome) {
  const auto net = networks::build_cantor({3, 0});
  ExchangeConfig cfg = concurrent_cfg(2);
  cfg.affinity = util::AffinityPolicy::kSpread;
  Exchange ex(net, std::move(cfg));

  // The Exchange must report exactly what plan_affinity decided for this
  // host's real topology — degrade to kNone on small boxes, kSpread where
  // the plan fits.
  const auto topo = util::CpuTopology::discover();
  const auto plan =
      util::plan_affinity(topo, util::ThreadPool::global().thread_count(),
                          util::AffinityPolicy::kSpread);
  const auto expected = plan.empty() ? util::AffinityPolicy::kNone
                                     : util::AffinityPolicy::kSpread;
  EXPECT_EQ(ex.affinity(), expected);
  EXPECT_EQ(util::ThreadPool::global().affinity(), expected);

  // The exchange still drains under the applied policy.
  CallRequest req;
  (void)ex.submit(req);
  EXPECT_EQ(ex.drain_all(), 1u);

  // Restore the process-wide pool for the rest of the test binary.
  util::ThreadPool::global().apply_affinity(util::AffinityPolicy::kNone);
  EXPECT_EQ(util::ThreadPool::global().affinity(),
            util::AffinityPolicy::kNone);
}

}  // namespace
}  // namespace ftcs::svc
