// The Exchange's batched drain: the draining thread commits an admitted
// window one request at a time, in window order, with the same single-pair
// search as the immediate plane (call()). These pins hold that books
// contract on both engine backends:
//
//  - a drained window delivers the same Outcomes as the same requests
//    routed one by one through call() in window order, with 1 and 2
//    sessions;
//  - two requests for one terminal in one window get window-order verdicts:
//    the first connects, the second finds the slot busy;
//  - within a session, completion callbacks fire in window order;
//  - a multi-session drain commits what sequential routing would: a
//    4-session shared exchange gives every request the verdict and path of
//    a 1-session solo one, fault-free and under open failures, with the
//    same books (this file carries the `tsan` ctest label).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/schedule.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs::svc {
namespace {

ExchangeConfig concurrent_cfg(unsigned sessions) {
  ExchangeConfig cfg;
  cfg.backend = Backend::kConcurrent;
  cfg.sessions = sessions;
  return cfg;
}

// The batched drain's books contract: a drained window routes exactly as
// the same requests routed one by one through call() in window order. With
// two sessions the window splits in half by arrival index; the halves draw
// from disjoint terminal halves, so the sessions never compete for a slot
// and the per-request verdicts stay deterministic. On the layered nets a
// terminal is never an interior hop, so verdicts must match EXACTLY.
TEST(Exchange, BatchedDrainMatchesImmediateCalls) {
  const auto net = networks::build_cantor({4, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  for (const Backend backend : {Backend::kGreedy, Backend::kConcurrent}) {
    for (const unsigned sessions : {1u, 2u}) {
      ExchangeConfig ca;
      ca.backend = backend;
      ca.sessions = sessions;
      ExchangeConfig cb;
      cb.backend = backend;
      Exchange a(net, std::move(ca));
      Exchange b(net, std::move(cb));
      const unsigned split = a.sessions();

      // Identical request trace. Unbounded admission drains the whole queue
      // as one window, and an admitted window keeps arrival order, so the
      // reference is b.call() in submit order. Mixed priorities exercise
      // the admission path without changing that order.
      util::Xoshiro256 rng(4242);
      std::vector<Ticket> ta;
      std::vector<Outcome> ob;
      constexpr std::size_t kRequests = 96;
      const std::uint32_t span = n / split;
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto half = static_cast<std::uint32_t>(i * split / kRequests);
        CallRequest req;
        req.input = half * span + static_cast<std::uint32_t>(rng.below(span));
        req.output = half * span + static_cast<std::uint32_t>(rng.below(span));
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
            << "drain/immediate outcome divergence for request " << i
            << " (sessions " << split << ")";
        EXPECT_EQ(oa->session, i * split / kRequests);
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
  }
}

// Two requests for one terminal in one window: the first in window order
// takes the slot and the second finds it busy. A request rejected on one
// slot does not hold the other, so a later mate may take it.
TEST(Exchange, DuplicateTerminalsInOneWindowGetWindowOrderVerdicts) {
  const auto net = networks::build_cantor({3, 0});
  for (const Backend backend : {Backend::kGreedy, Backend::kConcurrent}) {
    ExchangeConfig cfg;
    cfg.backend = backend;
    Exchange ex(net, std::move(cfg));
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
}

// Within a session, completion callbacks fire in window order, each right
// after its own request routes: by the time request k's callback runs, the
// callbacks of the session's earlier requests have all fired.
TEST(Exchange, CompletionCallbacksFireInWindowOrderPerSession) {
  const auto net = networks::build_cantor({5, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  for (const unsigned sessions : {1u, 4u}) {
    Exchange ex(net, concurrent_cfg(sessions));
    std::vector<std::vector<std::uint64_t>> fired(sessions);
    constexpr std::uint32_t kRequests = 64;
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      // The tag is the arrival index (= window order: one priority class).
      ex.submit({i % n, (i * 7 + 3) % n, 0, /*tag=*/i}, [&](const Outcome& o) {
        fired[o.session].push_back(o.tag);  // session-owned: no lock
      });
    }
    EXPECT_EQ(ex.drain(), kRequests);
    std::size_t total = 0;
    for (unsigned s = 0; s < sessions; ++s) {
      const auto& tags = fired[s];
      total += tags.size();
      // The contiguous split gives session s the arrival indices
      // [64 s / S, 64 (s + 1) / S), which must fire in that order.
      ASSERT_EQ(tags.size(), kRequests / sessions);
      for (std::size_t k = 0; k < tags.size(); ++k)
        EXPECT_EQ(tags[k], s * (kRequests / sessions) + k)
            << "session " << s << " position " << k;
    }
    EXPECT_EQ(total, kRequests);
  }
}

/// Every counter row of both blocks must match.
void expect_same_books(const ExchangeStats& a, const ExchangeStats& b) {
  for (const auto& f : core::RouterStats::fields())
    EXPECT_EQ(a.router.*f.member, b.router.*f.member) << f.name;
  for (const auto& f : ExchangeStats::fields())
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    EXPECT_EQ(a.classes[c].served, b.classes[c].served) << "class " << c;
    EXPECT_EQ(a.classes[c].rejected, b.classes[c].rejected) << "class " << c;
  }
}

// The draining thread commits a multi-session window in order with the
// solo store's claim rules, which is exactly sequential routing. A
// 4-session shared exchange and a 1-session solo one get one seeded stream
// in segments: both start fresh (so each segment builds the shared
// sessions' scratch again), take the same immediate calls to half load,
// then drain the same windows (random terminals, duplicates and busy ones
// included) with the same hangups between them. Every request must get the
// same verdict and path on both, and the books must match row for row.
TEST(BatchedDrainDeterminism, MultiSessionDrainCommitsWhatOneSoloSessionRoutes) {
  const auto net = networks::build_cantor({7, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  constexpr int kSegments = 16, kWindows = 8, kOpenFailures = 40;
  constexpr std::uint32_t kWindow = 48;
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "under open failures" : "fault-free");
    util::Xoshiro256 rng(faulted ? 3803 : 3802);
    ExchangeStats shared_books, solo_books;
    for (int seg = 0; seg < kSegments; ++seg) {
      Exchange shared(net, concurrent_cfg(4));
      Exchange solo(net);
      for (int f = 0; faulted && f < kOpenFailures; ++f) {
        fault::FaultEvent ev;
        ev.edge = static_cast<graph::EdgeId>(rng.below(net.g.edge_count()));
        ev.kind = fault::FaultEvent::Kind::kFail;
        ASSERT_EQ(shared.apply(ev).calls_killed(), 0u);
        ASSERT_EQ(solo.apply(ev).calls_killed(), 0u);
      }
      std::vector<std::pair<CallId, CallId>> live;
      std::size_t mismatches = 0;
      const auto compare = [&](const Outcome& a, const Outcome& b) {
        const bool same =
            a.reject == b.reject && a.tag == b.tag &&
            (!a.connected() || shared.path_of(a.id) == solo.path_of(b.id));
        EXPECT_TRUE(same) << "segment " << seg << " tag " << a.tag << ": "
                          << to_string(a.reject) << " vs "
                          << to_string(b.reject);
        mismatches += same ? 0 : 1;
        if (a.connected() && b.connected()) live.emplace_back(a.id, b.id);
      };
      const auto request = [&](std::uint64_t tag) {
        return CallRequest{static_cast<std::uint32_t>(rng.below(n)),
                           static_cast<std::uint32_t>(rng.below(n)), 0, tag};
      };
      for (std::uint32_t i = 0; i < n / 2; ++i) {
        const CallRequest req = request(i);
        compare(shared.call(req, i % shared.sessions()), solo.call(req));
      }
      for (int w = 0; w < kWindows && mismatches == 0; ++w) {
        for (std::size_t c = 0; c < live.size();) {
          if (rng.below(3) != 0) {
            ++c;
            continue;
          }
          EXPECT_EQ(shared.hangup(live[c].first), RejectReason::kNone);
          EXPECT_EQ(solo.hangup(live[c].second), RejectReason::kNone);
          live[c] = live.back();
          live.pop_back();
        }
        std::vector<Outcome> a(kWindow), b(kWindow);
        for (std::uint32_t i = 0; i < kWindow; ++i) {
          const CallRequest req = request(i);
          shared.submit(req, [&a, i](const Outcome& o) { a[i] = o; });
          solo.submit(req, [&b, i](const Outcome& o) { b[i] = o; });
        }
        ASSERT_EQ(shared.drain_all(), kWindow);
        ASSERT_EQ(solo.drain_all(), kWindow);
        for (std::uint32_t i = 0; i < kWindow; ++i) compare(a[i], b[i]);
      }
      ASSERT_EQ(mismatches, 0u) << "segment " << seg;
      EXPECT_EQ(shared.active_calls(), solo.active_calls());
      EXPECT_EQ(shared.busy_vertices(), solo.busy_vertices());
      shared_books += shared.stats();
      solo_books += solo.stats();
    }
    expect_same_books(shared_books, solo_books);
    EXPECT_GT(shared_books.router.accepted, 0u);
    EXPECT_EQ(shared_books.router.claim_conflicts, 0u);
    if (faulted) {
      EXPECT_GT(shared_books.faults_injected, 0u);
    }
  }
}

}  // namespace
}  // namespace ftcs::svc
