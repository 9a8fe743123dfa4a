// Epoch-wave routing (connect_wave / the Exchange's wave drain) equivalence
// pins.
//
// The contract (router headers + src/svc/README.md): routing an admission
// window as one multi-source wave must produce the SAME admitted/rejected
// books as routing it per-request in window order — terminal verdicts via
// the tentative-hold/defer discipline, kNoPath only from a final solo
// search, demotions invisible in the verdicts. On the layered nets the
// terminals are never interior hops (inputs have in-degree 0, outputs
// out-degree 0), so per-request verdicts must match EXACTLY, not just in
// aggregate.
//
//  - crafted windows pin the defer discipline: a duplicate slot held by a
//    window-mate resolves exactly as sequential routing would order it;
//  - a fixed multi-window churn trace must keep wave and per-request
//    GreedyRouters verdict-for-verdict in lockstep;
//  - the same crafted windows through the concurrent Worker's CAS-claimed
//    wave;
//  - svc::Exchange: a wave drain must deliver the same Outcomes as routing
//    the same requests one by one through the immediate plane (call()) in
//    window order, on both engine backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftcs/concurrent_router.hpp"
#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

constexpr auto kNone = static_cast<std::uint32_t>(-1);

core::WaveItem item(std::uint32_t in, std::uint32_t out) {
  core::WaveItem it;
  it.in = in;
  it.out = out;
  return it;
}

TEST(WaveRouting, DuplicateSlotDefersToWindowOrderVerdict) {
  const auto net = networks::build_crossbar(4);
  core::GreedyRouter r(net);
  // Item 1 wants input 0 while item 0 (earlier in the window) holds it:
  // item 0 settles, so item 1's verdict is kTerminal — exactly what
  // sequential routing would say. Item 2's slots are untouched.
  std::vector<core::WaveItem> w{item(0, 0), item(0, 1), item(1, 1)};
  r.connect_wave(w.data(), w.size());
  ASSERT_NE(w[0].call, kNone);
  EXPECT_EQ(w[1].call, kNone);
  EXPECT_EQ(w[1].reject, core::WaveReject::kTerminal);
  ASSERT_NE(w[2].call, kNone);
  EXPECT_EQ(r.stats().accepted, 2u);
  EXPECT_EQ(r.stats().rejected_terminal, 1u);
  EXPECT_GT(r.stats().wave_epochs, 0u);
  r.disconnect(w[0].call);
  r.disconnect(w[2].call);
  EXPECT_EQ(r.busy_vertices(), 0u);
}

TEST(WaveRouting, RejectedHolderFreesSlotForDeferredMate) {
  const auto net = networks::build_crossbar(4);
  // Blocking edge 0 (input 0 -> output 0) leaves the terminals idle but
  // removes the only path between them: item 0 must reject kNoPath via its
  // FINAL solo search, releasing input 0 for the deferred item 1 — again
  // the sequential verdict sequence.
  std::vector<std::uint8_t> blocked_edges(net.g.edge_count(), 0);
  blocked_edges[0] = 1;
  core::GreedyRouter r(net, {}, blocked_edges);
  std::vector<core::WaveItem> w{item(0, 0), item(0, 1)};
  r.connect_wave(w.data(), w.size());
  EXPECT_EQ(w[0].call, kNone);
  EXPECT_EQ(w[0].reject, core::WaveReject::kNoPath);
  ASSERT_NE(w[1].call, kNone);
  EXPECT_GE(r.stats().wave_epochs, 2u);  // the deferred mate needed round 2
  r.disconnect(w[1].call);
  EXPECT_EQ(r.busy_vertices(), 0u);
}

TEST(WaveRouting, ConcurrentWorkerWaveMatchesCraftedVerdicts) {
  const auto net = networks::build_crossbar(4);
  {
    core::ConcurrentRouter router(net, 1);
    auto& worker = router.worker(0);
    std::vector<core::WaveItem> w{item(0, 0), item(0, 1), item(1, 1)};
    worker.connect_wave(w.data(), w.size());
    ASSERT_NE(w[0].call, kNone);
    EXPECT_EQ(w[1].call, kNone);
    EXPECT_EQ(w[1].reject, core::WaveReject::kTerminal);
    ASSERT_NE(w[2].call, kNone);
    worker.disconnect(w[0].call);
    worker.disconnect(w[2].call);
    EXPECT_EQ(router.busy_vertices(), 0u);
  }
  {
    std::vector<std::uint8_t> blocked_edges(net.g.edge_count(), 0);
    blocked_edges[0] = 1;
    core::ConcurrentRouter router(net, 1, {}, blocked_edges);
    auto& worker = router.worker(0);
    std::vector<core::WaveItem> w{item(0, 0), item(0, 1)};
    worker.connect_wave(w.data(), w.size());
    EXPECT_EQ(w[0].call, kNone);
    EXPECT_EQ(w[0].reject, core::WaveReject::kNoPath);
    ASSERT_NE(w[1].call, kNone);
    worker.disconnect(w[1].call);
    EXPECT_EQ(router.busy_vertices(), 0u);
  }
}

TEST(WaveRouting, GreedyWaveMatchesSequentialBooksOnFixedTrace) {
  const auto net = networks::build_cantor({4, 0});
  core::GreedyRouter wave(net);
  core::GreedyRouter seq(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(31337);
  std::vector<core::GreedyRouter::CallId> wave_calls, seq_calls;
  std::size_t accepted = 0;

  for (int window = 0; window < 6; ++window) {
    std::vector<core::WaveItem> items(48);
    for (auto& it : items) {
      it = item(static_cast<std::uint32_t>(rng.below(n)),
                static_cast<std::uint32_t>(rng.below(n)));
    }
    wave.connect_wave(items.data(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      // The sequential reference classifies the rejection the same way the
      // wave's phases do: busy slot first, search verdict second.
      const bool term = !seq.input_idle(items[i].in) ||
                        !seq.output_idle(items[i].out);
      const auto c = seq.connect(items[i].in, items[i].out);
      ASSERT_EQ(items[i].call == kNone, c == core::GreedyRouter::kNoCall)
          << "wave/sequential verdict divergence, window " << window
          << " item " << i;
      if (c == core::GreedyRouter::kNoCall) {
        EXPECT_EQ(items[i].reject,
                  term ? core::WaveReject::kTerminal
                       : core::WaveReject::kNoPath)
            << "rejection class divergence, window " << window << " item "
            << i;
        continue;
      }
      EXPECT_EQ(items[i].path_length, wave.path_length(items[i].call));
      wave_calls.push_back(items[i].call);
      seq_calls.push_back(c);
      ++accepted;
    }
    // Churn between windows — SAME victims on both routers, so the slot
    // occupancy (the verdict-relevant state) stays in lockstep.
    for (std::size_t k = 0; k < wave_calls.size();) {
      if (rng.below(2) == 0) {
        wave.disconnect(wave_calls[k]);
        seq.disconnect(seq_calls[k]);
        wave_calls[k] = wave_calls.back();
        wave_calls.pop_back();
        seq_calls[k] = seq_calls.back();
        seq_calls.pop_back();
      } else {
        ++k;
      }
    }
  }
  ASSERT_GT(accepted, 0u);

  const auto& sw = wave.stats();
  const auto& ss = seq.stats();
  EXPECT_EQ(sw.connect_calls, ss.connect_calls);
  EXPECT_EQ(sw.accepted, ss.accepted);
  EXPECT_EQ(sw.rejected_terminal, ss.rejected_terminal);
  EXPECT_EQ(sw.rejected_no_path, ss.rejected_no_path);
  EXPECT_GT(sw.wave_epochs, 0u);
  EXPECT_EQ(ss.wave_epochs, 0u);

  for (const auto c : wave_calls) wave.disconnect(c);
  for (const auto c : seq_calls) seq.disconnect(c);
  EXPECT_EQ(wave.busy_vertices(), 0u);
  EXPECT_EQ(seq.busy_vertices(), 0u);
  EXPECT_EQ(wave.active_calls(), 0u);
}

TEST(WaveRouting, ExchangeWaveDrainMatchesImmediateCalls) {
  const auto net = networks::build_cantor({4, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  for (const svc::Backend backend :
       {svc::Backend::kGreedy, svc::Backend::kConcurrent}) {
    svc::ExchangeConfig ca;
    ca.backend = backend;
    ca.sessions = 1;  // one session: the drain is fully deterministic
    svc::ExchangeConfig cb;
    cb.backend = backend;
    cb.sessions = 1;
    svc::Exchange a(net, std::move(ca));
    svc::Exchange b(net, std::move(cb));

    // Identical request trace. Unbounded admission drains the whole queue
    // as one window, and an admitted window keeps arrival order, so the
    // reference is b.call() in submit order. Mixed priorities exercise the
    // admission path without changing that order.
    util::Xoshiro256 rng(4242);
    std::vector<svc::Ticket> ta;
    std::vector<svc::Outcome> ob;
    constexpr std::size_t kRequests = 96;
    for (std::size_t i = 0; i < kRequests; ++i) {
      svc::CallRequest req;
      req.input = static_cast<std::uint32_t>(rng.below(n));
      req.output = static_cast<std::uint32_t>(rng.below(n));
      req.priority = static_cast<std::uint8_t>(rng.below(3));
      req.tag = i;
      ta.push_back(a.submit(req));
      ob.push_back(b.call(req));
    }
    a.drain_all();

    std::size_t connected = 0;
    std::vector<svc::CallId> live_a, live_b;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const auto oa = a.poll(ta[i]);
      ASSERT_TRUE(oa.has_value());
      EXPECT_EQ(oa->reject, ob[i].reject)
          << "wave/immediate outcome divergence for request " << i;
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
    EXPECT_GT(sa.router.wave_epochs, 0u) << "the drain never waved";
    EXPECT_EQ(sb.router.wave_epochs, 0u);

    for (const auto id : live_a) EXPECT_EQ(a.hangup(id), svc::RejectReason::kNone);
    for (const auto id : live_b) EXPECT_EQ(b.hangup(id), svc::RejectReason::kNone);
    EXPECT_EQ(a.busy_vertices(), 0u);
    EXPECT_EQ(b.busy_vertices(), 0u);
  }
}

}  // namespace
}  // namespace ftcs
