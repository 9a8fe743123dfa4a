// OverlayAdaptiveAdmission: the fault-plane-aware fixed window. Unit tests
// drive epoch_window directly with synthetic EpochFeedback; the integration
// test runs it inside an Exchange and watches the window shrink under
// inject() and recover after repair().
#include <gtest/gtest.h>

#include <memory>

#include "fault/schedule.hpp"
#include "networks/crossbar.hpp"
#include "svc/admission.hpp"
#include "svc/exchange.hpp"

namespace ftcs {
namespace {

using svc::EpochFeedback;

TEST(OverlayAdmission, HealthyTopologyPassesTheWindowThrough) {
  svc::OverlayAdaptiveAdmission p(/*window=*/64);
  EpochFeedback fb;
  fb.queued = 1000;
  EXPECT_EQ(p.epoch_window(fb), 64u);
  EXPECT_EQ(p.max_queue_depth(), 0u);  // no queue cap
}

TEST(OverlayAdmission, DegradedTopologyShrinksCompoundinglyWithFloor) {
  svc::OverlayAdaptiveAdmission p(/*window=*/64);
  EpochFeedback fb;
  fb.queued = 1000;
  fb.failed_switches = 1;
  const std::size_t w1 = p.epoch_window(fb);  // 64 * 0.95 = 60
  EXPECT_LT(w1, 64u);
  EXPECT_GE(w1, 60u);
  fb.failed_switches = 10;
  const std::size_t w10 = p.epoch_window(fb);  // 64 * 0.95^10 ~ 38
  EXPECT_LT(w10, w1);
  // Catastrophic damage bottoms out at kMinScale, not zero: 64/16 = 4.
  fb.failed_switches = 500;
  EXPECT_EQ(p.epoch_window(fb), 4u);
  // The window never reports below 1 even from a window of 1.
  svc::OverlayAdaptiveAdmission tiny(/*window=*/1);
  EXPECT_EQ(tiny.epoch_window(fb), 1u);
  // Recovery: repairs bring failed_switches back to 0.
  fb.failed_switches = 0;
  EXPECT_EQ(p.epoch_window(fb), 64u);
}

// Through a live Exchange: inject() faults between epochs and watch the
// admitted-per-epoch counts derate, then repair() and watch them recover.
TEST(OverlayAdmission, ExchangeWindowDeratesUnderInjectAndRecoversAfterRepair) {
  const auto net = networks::build_crossbar(16);
  svc::ExchangeConfig cfg;
  cfg.admission = std::make_unique<svc::OverlayAdaptiveAdmission>(
      /*window=*/8);
  svc::Exchange ex(net, std::move(cfg));

  // Measure one epoch's window: saturate the queue, drain once, count the
  // admissions; then settle the backlog and hang everything up so the next
  // measurement starts from a clean topology and an empty queue.
  const auto one_epoch_admits = [&]() -> std::uint64_t {
    std::vector<svc::Ticket> tickets;
    for (std::uint32_t i = 0; i < 16; ++i)
      tickets.push_back(ex.submit({i, i, 0, 0}));
    const auto before = ex.stats().admitted;
    ex.drain();
    const auto admitted = ex.stats().admitted - before;
    ex.drain_all();
    for (const svc::Ticket t : tickets) {
      if (const auto o = ex.poll(t); o && o->connected()) ex.hangup(o->id);
    }
    EXPECT_EQ(ex.active_calls(), 0u);
    return admitted;
  };

  // Healthy: the fixed window of 8 admits 8.
  EXPECT_EQ(one_epoch_admits(), 8u);

  // 14 dead switches at 5% shrink each: 8 * 0.95^14 = 3.9 -> 3 per epoch.
  using Kind = fault::FaultEvent::Kind;
  for (graph::EdgeId e = 0; e < 14; ++e) ex.inject({0.0, e, Kind::kFail});
  EXPECT_EQ(one_epoch_admits(), 3u);

  // Repair brings the window back in the SAME process, no reset needed.
  for (graph::EdgeId e = 0; e < 14; ++e) ex.repair({1.0, e, Kind::kRepair});
  EXPECT_EQ(one_epoch_admits(), 8u);
}

}  // namespace
}  // namespace ftcs
