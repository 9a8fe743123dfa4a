// The three workloads of the exchange benchmark and the metric blocks they
// fill. Every workload reports every metric: one it does not exercise reads
// 0 in the per-layer block (the end-to-end block has none of those).
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "svc/call.hpp"

namespace perfbench {

/// End-to-end metrics, measured with tracing off.
struct EndToEnd {
  Rounds rounds;  // untraced rounds, with their call-setup latencies
  std::uint64_t offered = 0, blocked = 0;
  double setup_s = 0.0;

  void emit(Report& r) const {
    const Rounds::Quiet q = rounds.quiet();
    r.metric("carried_per_s", q.carried_per_s, "1/s");
    r.metric("offered_per_s", q.offered_per_s, "1/s");
    r.metric("setup_p50_us", q.setup_p50_us, "us");
    r.metric("setup_p99_us", q.setup_p99_us, "us");
    r.metric("nonblocked_frac",
             1.0 - ratio(static_cast<double>(blocked),
                         static_cast<double>(offered)),
             "frac");
    r.metric("setup_s", setup_s, "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    // Which rounds are quiet depends on the host, so this is no seed count.
    r.timing_counts.push_back({"setup_latency_samples", q.samples});
  }
};

/// Per-layer metrics, from the traced run.
struct PerLayer {
  double build_s = 0, construct_s = 0, schedule_s = 0;
  double call_ns = 0, connect_ns = 0, hangup_ns = 0;
  double visits_per_call = 0, bottom_up_per_call = 0,
         path_vertices_per_call = 0;
  double submit_ns = 0, drain_ns_per_request = 0;
  double queue_wait_us = 0, drain_to_done_us = 0;
  double wave_rounds_per_epoch = 0, claim_conflicts_per_call = 0;
  double callee_busy_frac = 0;
  double fed_intra_call_ns = 0, fed_inter_call_ns = 0, trunk_busy_frac = 0,
         fed_hangup_ns = 0;
  double inject_us = 0, repair_us = 0, trunk_event_us = 0, pause_p99_us = 0;
  double killed_per_event = 0, reroute_success_frac = 0,
         mates_torn_down_per_event = 0, dropped_frac = 0;
  double scrape_us = 0;
  double unattributed_frac = 0, overhead_frac = 0;

  void emit(Report& r) const {
    r.metric("networks.build_s", build_s, "s");
    r.metric("svc.construct_s", construct_s, "s");
    r.metric("fault.schedule_s", schedule_s, "s");
    r.metric("svc.call_ns", call_ns, "ns");
    r.metric("ftcs.connect_ns", connect_ns, "ns");
    r.metric("svc.facade_ns", call_ns > 0 ? call_ns - connect_ns : 0.0, "ns");
    r.metric("svc.hangup_ns", hangup_ns, "ns");
    r.metric("ftcs.visits_per_call", visits_per_call, "count");
    r.metric("ftcs.bottom_up_per_call", bottom_up_per_call, "count");
    r.metric("ftcs.path_vertices_per_call", path_vertices_per_call, "count");
    r.metric("svc.submit_ns", submit_ns, "ns");
    r.metric("svc.drain_ns_per_request", drain_ns_per_request, "ns");
    r.metric("svc.queue_wait_us", queue_wait_us, "us");
    r.metric("svc.drain_to_done_us", drain_to_done_us, "us");
    r.metric("ftcs.wave_rounds_per_epoch", wave_rounds_per_epoch, "count");
    r.metric("ftcs.claim_conflicts_per_call", claim_conflicts_per_call,
             "count");
    r.metric("svc.callee_busy_frac", callee_busy_frac, "frac");
    r.metric("svc.fed_intra_call_ns", fed_intra_call_ns, "ns");
    r.metric("svc.fed_inter_call_ns", fed_inter_call_ns, "ns");
    r.metric("svc.trunk_busy_frac", trunk_busy_frac, "frac");
    r.metric("svc.fed_hangup_ns", fed_hangup_ns, "ns");
    r.metric("fault.inject_us", inject_us, "us");
    r.metric("fault.repair_us", repair_us, "us");
    r.metric("fault.trunk_event_us", trunk_event_us, "us");
    r.metric("fault.pause_p99_us", pause_p99_us, "us");
    r.metric("fault.killed_per_event", killed_per_event, "count");
    r.metric("fault.reroute_success_frac", reroute_success_frac, "frac");
    r.metric("fault.mates_torn_down_per_event", mates_torn_down_per_event,
             "count");
    r.metric("fault.dropped_frac", dropped_frac, "frac");
    r.metric("ops.scrape_us", scrape_us, "us");
    r.metric("trace.unattributed_frac", unattributed_frac, "frac");
    r.metric("trace.overhead_frac", overhead_frac, "frac");
  }

  /// Fills the span-derived fields every workload shares.
  void from_tracer(const Tracer& t, const Rounds& untraced,
                   const Rounds& traced,
                   std::initializer_list<Layer> traffic_layers) {
    inject_us = t.mean_ns(Layer::kInject) * 1e-3;
    repair_us = t.mean_ns(Layer::kRepair) * 1e-3;
    trunk_event_us = t.mean_ns(Layer::kTrunkEvent) * 1e-3;
    scrape_us = t.mean_ns(Layer::kScrape) * 1e-3;
    unattributed_frac =
        1.0 - ratio(static_cast<double>(t.covered_ns(traffic_layers)) * 1e-9,
                    traced.seconds());
    overhead_frac = 1.0 - ratio(traced.quiet().carried_per_s,
                                untraced.quiet().carried_per_s);
  }
};

/// Network blocking: a request between idle terminals the network did not
/// carry. Callee-busy (kTerminalBusy) is a property of the traffic, and a
/// killed-by-fault verdict is not an answer to a request.
[[nodiscard]] constexpr bool is_blocking(ftcs::svc::RejectReason r) {
  using ftcs::svc::RejectReason;
  return r == RejectReason::kNoPath || r == RejectReason::kContention ||
         r == RejectReason::kTrunkBusy || r == RejectReason::kRefused;
}

Report run_search_k9(const Options& o);
Report run_batched_k6(const Options& o);
Report run_storm_fed(const Options& o);

}  // namespace perfbench
