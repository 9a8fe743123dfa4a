// The operator control plane: LatencyHistogram/QoS books, the MPSC
// CommandQueue with typed acks, ControlPlane command execution at epoch
// boundaries, MetricsRegistry export (Prometheus + JSON, totals + deltas),
// the RejectReason round-trip, and the acceptance-criteria churn — 4
// submitters racing the serving thread while a separate operator thread
// pumps inject/repair/query/snapshot commands through the queue. (Carries
// the `tsan` ctest label.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/schedule.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "ops/command_queue.hpp"
#include "ops/control.hpp"
#include "ops/latency.hpp"
#include "ops/metrics.hpp"
#include "svc/exchange.hpp"
#include "svc/federation.hpp"
#include "util/prng.hpp"
#include "racing_submitters.hpp"

namespace ftcs {
namespace {

using fault::FaultEvent;

TEST(LatencyHistogram, BucketsQuantilesAndMergeability) {
  ops::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // 90 samples at ~1us, 10 at ~1ms: p50 lands in the microsecond bucket,
  // p99 in the millisecond one. Log-scale buckets promise the answer within
  // one 2x bucket of the truth.
  for (int i = 0; i < 90; ++i) h.record(1.0e-6);
  for (int i = 0; i < 10; ++i) h.record(1.0e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum_seconds(), 90.0e-6 + 10.0e-3, 1e-9);
  EXPECT_GT(h.quantile(0.50), 0.5e-6);
  EXPECT_LT(h.quantile(0.50), 2.1e-6);
  EXPECT_GT(h.quantile(0.99), 0.5e-3);
  EXPECT_LT(h.quantile(0.99), 2.1e-3);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));

  // Mergeable like RouterStats: += aggregates, -= recovers the delta.
  ops::LatencyHistogram a = h;
  a += h;
  EXPECT_EQ(a.count(), 200u);
  a -= h;
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.quantile(0.5), h.quantile(0.5));

  // Extremes clip into the outermost buckets instead of overflowing.
  ops::LatencyHistogram x;
  x.record(0.0);
  x.record(1e9);
  EXPECT_EQ(x.count(), 2u);
  EXPECT_GT(x.quantile(1.0), 100.0);  // deep in the last bucket
}

TEST(LatencyHistogram, QosClassMappingClampsHighPriorities) {
  EXPECT_EQ(ops::qos_class(0), 0u);
  EXPECT_EQ(ops::qos_class(1), 1u);
  EXPECT_EQ(ops::qos_class(3), 3u);
  EXPECT_EQ(ops::qos_class(200), ops::kQosClasses - 1);
}

TEST(RejectReason, ToStringRoundTripsOverAllEnumerators) {
  std::set<std::string> spellings;
  for (const svc::RejectReason r : svc::kAllRejectReasons) {
    const std::string s = to_string(r);
    EXPECT_NE(s, "unknown");
    EXPECT_TRUE(spellings.insert(s).second) << "duplicate spelling " << s;
    const auto back = svc::reject_reason_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, r);
  }
  EXPECT_EQ(spellings.size(), svc::kRejectReasonCount);
  EXPECT_FALSE(svc::reject_reason_from_string("bogus").has_value());
  EXPECT_FALSE(svc::reject_reason_from_string("unknown").has_value());
}

TEST(ExchangeQos, BatchedPlaneKeepsPerClassBooksAndSlaViolations) {
  const auto net = networks::build_crossbar(8);
  svc::ExchangeConfig cfg;
  // Class 2 carries an impossible SLA (1ns): every served class-2 call
  // violates it. Class 0 carries a lavish one nothing violates.
  cfg.class_deadlines = {60.0, 0.0, 1e-9, 0.0};
  svc::Exchange ex(net, std::move(cfg));

  // Two calls per class; the second class-3 call collides on terminals with
  // the first (same input), producing a typed per-class reject.
  for (std::uint8_t pri = 0; pri < 4; ++pri) {
    ex.submit({0u + pri, 0u + pri, pri, 0});
    ex.submit({pri == 3 ? 3u : 4u + pri, 4u + pri, pri, 0});
  }
  ex.drain_all();
  const auto st = ex.stats();
  EXPECT_EQ(st.classes[0].served, 2u);
  EXPECT_EQ(st.classes[0].sla_violations, 0u);
  EXPECT_EQ(st.classes[1].served, 2u);
  EXPECT_EQ(st.classes[2].served, 2u);
  EXPECT_EQ(st.classes[2].sla_violations, 2u);  // the 1ns deadline
  EXPECT_EQ(st.classes[3].served, 1u);
  EXPECT_EQ(st.classes[3].rejected, 1u);  // terminal-busy collision
  EXPECT_EQ(st.classes[0].setup.count(), 2u);
  EXPECT_GT(st.classes[0].setup.quantile(0.5), 0.0);
  // The books survive the stats delta convention.
  auto delta = ex.stats();
  delta -= st;
  EXPECT_EQ(delta.classes[2].served, 0u);
}

TEST(ExchangeQos, ImmediatePlaneBooksAreOptIn) {
  const auto net = networks::build_crossbar(4);
  {
    svc::Exchange ex(net);  // default: immediate plane keeps no books
    const auto o = ex.call({0, 0, 1, 0});
    ASSERT_TRUE(o.connected());
    EXPECT_EQ(ex.stats().classes[1].served, 0u);
    ex.hangup(o.id);
  }
  svc::ExchangeConfig cfg;
  cfg.qos_immediate = true;
  cfg.class_deadlines = {0.0, 1e-9, 0.0, 0.0};
  svc::Exchange ex(net, std::move(cfg));
  const auto o = ex.call({0, 0, 1, 0});
  ASSERT_TRUE(o.connected());
  const auto busy = ex.call({0, 1, 1, 0});  // same input: typed reject
  EXPECT_FALSE(busy.connected());
  const auto st = ex.stats();
  EXPECT_EQ(st.classes[1].served, 1u);
  EXPECT_EQ(st.classes[1].rejected, 1u);
  EXPECT_EQ(st.classes[1].sla_violations, 1u);
  ex.hangup(o.id);
}

TEST(CommandQueue, PostAckDepthAndTakeOnce) {
  ops::CommandQueue q;
  EXPECT_EQ(q.depth(), 0u);
  const auto t1 = q.post({ops::CommandKind::kQuery, {}, 0});
  const auto t2 = q.post({ops::CommandKind::kGrow, {}, 16});
  EXPECT_NE(t1, 0u);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_FALSE(q.try_ack(t1).has_value());  // not executed yet

  auto taken = q.take_all();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].ticket, t1);
  EXPECT_EQ(taken[1].cmd.arg, 16u);
  EXPECT_EQ(q.depth(), 0u);

  ops::Ack a;
  a.kind = taken[1].cmd.kind;
  a.status = ops::AckStatus::kUnsupported;
  q.deliver(t2, a);
  const auto got = q.wait(t2);
  EXPECT_EQ(got.status, ops::AckStatus::kUnsupported);
  EXPECT_FALSE(q.try_ack(t2).has_value());  // take-once
}

TEST(ControlPlane, ExecutesEveryCommandKindWithTypedAcks) {
  const auto net = networks::build_crossbar(6);
  svc::Exchange ex(net);
  ops::ControlPlane control(ex, "t0");

  // A live call the inject will kill: crossbar switch (0,0) is input 0's
  // only route to output 0.
  const auto victim = ex.call({0, 0, 0, 77});
  ASSERT_TRUE(victim.connected());
  const auto e00 = net.g.out_edges(net.inputs[0])[0];

  auto& q = control.queue();
  const auto t_inject =
      q.post({ops::CommandKind::kInject, {0.0, e00, FaultEvent::Kind::kFail}, 0});
  const auto t_again =
      q.post({ops::CommandKind::kInject, {0.0, e00, FaultEvent::Kind::kFail}, 0});
  const auto t_grow = q.post({ops::CommandKind::kGrow, {}, 8});
  const auto t_query = q.post({ops::CommandKind::kQuery, {}, 0});
  EXPECT_EQ(control.pump(), 4u);

  const auto a_inject = q.wait(t_inject);
  EXPECT_EQ(a_inject.status, ops::AckStatus::kOk);
  EXPECT_EQ(a_inject.calls_killed, 1u);
  ASSERT_EQ(a_inject.killed.size(), 1u);
  EXPECT_EQ(a_inject.killed[0].tag, 77u);
  EXPECT_EQ(a_inject.killed[0].reject, svc::RejectReason::kFaulted);
  ASSERT_EQ(a_inject.reroutes.size(), 1u);
  // Output 0 is only reachable through the dead switch: the reroute fails.
  EXPECT_EQ(a_inject.reroute_failed, 1u);
  EXPECT_EQ(a_inject.failed_switches, 1u);

  const auto a_again = q.wait(t_again);
  EXPECT_EQ(a_again.status, ops::AckStatus::kNoop);  // idempotent
  EXPECT_EQ(a_again.calls_killed, 0u);

  const auto a_grow = q.wait(t_grow);
  EXPECT_EQ(a_grow.status, ops::AckStatus::kUnsupported);
  EXPECT_FALSE(a_grow.text.empty());

  const auto a_query = q.wait(t_query);
  EXPECT_EQ(a_query.stats.faults_injected, 1u);
  EXPECT_EQ(a_query.stats.calls_killed_by_fault, 1u);
  EXPECT_EQ(a_query.active_calls, 0u);

  // Repair, then quiesce a queued submission through the feed.
  const auto t_repair = q.post(
      {ops::CommandKind::kRepair, {1.0, e00, FaultEvent::Kind::kRepair}, 0});
  ex.submit({0, 0, 0, 88});
  const auto t_q = q.post({ops::CommandKind::kQuiesce, {}, 0});
  const auto t_snap =
      q.post({ops::CommandKind::kSnapshot, {},
              static_cast<std::uint64_t>(ops::SnapshotFormat::kPrometheus)});
  control.pump();
  EXPECT_EQ(q.wait(t_repair).failed_switches, 0u);
  const auto a_q = q.wait(t_q);
  EXPECT_EQ(a_q.drained, 1u);
  EXPECT_EQ(a_q.pending, 0u);
  const auto a_snap = q.wait(t_snap);
  EXPECT_NE(a_snap.text.find("ftcs_shorted"), std::string::npos);
  EXPECT_NE(a_snap.text.find("ftcs_setup_latency_seconds_bucket"),
            std::string::npos);
}

// A federated fault ack counts the federation's calls, each once: an intra
// call the member killed and rerouted is one kill and one reroute, and an
// inter call whose half the member rerouted in place was never lost.
TEST(ControlPlane, FederatedFaultAckCountsEachLostCallOnce) {
  const auto net = networks::build_cantor({4, 0});
  // Fails each switch of member 0 in turn through the plane, repairing the
  // misses, until one hits the federation's one call; returns that ack.
  const auto first_hit = [&net](svc::Federation& fed) -> ops::Ack {
    ops::ControlPlane control(fed, "f");
    auto& q = control.queue();
    for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e) {
      const auto t = q.post(
          {ops::CommandKind::kInject, {0.0, e, FaultEvent::Kind::kFail}, 0});
      control.pump();
      ops::Ack a = q.wait(t);
      if (fed.member(0).stats().calls_killed_by_fault > 0) return a;
      q.post({ops::CommandKind::kRepair, {0.0, e, FaultEvent::Kind::kRepair},
              0});
      control.pump();
    }
    ADD_FAILURE() << "no switch of member 0 carries the call";
    return {};
  };

  svc::Federation intra_fed(net, 2);
  ASSERT_TRUE(intra_fed
                  .call({intra_fed.global_of(0, 0), intra_fed.global_of(0, 1),
                         0, 7})
                  .connected());
  const ops::Ack intra = first_hit(intra_fed);
  EXPECT_EQ(intra.calls_killed, 1u);
  EXPECT_EQ(intra.reroute_succeeded + intra.reroute_failed, 1u);
  EXPECT_TRUE(intra.killed.empty());
  EXPECT_TRUE(intra.reroutes.empty());

  svc::Federation inter_fed(net, 2);
  ASSERT_TRUE(inter_fed
                  .call({inter_fed.global_of(0, 2), inter_fed.global_of(1, 2),
                         0, 9})
                  .connected());
  const ops::Ack inter = first_hit(inter_fed);
  ASSERT_EQ(inter_fed.stats().mates_adopted, 1u);  // half rerouted in place
  EXPECT_EQ(inter.calls_killed, 0u);
  EXPECT_EQ(inter.reroute_succeeded + inter.reroute_failed, 0u);
  EXPECT_EQ(inter_fed.active_inter_calls(), 1u);
}

TEST(MetricsRegistry, DeltasBetweenScrapesAndBothFormats) {
  const auto net = networks::build_crossbar(4);
  svc::Exchange ex(net);
  ops::MetricsRegistry reg("mx");

  ex.submit({0, 0, 2, 0});
  ex.drain_all();
  const auto s1 = reg.sample(ex);
  EXPECT_EQ(s1.scrape_seq, 1u);
  EXPECT_EQ(s1.total.admitted, 1u);
  EXPECT_EQ(s1.delta.admitted, 1u);  // first delta == totals

  ex.submit({1, 1, 2, 0});
  ex.submit({2, 2, 2, 0});
  ex.drain_all();
  const auto s2 = reg.sample(ex);
  EXPECT_EQ(s2.total.admitted, 3u);
  EXPECT_EQ(s2.delta.admitted, 2u);  // only the inter-scrape activity
  EXPECT_EQ(s2.delta.classes[2].served, 2u);

  const std::string prom = reg.prometheus(s2);
  EXPECT_NE(prom.find("# TYPE ftcs_calls_admitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ftcs_calls_admitted_total{exchange=\"mx\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("ftcs_rejects_total"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("ftcs_setup_latency_p99_seconds"), std::string::npos);

  const std::string js = reg.json(s2);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_NE(js.find("\"delta\""), std::string::npos);
  EXPECT_NE(js.find("\"classes\""), std::string::npos);
  EXPECT_NE(js.find("\"scrape_seq\":2"), std::string::npos);
}

// A line longer than the formatter's stack buffer is written whole: the
// scrape of a 300-character instance reads, line for line, as the scrape
// of a one-character instance with the name swapped in.
TEST(MetricsRegistry, LongInstanceNameKeepsEveryLineWhole) {
  const auto net = networks::build_cantor({4, 0});
  svc::Exchange ex(net);
  ASSERT_TRUE(ex.call({0, 1}).connected());
  const std::string name(300, 'x');
  ops::MetricsRegistry long_reg(name), short_reg("t");
  const std::string prom = long_reg.scrape_prometheus(ex);
  const auto s = short_reg.sample(ex);

  std::string expected = short_reg.prometheus(s);
  for (std::size_t at = 0;
       (at = expected.find("exchange=\"t\"", at)) != std::string::npos;
       at += 10 + name.size())
    expected.replace(at + 10, 1, name);
  EXPECT_EQ(prom, expected);
  std::size_t lines = 0;
  for (std::size_t at = 0; at < prom.size(); ++lines) {
    const std::size_t eol = prom.find('\n', at);
    ASSERT_NE(eol, std::string::npos) << "unterminated last line";
    const std::string line = prom.substr(at, eol - at);
    if (line.rfind("# TYPE ftcs_", 0) != 0) {
      EXPECT_NE(line.find("{exchange=\"" + name + "\""), std::string::npos)
          << line.substr(0, 80);
    }
    at = eol + 1;
  }
  EXPECT_GT(lines, 200u);
  EXPECT_NE(long_reg.json(s).find("\"instance\":\"" + name + "\""),
            std::string::npos);
}

// ------------------------------------------------------------ field tables
//
// Every counter of the five stats blocks is a row of its block's fields()
// table; merge, delta, reset and both metric exports iterate those tables.
// These tests walk every row, so a counter added to a table is covered
// without touching them.

/// One table row of a (possibly nested) block, flattened for comparison.
struct FlatRow {
  std::string label;  // "<block>/<export name or reject reason>"
  util::StatKind kind;
  std::uint64_t value;
};

template <class Block>
void flatten_rows(std::vector<FlatRow>& out, const Block& b,
                  const std::string& block) {
  for (const auto& f : Block::fields())
    out.push_back({block + "/" + (f.name ? f.name : f.reject), f.kind,
                   b.*f.member});
}
std::vector<FlatRow> flatten(const core::RouterStats& r) {
  std::vector<FlatRow> out;
  flatten_rows(out, r, "router");
  return out;
}
std::vector<FlatRow> flatten(const ops::ClassStats& c) {
  std::vector<FlatRow> out;
  flatten_rows(out, c, "class");
  return out;
}
std::vector<FlatRow> flatten(const svc::TrunkGroupStats& t) {
  std::vector<FlatRow> out;
  flatten_rows(out, t, "trunk");
  return out;
}
std::vector<FlatRow> flatten(const svc::ExchangeStats& e) {
  std::vector<FlatRow> out = flatten(e.router);
  flatten_rows(out, e, "exchange");
  return out;
}
std::vector<FlatRow> flatten(const svc::FederationStats& f) {
  std::vector<FlatRow> out = flatten(f.members);
  for (const FlatRow& r : flatten(f.trunks)) out.push_back(r);
  flatten_rows(out, f, "federation");
  return out;
}

/// Gives row i of `b`'s table the value seed + 3*i; nested tables get
/// their own seeds, so every row of a block holds a distinct value.
template <class Block>
void fill_rows(Block& b, std::uint64_t seed) {
  std::uint64_t i = 0;
  for (const auto& f : Block::fields()) b.*f.member = seed + 3 * i++;
}
void fill(core::RouterStats& r, std::uint64_t seed) { fill_rows(r, seed); }
void fill(ops::ClassStats& c, std::uint64_t seed) { fill_rows(c, seed); }
void fill(svc::TrunkGroupStats& t, std::uint64_t seed) { fill_rows(t, seed); }
void fill(svc::ExchangeStats& e, std::uint64_t seed) {
  fill_rows(e, seed);
  fill(e.router, seed + 100);
}
void fill(svc::FederationStats& f, std::uint64_t seed) {
  fill_rows(f, seed);
  fill(f.members, seed + 200);
  fill(f.trunks, seed + 400);
}

template <class Block>
void check_merge_delta_reset() {
  Block a, b;
  fill(a, 1);
  fill(b, 1000);  // every row of b exceeds a's
  const std::vector<FlatRow> ra = flatten(a), rb = flatten(b);
  ASSERT_EQ(ra.size(), rb.size());
  const auto is_max = [&](std::size_t i) {
    return ra[i].kind == util::StatKind::kMax;
  };

  Block twice = a;
  twice += a;
  const std::vector<FlatRow> r2 = flatten(twice);
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(r2[i].value, is_max(i) ? ra[i].value : 2 * ra[i].value)
        << ra[i].label;  // += doubles a counter; a max row stays
  twice -= a;
  const std::vector<FlatRow> r1 = flatten(twice);
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(r1[i].value, ra[i].value) << ra[i].label;  // -= restores

  // Distinct operands, in both orders: counters add; max rows take the max
  // (not the last write) and survive the delta.
  Block ab = a, ba = b;
  ab += b;
  ba += a;
  const std::vector<FlatRow> rab = flatten(ab), rba = flatten(ba);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const std::uint64_t want =
        is_max(i) ? rb[i].value : ra[i].value + rb[i].value;
    EXPECT_EQ(rab[i].value, want) << ra[i].label;
    EXPECT_EQ(rba[i].value, want) << ra[i].label;
  }
  ab -= b;
  ba -= a;
  const std::vector<FlatRow> da = flatten(ab), db = flatten(ba);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(da[i].value, is_max(i) ? rb[i].value : ra[i].value)
        << ra[i].label;
    EXPECT_EQ(db[i].value, rb[i].value) << ra[i].label;
  }

  ab = {};
  for (const FlatRow& r : flatten(ab)) EXPECT_EQ(r.value, 0u) << r.label;
}

TEST(StatsTable, MergeDeltaAndResetFollowTheTable) {
  check_merge_delta_reset<core::RouterStats>();
  check_merge_delta_reset<ops::ClassStats>();
  check_merge_delta_reset<svc::TrunkGroupStats>();
  check_merge_delta_reset<svc::ExchangeStats>();
  check_merge_delta_reset<svc::FederationStats>();
  // The only high-water row, and the merge its dashboards rely on.
  svc::ExchangeStats a, b;
  a.queue_high_water = 7;
  b.queue_high_water = 9;
  a += b;
  EXPECT_EQ(a.queue_high_water, 9u);
  a -= b;
  EXPECT_EQ(a.queue_high_water, 9u);
}

TEST(StatsTable, TableRowsAreNamedOnceAndRejectsUseCanonicalSpellings) {
  std::set<std::string> names;
  std::vector<FlatRow> rows = flatten(svc::FederationStats{});
  for (const FlatRow& r : rows)
    EXPECT_TRUE(names.insert(r.label.substr(r.label.find('/') + 1)).second)
        << "duplicate export name " << r.label;
  for (const auto& f : core::RouterStats::fields()) {
    if (f.reject) {
      EXPECT_TRUE(svc::reject_reason_from_string(f.reject));
    }
  }
  for (const auto& f : svc::ExchangeStats::fields()) {
    if (f.reject) {
      EXPECT_TRUE(svc::reject_reason_from_string(f.reject));
    }
  }
}

/// Occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + 1))
    ++n;
  return n;
}

/// The flat `"key":number` object that follows `"section":{` at or after
/// `from`, as (key, value) pairs in document order.
std::vector<std::pair<std::string, std::uint64_t>> json_section(
    const std::string& js, const std::string& section, std::size_t from = 0) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::size_t at = js.find("\"" + section + "\":{", from);
  if (at == std::string::npos) return out;
  at += section.size() + 4;
  while (at < js.size() && js[at] == '"') {
    const std::size_t close = js.find('"', at + 1);
    const std::string key = js.substr(at + 1, close - at - 1);
    std::size_t end = close + 2;  // past `":`
    std::uint64_t v = 0;
    while (end < js.size() && std::isdigit(static_cast<unsigned char>(js[end])))
      v = v * 10 + static_cast<std::uint64_t>(js[end++] - '0');
    out.emplace_back(key, v);
    at = js[end] == ',' ? end + 1 : js.size();
  }
  return out;
}

/// Every row of `Block`'s table appears exactly once in each format, with
/// its total and delta values.
template <class Block>
void expect_rows_exported(const Block& total, const Block& delta,
                          const std::string& prom, const std::string& js,
                          std::size_t json_from, bool scrape_delta) {
  const auto jt = json_section(js, "total", json_from);
  const auto jd = json_section(js, "delta", json_from);
  const auto json_count = [](const auto& sec, const std::string& key,
                             std::uint64_t v) {
    std::size_t n = 0;
    for (const auto& [k, val] : sec) n += k == key && val == v;
    return n;
  };
  for (const auto& f : Block::fields()) {
    const std::uint64_t t = total.*f.member, d = delta.*f.member;
    ASSERT_TRUE(f.name || f.reject);
    if (f.name) {
      const std::string n = f.name;
      const char* type = f.kind == util::StatKind::kMax ? "gauge" : "counter";
      EXPECT_EQ(count_of(prom, "# TYPE ftcs_" + n + " " + type + "\n"), 1u)
          << n;
      EXPECT_EQ(count_of(prom, "\nftcs_" + n + "{"), 1u) << n;
      EXPECT_EQ(count_of(prom, "\nftcs_" + n + "{exchange=\"t\"} " +
                                   std::to_string(t) + "\n"),
                1u)
          << n;
      if (scrape_delta) {
        EXPECT_EQ(count_of(prom, "counter=\"" + n + "\"} " +
                                     std::to_string(d) + "\n"),
                  1u)
            << n;
      }
      EXPECT_EQ(json_count(jt, n, t), 1u) << n;
      EXPECT_EQ(json_count(jd, n, d), 1u) << n;
    }
    if (f.reject) {
      const std::string r = f.reject;
      EXPECT_EQ(count_of(prom, "reason=\"" + r + "\"} " + std::to_string(t) +
                                   "\n"),
                1u)
          << r;
      EXPECT_EQ(json_count(jt, "rejects_" + r, t), 1u) << r;
      EXPECT_EQ(json_count(jd, "rejects_" + r, d), 1u) << r;
    }
  }
}

TEST(StatsTable, EveryRowReachesBothFormatsOnce) {
  ops::MetricsRegistry reg("t");
  ops::MetricsRegistry::Sample s;
  fill(s.total, 10);
  fill(s.delta, 5000);
  s.federated = true;
  fill(s.fed_total, 20000);
  fill(s.fed_delta, 30000);
  const std::string prom = reg.prometheus(s);
  const std::string js = reg.json(s);

  expect_rows_exported(s.total.router, s.delta.router, prom, js, 0, true);
  expect_rows_exported(s.total, s.delta, prom, js, 0, true);
  const std::size_t fed_at = js.find("\"federation\":{");
  ASSERT_NE(fed_at, std::string::npos);
  expect_rows_exported(s.fed_total, s.fed_delta, prom, js, fed_at, false);
  expect_rows_exported(s.fed_total.trunks, s.fed_delta.trunks, prom, js,
                       fed_at, false);

  // Nothing but table rows in the JSON sections, and delta keys == totals.
  std::size_t exchange_keys = 0;
  for (const auto& f : core::RouterStats::fields())
    exchange_keys += (f.name != nullptr) + (f.reject != nullptr);
  for (const auto& f : svc::ExchangeStats::fields())
    exchange_keys += (f.name != nullptr) + (f.reject != nullptr);
  const std::size_t fed_keys = svc::FederationStats::fields().size() +
                               svc::TrunkGroupStats::fields().size();
  EXPECT_EQ(json_section(js, "total").size(), exchange_keys);
  EXPECT_EQ(json_section(js, "delta").size(), exchange_keys);
  EXPECT_EQ(json_section(js, "total", fed_at).size(), fed_keys);
  EXPECT_EQ(json_section(js, "delta", fed_at).size(), fed_keys);
}

// Pins the export names of the router, high-water and federation-level
// counters: each is found in both formats, with its value. The member
// exchanges' reroute family stays apart from the federation's.
// Every ClassStats row exports once per class in both formats, under the
// names the dashboards read.
TEST(StatsTable, ClassRowsReachBothFormatsPerClass) {
  ops::MetricsRegistry reg("t");
  ops::MetricsRegistry::Sample s;
  for (std::size_t c = 0; c < ops::kQosClasses; ++c)
    fill(s.total.classes[c], 10 * (c + 1));
  const std::string prom = reg.prometheus(s), js = reg.json(s);
  const char* const names[] = {"served", "rejected", "sla_violations"};
  const auto rows = ops::ClassStats::fields();
  ASSERT_EQ(rows.size(), std::size(names));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_STREQ(rows[i].name, names[i]);
    const std::string family = std::string("ftcs_class_") + names[i] + "_total";
    EXPECT_EQ(count_of(prom, "# TYPE " + family + " counter\n"), 1u) << family;
    for (std::size_t c = 0; c < ops::kQosClasses; ++c) {
      EXPECT_EQ(count_of(prom, "\n" + family + "{exchange=\"t\",class=\"" +
                                   std::to_string(c) + "\"} " +
                                   std::to_string(s.total.classes[c].*
                                                  rows[i].member) +
                                   "\n"),
                1u)
          << family << " class " << c;
    }
  }
  for (std::size_t c = 0; c < ops::kQosClasses; ++c) {
    const ops::ClassStats& cs = s.total.classes[c];
    const std::string entry =
        "{\"class\":" + std::to_string(c) +
        ",\"served\":" + std::to_string(cs.served) +
        ",\"rejected\":" + std::to_string(cs.rejected) +
        ",\"sla_violations\":" + std::to_string(cs.sla_violations) +
        ",\"count\":";
    EXPECT_EQ(count_of(js, entry), 1u) << entry;
  }
}

// The histogram's bucket bounds are formatted once, with the format each
// scrape used to print them with: every `le` reads %.9g of the bound.
TEST(MetricsRegistry, HistogramBucketLinesPrintEachBoundAsPercentNineG) {
  ops::MetricsRegistry reg("h");
  ops::MetricsRegistry::Sample s;
  for (std::size_t c = 0; c < ops::kQosClasses; ++c)
    s.total.classes[c].setup.record(1e-6 * static_cast<double>(c + 1));
  const std::string prom = reg.prometheus(s);
  for (std::size_t c = 0; c < ops::kQosClasses; ++c) {
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < ops::LatencyHistogram::kBuckets; ++b) {
      cum += s.total.classes[c].setup.bucket(b);
      char le[64];
      std::snprintf(le, sizeof le, "%.9g",
                    ops::LatencyHistogram::bucket_upper_seconds(b));
      const std::string line =
          "\nftcs_setup_latency_seconds_bucket{exchange=\"h\",class=\"" +
          std::to_string(c) + "\",le=\"" + le + "\"} " +
          std::to_string(cum) + "\n";
      EXPECT_EQ(count_of(prom, line), 1u) << line;
    }
  }
}

TEST(MetricsRegistry, FederatedSampleExportsRouterHighWaterAndFederationRows) {
  ops::MetricsRegistry reg("f");
  ops::MetricsRegistry::Sample s;
  s.federated = true;
  s.total.router.disconnects = 51;
  s.total.router.path_vertices = 52;
  s.total.router.vertices_visited = 53;
  s.total.queue_high_water = 61;
  s.delta.queue_high_water = 61;
  s.fed_total.reroute_succeeded = 41;
  s.fed_total.reroute_failed = 42;
  s.fed_total.handle_errors = 43;
  s.total.reroute_succeeded = 71;
  const std::string prom = reg.prometheus(s);
  const std::string js = reg.json(s);
  const std::size_t fed_at = js.find("\"federation\":{");
  ASSERT_NE(fed_at, std::string::npos);

  const std::pair<const char*, std::uint64_t> exchange_rows[] = {
      {"router_disconnects_total", 51},
      {"router_path_vertices_total", 52},
      {"router_vertices_visited_total", 53},
      {"queue_high_water", 61},
      {"reroute_succeeded_total", 71},
  };
  for (const auto& [name, v] : exchange_rows) {
    const std::string n = name;
    EXPECT_EQ(count_of(prom, "\nftcs_" + n + "{exchange=\"f\"} " +
                                 std::to_string(v) + "\n"),
              1u)
        << n;
    const auto total = json_section(js, "total");
    EXPECT_NE(std::find(total.begin(), total.end(), std::pair{n, v}),
              total.end())
        << n;
  }
  EXPECT_NE(prom.find("# TYPE ftcs_queue_high_water gauge\n"),
            std::string::npos);
  const auto delta = json_section(js, "delta");
  EXPECT_NE(std::find(delta.begin(), delta.end(),
                      std::pair<std::string, std::uint64_t>{
                          "queue_high_water", 61}),
            delta.end());

  const std::pair<const char*, std::uint64_t> fed_rows[] = {
      {"fed_reroute_succeeded_total", 41},
      {"fed_reroute_failed_total", 42},
      {"fed_handle_errors_total", 43},
  };
  const auto fed_total = json_section(js, "total", fed_at);
  for (const auto& [name, v] : fed_rows) {
    const std::string n = name;
    EXPECT_NE(prom.find("# TYPE ftcs_" + n + " counter\n"), std::string::npos)
        << n;
    EXPECT_EQ(count_of(prom, "\nftcs_" + n + "{exchange=\"f\"} " +
                                 std::to_string(v) + "\n"),
              1u)
        << n;
    EXPECT_NE(std::find(fed_total.begin(), fed_total.end(), std::pair{n, v}),
              fed_total.end())
        << n;
  }
}

// reset_stats() zeroes every table row and leaves the live state alone:
// calls up, switches down, the Lemma 7 short, trunk lines out of the pool.
TEST(StatsTable, ResetStatsZeroesEveryRowAndKeepsLiveState) {
  {
    const auto net = networks::build_crossbar(4);
    svc::Exchange ex(net);
    const auto c0 = ex.call({0, 0, 0, 1});
    const auto c1 = ex.call({1, 1, 0, 2});
    const auto c2 = ex.call({2, 2, 0, 3});
    ASSERT_TRUE(c0.connected() && c1.connected() && c2.connected());
    EXPECT_EQ(ex.hangup(c2.id), svc::RejectReason::kNone);
    EXPECT_EQ(ex.hangup(svc::CallId{}), svc::RejectReason::kStaleHandle);
    ex.submit({3, 3, 1, 4});
    ex.drain_all();
    // Open-fail switch (0,0): kills c0, whose reroute has no other path.
    const auto killed =
        ex.inject({0.0, net.g.out_edges(net.inputs[0])[0],
                   FaultEvent::Kind::kFail});
    EXPECT_EQ(killed.calls_killed(), 1u);
    // A crossbar weld contracts an input with an output: Lemma 7 short.
    ex.inject({0.0, net.g.out_edges(net.inputs[1])[2],
               FaultEvent::Kind::kStuckOn});
    ASSERT_TRUE(ex.shorted());
    const std::size_t active = ex.active_calls();
    const std::size_t failed = ex.failed_switch_count();
    EXPECT_EQ(active, 2u);
    EXPECT_EQ(failed, 2u);
    std::uint64_t before = 0;
    for (const FlatRow& r : flatten(ex.stats())) before += r.value;
    EXPECT_GT(before, 0u);

    ex.reset_stats();
    for (const FlatRow& r : flatten(ex.stats()))
      EXPECT_EQ(r.value, 0u) << r.label;
    for (const ops::ClassStats& c : ex.stats().classes)
      EXPECT_EQ(c.served + c.rejected + c.setup.count(), 0u);
    EXPECT_EQ(ex.active_calls(), active);
    EXPECT_EQ(ex.failed_switch_count(), failed);
    EXPECT_EQ(ex.stuck_switch_count(), 1u);
    EXPECT_TRUE(ex.shorted());
    EXPECT_TRUE(ex.last_short_alarm().has_value());
  }
  {
    const auto net = networks::build_cantor({4, 0});
    svc::Federation fed(net, 2);
    const auto intra = fed.call({fed.global_of(0, 0), fed.global_of(0, 1)});
    const auto inter =
        fed.call({fed.global_of(0, 2), fed.global_of(1, 2), 0, 9});
    ASSERT_TRUE(intra.connected() && inter.connected());
    EXPECT_EQ(fed.hangup(svc::FedCallId{}), svc::RejectReason::kStaleHandle);
    // Trunk fault under the inter call: torn down, re-admitted end-to-end.
    const svc::TrunkGroup& tg = fed.trunk_group(inter.trunk_group);
    std::uint32_t line = 0;
    while (!tg.line_busy(line)) ++line;
    EXPECT_EQ(fed.fail_trunk(inter.trunk_group, line).killed.size(), 1u);
    // A member switch fault.
    fed.inject(1, {0.0, net.g.out_edges(net.inputs[5])[0],
                   FaultEvent::Kind::kFail});
    const std::size_t active = fed.active_calls();
    const std::size_t inter_up = fed.active_inter_calls();
    const std::uint32_t usable = tg.usable();
    const std::size_t failed = fed.member(1).failed_switch_count();
    const bool shorted = fed.member(1).shorted();
    EXPECT_EQ(failed, 1u);
    EXPECT_LT(usable, tg.capacity());
    std::uint64_t before = 0;
    for (const FlatRow& r : flatten(fed.stats())) before += r.value;
    EXPECT_GT(before, 0u);

    fed.reset_stats();
    for (const FlatRow& r : flatten(fed.stats()))
      EXPECT_EQ(r.value, 0u) << r.label;
    EXPECT_EQ(fed.active_calls(), active);
    EXPECT_EQ(fed.active_inter_calls(), inter_up);
    EXPECT_EQ(tg.usable(), usable);
    EXPECT_EQ(fed.member(1).failed_switch_count(), failed);
    EXPECT_EQ(fed.member(1).shorted(), shorted);
  }
}

// The plane checks every operator coordinate before it touches anything: a
// shard, switch id, trunk group or line out of range acks kInvalid with the
// bound in its text, and no member, trunk or book moves. A solo plane is
// one shard.
TEST(ControlPlane, OutOfRangeCoordinatesAckInvalidAndTouchNothing) {
  const auto values = [](const auto& stats) {
    std::vector<std::uint64_t> v;
    for (const FlatRow& r : flatten(stats)) v.push_back(r.value);
    return v;
  };
  const auto net = networks::build_cantor({4, 0});
  const auto switches = static_cast<graph::EdgeId>(net.g.edge_count());
  const auto expect_invalid = [](const ops::Ack& a, const std::string& text) {
    EXPECT_EQ(a.status, ops::AckStatus::kInvalid) << a.text;
    EXPECT_EQ(a.text, text);
    EXPECT_EQ(a.calls_killed, 0u);
  };
  {
    svc::Federation fed(net, 2);
    ASSERT_TRUE(
        fed.call({fed.global_of(0, 0), fed.global_of(1, 0), 0, 1}).connected());
    ops::ControlPlane control(fed, "f");
    auto& q = control.queue();
    const auto before = values(fed.stats());
    const std::uint32_t groups = fed.trunk_group_count();
    const std::uint32_t lines = fed.trunk_group(0).capacity();
    // Shard 2 of 2 used to land on member 0.
    const auto t_shard = q.post(
        {ops::CommandKind::kInject, {0.0, 5, FaultEvent::Kind::kFail}, 2});
    const auto t_switch = q.post(
        {ops::CommandKind::kInject, {0.0, switches, FaultEvent::Kind::kFail},
         1});
    const auto t_repair = q.post({ops::CommandKind::kRepair,
                                  {0.0, graph::kNoEdge,
                                   FaultEvent::Kind::kRepair},
                                  0});
    const auto t_group = q.post({ops::CommandKind::kTrunkFault, {}, groups, 0});
    const auto t_line = q.post({ops::CommandKind::kTrunkRepair, {}, 0, lines});
    EXPECT_EQ(control.pump(), 5u);
    expect_invalid(q.wait(t_shard), "shard 2 out of range (must be < 2)");
    expect_invalid(q.wait(t_switch),
                   "switch " + std::to_string(switches) +
                       " out of range (must be < " + std::to_string(switches) +
                       ")");
    expect_invalid(q.wait(t_repair),
                   "switch " + std::to_string(graph::kNoEdge) +
                       " out of range (must be < " + std::to_string(switches) +
                       ")");
    expect_invalid(q.wait(t_group),
                   "trunk group " + std::to_string(groups) +
                       " out of range (must be < " + std::to_string(groups) +
                       ")");
    expect_invalid(q.wait(t_line),
                   "trunk line " + std::to_string(lines) +
                       " out of range (must be < " + std::to_string(lines) +
                       ")");
    for (unsigned s = 0; s < fed.shards(); ++s)
      EXPECT_EQ(fed.member(s).failed_switch_count(), 0u) << "member " << s;
    for (std::uint32_t g = 0; g < groups; ++g)
      EXPECT_EQ(fed.trunk_group(g).usable(), fed.trunk_group(g).capacity());
    EXPECT_EQ(fed.active_inter_calls(), 1u);
    EXPECT_EQ(values(fed.stats()), before);
  }
  {
    svc::Exchange ex(net);
    ASSERT_TRUE(ex.call({0, 1, 0, 1}).connected());
    ops::ControlPlane control(ex, "s");
    auto& q = control.queue();
    const auto before = values(ex.stats());
    const auto t_switch = q.post(
        {ops::CommandKind::kInject, {0.0, switches, FaultEvent::Kind::kFail},
         0});
    const auto t_shard = q.post(
        {ops::CommandKind::kInject, {0.0, 5, FaultEvent::Kind::kStuckOn}, 1});
    EXPECT_EQ(control.pump(), 2u);
    expect_invalid(q.wait(t_switch),
                   "switch " + std::to_string(switches) +
                       " out of range (must be < " + std::to_string(switches) +
                       ")");
    expect_invalid(q.wait(t_shard), "shard 1 out of range (must be < 1)");
    EXPECT_EQ(ex.failed_switch_count(), 0u);
    EXPECT_EQ(ex.active_calls(), 1u);
    EXPECT_EQ(values(ex.stats()), before);
  }
}

// Acceptance criteria: 4 submitter threads race the serving thread
// (racing_submitters.hpp) while a separate operator thread posts
// inject/repair/query/snapshot commands through ops::CommandQueue — no
// races, acks match effects, busy state balances after the final hangups.
// The serving thread drains, pumps the command queue and hangs calls up:
// it is the one thread running the exchange's serialized entries. The
// submitters ALSO post queries mid-flight and wait for their acks,
// exercising the multi-producer side of the queue. TSan-run.
TEST(OpsControlPlane, OperatorCommandsRaceSubmittersSafely) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSubmitters = 4;
  svc::ExchangeConfig cfg;
  cfg.class_deadlines = {0.0, 0.0, 0.0, 1e-9};
  svc::Exchange ex(net, std::move(cfg));
  ops::ControlPlane control(ex, "churn");

  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(4e-4), net.g.edge_count(),
      /*horizon=*/250.0, /*mean_repair=*/15.0, /*seed=*/97);
  ASSERT_GT(schedule.fail_count(), 10u);

  std::atomic<bool> operator_done{false};
  std::vector<svc::Outcome> strays;  // connected reroutes (operator-owned)

  // The operator: drives the storm through the command feed, checks every
  // ack against the effect it reports.
  std::thread oper([&] {
    std::uint64_t last_accepted = 0;
    int i = 0;
    for (const auto& ev : schedule.events()) {
      ops::Command cmd;
      cmd.kind = ev.kind == FaultEvent::Kind::kRepair
                     ? ops::CommandKind::kRepair
                     : ops::CommandKind::kInject;
      cmd.event = ev;
      const auto ack = control.queue().wait(control.queue().post(cmd));
      EXPECT_TRUE(ack.status == ops::AckStatus::kOk ||
                  ack.status == ops::AckStatus::kNoop);
      EXPECT_EQ(ack.calls_killed,
                ack.reroute_succeeded + ack.reroute_failed);
      EXPECT_EQ(ack.killed.size(), ack.reroutes.size());
      for (const auto& re : ack.reroutes) {
        if (re.connected()) strays.push_back(re);
      }
      if (ack.alarm) {
        EXPECT_EQ(ack.alarm->raised, ack.shorted);
      }
      if (++i % 16 == 0) {
        const auto q = control.queue().wait(
            control.queue().post({ops::CommandKind::kQuery, {}, 0}));
        EXPECT_GE(q.stats.router.accepted, last_accepted);  // monotone
        last_accepted = q.stats.router.accepted;
      }
      if (i % 64 == 0) {
        const auto snap = control.queue().wait(control.queue().post(
            {ops::CommandKind::kSnapshot, {},
             static_cast<std::uint64_t>(ops::SnapshotFormat::kJson)}));
        EXPECT_EQ(snap.text.front(), '{');
      }
    }
    operator_done.store(true, std::memory_order_release);
  });

  test::Race race{kSubmitters, 2000, 811};
  // Multi-producer side: submitters query the control plane too, and wait
  // for the serving thread to pump the ack.
  race.after_submit = [&](unsigned, std::uint64_t i) {
    if (i % 500 != 499) return;
    const auto ack = control.queue().wait(
        control.queue().post({ops::CommandKind::kQuery, {}, 0}));
    EXPECT_EQ(ack.kind, ops::CommandKind::kQuery);
  };
  std::vector<svc::CallId> held;
  util::Xoshiro256 rng(util::derive_seed(811, 99));
  const auto serve = [&](std::size_t) {
    control.pump();
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
  };
  test::race_submitters(
      ex, race,
      [&](const svc::Outcome& o) {
        if (o.connected()) held.push_back(o.id);
      },
      serve);
  // The operator may outlast the submitters: keep serving its commands.
  while (!operator_done.load(std::memory_order_acquire)) {
    serve(ex.drain());
    std::this_thread::yield();
  }
  oper.join();

  // Wind-down: the operator has stopped, so this thread reads its strays.
  control.queue().post({ops::CommandKind::kQuiesce, {}, 0});
  control.pump();
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
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.accepted, st.hangups + st.calls_killed_by_fault);
  EXPECT_EQ(st.calls_killed_by_fault,
            st.reroute_succeeded + st.reroute_failed);
  EXPECT_GT(st.faults_injected, 0u);
  // The QoS books saw the churn (the batched plane always books them).
  std::uint64_t served = 0;
  for (const auto& c : st.classes) served += c.served;
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace ftcs
