// storm-fed: an svc::Federation of four cantor-k7 members (full trunk mesh,
// greedy members, immediate plane) under a fault storm. Callers are idle
// subscribers and callees uniform, with 20% of calls crossing to another
// member over a trunk. Occupancy is held near half the subscribers: each
// step hangs up a random live call with probability live/subscribers, else
// dials.
//
// Time is counted in epochs of 256 steps. Each member gets a seeded
// FaultSchedule of open and stuck-on switch failures with repairs, applied
// through Federation::inject/repair, and the trunk lines get their own
// schedule, applied through fail_trunk/repair_trunk. Every 16 epochs an
// ops::MetricsRegistry scrapes the federation. Topology writes therefore sit
// beside call set-ups: the fault plane, trunk claims, half-calls and export
// all do real work here, and nowhere else in the benchmark.
#include <algorithm>
#include <memory>

#include "fault/schedule.hpp"
#include "networks/cantor.hpp"
#include "ops/metrics.hpp"
#include "svc/federation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftcs;

constexpr std::uint32_t kOrder = 7;
constexpr unsigned kShards = 4;
constexpr double kInterFraction = 0.2;
constexpr std::uint64_t kEpochOps = 256;
constexpr std::uint64_t kScrapeEpochs = 16;
constexpr double kSwitchHazard = 2e-4;  // failures per switch per epoch
constexpr double kSwitchRepair = 8.0;   // mean epochs to repair
constexpr double kStuckFraction = 0.25;
// Failures per trunk line per epoch. With the repair time below, about 29%
// of the lines are down at a time, so trunk-busy blocks ~0.25% of requests:
// enough blocked calls per run that nonblocked_frac can hold a tight bound.
constexpr double kLineHazard = 5e-2;
constexpr double kLineRepair = 8.0;
constexpr double kOpsPerSecond = 50'000;  // nominal on the reference box
constexpr std::size_t kRounds = 32;
constexpr std::uint32_t kTrunkSource = kShards;  // Event::source of a line

/// One scheduled topology write, due before traffic step `op`.
struct Event {
  std::uint64_t op = 0;
  std::uint32_t source = 0;  // member shard, or kTrunkSource
  fault::FaultEvent ev;
};

struct Storm {
  std::vector<Event> events;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lines;  // (group, line)
};

/// Member switch schedules and the trunk-line schedule, merged in step
/// order (members first, then trunks, within one step).
Storm make_storm(const svc::Federation& fed, std::size_t switches,
                 double horizon_epochs, std::uint64_t seed) {
  Storm s;
  const auto add = [&](const fault::FaultSchedule& fs, std::uint32_t source) {
    for (const fault::FaultEvent& ev : fs.events())
      s.events.push_back(
          {static_cast<std::uint64_t>(ev.time * kEpochOps), source, ev});
  };
  for (std::uint32_t m = 0; m < kShards; ++m)
    add(fault::FaultSchedule(switches,
                             {kSwitchHazard, kSwitchRepair, horizon_epochs,
                              kStuckFraction, util::derive_seed(seed, 10 + m)}),
        m);
  for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g)
    for (std::uint32_t l = 0; l < fed.trunk_group(g).capacity(); ++l)
      s.lines.push_back({g, l});
  add(fault::FaultSchedule(s.lines.size(),
                           {kLineHazard, kLineRepair, horizon_epochs, 0.0,
                            util::derive_seed(seed, 20)}),
      kTrunkSource);
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const Event& a, const Event& b) { return a.op < b.op; });
  return s;
}

struct Books {
  std::uint64_t offered = 0, carried = 0, callee_busy = 0, blocked = 0,
                inter_offered = 0, trunk_busy = 0, hangups = 0;
  std::uint64_t events = 0, killed = 0, rerouted = 0, dropped = 0,
                mates_torn_down = 0, scrapes = 0;
};

struct Loop {
  svc::Federation& fed;
  const Storm& storm;
  Tracer& tr;
  Report& rep;
  util::Xoshiro256 rng;
  std::uint32_t subs;  // subscribers per member
  std::uint32_t n = subs * kShards;
  ops::MetricsRegistry registry{"storm-fed"};
  TerminalSet idle_in{n, true}, live{n, false};
  std::vector<std::uint8_t> out_busy = std::vector<std::uint8_t>(n);
  std::vector<svc::FedCallId> handle = std::vector<svc::FedCallId>(n);
  std::vector<std::uint32_t> callee = std::vector<std::uint32_t>(n);
  std::vector<std::vector<std::uint8_t>> down{};  // [shard][switch] failed
  std::vector<std::uint8_t> line_down = std::vector<std::uint8_t>(
      storm.lines.size());
  std::uint64_t op = 0;
  std::size_t next_event = 0;
  std::vector<double>* setup_us = nullptr;  // set while sampling latency
  std::vector<double> pause_us{};           // topology events while traced
  Books b{};

  void step() {
    while (next_event < storm.events.size() &&
           storm.events[next_event].op <= op)
      apply(storm.events[next_event++]);
    if (op % (kScrapeEpochs * kEpochOps) == 0) scrape();
    if (!live.empty() && rng.below(n) < live.size())
      hang(live.pick(rng));
    else
      dial();
    ++op;
  }

  void dial() {
    const std::uint32_t in = idle_in.pick(rng);
    const std::uint32_t sa = fed.shard_of(in);
    std::uint32_t sb = sa;
    if (rng.bernoulli(kInterFraction)) {
      sb = static_cast<std::uint32_t>(rng.below(kShards - 1));
      if (sb >= sa) ++sb;
    }
    const std::uint32_t out =
        fed.global_of(sb, static_cast<std::uint32_t>(rng.below(subs)));
    const bool busy = out_busy[out] != 0;
    const std::int64_t t0 = now_ns();
    const svc::FedOutcome o = fed.call({in, out, 0, in});
    const std::int64_t t1 = now_ns();
    tr.record(sa == sb ? Layer::kFedIntra : Layer::kFedInter, t0, t1);
    if (setup_us) setup_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
    ++b.offered;
    if (sa != sb) ++b.inter_offered;
    if (o.connected()) {
      rep.check(!busy, "storm-fed: connected to a busy callee");
      ++b.carried;
      live.insert(in);
      idle_in.erase(in);
      handle[in] = o.id;
      callee[in] = out;
      out_busy[out] = 1;
    } else if (o.reject == svc::RejectReason::kTerminalBusy) {
      ++b.callee_busy;
      rep.check(busy, "storm-fed: idle callee answered busy");
    } else if (is_blocking(o.reject)) {
      ++b.blocked;
      if (o.reject == svc::RejectReason::kTrunkBusy) ++b.trunk_busy;
    } else {
      rep.fail(std::string("storm-fed: call got ") + svc::to_string(o.reject));
    }
  }

  void hang(std::uint32_t in) {
    const std::int64_t t0 = tr.begin();
    const svc::RejectReason r = fed.hangup(handle[in]);
    tr.end(Layer::kFedHangup, t0);
    rep.check(r == svc::RejectReason::kNone, "storm-fed: hangup refused");
    ++b.hangups;
    release(in);
  }

  void release(std::uint32_t in) {
    live.erase(in);
    idle_in.insert(in);
    out_busy[callee[in]] = 0;
  }

  /// A killed call keeps its caller's books if the federation carried it
  /// again, and is dropped otherwise.
  void victims(const std::vector<svc::FedOutcome>& dead,
               const std::vector<svc::FedOutcome>& reroutes) {
    for (std::size_t k = 0; k < dead.size(); ++k) {
      const auto in = static_cast<std::uint32_t>(dead[k].tag);
      rep.check(live.contains(in), "storm-fed: fault killed an unknown call");
      ++b.killed;
      if (reroutes[k].connected()) {
        ++b.rerouted;
        handle[in] = reroutes[k].id;
      } else {
        ++b.dropped;
        release(in);
      }
    }
  }

  void apply(const Event& e) {
    using Kind = fault::FaultEvent::Kind;
    const bool repair = e.ev.kind == Kind::kRepair;
    const std::int64_t t0 = now_ns();
    Layer layer = Layer::kTrunkEvent;
    if (e.source == kTrunkSource) {
      const auto [g, l] = storm.lines[e.ev.edge];
      const svc::TrunkFaultImpact imp =
          repair ? fed.repair_trunk(g, l) : fed.fail_trunk(g, l);
      victims(imp.killed, imp.reroutes);
      line_down[e.ev.edge] = repair ? 0 : 1;
    } else {
      layer = repair ? Layer::kRepair : Layer::kInject;
      const svc::FedFaultImpact imp =
          repair ? fed.repair(e.source, e.ev) : fed.inject(e.source, e.ev);
      victims(imp.killed, imp.reroutes);
      b.mates_torn_down += imp.mates_torn_down;
      down[e.source][e.ev.edge] = repair ? 0 : 1;
    }
    const std::int64_t t1 = now_ns();
    tr.record(layer, t0, t1);
    if (tr.on) pause_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    ++b.events;
  }

  void scrape() {
    const std::int64_t t0 = tr.begin();
    registry.scrape_prometheus(fed);
    tr.end(Layer::kScrape, t0);
    ++b.scrapes;
  }

  /// Hangs up every call and repairs every switch and line still down.
  void quiesce() {
    for (std::uint32_t in = 0; in < n; ++in)
      if (live.contains(in)) hang(in);
    for (std::uint32_t m = 0; m < kShards; ++m)
      for (std::size_t e = 0; e < down[m].size(); ++e)
        if (down[m][e])
          fed.repair(m, {0.0, static_cast<graph::EdgeId>(e),
                         fault::FaultEvent::Kind::kRepair});
    for (std::size_t i = 0; i < line_down.size(); ++i)
      if (line_down[i]) fed.repair_trunk(storm.lines[i].first, storm.lines[i].second);
  }
};

}  // namespace

Report run_storm_fed(const Options& o) {
  Report rep;
  EndToEnd e2e;
  PerLayer pl;

  const std::size_t ops = op_count(o, kOpsPerSecond, kRounds);
  // Warm-up covers several repair times, so the storm is at its steady
  // level of failed switches when measurement starts.
  const std::size_t warmup = static_cast<std::size_t>(4 * kSwitchRepair) * kEpochOps;
  const double horizon =
      static_cast<double>(warmup + ops) / static_cast<double>(kEpochOps) + 1;

  std::unique_ptr<graph::Network> net;
  std::unique_ptr<svc::Federation> fed;
  Storm storm;
  std::vector<double> build, construct, schedule;
  e2e.setup_s = median_seconds(kSetupReps, [&] {
    fed.reset();
    net.reset();
    storm = {};
    const std::int64_t t0 = now_ns();
    net = std::make_unique<graph::Network>(networks::build_cantor({kOrder, 0}));
    const std::int64_t t1 = now_ns();
    fed = std::make_unique<svc::Federation>(*net, kShards);
    const std::int64_t t2 = now_ns();
    storm = make_storm(*fed, net->g.edge_count(), horizon, o.seed);
    const std::int64_t t3 = now_ns();
    build.push_back(static_cast<double>(t1 - t0) * 1e-9);
    construct.push_back(static_cast<double>(t2 - t1) * 1e-9);
    schedule.push_back(static_cast<double>(t3 - t2) * 1e-9);
  });
  pl.build_s = median(build);
  pl.construct_s = median(construct);
  pl.schedule_s = median(schedule);

  Tracer tr;
  Loop loop{*fed, storm, tr, rep, util::Xoshiro256(util::derive_seed(o.seed, 1)),
            fed->subscribers_per_member()};
  loop.down.assign(kShards, std::vector<std::uint8_t>(net->g.edge_count()));
  for (std::size_t i = 0; i < warmup; ++i) loop.step();

  const svc::FederationStats before = fed->stats();
  const Books start = loop.b;
  Rounds traced;
  for (std::size_t r = 0; r < kRounds; ++r) {
    tr.on = o.trace && r % 2 == 1;
    const PinnedRound pin(r);
    loop.setup_us = tr.on ? nullptr : &e2e.rounds.setup_us;
    const std::uint64_t off0 = loop.b.offered, car0 = loop.b.carried;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ops / kRounds; ++i) loop.step();
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    (tr.on ? traced : e2e.rounds)
        .close(secs, loop.b.carried - car0, loop.b.offered - off0);
  }
  tr.on = false;
  loop.setup_us = nullptr;
  svc::FederationStats work = fed->stats();
  work -= before;
  const auto delta = [&](std::uint64_t Books::*field) {
    return loop.b.*field - start.*field;
  };
  const std::uint64_t offered = delta(&Books::offered),
                      carried = delta(&Books::carried),
                      events = delta(&Books::events),
                      killed = delta(&Books::killed),
                      rerouted = delta(&Books::rerouted),
                      dropped = delta(&Books::dropped);

  loop.quiesce();
  const svc::FederationStats fs = fed->stats();
  rep.check(fed->active_calls() == 0, "storm-fed: calls left after hangup-all");
  rep.check(fed->active_inter_calls() == 0,
            "storm-fed: inter calls left after hangup-all");
  rep.check(fed->busy_vertices() == 0, "storm-fed: busy vertices at quiescence");
  bool trunks_idle = true;
  for (std::uint32_t g = 0; g < fed->trunk_group_count(); ++g)
    trunks_idle = trunks_idle && fed->trunk_group(g).occupancy() == 0;
  rep.check(trunks_idle, "storm-fed: trunk lines held at quiescence");
  rep.check(fs.trunks.claims == fs.trunks.releases,
            "storm-fed: trunk claims != releases at quiescence");
  rep.check(fs.members.router.accepted == fs.members.router.disconnects,
            "storm-fed: accepted != disconnects at quiescence");
  const std::uint64_t readmits = fs.calls_killed_by_trunk_fault + fs.mates_torn_down;
  rep.check(fs.intra_calls + fs.inter_calls == loop.b.offered + readmits,
            "storm-fed: federation call books differ from offered traffic");
  rep.check(fs.reroute_succeeded + fs.reroute_failed == readmits,
            "storm-fed: end-to-end reroute books differ");
  rep.check(fs.inter_connected == fs.inter_hangups + readmits,
            "storm-fed: inter-call books do not balance");

  rep.attempted = offered;
  e2e.offered = offered;
  e2e.blocked = delta(&Books::blocked);
  if (o.trace) {
    const core::RouterStats& w = work.members.router;
    const auto calls = static_cast<double>(w.connect_calls);
    pl.visits_per_call = ratio(static_cast<double>(w.vertices_visited), calls);
    pl.bottom_up_per_call = ratio(static_cast<double>(w.bottom_up_levels), calls);
    pl.path_vertices_per_call = ratio(static_cast<double>(w.path_vertices),
                                      static_cast<double>(w.accepted));
    pl.callee_busy_frac = ratio(static_cast<double>(delta(&Books::callee_busy)),
                                static_cast<double>(offered));
    pl.fed_intra_call_ns = tr.mean_ns(Layer::kFedIntra);
    pl.fed_inter_call_ns = tr.mean_ns(Layer::kFedInter);
    pl.trunk_busy_frac = ratio(static_cast<double>(delta(&Books::trunk_busy)),
                               static_cast<double>(delta(&Books::inter_offered)));
    pl.fed_hangup_ns = tr.mean_ns(Layer::kFedHangup);
    pl.killed_per_event = ratio(static_cast<double>(killed),
                                static_cast<double>(events));
    pl.reroute_success_frac = ratio(static_cast<double>(rerouted),
                                    static_cast<double>(killed));
    pl.mates_torn_down_per_event =
        ratio(static_cast<double>(delta(&Books::mates_torn_down)),
              static_cast<double>(events));
    pl.dropped_frac = ratio(static_cast<double>(dropped),
                            static_cast<double>(carried));
    pl.pause_p99_us = quantile(loop.pause_us, 0.99);
    pl.from_tracer(tr, e2e.rounds, traced,
                   {Layer::kFedIntra, Layer::kFedInter, Layer::kFedHangup,
                    Layer::kInject, Layer::kRepair, Layer::kTrunkEvent,
                    Layer::kScrape});
    pl.emit(rep);
  } else {
    e2e.emit(rep);
  }
  if (!tr.write(o.spans_path)) rep.fail("storm-fed: cannot write spans");

  rep.count("offered", offered);
  rep.count("carried", carried);
  rep.count("callee_busy", delta(&Books::callee_busy));
  rep.count("blocked", delta(&Books::blocked));
  rep.count("trunk_busy", delta(&Books::trunk_busy));
  rep.count("inter_offered", delta(&Books::inter_offered));
  rep.count("hangups", delta(&Books::hangups));
  rep.count("topology_events", events);
  rep.count("killed", killed);
  rep.count("rerouted", rerouted);
  rep.count("dropped", dropped);
  rep.count("mates_torn_down", delta(&Books::mates_torn_down));
  rep.count("scrapes", delta(&Books::scrapes));
  rep.count("router_connect_calls", work.members.router.connect_calls);
  rep.count("router_vertices_visited", work.members.router.vertices_visited);
  rep.count("router_path_vertices", work.members.router.path_vertices);
  rep.count("trunk_claims", work.trunks.claims);
  rep.count("half_calls_routed", work.half_calls_routed);
  rep.scale = {{"shards", kShards},
               {"subscribers", loop.n},
               {"member_vertices", net->g.vertex_count()},
               {"member_switches", net->g.edge_count()},
               {"trunk_lines", storm.lines.size()},
               {"scheduled_events", storm.events.size()},
               {"warmup_ops", warmup},
               {"measured_ops", ops},
               {"rounds", kRounds}};
  return rep;
}

}  // namespace perfbench
