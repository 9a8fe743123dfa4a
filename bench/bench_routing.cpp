// E13 — "no difficult computations are involved": greedy routing cost on
// repaired instances, as google-benchmark timings plus a success table.
//
// The paper's §4 observations: (1) repair = discard faulty vertices (no
// search), (2) routing on the surviving strictly-nonblocking network =
// greedy path search (any idle path will do). We time both primitives and report the success rate of
// routing full random permutations on damaged instances.
//
// The churn workloads are served through svc::Exchange — the service facade
// every consumer now speaks — on the greedy backend (--json), the sharded
// concurrent backend (--threads=K immediate plane), the batched admission
// front-end (--batch=N epochs at the max worker count), and the runtime
// fault plane (--faults=EPS: the batched churn degraded by live switch
// fail/repair events, eps swept in decades). BM_GreedyConnect vs
// BM_ExchangeCall isolates the facade's handle + classification overhead
// over the raw router. The locality plane gets its own A/B series: the
// affinity sweep (drain pool pinned none/spread/compact with homed
// sessions). --grow records the hitless-growth series: churn calls/sec
// before/during/after doubling the exchange live, with the merge's quiesce
// pause and a measured (must-be-zero) kill count. --repeat=K records the
// median-of-K run per point and stamps "repeats" into the JSON so the
// regression gate can tighten.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/digraph.hpp"
#include "util/cpu_topology.hpp"

#include "bench_common.hpp"
#include "fault/fault_instance.hpp"
#include "fault/repair.hpp"
#include "fault/schedule.hpp"
#include "ftcs/monte_carlo.hpp"
#include "ftcs/router.hpp"
#include "ftcs/verify.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/admission.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcs;

const core::FtNetwork& shared_ft(std::uint32_t nu) {
  static std::map<std::uint32_t, core::FtNetwork> cache;
  auto it = cache.find(nu);
  if (it == cache.end())
    it = cache.emplace(nu, core::build_ft_network(core::FtParams::sim(nu, 8, 6, 1, 3)))
             .first;
  return it->second;
}

void BM_FaultSampling(benchmark::State& state) {
  const auto& ft = shared_ft(static_cast<std::uint32_t>(state.range(0)));
  const auto model = fault::FaultModel::symmetric(1e-4);
  std::uint64_t seed = 0;
  std::vector<fault::Failure> buffer;
  for (auto _ : state) {
    fault::sample_failures_into(model, ft.net.g.edge_count(), ++seed, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ft.net.g.edge_count()));
}
BENCHMARK(BM_FaultSampling)->Arg(1)->Arg(2)->Arg(3);

void BM_RepairByDiscard(benchmark::State& state) {
  const auto& ft = shared_ft(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    fault::FaultInstance inst(ft.net, fault::FaultModel::symmetric(1e-3), ++seed);
    benchmark::DoNotOptimize(inst.faulty_vertices().data());
  }
}
BENCHMARK(BM_RepairByDiscard)->Arg(1)->Arg(2)->Arg(3);

void BM_GreedyConnect(benchmark::State& state) {
  const auto& ft = shared_ft(static_cast<std::uint32_t>(state.range(0)));
  core::GreedyRouter router(ft.net);
  const auto n = static_cast<std::uint32_t>(ft.n());
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto call = router.connect(i % n, (i * 7 + 3) % n);
    if (call != core::GreedyRouter::kNoCall) router.disconnect(call);
    ++i;
  }
}
BENCHMARK(BM_GreedyConnect)->Arg(1)->Arg(2)->Arg(3);

// Same loop through the service facade: the delta over BM_GreedyConnect is
// the cost of typed outcomes + generation-tagged handles.
void BM_ExchangeCall(benchmark::State& state) {
  const auto& ft = shared_ft(static_cast<std::uint32_t>(state.range(0)));
  svc::Exchange exchange(ft.net, {});
  const auto n = static_cast<std::uint32_t>(ft.n());
  std::uint32_t i = 0;
  for (auto _ : state) {
    const svc::Outcome o = exchange.call({i % n, (i * 7 + 3) % n});
    if (o.connected()) exchange.hangup(o.id);
    ++i;
  }
}
BENCHMARK(BM_ExchangeCall)->Arg(1)->Arg(2)->Arg(3);

void BM_Theorem2Trial(benchmark::State& state) {
  const auto& ft = shared_ft(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto r =
        core::theorem2_trial(ft, fault::FaultModel::symmetric(1e-4), ++seed);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Theorem2Trial)->Arg(1)->Arg(2);

void print_success_table() {
  std::cout << "\n==== E13 (greedy routing on damaged instances) ====\n"
               "Full random permutation, greedy path search, restart budget 20.\n\n";
  util::Table t({"nu", "n", "eps", "routed", "attempts"});
  for (std::uint32_t nu : {1u, 2u}) {
    const auto& ft = shared_ft(nu);
    for (double eps : {1e-4, 1e-3}) {
      std::size_t ok = 0;
      const std::size_t attempts = 20;
      for (std::uint64_t s = 0; s < attempts; ++s) {
        fault::FaultInstance inst(ft.net, fault::FaultModel::symmetric(eps),
                                  util::derive_seed(5, s));
        util::Xoshiro256 rng(util::derive_seed(6, s));
        std::vector<std::uint32_t> perm(ft.n());
        std::iota(perm.begin(), perm.end(), 0u);
        util::shuffle(perm, rng);
        const auto faulty = inst.faulty_non_terminal_mask();
        if (core::route_permutation_greedy(
                ft.net, perm, 20, s,
                std::vector<std::uint8_t>(faulty.begin(), faulty.end())))
          ++ok;
      }
      t.add(nu, ft.n(), eps, ok, attempts);
    }
  }
  t.print(std::cout);
}

// ---------------------------------------------------------------------------
// --json=PATH smoke mode: a fixed deterministic connect/disconnect churn on a
// few networks, served through svc::Exchange on the greedy backend and
// reporting aggregate call()s/sec. The emitted file preserves any
// "baseline_calls_per_sec" already present at PATH, so the committed
// pre-refactor baseline survives re-runs and CI can track speedup.

struct ChurnMeasure {
  std::string name;
  std::size_t connects = 0;
  double seconds = 0.0;
  core::RouterStats stats;  // settled-path lengths and visit counts
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
  [[nodiscard]] double mean_path_vertices() const {
    return stats.accepted ? static_cast<double>(stats.path_vertices) /
                                static_cast<double>(stats.accepted)
                          : 0.0;
  }
  [[nodiscard]] double visits_per_connect() const {
    return stats.connect_calls ? static_cast<double>(stats.vertices_visited) /
                                     static_cast<double>(stats.connect_calls)
                               : 0.0;
  }
};

/// --repeat=K noise control: runs `run` K times and keeps the run with the
/// MEDIAN calls/sec (the whole measurement rides along, so every recorded
/// counter comes from one coherent run, not a mix). K=1 is a plain call.
template <class F>
auto median_of(std::size_t repeats, F&& run) {
  auto first = run();
  if (repeats <= 1) return first;
  std::vector<decltype(first)> samples;
  samples.reserve(repeats);
  samples.push_back(std::move(first));
  for (std::size_t r = 1; r < repeats; ++r) samples.push_back(run());
  std::sort(samples.begin(), samples.end(), [](const auto& a, const auto& b) {
    return a.calls_per_sec() < b.calls_per_sec();
  });
  return samples[samples.size() / 2];
}

ChurnMeasure churn_workload(const std::string& name, const graph::Network& net,
                            std::size_t ops) {
  svc::Exchange exchange(net, {});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(util::derive_seed(13, 0));
  const auto next = [&rng] { return rng(); };
  std::vector<svc::CallId> active;
  active.reserve(n);
  std::size_t connects = 0;
  const auto step = [&] {
    if (!active.empty() && (next() & 3u) == 0) {
      const auto idx = next() % active.size();
      exchange.hangup(active[idx]);
      active[idx] = active.back();
      active.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(next() % n);
      const auto out = static_cast<std::uint32_t>(next() % n);
      const svc::Outcome o = exchange.call({in, out});
      ++connects;
      if (o.connected()) active.push_back(o.id);
    }
  };
  for (std::size_t i = 0; i < ops / 10; ++i) step();  // warmup
  connects = 0;
  exchange.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) step();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return {name, connects, dt, exchange.stats().router};
}

// ---------------------------------------------------------------------------
// --grow: hitless-growth series. One Exchange on cantor-k5 serves immediate
// churn in three phases: `before` on the base topology; `during`, a timed
// window that brackets the Exchange::grow merge itself (half the ops, the
// grow, the other half dialing the doubled line range); `after`, steady
// state on the grown topology. calls_killed is MEASURED — active_calls()
// immediately before vs after the merge — so the recorded 0 is an
// observation, not a copy of the report's by-design field.

struct GrowthPhase {
  const char* phase = "";
  std::size_t connects = 0;
  double seconds = 0.0;
  // `during` only:
  double quiesce_ms = 0.0;
  std::uint64_t calls_remapped = 0;
  std::uint64_t calls_killed = 0;
  std::size_t switches_added = 0;
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
};

struct GrowthMeasure {
  std::string base_name;
  std::string grown_name;
  std::vector<GrowthPhase> phases;
  // median_of keys on the during-phase rate — the window the gate watches.
  [[nodiscard]] double calls_per_sec() const {
    return phases.size() > 1 ? phases[1].calls_per_sec() : 0.0;
  }
};

GrowthMeasure growth_churn(std::size_t ops) {
  const auto base = networks::build_cantor({5, 0});
  svc::Exchange exchange(base, {});
  util::Xoshiro256 rng(util::derive_seed(29, 0));
  std::vector<svc::CallId> active;
  std::size_t connects = 0;
  const auto step = [&](std::uint32_t lines) {
    if (!active.empty() && (rng() & 3u) == 0) {
      const auto idx = rng() % active.size();
      exchange.hangup(active[idx]);  // pre-growth handles stay valid after
      active[idx] = active.back();
      active.pop_back();
    } else {
      const auto in = static_cast<std::uint32_t>(rng() % lines);
      const auto out = static_cast<std::uint32_t>(rng() % lines);
      const svc::Outcome o = exchange.call({in, out});
      ++connects;
      if (o.connected()) active.push_back(o.id);
    }
  };
  const auto elapsed = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto n0 = static_cast<std::uint32_t>(base.inputs.size());
  GrowthMeasure m;
  m.base_name = base.name;
  for (std::size_t i = 0; i < ops / 10; ++i) step(n0);  // warmup

  connects = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) step(n0);
  m.phases.push_back({"before", connects, elapsed(t0)});

  // Plan outside the window (planning is operator-side work); the merge —
  // the only part live calls can feel — is inside.
  svc::GrowthPlan plan;
  plan.grown = networks::grow_cantor(exchange.network(), {5, 0});
  GrowthPhase during;
  during.phase = "during";
  connects = 0;
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops / 2; ++i) step(n0);
  const std::size_t live_before = exchange.active_calls();
  const svc::TopologyOutcome out =
      exchange.apply(svc::TopologyEvent::make_grow(plan));
  const std::size_t live_after = exchange.active_calls();
  const auto n1 = static_cast<std::uint32_t>(exchange.input_count());
  for (std::size_t i = 0; i < ops / 2; ++i) step(n1);
  during.seconds = elapsed(t0);
  during.connects = connects;
  during.quiesce_ms = out.growth->quiesce_seconds * 1e3;
  during.calls_remapped = out.growth->calls_remapped;
  during.calls_killed = live_before - live_after;
  during.switches_added = out.growth->switches_added;
  m.phases.push_back(during);
  m.grown_name = exchange.network().name;

  connects = 0;
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) step(n1);
  m.phases.push_back({"after", connects, elapsed(t0)});
  return m;
}

// ---------------------------------------------------------------------------
// --threads=K thread-scaling mode: the same churn served by one Exchange
// over the sharded concurrent backend with T sessions, T swept up to K.
// Each OS thread drives its own session on the immediate plane; stats are
// the exchange's merged books. Total operation count is held constant
// across T so calls/sec is directly comparable along the curve.

struct ScalingPoint {
  unsigned threads = 1;
  std::size_t connects = 0;
  double seconds = 0.0;
  core::RouterStats stats;  // merged across sessions
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
  [[nodiscard]] double visits_per_connect() const {
    return stats.connect_calls ? static_cast<double>(stats.vertices_visited) /
                                     static_cast<double>(stats.connect_calls)
                               : 0.0;
  }
};

ScalingPoint concurrent_churn(const graph::Network& net, unsigned threads,
                              std::size_t total_ops) {
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = threads;
  svc::Exchange exchange(net, std::move(cfg));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  const std::size_t ops_per_thread = total_ops / threads;
  std::vector<std::size_t> connects(threads, 0);

  std::chrono::steady_clock::time_point t0;
  // Two rendezvous: after warmup everyone parks while thread 0 zeroes the
  // exchange's books (the warmup must not leak into the recorded stats),
  // then the timing barrier's last arriver stamps t0.
  std::barrier warm(static_cast<std::ptrdiff_t>(threads));
  std::barrier sync(static_cast<std::ptrdiff_t>(threads),
                    [&t0]() noexcept { t0 = std::chrono::steady_clock::now(); });
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      util::Xoshiro256 rng(util::derive_seed(21, t));
      std::vector<svc::CallId> active;
      active.reserve(n);
      std::size_t local_connects = 0;
      const auto step = [&] {
        if (!active.empty() && (rng() & 3u) == 0) {
          const auto idx = rng() % active.size();
          exchange.hangup(active[idx]);
          active[idx] = active.back();
          active.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const svc::Outcome o = exchange.call({in, out}, t);
          ++local_connects;
          if (o.connected()) active.push_back(o.id);
        }
      };
      for (std::size_t i = 0; i < ops_per_thread / 10; ++i) step();  // warmup
      local_connects = 0;
      warm.arrive_and_wait();  // quiesce every session...
      if (t == 0) exchange.reset_stats();
      sync.arrive_and_wait();  // ...then the last arriver stamps t0
      for (std::size_t i = 0; i < ops_per_thread; ++i) step();
      connects[t] = local_connects;
    });
  }
  for (auto& th : pool) th.join();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ScalingPoint p;
  p.threads = threads;
  p.seconds = dt;
  for (unsigned t = 0; t < threads; ++t) p.connects += connects[t];
  p.stats = exchange.stats().router;  // per-session books, merged
  return p;
}

std::vector<ScalingPoint> thread_scaling_curve(const graph::Network& net,
                                               unsigned max_threads,
                                               std::size_t total_ops) {
  std::vector<ScalingPoint> curve;
  for (unsigned t = 1; t <= max_threads; t *= 2) {
    curve.push_back(concurrent_churn(net, t, total_ops));
    if (t == max_threads) return curve;
    if (t * 2 > max_threads) {
      curve.push_back(concurrent_churn(net, max_threads, total_ops));
      return curve;
    }
  }
  return curve;
}

// ---------------------------------------------------------------------------
// --batch=N admission-mode series: the same churn mix served through the
// BATCHED front-end — submit an epoch's worth of requests, drain across all
// sessions on the shared thread pool, then release a third of the active
// calls (per session, in parallel) to keep the 3:1 connect:disconnect mix
// of the unbatched churn. Batch size sweeps powers of 4 up to N.

struct BatchedPoint {
  std::size_t batch = 0;
  std::size_t connects = 0;  // requests admitted and routed
  double seconds = 0.0;
  core::RouterStats stats;
  std::uint64_t deferred = 0, refused = 0, epochs = 0;
  // What the affinity request degraded to on this host (kNone unless the
  // point asked for pinning and the plan fit the box).
  util::AffinityPolicy effective = util::AffinityPolicy::kNone;
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
  [[nodiscard]] double visits_per_connect() const {
    return stats.connect_calls ? static_cast<double>(stats.vertices_visited) /
                                     static_cast<double>(stats.connect_calls)
                               : 0.0;
  }
};

BatchedPoint batched_churn(
    const graph::Network& net, unsigned sessions, std::size_t batch,
    std::size_t total_ops,
    util::AffinityPolicy affinity = util::AffinityPolicy::kNone,
    bool home_sessions = false) {
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = sessions;
  cfg.affinity = affinity;
  cfg.home_sessions = home_sessions;
  svc::Exchange exchange(net, std::move(cfg));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(util::derive_seed(33, batch));

  // Completion callbacks append per-session; drain() partitions the batch
  // so exactly one pool task touches session s, which makes this safe.
  std::vector<std::vector<svc::CallId>> active(sessions);
  const auto on_done = [&active](const svc::Outcome& o) {
    if (o.connected()) active[o.session].push_back(o.id);
  };

  std::size_t connects = 0;
  const auto epoch = [&] {
    for (std::size_t b = 0; b < batch; ++b) {
      const auto in = static_cast<std::uint32_t>(rng() % n);
      const auto out = static_cast<std::uint32_t>(rng() % n);
      exchange.submit({in, out}, on_done);
    }
    connects += exchange.drain_all();
    // Hang up a third of each session's calls, sessions in parallel.
    util::ThreadPool::global().run(sessions, [&](std::size_t s) {
      auto& mine = active[s];
      util::Xoshiro256 vrng(util::derive_seed(47, s));
      std::size_t drop = mine.size() / 3;
      while (drop-- > 0 && !mine.empty()) {
        const auto idx = vrng() % mine.size();
        exchange.hangup(mine[idx]);
        mine[idx] = mine.back();
        mine.pop_back();
      }
    });
  };

  const std::size_t warm_target = total_ops / 10;
  while (connects < warm_target) epoch();
  connects = 0;
  exchange.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  while (connects < total_ops) epoch();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const svc::ExchangeStats st = exchange.stats();
  BatchedPoint p;
  p.batch = batch;
  p.connects = connects;
  p.seconds = dt;
  p.stats = st.router;
  p.deferred = st.deferred;
  p.refused = st.refused;
  p.epochs = st.epochs;
  p.effective = exchange.affinity();
  return p;
}

std::vector<BatchedPoint> batched_series(const graph::Network& net,
                                         unsigned sessions,
                                         std::size_t max_batch,
                                         std::size_t total_ops) {
  std::vector<BatchedPoint> series;
  for (std::size_t b = 64; b < max_batch; b *= 4)
    series.push_back(batched_churn(net, sessions, b, total_ops));
  series.push_back(batched_churn(net, sessions, max_batch, total_ops));
  return series;
}

// ---------------------------------------------------------------------------
// --faults=EPS degraded-mode series: the batched churn with the runtime
// fault plane live — a MIXED FaultSchedule (one epoch = one time unit,
// per-switch hazard eps split evenly between open failures and stuck-on
// welds by the symmetric model, mean time-to-repair 10 epochs) is applied
// between admission epochs, killing calls mid-churn, welding free forced
// hops, and rerouting the victims. Sweeps eps in decades up to EPS; reports
// throughput under degradation plus the kill / reroute books per mode.

struct DegradedPoint {
  double eps = 0.0;
  std::size_t connects = 0;  // churn requests admitted and routed (victim
                             // reroutes are in the books, not this count)
  double seconds = 0.0;
  core::RouterStats stats;
  std::uint64_t injected = 0, stuck = 0, repaired = 0, killed = 0;
  std::uint64_t reroute_ok = 0, reroute_fail = 0;
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
  [[nodiscard]] double reroute_success_rate() const {
    const auto total = reroute_ok + reroute_fail;
    return total ? static_cast<double>(reroute_ok) / static_cast<double>(total)
                 : 1.0;
  }
};

DegradedPoint degraded_churn(const graph::Network& net, unsigned sessions,
                             double eps, std::size_t total_ops,
                             std::uint64_t seed) {
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = sessions;
  svc::Exchange exchange(net, std::move(cfg));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  const std::size_t batch = 256;
  util::Xoshiro256 rng(util::derive_seed(71, seed));

  // Generous horizon: warmup + measured epochs both draw from one stream.
  const double horizon = static_cast<double>(total_ops / batch + 16) * 8.0;
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(eps / 2), net.g.edge_count(), horizon,
      /*mean_repair=*/10.0, util::derive_seed(73, seed));
  std::size_t fault_idx = 0;
  double epoch_clock = 0.0;

  std::vector<std::vector<svc::CallId>> active(sessions);
  const auto on_done = [&active](const svc::Outcome& o) {
    if (o.connected()) active[o.session].push_back(o.id);
  };

  std::size_t connects = 0;
  const auto epoch = [&] {
    // Fault plane first: apply every schedule event due this epoch. The
    // victims' reroutes are routed inside apply() (their work lands in the
    // elapsed time and the kill/reroute books, not in `connects`); their
    // new handles join the churn so they eventually hang up like everyone
    // else.
    epoch_clock += 1.0;
    while (fault_idx < schedule.events().size() &&
           schedule.events()[fault_idx].time <= epoch_clock) {
      const svc::FaultImpact impact =
          exchange.apply(schedule.events()[fault_idx]);
      ++fault_idx;
      for (const auto& re : impact.reroutes)
        if (re.connected()) active[re.session].push_back(re.id);
    }
    for (std::size_t b = 0; b < batch; ++b) {
      const auto in = static_cast<std::uint32_t>(rng() % n);
      const auto out = static_cast<std::uint32_t>(rng() % n);
      exchange.submit({in, out}, on_done);
    }
    connects += exchange.drain_all();
    util::ThreadPool::global().run(sessions, [&](std::size_t s) {
      auto& mine = active[s];
      util::Xoshiro256 vrng(util::derive_seed(79, s));
      std::size_t drop = mine.size() / 3;
      while (drop-- > 0 && !mine.empty()) {
        const auto idx = vrng() % mine.size();
        exchange.hangup(mine[idx]);  // kFaulted/stale acks for killed calls
        mine[idx] = mine.back();
        mine.pop_back();
      }
    });
  };

  const std::size_t warm_target = total_ops / 10;
  while (connects < warm_target) epoch();
  connects = 0;
  exchange.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  while (connects < total_ops) epoch();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const svc::ExchangeStats st = exchange.stats();
  DegradedPoint p;
  p.eps = eps;
  p.connects = connects;
  p.seconds = dt;
  p.stats = st.router;
  p.injected = st.faults_injected;
  p.stuck = st.faults_stuck;
  p.repaired = st.faults_repaired;
  p.killed = st.calls_killed_by_fault;
  p.reroute_ok = st.reroute_succeeded;
  p.reroute_fail = st.reroute_failed;
  return p;
}

std::vector<DegradedPoint> degraded_series(const graph::Network& net,
                                           unsigned sessions, double max_eps,
                                           std::size_t total_ops) {
  std::vector<DegradedPoint> series;
  std::uint64_t idx = 0;
  for (const double eps : {max_eps / 100, max_eps / 10, max_eps})
    series.push_back(degraded_churn(net, sessions, eps, total_ops, ++idx));
  return series;
}

// ---------------------------------------------------------------------------
// --policy=overlay admission A/B: the SAME bursty fault storm served twice
// through the batched plane — once behind a static FixedWindowAdmission,
// once behind the overlay-aware decorator over the same window. One drain()
// per tick (not drain_all): the overlay policy's whole mechanism is leaving
// the surplus queued while the topology is degraded, so the series must let
// a backlog exist. Repairs lag failures (mean repair = a third of the run),
// the tail sweep-repairs whatever the schedule left down, and both runs
// then drain their backlog to empty — every submitted request gets routed
// or rejected under BOTH policies, so the reject books are comparable.
// "Hard" rejects = no-path + refused: the requests the exchange burned into
// dead topology (or bounced), versus deferring them to post-repair epochs.

struct PolicyPoint {
  const char* policy = "static";
  std::size_t connects = 0;
  double seconds = 0.0;
  core::RouterStats stats;
  std::uint64_t deferred = 0, refused = 0, epochs = 0;
  std::uint64_t injected = 0, stuck = 0, repaired = 0, killed = 0;
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
  [[nodiscard]] double visits_per_connect() const {
    return stats.connect_calls ? static_cast<double>(stats.vertices_visited) /
                                     static_cast<double>(stats.connect_calls)
                               : 0.0;
  }
  [[nodiscard]] std::uint64_t hard_rejects() const {
    return stats.rejected_no_path + refused;
  }
};

PolicyPoint policy_churn(const graph::Network& net, unsigned sessions,
                         bool overlay, double eps, std::size_t ticks,
                         std::size_t arrivals_per_tick, std::size_t window) {
  svc::ExchangeConfig cfg;
  cfg.backend = svc::Backend::kConcurrent;
  cfg.sessions = sessions;
  if (overlay)
    cfg.admission = std::make_unique<svc::OverlayAdaptiveAdmission>(window);
  else
    cfg.admission = std::make_unique<svc::FixedWindowAdmission>(window);
  svc::Exchange exchange(net, std::move(cfg));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(util::derive_seed(91, overlay ? 1 : 0));

  // Bursty storm: hazards run for the whole horizon but crews take a third
  // of the run per fix, so damage accumulates mid-run and clears late.
  // Open failures only — the A/B is about admission into DEAD topology, and
  // stuck-on welds never block a search.
  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel{eps, 0.0}, net.g.edge_count(),
      /*horizon=*/static_cast<double>(ticks),
      /*mean_repair=*/static_cast<double>(ticks) / 3.0, /*seed=*/177);
  std::size_t fault_idx = 0;

  std::vector<std::vector<svc::CallId>> active(sessions);
  const auto on_done = [&active](const svc::Outcome& o) {
    if (o.connected()) active[o.session].push_back(o.id);
  };
  const auto hangup_third = [&] {
    util::ThreadPool::global().run(sessions, [&](std::size_t s) {
      auto& mine = active[s];
      util::Xoshiro256 vrng(util::derive_seed(93, s));
      std::size_t drop = mine.size() / 3;
      while (drop-- > 0 && !mine.empty()) {
        const auto idx = vrng() % mine.size();
        exchange.hangup(mine[idx]);
        mine[idx] = mine.back();
        mine.pop_back();
      }
    });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    while (fault_idx < schedule.events().size() &&
           schedule.events()[fault_idx].time <= static_cast<double>(tick)) {
      const svc::FaultImpact impact =
          exchange.apply(schedule.events()[fault_idx]);
      ++fault_idx;
      for (const auto& re : impact.reroutes)
        if (re.connected()) active[re.session].push_back(re.id);
    }
    for (std::size_t b = 0; b < arrivals_per_tick; ++b) {
      const auto in = static_cast<std::uint32_t>(rng() % n);
      const auto out = static_cast<std::uint32_t>(rng() % n);
      exchange.submit({in, out}, on_done);
    }
    exchange.drain();  // ONE epoch: surplus stays queued for healthier ticks
    hangup_third();
  }
  // The crews finish: sweep-repair every switch (repairing a healthy one is
  // a no-op), then serve the deferred backlog to empty. The storm's damage
  // is gone, so whatever a policy queued instead of burning now routes.
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e)
    exchange.repair({static_cast<double>(ticks) + 1.0, e,
                     fault::FaultEvent::Kind::kRepair});
  while (exchange.pending() > 0) {
    exchange.drain();
    hangup_third();
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const svc::ExchangeStats st = exchange.stats();
  PolicyPoint p;
  p.policy = overlay ? "overlay" : "static";
  p.connects = static_cast<std::size_t>(st.admitted);
  p.seconds = dt;
  p.stats = st.router;
  p.deferred = st.deferred;
  p.refused = st.refused;
  p.epochs = st.epochs;
  p.injected = st.faults_injected;
  p.stuck = st.faults_stuck;
  p.repaired = st.faults_repaired;
  p.killed = st.calls_killed_by_fault;
  return p;
}

/// Extracts `"key": <number>` from a JSON-ish text; returns -1 if absent.
double extract_number(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1.0;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

/// `"<to_string(reason)>": <count>` — every reject key in the JSON is
/// spelled by the shared RejectReason enum, nothing hand-written. (Built by
/// append: GCC 12's inliner flags rvalue operator+ chains with a spurious
/// -Wrestrict.)
std::string reject_key(svc::RejectReason reason, std::uint64_t count) {
  std::string key = "\"";
  key += svc::to_string(reason);
  key += "\": ";
  key += std::to_string(count);
  return key;
}

int run_json_smoke(const std::string& path, unsigned max_threads, bool grow_series,
                   std::size_t max_batch, double max_faults,
                   std::size_t repeats, bool policy_overlay) {
  std::vector<ChurnMeasure> rows;
  rows.push_back(median_of(repeats, [&] {
    return churn_workload("cantor-k5", networks::build_cantor({5, 0}),
                          bench::scaled(100'000));
  }));
  rows.push_back(median_of(repeats, [&] {
    return churn_workload("cantor-k7", networks::build_cantor({7, 0}),
                          bench::scaled(20'000));
  }));
  rows.push_back(median_of(repeats, [&] {
    return churn_workload("ft-nu2", shared_ft(2).net, bench::scaled(10'000));
  }));

  std::size_t total_connects = 0;
  double total_seconds = 0.0;
  core::RouterStats merged;  // all per-network blocks, via operator+=
  for (const auto& r : rows) {
    total_connects += r.connects;
    total_seconds += r.seconds;
    merged += r.stats;
  }
  const double aggregate =
      total_seconds > 0 ? static_cast<double>(total_connects) / total_seconds : 0.0;

  double baseline = -1.0;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      baseline = extract_number(ss.str(), "baseline_calls_per_sec");
    }
  }
  if (baseline <= 0) baseline = aggregate;  // first run establishes the baseline
  const double speedup = baseline > 0 ? aggregate / baseline : 1.0;

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_routing: cannot write " << path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"routing_churn\",\n";
  out << "  \"workload\": \"deterministic connect/disconnect churn, 25% disconnect, served via svc::Exchange\",\n";
  out << "  \"networks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"connects\": " << r.connects
        << ", \"calls_per_sec\": " << static_cast<std::uint64_t>(r.calls_per_sec())
        << ", \"mean_path_vertices\": " << r.mean_path_vertices()
        << ", \"visits_per_connect\": " << r.visits_per_connect() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"total_path_vertices\": " << merged.path_vertices << ",\n";
  out << "  \"total_vertices_visited\": " << merged.vertices_visited << ",\n";
  out << "  \"rejects\": {"
      << reject_key(svc::RejectReason::kTerminalBusy, merged.rejected_terminal)
      << ", "
      << reject_key(svc::RejectReason::kNoPath, merged.rejected_no_path) << ", "
      << reject_key(svc::RejectReason::kContention, merged.rejected_contention)
      << "},\n";

  // Thread-scaling curve: the same churn on the concurrent backend,
  // immediate plane, one session per OS thread.
  double unbatched_at_max = 0.0;
  if (max_threads >= 1) {
    const auto curve = thread_scaling_curve(networks::build_cantor({5, 0}),
                                            max_threads,
                                            bench::scaled(100'000));
    const double base_1t = curve.front().calls_per_sec();
    unbatched_at_max = curve.back().calls_per_sec();
    out << "  \"thread_scaling\": {\"network\": \"cantor-k5\", \"points\": [\n";
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const auto& p = curve[i];
      out << "    {\"threads\": " << p.threads << ", \"connects\": "
          << p.connects << ", \"calls_per_sec\": "
          << static_cast<std::uint64_t>(p.calls_per_sec())
          << ", \"speedup_vs_1t\": "
          << (base_1t > 0 ? p.calls_per_sec() / base_1t : 0.0)
          << ", \"visits_per_connect\": " << p.visits_per_connect()
          << ", \"claim_conflicts\": " << p.stats.claim_conflicts
          << ", \"search_retries\": " << p.stats.search_retries << ", "
          << reject_key(svc::RejectReason::kContention,
                        p.stats.rejected_contention)
          << "}" << (i + 1 < curve.size() ? "," : "") << "\n";
      std::cout << "concurrent churn cantor-k5 x" << p.threads << ": "
                << static_cast<std::uint64_t>(p.calls_per_sec())
                << " calls/sec (speedup vs 1t "
                << (base_1t > 0 ? p.calls_per_sec() / base_1t : 0.0)
                << ", conflicts " << p.stats.claim_conflicts << ")\n";
    }
    out << "  ]},\n";
  }

  // Batched-admission series: submit/drain epochs at the max session count.
  if (max_batch >= 1 && max_threads >= 1) {
    const auto series = batched_series(networks::build_cantor({5, 0}),
                                       max_threads, max_batch,
                                       bench::scaled(100'000));
    out << "  \"batched_admission\": {\"network\": \"cantor-k5\", \"sessions\": "
        << max_threads << ", \"points\": [\n";
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto& p = series[i];
      out << "    {\"batch\": " << p.batch << ", \"connects\": " << p.connects
          << ", \"calls_per_sec\": "
          << static_cast<std::uint64_t>(p.calls_per_sec())
          << ", \"epochs\": " << p.epochs << ", \"deferred\": " << p.deferred
          << ", \"refused\": " << p.refused
          << ", \"visits_per_connect\": " << p.visits_per_connect()
          << ", \"claim_conflicts\": " << p.stats.claim_conflicts << ", "
          << reject_key(svc::RejectReason::kContention,
                        p.stats.rejected_contention)
          << ", \"vs_unbatched_max_threads\": "
          << (unbatched_at_max > 0 ? p.calls_per_sec() / unbatched_at_max : 0.0)
          << "}" << (i + 1 < series.size() ? "," : "") << "\n";
      std::cout << "batched churn cantor-k5 batch=" << p.batch << " x"
                << max_threads << " sessions: "
                << static_cast<std::uint64_t>(p.calls_per_sec())
                << " calls/sec (vs unbatched x" << max_threads << " "
                << (unbatched_at_max > 0 ? p.calls_per_sec() / unbatched_at_max
                                         : 0.0)
                << ")\n";
    }
    out << "  ]},\n";

    // The batched plane on the DEEP network: cantor-k7's searches explore
    // ~1000 vertices per connect, so per-request search cost dominates the
    // epoch. One big window (batch 512 across the sessions = 64-request
    // chunks at x8), same epoch mix as the k5 series.
    const auto k7 = batched_churn(networks::build_cantor({7, 0}), max_threads,
                                  512, bench::scaled(20'000));
    out << "  \"batched_admission_k7\": {\"network\": \"cantor-k7\", "
        << "\"sessions\": " << max_threads << ", \"points\": [\n"
        << "    {\"batch\": " << k7.batch << ", \"connects\": " << k7.connects
        << ", \"calls_per_sec\": "
        << static_cast<std::uint64_t>(k7.calls_per_sec())
        << ", \"epochs\": " << k7.epochs << ", \"deferred\": " << k7.deferred
        << ", \"refused\": " << k7.refused
        << ", \"visits_per_connect\": " << k7.visits_per_connect()
        << ", \"claim_conflicts\": " << k7.stats.claim_conflicts << ", "
        << reject_key(svc::RejectReason::kContention,
                      k7.stats.rejected_contention)
        << "}\n  ]},\n";
    std::cout << "batched churn cantor-k7 batch=" << k7.batch << " x"
              << max_threads << " sessions: "
              << static_cast<std::uint64_t>(k7.calls_per_sec())
              << " calls/sec (" << k7.visits_per_connect()
              << " visits/connect)\n";
  }

  // Degraded-mode series: the same batched churn with the fault plane
  // injecting/repairing switches mid-run, eps swept in decades.
  if (max_faults > 0 && max_threads >= 1) {
    const auto series = degraded_series(networks::build_cantor({5, 0}),
                                        max_threads, max_faults,
                                        bench::scaled(100'000));
    out << "  \"degraded_mode\": {\"network\": \"cantor-k5\", \"sessions\": "
        << max_threads << ", \"mean_repair_epochs\": 10, \"points\": [\n";
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto& p = series[i];
      out << "    {\"eps\": " << p.eps << ", \"connects\": " << p.connects
          << ", \"calls_per_sec\": "
          << static_cast<std::uint64_t>(p.calls_per_sec())
          << ", \"faults_injected\": " << p.injected
          << ", \"stuck_injected\": " << p.stuck
          << ", \"faults_repaired\": " << p.repaired
          << ", \"calls_killed_by_fault\": " << p.killed
          << ", \"reroute_succeeded\": " << p.reroute_ok
          << ", \"reroute_failed\": " << p.reroute_fail
          << ", \"reroute_success_rate\": " << p.reroute_success_rate() << ", "
          << reject_key(svc::RejectReason::kNoPath, p.stats.rejected_no_path)
          << ", \"overlay_conflicts\": " << p.stats.overlay_conflicts << "}"
          << (i + 1 < series.size() ? "," : "") << "\n";
      std::cout << "degraded churn cantor-k5 eps=" << p.eps << " x"
                << max_threads << " sessions: "
                << static_cast<std::uint64_t>(p.calls_per_sec())
                << " calls/sec (open " << p.injected << ", stuck-on "
                << p.stuck << ", killed " << p.killed << ", reroute success "
                << p.reroute_success_rate() << ")\n";
    }
    out << "  ]},\n";
  }

  // Admission-policy A/B: the bursty storm served behind the static window
  // and behind the overlay-aware decorator. The acceptance metric is
  // hard_rejects (no-path + refused): the overlay point defers work while
  // switches are down and routes it post-repair instead of burning it.
  // The network is deliberately diversity-poor — a crossbar has exactly one
  // switch per terminal pair, so a dead switch IS a no-path for its pair
  // until the crew arrives; on the paper's FT networks the storm would have
  // to sever a terminal entirely before static admission burns a request.
  if (policy_overlay && max_threads >= 1) {
    const auto net = networks::build_crossbar(32);
    const double eps = max_faults > 0 ? max_faults : 1e-3;
    const std::size_t ticks = 240, arrivals = 16, window = 64;
    std::vector<PolicyPoint> pts;
    for (const bool overlay : {false, true})
      pts.push_back(median_of(repeats, [&] {
        return policy_churn(net, max_threads, overlay, eps, ticks, arrivals,
                            window);
      }));
    const auto& st = pts[0];
    const auto& ov = pts[1];
    out << "  \"admission_policy\": {\"network\": \"crossbar-32\", \"sessions\": "
        << max_threads << ", \"eps\": " << eps << ", \"window\": " << window
        << ", \"ticks\": " << ticks << ", \"arrivals_per_tick\": " << arrivals
        << ", \"points\": [\n";
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto& p = pts[i];
      out << "    {\"policy\": \"" << p.policy << "\", \"connects\": "
          << p.connects << ", \"calls_per_sec\": "
          << static_cast<std::uint64_t>(p.calls_per_sec())
          << ", \"visits_per_connect\": " << p.visits_per_connect()
          << ", \"hard_rejects\": " << p.hard_rejects() << ", "
          << reject_key(svc::RejectReason::kNoPath, p.stats.rejected_no_path)
          << ", \"refused\": " << p.refused << ", \"deferred\": " << p.deferred
          << ", \"epochs\": " << p.epochs << ", \"faults_injected\": "
          << p.injected << ", \"stuck_injected\": " << p.stuck
          << ", \"calls_killed_by_fault\": " << p.killed << "}"
          << (i + 1 < pts.size() ? "," : "") << "\n";
      std::cout << "admission policy crossbar-32 " << p.policy << ": "
                << p.hard_rejects() << " hard rejects ("
                << p.stats.rejected_no_path << " no-path, " << p.refused
                << " refused), " << p.deferred << " deferrals, "
                << static_cast<std::uint64_t>(p.calls_per_sec())
                << " calls/sec\n";
    }
    out << "  ], \"overlay_hard_reject_ratio\": "
        << (st.hard_rejects() > 0
                ? static_cast<double>(ov.hard_rejects()) /
                      static_cast<double>(st.hard_rejects())
                : 1.0)
        << "},\n";
  }

  // Affinity A/B: the batched churn with the drain pool pinned under
  // each policy (sessions homed to terminal ranges so a pinned worker's CAS
  // traffic stays in its own cache domain). The REQUESTED policy keys the
  // series so baselines recorded on different hosts still line up; the
  // EFFECTIVE policy records what the host actually honored (small boxes
  // degrade every request to "none" — then the three points are an honest
  // noise floor).
  if (max_threads >= 1) {
    const auto net = networks::build_cantor({5, 0});
    struct AffinityRow {
      util::AffinityPolicy policy;
      BatchedPoint p;
    };
    std::vector<AffinityRow> rows_a;
    for (const auto pol :
         {util::AffinityPolicy::kNone, util::AffinityPolicy::kSpread,
          util::AffinityPolicy::kCompact}) {
      rows_a.push_back({pol, median_of(repeats, [&] {
                          return batched_churn(net, max_threads, 256,
                                               bench::scaled(100'000), pol,
                                               /*home_sessions=*/true);
                        })});
      // Pinning is process-wide pool state: reset between points so each
      // request is applied against an unpinned pool.
      util::ThreadPool::global().apply_affinity(util::AffinityPolicy::kNone);
    }
    out << "  \"affinity_scaling\": {\"network\": \"cantor-k5\", \"sessions\": "
        << max_threads << ", \"batch\": 256, \"home_sessions\": true, "
        << "\"points\": [\n";
    for (std::size_t i = 0; i < rows_a.size(); ++i) {
      const auto& r = rows_a[i];
      out << "    {\"policy\": \"" << util::to_string(r.policy)
          << "\", \"effective\": \"" << util::to_string(r.p.effective)
          << "\", \"connects\": " << r.p.connects << ", \"calls_per_sec\": "
          << static_cast<std::uint64_t>(r.p.calls_per_sec())
          << ", \"visits_per_connect\": " << r.p.visits_per_connect()
          << ", \"claim_conflicts\": " << r.p.stats.claim_conflicts << ", "
          << reject_key(svc::RejectReason::kContention,
                        r.p.stats.rejected_contention)
          << "}" << (i + 1 < rows_a.size() ? "," : "") << "\n";
      std::cout << "affinity churn cantor-k5 policy="
                << util::to_string(r.policy) << " (effective "
                << util::to_string(r.p.effective) << ") x" << max_threads
                << " sessions: "
                << static_cast<std::uint64_t>(r.p.calls_per_sec())
                << " calls/sec (conflicts " << r.p.stats.claim_conflicts
                << ")\n";
    }
    out << "  ]},\n";
  }

  // Hitless-growth series (--grow): calls/sec before/during/after doubling
  // the exchange under churn, plus the merge's quiesce pause and the
  // MEASURED kill count (tools/check_bench.py fails the build unless it
  // is exactly 0 — the hitless contract as a perf gate).
  if (grow_series) {
    const GrowthMeasure gm = median_of(repeats, [&] {
      return growth_churn(bench::scaled(100'000));
    });
    out << "  \"growth\": {\"network\": \"" << gm.base_name
        << "\", \"grown\": \"" << gm.grown_name << "\", \"points\": [\n";
    for (std::size_t i = 0; i < gm.phases.size(); ++i) {
      const auto& p = gm.phases[i];
      out << "    {\"phase\": \"" << p.phase << "\", \"connects\": "
          << p.connects << ", \"calls_per_sec\": "
          << static_cast<std::uint64_t>(p.calls_per_sec());
      if (std::string(p.phase) == "during")
        out << ", \"quiesce_ms\": " << p.quiesce_ms << ", \"calls_remapped\": "
            << p.calls_remapped << ", \"calls_killed\": " << p.calls_killed
            << ", \"switches_added\": " << p.switches_added;
      out << "}" << (i + 1 < gm.phases.size() ? "," : "") << "\n";
    }
    out << "  ]},\n";
    std::cout << "growth churn " << gm.base_name << " -> " << gm.grown_name
              << ": before "
              << static_cast<std::uint64_t>(gm.phases[0].calls_per_sec())
              << " during "
              << static_cast<std::uint64_t>(gm.phases[1].calls_per_sec())
              << " after "
              << static_cast<std::uint64_t>(gm.phases[2].calls_per_sec())
              << " calls/sec; quiesce " << gm.phases[1].quiesce_ms << " ms, "
              << gm.phases[1].calls_remapped << " remapped, "
              << gm.phases[1].calls_killed << " killed\n";
  }

  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"calls_per_sec\": " << static_cast<std::uint64_t>(aggregate) << ",\n";
  out << "  \"baseline_calls_per_sec\": " << static_cast<std::uint64_t>(baseline)
      << ",\n";
  out << "  \"speedup_vs_baseline\": " << speedup << "\n";
  out << "}\n";
  std::cout << "routing churn: " << static_cast<std::uint64_t>(aggregate)
            << " calls/sec (baseline " << static_cast<std::uint64_t>(baseline)
            << ", speedup " << speedup << ") -> " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  unsigned max_threads = 0;   // 0 = no thread-scaling curve
  std::size_t max_batch = 0;  // 0 = no batched-admission series
  double max_faults = 0.0;    // 0 = no degraded-mode series
  std::size_t repeats = 1;    // --repeat=K: median-of-K per recorded point
  bool policy_overlay = false;  // --policy=overlay: admission A/B series
  bool grow_series = false;     // --grow: hitless-growth series
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--threads=", 0) == 0) {
      const long v = std::strtol(arg.c_str() + 10, nullptr, 10);
      if (v >= 1) max_threads = static_cast<unsigned>(v);
    }
    if (arg.rfind("--batch=", 0) == 0) {
      const long v = std::strtol(arg.c_str() + 8, nullptr, 10);
      if (v >= 1) max_batch = static_cast<std::size_t>(v);
    }
    if (arg.rfind("--faults=", 0) == 0) {
      const double v = std::strtod(arg.c_str() + 9, nullptr);
      if (v > 0) max_faults = v;
    }
    if (arg.rfind("--repeat=", 0) == 0) {
      const long v = std::strtol(arg.c_str() + 9, nullptr, 10);
      if (v >= 1) repeats = static_cast<std::size_t>(v);
    }
    if (arg == "--policy=overlay") policy_overlay = true;
    if (arg == "--grow") grow_series = true;
  }
  // --threads / --batch / --faults / --policy / --grow without --json still
  // record to the default path.
  if ((max_threads > 0 || max_batch > 0 || max_faults > 0 || policy_overlay ||
       grow_series) &&
      json_path.empty())
    json_path = "BENCH_routing.json";
  if ((max_batch > 0 || max_faults > 0 || policy_overlay) && max_threads == 0)
    max_threads = 8;
  if (!json_path.empty())
    return run_json_smoke(json_path, max_threads, grow_series, max_batch,
                          max_faults, repeats, policy_overlay);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_success_table();
  return 0;
}
