// E13 — "no difficult computations are involved": greedy routing cost on
// repaired instances, as google-benchmark timings plus a success table.
//
// The paper's §4 observations: (1) repair = discard faulty vertices (no
// search), (2) routing on the surviving strictly-nonblocking network =
// greedy path search (any idle path will do). BM_FaultSampling and
// BM_RepairByDiscard time the first, BM_GreedyConnect the second, and the
// table printed after the timings reports the success rate of routing full
// random permutations on damaged instances.
//
// Every other BM_* function is a developer probe of one layer, with no
// timing gate: the search's work (BM_ConnectFtMixedFaults,
// BM_ConnectCantorHalfLoad), the service facade (BM_ExchangeCall,
// BM_ExchangeFacade), the batched drain's cost (BM_DrainWindow), the
// federation's batched plane (BM_FederationDrain), hitless growth's pause
// (BM_GrowthQuiesce) and the live fault schedule's set-up cost
// (BM_FaultSchedule). The exchange's end-to-end benchmark is perfbench/
// (BENCHMARK.json); the search's work is gated by the deterministic
// SearchWork ratchet in tests/test_search.cpp.
//
// Usage: ./build/bench_routing [google-benchmark flags], e.g.
//   ./build/bench_routing --benchmark_filter=BM_GrowthQuiesce
// Any other argument is an error.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iostream>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "fault/fault_instance.hpp"
#include "fault/fault_model.hpp"
#include "fault/schedule.hpp"
#include "ftcs/monte_carlo.hpp"
#include "ftcs/router.hpp"
#include "ftcs/verify.hpp"
#include "graph/digraph.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "svc/federation.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

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
  core::Router router(ft.net);
  const auto n = static_cast<std::uint32_t>(ft.n());
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto call = router.connect(i % n, (i * 7 + 3) % n);
    if (call != core::Router::kNoCall) router.disconnect(call);
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

/// Holds `router` (n inputs, n outputs) at half load and times one random
/// hangup plus one random connect per iteration, seeded by `seed`. The
/// counters are the search's vertices visited per connect and the connects
/// refused for want of an idle path.
void serve_half_load(benchmark::State& state, core::Router& router,
                     std::uint32_t n, std::uint64_t seed) {
  // Idle terminals, and the live calls with theirs.
  std::vector<std::uint32_t> idle_in(n), idle_out(n);
  std::iota(idle_in.begin(), idle_in.end(), 0u);
  std::iota(idle_out.begin(), idle_out.end(), 0u);
  struct Live {
    core::Router::CallId call;
    std::uint32_t in, out;
  };
  std::vector<Live> live;
  util::Xoshiro256 rng(seed);
  const auto take = [&rng](std::vector<std::uint32_t>& pool) {
    const auto i = rng.below(pool.size());
    const std::uint32_t t = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return t;
  };
  const auto dial = [&] {
    const std::uint32_t in = take(idle_in), out = take(idle_out);
    const auto call = router.connect(in, out);
    if (call == core::Router::kNoCall) {
      idle_in.push_back(in);
      idle_out.push_back(out);
    } else {
      live.push_back({call, in, out});
    }
  };
  for (std::uint32_t i = 0; i < n / 2; ++i) dial();
  router.reset_stats();

  for (auto _ : state) {
    if (!live.empty()) {
      const auto i = rng.below(live.size());
      router.disconnect(live[i].call);
      idle_in.push_back(live[i].in);
      idle_out.push_back(live[i].out);
      live[i] = live.back();
      live.pop_back();
    }
    dial();
  }
  const core::RouterStats st = router.stats();
  state.counters["visits_per_call"] =
      st.connect_calls == 0 ? 0.0
                            : static_cast<double>(st.vertices_visited) /
                                  static_cast<double>(st.connect_calls);
  state.counters["no_path"] = static_cast<double>(st.rejected_no_path);
}

// The §6 network under live switch failures: N-hat (sim profile, nu = 4)
// held at half load on the greedy router (serve_half_load), with a seeded
// share of its switches down before the run: open-failed (fail_edge) or
// stuck-on (contract_edge). Arg: 0 no failures; 1 1e-3 of the switches, 75%
// open and 25% stuck-on; 2 the same mix at 1e-2; 3 1e-2, stuck-on only. A
// developer probe with no gate:
//   ./build/bench_routing --benchmark_filter=BM_ConnectFtMixedFaults
void BM_ConnectFtMixedFaults(benchmark::State& state) {
  static constexpr fault::FaultModel kMixes[] = {
      {0.0, 0.0}, {0.75e-3, 0.25e-3}, {0.75e-2, 0.25e-2}, {0.0, 1e-2}};
  const auto arg = static_cast<std::size_t>(state.range(0));
  const auto& ft = shared_ft(4);
  core::Router router(ft.net);
  for (const fault::Failure& f : fault::sample_failures(
           kMixes[arg], ft.net.g.edge_count(), util::derive_seed(22, arg))) {
    if (f.state == fault::SwitchState::kClosedFail)
      router.contract_edge(f.edge);
    else
      router.fail_edge(f.edge);
  }
  serve_half_load(state, router, static_cast<std::uint32_t>(ft.n()),
                  util::derive_seed(23, arg));
}
BENCHMARK(BM_ConnectFtMixedFaults)->DenseRange(0, 3);

// The search's child order on Cantor: cantor-k (Arg k; k9 is 512 x 512,
// beyond L2) held fault-free at half load (serve_half_load). Calls spread
// over the k planes by output (ReachIndex::first_hop); visits_per_call
// counts the backtracking that spreading saves. k8 is the outlier: with 8
// planes it visits several times its 19-vertex paths (k7 and k9 stay near
// their path length), likely because first_hop's `out mod p` correlates
// with the Benes output bits when p is a power of two. A developer probe
// with no gate; the SearchWork ratchet (tests/test_search.cpp) holds the
// visits of a fixed-length churn of this kind to exact ceilings:
//   ./build/bench_routing --benchmark_filter=BM_ConnectCantorHalfLoad
void BM_ConnectCantorHalfLoad(benchmark::State& state) {
  const graph::Network net =
      networks::build_cantor({static_cast<std::uint32_t>(state.range(0)), 0});
  core::Router router(net);
  serve_half_load(state, router, static_cast<std::uint32_t>(net.inputs.size()),
                  util::derive_seed(25, 0));
}
BENCHMARK(BM_ConnectCantorHalfLoad)->Arg(8)->Arg(9);

// The service facade's cost over the bare router: search-k9's traffic
// shape (cantor-k, Arg 0, held at half its terminals: each step hangs up a
// random live call with probability live/n, else dials an idle input to an
// idle output) served by a default svc::Exchange through call/hangup and by
// a bare core::Router through its own connect/disconnect. Both serve the
// same seeded stream, step by step, the order alternating per step, so
// both hold the same calls on the same paths. exchange_ns and router_ns are
// each side's mean ns per dial, verdict_mismatches must read 0. A
// developer probe with no gate:
//   ./build/bench_routing --benchmark_filter=BM_ExchangeFacade
void BM_ExchangeFacade(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const graph::Network net = networks::build_cantor({k, 0});
  svc::Exchange ex(net, {});
  core::Router router(net);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  // Idle terminals, and the live calls with the handles of both sides.
  std::vector<std::uint32_t> idle_in(n), idle_out(n);
  std::iota(idle_in.begin(), idle_in.end(), 0u);
  std::iota(idle_out.begin(), idle_out.end(), 0u);
  struct Live {
    svc::CallId id;
    core::Router::CallId raw;
    std::uint32_t in, out;
  };
  std::vector<Live> live;
  util::Xoshiro256 rng(util::derive_seed(27, k));
  const auto take = [&rng](std::vector<std::uint32_t>& pool) {
    const auto i = rng.below(pool.size());
    const std::uint32_t t = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return t;
  };
  using Clock = std::chrono::steady_clock;
  Clock::duration ex_time{}, router_time{};
  std::uint64_t dials = 0, mismatches = 0;
  bool exchange_first = true;
  const auto step = [&] {
    exchange_first = !exchange_first;
    if (!live.empty() && rng.below(n) < live.size()) {
      const auto i = rng.below(live.size());
      if (exchange_first) ex.hangup(live[i].id);
      router.disconnect(live[i].raw);
      if (!exchange_first) ex.hangup(live[i].id);
      idle_in.push_back(live[i].in);
      idle_out.push_back(live[i].out);
      live[i] = live.back();
      live.pop_back();
      return;
    }
    const std::uint32_t in = take(idle_in), out = take(idle_out);
    svc::Outcome o;
    const auto exchange = [&] {
      const auto t0 = Clock::now();
      o = ex.call({in, out, 0, in});
      ex_time += Clock::now() - t0;
    };
    if (exchange_first) exchange();
    const auto t0 = Clock::now();
    const core::Router::CallId c = router.connect(in, out);
    router_time += Clock::now() - t0;
    if (!exchange_first) exchange();
    ++dials;
    const bool routed = c != core::Router::kNoCall;
    if (o.connected() != routed ||
        (routed && o.path_length != router.path_length(c)))
      ++mismatches;
    if (o.connected() && routed) {
      live.push_back({o.id, c, in, out});
      return;
    }
    if (o.connected()) ex.hangup(o.id);
    if (routed) router.disconnect(c);
    idle_in.push_back(in);
    idle_out.push_back(out);
  };
  for (std::uint32_t i = 0; i < 4 * n; ++i) step();  // warm up to half load
  ex_time = router_time = {};
  dials = 0;
  for (auto _ : state) step();
  const auto per_dial = [dials](Clock::duration d) {
    return dials == 0 ? 0.0
                      : static_cast<double>(
                            std::chrono::nanoseconds(d).count()) /
                            static_cast<double>(dials);
  };
  state.counters["exchange_ns"] = per_dial(ex_time);
  state.counters["router_ns"] = per_dial(router_time);
  state.counters["verdict_mismatches"] = static_cast<double>(mismatches);
}
BENCHMARK(BM_ExchangeFacade)->Arg(7)->Arg(9);

// The batched drain's cost per request: an exchange on cantor-k (Arg 0)
// serves windows of W requests (Arg 1), W distinct inputs to W distinct
// outputs, through submit + drain_all, and hangs each window's calls up
// before the next. items_per_second counts requests. A
// developer probe with no gate:
//   ./build/bench_routing --benchmark_filter=BM_DrainWindow
void BM_DrainWindow(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto window = static_cast<std::size_t>(state.range(1));
  const graph::Network net = networks::build_cantor({k, 0});
  svc::Exchange ex(net, {});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::vector<std::uint32_t> ins(n), outs(n);
  std::iota(ins.begin(), ins.end(), 0u);
  std::iota(outs.begin(), outs.end(), 0u);
  util::Xoshiro256 rng(util::derive_seed(26, k));
  std::vector<svc::CallId> live;
  const svc::Exchange::CompletionFn done = [&live](const svc::Outcome& o) {
    if (o.connected()) live.push_back(o.id);
  };
  for (auto _ : state) {
    for (std::size_t i = 0; i < window; ++i) {
      std::swap(ins[i], ins[i + rng.below(n - i)]);
      std::swap(outs[i], outs[i + rng.below(n - i)]);
      ex.submit({ins[i], outs[i]}, done);
    }
    benchmark::DoNotOptimize(ex.drain_all());
    for (const svc::CallId id : live) ex.hangup(id);
    live.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(window));
}
BENCHMARK(BM_DrainWindow)
    ->Args({6, 32})
    ->Args({7, 64})
    ->Args({9, 64})
    ->Args({9, 128})
    ->Args({9, 256})
    ->UseRealTime();

// The federation's batched plane: 4 x cantor-k7 members, 384 subscribers.
// Each iteration is one epoch: hang up the calls older than 4 epochs,
// offer up to 64 requests from idle inputs to random outputs through
// submit, and serve them with drain_all. 4000 epochs per run.
// ns_per_request times drain_all only; carried and trunk_rejects count the
// whole run. A developer probe with no gate:
//   ./build/bench_routing --benchmark_filter=BM_FederationDrain
void BM_FederationDrain(benchmark::State& state) {
  const graph::Network net = networks::build_cantor({7, 0});
  svc::Federation fed(net, 4);
  const auto n = static_cast<std::uint32_t>(fed.input_count());
  std::vector<std::uint32_t> idle(n);
  std::iota(idle.begin(), idle.end(), 0u);
  struct Held {
    svc::FedCallId id;
    std::uint32_t input;
  };
  std::deque<std::vector<Held>> by_age;  // the calls of each recent epoch
  std::uint64_t carried = 0, requests = 0;
  // Completions fire on the draining thread (this one).
  const svc::Federation::FedCompletionFn done = [&](const svc::FedOutcome& o) {
    const auto input = static_cast<std::uint32_t>(o.tag);
    if (o.connected()) {
      by_age.back().push_back({o.id, input});
      ++carried;
    } else {
      idle.push_back(input);
    }
  };
  util::Xoshiro256 rng(util::derive_seed(28, 1));
  using Clock = std::chrono::steady_clock;
  Clock::duration drain_time{};
  for (auto _ : state) {
    if (by_age.size() == 4) {
      for (const Held& h : by_age.front()) {
        fed.hangup(h.id);
        idle.push_back(h.input);
      }
      by_age.pop_front();
    }
    by_age.emplace_back();
    const std::size_t offered = std::min<std::size_t>(64, idle.size());
    for (std::size_t i = 0; i < offered; ++i) {
      const auto k = rng.below(idle.size());
      const std::uint32_t in = idle[k];
      idle[k] = idle.back();
      idle.pop_back();
      fed.submit({in, static_cast<std::uint32_t>(rng.below(n)), 0, in}, done);
    }
    requests += offered;
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(fed.drain_all());
    drain_time += Clock::now() - t0;
  }
  state.counters["ns_per_request"] =
      requests == 0 ? 0.0
                    : static_cast<double>(
                          std::chrono::nanoseconds(drain_time).count()) /
                          static_cast<double>(requests);
  state.counters["carried"] = static_cast<double>(carried);
  state.counters["trunk_rejects"] =
      static_cast<double>(fed.stats().trunk_rejects);
}
BENCHMARK(BM_FederationDrain)->Iterations(4000);

// Hitless growth's pause: a default exchange on
// cantor-k (Arg k) held at half load, n/2 calls from distinct idle inputs
// to distinct idle outputs on a seeded stream, then doubled live to the
// next order (networks::grow_cantor + Exchange::grow). A grown exchange
// cannot grow again, so each iteration builds, fills and grows a fresh
// one; only the merge counts as time (manual time = the report's
// quiesce_seconds). quiesce_us is the mean pause, calls_carried the live
// calls carried per growth, and calls_killed the live calls lost over all
// growths, measured as active_calls() before minus after the merge. The
// hitless contract makes calls_killed 0; the probe reports an error
// otherwise. A developer probe with no timing gate:
//   ./build/bench_routing --benchmark_filter=BM_GrowthQuiesce
void BM_GrowthQuiesce(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const graph::Network base = networks::build_cantor({k, 0});
  const graph::Network grown = networks::grow_cantor(base, {k, 0});
  const auto n = static_cast<std::uint32_t>(base.inputs.size());
  std::vector<std::uint32_t> ins(n), outs(n);
  double quiesce_s = 0.0;
  std::uint64_t carried = 0, killed = 0;
  for (auto _ : state) {
    svc::Exchange ex(base, {});
    std::iota(ins.begin(), ins.end(), 0u);
    std::iota(outs.begin(), outs.end(), 0u);
    util::Xoshiro256 rng(util::derive_seed(30, k));
    for (std::uint32_t i = 0; i < n / 2; ++i) {
      std::swap(ins[i], ins[i + rng.below(n - i)]);
      std::swap(outs[i], outs[i + rng.below(n - i)]);
      benchmark::DoNotOptimize(ex.call({ins[i], outs[i]}));
    }
    const std::size_t live = ex.active_calls();
    const svc::GrowthReport rep = ex.grow(grown);
    if (!rep.applied) {
      state.SkipWithError(rep.error.c_str());
      break;
    }
    state.SetIterationTime(rep.quiesce_seconds);
    quiesce_s += rep.quiesce_seconds;
    carried += rep.calls_carried;
    killed += live - ex.active_calls();
  }
  const auto per_growth = [&state](double total) {
    return state.iterations() == 0
               ? 0.0
               : total / static_cast<double>(state.iterations());
  };
  state.counters["quiesce_us"] = per_growth(quiesce_s * 1e6);
  state.counters["calls_carried"] = per_growth(static_cast<double>(carried));
  state.counters["calls_killed"] = static_cast<double>(killed);
  if (killed != 0) state.SkipWithError("growth killed live calls");
}
BENCHMARK(BM_GrowthQuiesce)->DenseRange(5, 8)->UseManualTime();

// Building one live fault schedule at storm-fed's member shape: the
// 26,880 switches of cantor-k7, 2e-4 failures per switch per epoch, mean
// repair 8 epochs, a quarter of failures stuck-on, over a 3,939-epoch
// horizon (a 20 s run). Each iteration generates a fresh seed's stream and
// sorts it by time. events is the mean stream length (~42k),
// ns_per_event the time per event. A developer probe with no gate:
//   ./build/bench_routing --benchmark_filter=BM_FaultSchedule
void BM_FaultSchedule(benchmark::State& state) {
  fault::FaultSchedule::Params params{2e-4, 8.0, 3939.0, 0.25, 1};
  std::uint64_t events = 0;
  using Clock = std::chrono::steady_clock;
  Clock::duration time{};
  for (auto _ : state) {
    params.seed = util::derive_seed(39, params.seed);
    const auto t0 = Clock::now();
    const fault::FaultSchedule fs(26'880, params);
    time += Clock::now() - t0;
    benchmark::DoNotOptimize(fs.events().data());
    events += fs.events().size();
  }
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  state.counters["events"] =
      per(static_cast<double>(events), state.iterations());
  state.counters["ns_per_event"] = per(
      static_cast<double>(std::chrono::nanoseconds(time).count()), events);
}
BENCHMARK(BM_FaultSchedule);

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

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  print_success_table();
  return 0;
}
