// bench_federation — the multi-exchange federation's aggregate calls/sec
// curve, spliced into BENCH_routing.json as the "federation_scaling" series
// (tools/check_bench.py gates every point like the single-exchange ones).
//
// Three sweeps plus one gate, all deterministic churn (25% hangup) against
// svc::Federation on the greedy backend:
//
//  1. "sweep"    — the tentpole curve: a FIXED plant of 256 terminals served
//                  by 1 -> 8 exchanges (cantor-k8 whole, down to 8x
//                  cantor-k5 members) under 10% inter-exchange traffic.
//                  Sharding shrinks every member's search space, so
//                  aggregate calls/sec must rise monotonically — the
//                  recursion's algorithmic win on one core, no parallel
//                  hardware assumed (acceptance: >= 3x at 8 shards).
//  2. "fraction" — 8x cantor-k5 mesh, sweeping the inter-exchange traffic
//                  fraction: what trunk claims + double half-call routing
//                  cost as federation traffic grows.
//  3. "scaleout" — ring federations of cantor-k5 members at 26 subscribers
//                  each, 64 -> 4096 exchanges (1.6e3 -> 1.06e5 terminals,
//                  the >= 10^5 aggregate-terminal point of the series), 10%
//                  inter traffic to ring neighbours.
//
//  The intra-path gate re-runs the same churn on a RAW cantor-k5 Exchange
//  and on a 1-shard federation over the same network: the federated
//  intra-shard fast path must price at noise level (ratio ~ 1).
//
// --json=PATH splices the series into an existing BENCH_routing.json
// (replacing any previous "federation_scaling" line) or writes a standalone
// document when PATH does not exist. --repeat=K records median-of-K points.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "networks/cantor.hpp"
#include "svc/federation.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

struct FedMeasure {
  std::size_t connects = 0;
  double seconds = 0.0;
  svc::FederationStats stats;
  std::size_t terminals = 0;
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0 ? static_cast<double>(connects) / seconds : 0.0;
  }
  [[nodiscard]] double visits_per_connect() const {
    const auto& r = stats.members.router;
    return r.connect_calls ? static_cast<double>(r.vertices_visited) /
                                 static_cast<double>(r.connect_calls)
                           : 0.0;
  }
};

/// --repeat=K: keeps the run with the median calls/sec (whole measurement).
template <class F>
FedMeasure median_of(std::size_t repeats, F&& run) {
  FedMeasure first = run();
  if (repeats <= 1) return first;
  std::vector<FedMeasure> samples;
  samples.reserve(repeats);
  samples.push_back(std::move(first));
  for (std::size_t r = 1; r < repeats; ++r) samples.push_back(run());
  std::sort(samples.begin(), samples.end(),
            [](const FedMeasure& a, const FedMeasure& b) {
              return a.calls_per_sec() < b.calls_per_sec();
            });
  return samples[samples.size() / 2];
}

/// Deterministic churn against a federation: 25% of steps hang up a random
/// live call; the rest place one with probability `inter_fraction` of
/// crossing shards (mesh: any other member; ring: a ring neighbour).
FedMeasure fed_churn(const graph::Network& member_net, unsigned shards,
                     svc::FederationConfig::Topology topology,
                     std::uint32_t subscribers, double inter_fraction,
                     std::size_t ops) {
  svc::FederationConfig cfg;
  cfg.subscribers = subscribers;
  cfg.topology = topology;
  svc::Federation fed(member_net, shards, cfg);
  const std::uint32_t subs = fed.subscribers_per_member();
  util::Xoshiro256 rng(util::derive_seed(13, shards));
  std::vector<svc::FedCallId> active;
  active.reserve(fed.input_count());
  std::size_t connects = 0;
  std::uint64_t tag = 0;
  const auto step = [&] {
    if (!active.empty() && rng.below(4) == 0) {
      const std::size_t idx = rng.below(active.size());
      fed.hangup(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      return;
    }
    const auto sa = static_cast<std::uint32_t>(rng.below(shards));
    std::uint32_t sb = sa;
    if (shards > 1 && rng.bernoulli(inter_fraction)) {
      if (topology == svc::FederationConfig::Topology::kRing && shards > 3) {
        sb = rng.bernoulli(0.5) ? (sa + 1) % shards : (sa + shards - 1) % shards;
      } else {
        sb = static_cast<std::uint32_t>(rng.below(shards - 1));
        if (sb >= sa) ++sb;
      }
    }
    const svc::CallRequest req{
        fed.global_of(sa, static_cast<std::uint32_t>(rng.below(subs))),
        fed.global_of(sb, static_cast<std::uint32_t>(rng.below(subs))), 0,
        tag++};
    const svc::FedOutcome o = fed.call(req);
    ++connects;
    if (o.connected()) active.push_back(o.id);
  };
  for (std::size_t i = 0; i < ops / 10; ++i) step();  // warmup
  connects = 0;
  fed.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) step();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  FedMeasure m;
  m.connects = connects;
  m.seconds = dt;
  m.stats = fed.stats();
  m.terminals = fed.input_count();
  return m;
}

/// The intra-gate's raw-Exchange twin of fed_churn (same traffic law).
FedMeasure raw_churn(const graph::Network& net, std::size_t ops) {
  svc::Exchange ex(net, {});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(util::derive_seed(13, 1));
  std::vector<svc::CallId> active;
  active.reserve(n);
  std::size_t connects = 0;
  std::uint64_t tag = 0;
  const auto step = [&] {
    if (!active.empty() && rng.below(4) == 0) {
      const std::size_t idx = rng.below(active.size());
      ex.hangup(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      return;
    }
    const svc::Outcome o =
        ex.call({static_cast<std::uint32_t>(rng.below(n)),
                 static_cast<std::uint32_t>(rng.below(n)), 0, tag++});
    ++connects;
    if (o.connected()) active.push_back(o.id);
  };
  for (std::size_t i = 0; i < ops / 10; ++i) step();
  connects = 0;
  ex.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) step();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  FedMeasure m;
  m.connects = connects;
  m.seconds = dt;
  m.stats.members.router = ex.stats().router;
  m.terminals = n;
  return m;
}

struct Point {
  std::string part;
  std::string topology;
  unsigned shards = 0;
  std::string member;
  double inter_fraction = 0.0;
  FedMeasure m;
};

void append_point(std::ostringstream& out, const Point& p, bool last) {
  out << "{\"part\": \"" << p.part << "\", \"topology\": \"" << p.topology
      << "\", \"shards\": " << p.shards << ", \"member\": \"" << p.member
      << "\", \"terminals\": " << p.m.terminals
      << ", \"inter_fraction\": " << p.inter_fraction
      << ", \"connects\": " << p.m.connects << ", \"calls_per_sec\": "
      << static_cast<std::uint64_t>(p.m.calls_per_sec())
      << ", \"visits_per_connect\": " << p.m.visits_per_connect()
      << ", \"trunk_claims\": " << p.m.stats.trunks.claims
      << ", \"trunk_rejects\": " << p.m.stats.trunks.rejects
      << ", \"half_calls_routed\": " << p.m.stats.half_calls_routed << "}"
      << (last ? "" : ", ");
}

/// Splices `line` (a complete `  "federation_scaling": {...},` JSON member)
/// into the document at `path`: drops any previous federation_scaling line,
/// inserts the new one right after the opening brace. Writes a standalone
/// document when the file is missing or not the expected shape.
int splice_json(const std::string& path, const std::string& block) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  bool have = in.good();
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  have = have && !lines.empty() && lines.front().rfind("{", 0) == 0;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_federation: cannot write " << path << "\n";
    return 1;
  }
  if (!have) {
    out << "{\n  \"federation_scaling\": " << block << "\n}\n";
    return 0;
  }
  out << lines.front() << "\n";
  out << "  \"federation_scaling\": " << block << ",\n";
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("  \"federation_scaling\":", 0) == 0) continue;
    out << lines[i] << "\n";
  }
  return 0;
}

int run(const std::string& json_path, std::size_t repeats, bool scaleout) {
  std::vector<Point> points;
  const auto record = [&](const char* part, const char* topo, unsigned shards,
                          unsigned member_k, std::uint32_t subscribers,
                          double fraction, std::size_t ops) {
    const auto net = networks::build_cantor({member_k, 0});
    const auto topology = std::string(topo) == "ring"
                              ? svc::FederationConfig::Topology::kRing
                              : svc::FederationConfig::Topology::kFullMesh;
    Point p;
    p.part = part;
    p.topology = topo;
    p.shards = shards;
    p.member = "cantor-k" + std::to_string(member_k);
    p.inter_fraction = fraction;
    p.m = median_of(repeats, [&] {
      return fed_churn(net, shards, topology, subscribers, fraction, ops);
    });
    std::cout << "federation " << p.part << " " << p.topology << " "
              << shards << "x" << p.member << " (" << p.m.terminals
              << " terminals, f=" << fraction << "): "
              << static_cast<std::uint64_t>(p.m.calls_per_sec())
              << " calls/sec, " << p.m.visits_per_connect()
              << " visits/connect\n";
    points.push_back(std::move(p));
  };

  // 1. The tentpole curve: 256 terminals, 1 -> 8 exchanges. Per-member
  //    search space shrinks k8 -> k5, so the curve must rise.
  const std::size_t sweep_ops = bench::scaled(60'000);
  record("sweep", "mesh", 1, 8, 0, 0.1, sweep_ops);
  record("sweep", "mesh", 2, 7, 0, 0.1, sweep_ops);
  record("sweep", "mesh", 4, 6, 0, 0.1, sweep_ops);
  record("sweep", "mesh", 8, 5, 0, 0.1, sweep_ops);

  // 2. Inter-exchange traffic fraction sweep at the 8-shard point.
  for (const double f : {0.0, 0.05, 0.2, 0.4})
    record("fraction", "mesh", 8, 5, 0, f, sweep_ops);

  // 3. Ring scale-out to >= 10^5 aggregate terminals (26 subscribers + 6
  //    trunk ports per cantor-k5 member; 4096 members = 106,496 terminals).
  //    The op budget scales with the plant so every point is measured at
  //    the same steady-state occupancy per member, not in its fill phase.
  if (scaleout) {
    for (const unsigned n : {64u, 512u, 4096u})
      record("scaleout", "ring", n, 5, 26, 0.1, bench::scaled(n * 400));
  }

  // Intra-path gate: raw exchange vs 1-shard federation, same network and
  // traffic law. The fast path adds two divisions and a compare.
  const auto k5 = networks::build_cantor({5, 0});
  const std::size_t gate_ops = bench::scaled(200'000);
  const FedMeasure raw = median_of(repeats, [&] { return raw_churn(k5, gate_ops); });
  const FedMeasure fed1 = median_of(repeats, [&] {
    return fed_churn(k5, 1, svc::FederationConfig::Topology::kFullMesh, 0, 0.0,
                     gate_ops);
  });
  const double ratio =
      raw.calls_per_sec() > 0 ? fed1.calls_per_sec() / raw.calls_per_sec() : 0.0;
  std::cout << "federation intra gate cantor-k5: raw "
            << static_cast<std::uint64_t>(raw.calls_per_sec())
            << " calls/sec vs federated "
            << static_cast<std::uint64_t>(fed1.calls_per_sec())
            << " calls/sec (ratio " << ratio << ")\n";

  std::ostringstream block;
  block << "{\"workload\": \"deterministic federation churn, 25% hangup, "
        << "greedy members\", \"repeats\": " << repeats << ", \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i)
    append_point(block, points[i], i + 1 == points.size());
  block << "], \"intra_gate\": {\"network\": \"cantor-k5\", "
        << "\"raw_calls_per_sec\": "
        << static_cast<std::uint64_t>(raw.calls_per_sec())
        << ", \"federated_calls_per_sec\": "
        << static_cast<std::uint64_t>(fed1.calls_per_sec())
        << ", \"ratio\": " << ratio << "}}";
  const int rc = splice_json(json_path, block.str());
  if (rc == 0)
    std::cout << "federation_scaling series -> " << json_path << "\n";
  return rc;
}

}  // namespace
}  // namespace ftcs

int main(int argc, char** argv) {
  std::string json_path = "BENCH_routing.json";
  std::size_t repeats = 1;
  bool scaleout = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--repeat=", 0) == 0) {
      const long v = std::strtol(arg.c_str() + 9, nullptr, 10);
      if (v >= 1) repeats = static_cast<std::size_t>(v);
    }
    if (arg == "--no-scaleout") scaleout = false;
  }
  return ftcs::run(json_path, repeats, scaleout);
}
