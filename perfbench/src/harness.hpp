// Shared pieces of the exchange benchmark: the clock, the span tracer that
// times calls into the library from the benchmark's side, an O(1) random-
// pick terminal set for the closed-loop traffic generators, summary
// statistics and the JSON report every workload returns.
#pragma once

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // nominal measured time; sets the op count
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here at the end
};

/// Timed operations per run: `per_second` is the workload's nominal rate on
/// the reference box, so a run measures about `seconds`. The count depends
/// only on the options, never on the clock, so one seed repeats exactly.
[[nodiscard]] inline std::size_t op_count(const Options& o, double per_second,
                                          std::size_t rounds) {
  const double want = per_second * o.seconds;
  const auto per_round = static_cast<std::size_t>(want / rounds);
  return std::max<std::size_t>(per_round, 16) * rounds;
}

// ------------------------------------------------------------------ tracing

/// Public library entry points the benchmark times.
enum class Layer : std::uint8_t {
  kExCall,         // svc::Exchange::call
  kExHangup,       // svc::Exchange::hangup
  kEngConnect,     // svc::Engine::connect (search-k9 replay)
  kEngDisconnect,  // svc::Engine::disconnect (search-k9 replay)
  kSubmit,         // svc::Exchange::submit
  kDrain,          // svc::Exchange::drain_all
  kFedIntra,       // svc::Federation::call, caller and callee on one shard
  kFedInter,       // svc::Federation::call across a trunk
  kFedHangup,      // svc::Federation::hangup
  kInject,         // Exchange::inject / Federation::inject
  kRepair,         // Exchange::repair / Federation::repair
  kTrunkEvent,     // Federation::fail_trunk / repair_trunk
  kScrape,         // ops::MetricsRegistry::scrape_prometheus
  kCount
};

[[nodiscard]] constexpr const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kExCall: return "svc.exchange.call";
    case Layer::kExHangup: return "svc.exchange.hangup";
    case Layer::kEngConnect: return "ftcs.engine.connect";
    case Layer::kEngDisconnect: return "ftcs.engine.disconnect";
    case Layer::kSubmit: return "svc.exchange.submit";
    case Layer::kDrain: return "svc.exchange.drain_all";
    case Layer::kFedIntra: return "svc.federation.call.intra";
    case Layer::kFedInter: return "svc.federation.call.inter";
    case Layer::kFedHangup: return "svc.federation.hangup";
    case Layer::kInject: return "fault.inject";
    case Layer::kRepair: return "fault.repair";
    case Layer::kTrunkEvent: return "fault.trunk_event";
    case Layer::kScrape: return "ops.scrape_prometheus";
    case Layer::kCount: break;
  }
  return "unknown";
}

struct Span {
  std::int64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  Layer layer = Layer::kCount;
};

/// Spans around calls into the library, held in memory while `on` and
/// written by write() when the run ends. Off, record() is a no-op, so the
/// untraced rounds pay only the clock reads their end-to-end metrics need.
class Tracer {
 public:
  bool on = false;

  /// Start stamp for a call that is timed only while tracing.
  [[nodiscard]] std::int64_t begin() const { return on ? now_ns() : 0; }
  void end(Layer l, std::int64_t t0) {
    if (on) record(l, t0, now_ns());
  }
  void record(Layer l, std::int64_t t0, std::int64_t t1) {
    if (!on) return;
    const auto d = static_cast<std::uint64_t>(t1 - t0);
    spans_.push_back({t0, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                              d, UINT32_MAX)),
                      l});
    auto& a = acc_[static_cast<std::size_t>(l)];
    ++a.n;
    a.ns += d;
  }

  /// Mean duration of one traced call into `l`, ns (0 if never called).
  [[nodiscard]] double mean_ns(Layer l) const {
    const auto& a = acc_[static_cast<std::size_t>(l)];
    return a.n ? static_cast<double>(a.ns) / static_cast<double>(a.n) : 0.0;
  }
  [[nodiscard]] std::uint64_t total_ns(Layer l) const {
    return acc_[static_cast<std::size_t>(l)].ns;
  }
  /// Traced time covered by spans of the listed layers.
  [[nodiscard]] std::uint64_t covered_ns(std::initializer_list<Layer> ls) const {
    std::uint64_t s = 0;
    for (Layer l : ls) s += total_ns(l);
    return s;
  }

  /// Writes every span as `layer<TAB>start_ns<TAB>dur_ns`, start relative
  /// to the first span. Returns false if the file cannot be written.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "layer\tstart_ns\tdur_ns\n");
    for (const Span& s : spans_)
      std::fprintf(f, "%s\t%lld\t%u\n", layer_name(s.layer),
                   static_cast<long long>(s.start_ns - t0), s.dur_ns);
    return std::fclose(f) == 0;
  }

 private:
  struct Acc {
    std::uint64_t n = 0, ns = 0;
  };
  std::vector<Span> spans_;
  std::array<Acc, static_cast<std::size_t>(Layer::kCount)> acc_{};
};

// --------------------------------------------------------- terminal sets

/// A subset of [0, n) with O(1) insert, erase, membership and uniform pick.
class TerminalSet {
 public:
  TerminalSet(std::uint32_t n, bool full) : pos_(n, kAbsent) {
    if (full)
      for (std::uint32_t t = 0; t < n; ++t) insert(t);
  }
  [[nodiscard]] bool contains(std::uint32_t t) const {
    return pos_[t] != kAbsent;
  }
  void insert(std::uint32_t t) {
    if (contains(t)) return;
    pos_[t] = static_cast<std::uint32_t>(items_.size());
    items_.push_back(t);
  }
  void erase(std::uint32_t t) {
    if (!contains(t)) return;
    const std::uint32_t i = pos_[t];
    items_[i] = items_.back();
    pos_[items_[i]] = i;
    items_.pop_back();
    pos_[t] = kAbsent;
  }
  [[nodiscard]] std::uint32_t pick(ftcs::util::Xoshiro256& rng) const {
    return items_[rng.below(items_.size())];
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;
  std::vector<std::uint32_t> items_;
  std::vector<std::uint32_t> pos_;
};

// -------------------------------------------------------------- statistics

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(v, 0.5);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Measured rounds of one kind (untraced, or traced). On a shared host,
/// other tenants on the same cores slow the rounds they overlap, by up to
/// half and in phases of seconds, and which cores they load changes over
/// time. Each round therefore runs pinned to the next CPU in rotation (see
/// PinnedRound), and metrics are taken over the quietest quarter of the
/// rounds: the fastest by carried calls per second. Latency percentiles are
/// taken per round and reported as their median over those rounds.
class Rounds {
 public:
  /// Call-setup latency samples, appended by the workload during a round.
  std::vector<double> setup_us;

  void close(double secs, std::uint64_t carried, std::uint64_t offered) {
    rounds_.push_back({secs, carried, offered, setup_us.size()});
  }
  [[nodiscard]] double seconds() const {
    double s = 0.0;
    for (const Round& r : rounds_) s += r.secs;
    return s;
  }

  struct Quiet {
    double carried_per_s = 0.0, offered_per_s = 0.0;
    double setup_p50_us = 0.0, setup_p99_us = 0.0;
    std::size_t samples = 0;  // latency samples in the quiet rounds
  };
  [[nodiscard]] Quiet quiet() const {
    std::vector<std::size_t> idx(rounds_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return rounds_[a].carried * rounds_[b].secs >
             rounds_[b].carried * rounds_[a].secs;
    });
    idx.resize(std::min(idx.size(), std::max<std::size_t>(1, idx.size() / 4)));
    Quiet q;
    double secs = 0.0, carried = 0.0, offered = 0.0;
    std::vector<double> p50, p99;
    for (const std::size_t i : idx) {
      const Round& r = rounds_[i];
      secs += r.secs;
      carried += static_cast<double>(r.carried);
      offered += static_cast<double>(r.offered);
      std::vector<double> lat(
          setup_us.begin() + (i ? rounds_[i - 1].setup_end : 0),
          setup_us.begin() + r.setup_end);
      q.samples += lat.size();
      p50.push_back(quantile(lat, 0.50));
      p99.push_back(quantile(lat, 0.99));
    }
    q.carried_per_s = ratio(carried, secs);
    q.offered_per_s = ratio(offered, secs);
    q.setup_p50_us = median(std::move(p50));
    q.setup_p99_us = median(std::move(p99));
    return q;
  }

 private:
  struct Round {
    double secs = 0.0;
    std::uint64_t carried = 0, offered = 0;
    std::size_t setup_end = 0;  // setup_us.size() when the round closed
  };
  std::vector<Round> rounds_;
};

/// The CPUs the process may run on, read once, before any pinning.
struct AllowedCpus {
  cpu_set_t mask;
  std::vector<int> cpus;  // empty if the mask cannot be read

  static const AllowedCpus& get() {
    static const AllowedCpus a = [] {
      AllowedCpus v;
      CPU_ZERO(&v.mask);
      if (sched_getaffinity(0, sizeof v.mask, &v.mask) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
          if (CPU_ISSET(c, &v.mask)) v.cpus.push_back(c);
      return v;
    }();
    return a;
  }
};

/// Number of CPUs the calling thread may run on now (0 if unknown).
[[nodiscard]] inline int thread_cpu_count() {
  cpu_set_t m;
  CPU_ZERO(&m);
  return sched_getaffinity(0, sizeof m, &m) == 0 ? CPU_COUNT(&m) : 0;
}

/// Pins the calling thread to the r-th allowed CPU, in rotation, for its
/// lifetime, so the rounds of a run sample every core; the destructor gives
/// the thread back every allowed CPU. Only the calling thread is pinned:
/// threads it starts while pinned would inherit the one CPU, so nothing may
/// start a thread inside a pinned scope. Best effort: if the system
/// refuses, the thread stays where the scheduler puts it.
class PinnedRound {
 public:
  explicit PinnedRound(std::size_t r) {
    const AllowedCpus& a = AllowedCpus::get();
    if (a.cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(a.cpus[r % a.cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedRound() {
    if (pinned_) {
      const AllowedCpus& a = AllowedCpus::get();
      sched_setaffinity(0, sizeof a.mask, &a.mask);
    }
  }
  PinnedRound(const PinnedRound&) = delete;
  PinnedRound& operator=(const PinnedRound&) = delete;

 private:
  bool pinned_ = false;
};

/// Set-ups per run, rotating over the CPUs like the rounds: setup_s is
/// their median, so neither one slow allocation nor one loaded core decides
/// it. batched-k6 sets up in about a millisecond, so it needs this many.
inline constexpr int kSetupReps = 32;

/// Median wall time of `reps` runs of `f`.
template <class F>
[[nodiscard]] double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const PinnedRound pin(static_cast<std::size_t>(r));
    const std::int64_t t0 = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(t));
}

// ------------------------------------------------------------------ report

/// What one workload run returns. `counts` depend only on the seed and the
/// op count (the determinism self-test compares them byte for byte);
/// `timing_counts` are engine counters that also depend on how concurrent
/// sessions interleave.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::pair<std::string, std::uint64_t>> timing_counts;
  std::vector<std::pair<std::string, std::uint64_t>> scale;
  std::uint64_t attempted = 0;
  std::uint64_t verify_failures = 0;
  std::vector<std::string> failure_notes;  // the first few, for stderr

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
  void count(std::string name, std::uint64_t v) {
    counts.push_back({std::move(name), v});
  }
  void fail(const std::string& why) {
    ++verify_failures;
    if (failure_notes.size() < 10) failure_notes.push_back(why);
  }
  /// Fails the run unless `ok`, naming the broken check.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  [[nodiscard]] std::string json(const Options& o) const;
};

inline std::string Report::json(const Options& o) const {
  std::string s;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += buf;
  };
  const auto u64 = [&](std::uint64_t v) { s += std::to_string(v); };
  const auto key = [&](const std::string& k) { s += "\"" + k + "\": "; };
  const auto int_map =
      [&](const std::vector<std::pair<std::string, std::uint64_t>>& m) {
        s += "{";
        for (std::size_t i = 0; i < m.size(); ++i) {
          if (i) s += ", ";
          key(m[i].first);
          u64(m[i].second);
        }
        s += "}";
      };
  s += "{";
  key("workload");
  s += "\"" + o.workload + "\", ";
  key("seed");
  u64(o.seed);
  s += ", ";
  key("trace");
  s += o.trace ? "1" : "0";
  s += ", ";
  key("attempted");
  u64(attempted);
  s += ", ";
  key("verify_failures");
  u64(verify_failures);
  s += ", ";
  key("metrics");
  s += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    key(metrics[i].first);
    s += "{\"value\": ";
    num(metrics[i].second.first);
    s += ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  s += "}, ";
  key("counts");
  int_map(counts);
  s += ", ";
  key("timing_counts");
  int_map(timing_counts);
  s += ", ";
  key("scale");
  int_map(scale);
  s += "}";
  return s;
}

}  // namespace perfbench
