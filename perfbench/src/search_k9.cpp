// search-k9: the immediate plane of a default svc::Exchange (one greedy
// session) on cantor-k9 — 512 terminals, ~88.6k vertices, ~175k switches,
// larger than one core's L2. Occupancy is held at half the terminals: each
// step hangs up a random live call with probability live/n, else dials an
// idle input to an idle output. Every dial runs a full search and, by the
// paper's §4 guarantee on a fault-free strictly nonblocking network, must
// connect, so any other verdict fails the run.
//
// The traced run also replays the identical request/hangup stream against a
// bare svc::make_engine(net, {}) engine, one round at a time right after the
// exchange ran it: the same search with no handles or classification, which
// splits Exchange::call into engine and facade cost.
#include <memory>

#include "networks/cantor.hpp"
#include "svc/engine.hpp"
#include "svc/exchange.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftcs;

constexpr std::uint32_t kOrder = 9;
constexpr double kOpsPerSecond = 16'000;  // nominal steps/s on the reference box
constexpr std::size_t kRounds = 32;

/// One traffic step, recorded for the engine replay.
struct Step {
  bool dial = false;
  std::uint32_t in = 0, out = 0;
  bool connected = false;
  std::uint32_t path_length = 0;
};

struct Loop {
  svc::Exchange& ex;
  Tracer& tr;
  Report& rep;
  util::Xoshiro256 rng;
  std::uint32_t n;
  TerminalSet idle_in{n, true}, idle_out{n, true}, live{n, false};
  std::vector<svc::CallId> handle = std::vector<svc::CallId>(n);
  std::vector<std::uint32_t> callee = std::vector<std::uint32_t>(n);
  std::vector<Step>* steps = nullptr;  // set in traced runs
  std::vector<double>* setup_us = nullptr;  // set while sampling latency
  std::uint64_t offered = 0, carried = 0, blocked = 0, hangups = 0;

  void step() {
    if (!live.empty() && rng.below(n) < live.size())
      hang(live.pick(rng));
    else
      dial();
  }

  void dial() {
    const std::uint32_t in = idle_in.pick(rng), out = idle_out.pick(rng);
    const std::int64_t t0 = now_ns();
    const svc::Outcome o = ex.call({in, out, 0, in});
    const std::int64_t t1 = now_ns();
    tr.record(Layer::kExCall, t0, t1);
    if (setup_us) setup_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
    ++offered;
    if (steps)
      steps->push_back({true, in, out, o.connected(), o.path_length});
    if (!o.connected()) {
      if (is_blocking(o.reject)) ++blocked;
      rep.fail(std::string("search-k9: idle-to-idle call got ") +
               svc::to_string(o.reject));
      return;
    }
    ++carried;
    handle[in] = o.id;
    callee[in] = out;
    live.insert(in);
    idle_in.erase(in);
    idle_out.erase(out);
  }

  void hang(std::uint32_t in) {
    const std::int64_t t0 = tr.begin();
    const svc::RejectReason r = ex.hangup(handle[in]);
    tr.end(Layer::kExHangup, t0);
    rep.check(r == svc::RejectReason::kNone, "search-k9: hangup refused");
    if (steps) steps->push_back({false, in, 0, false, 0});
    ++hangups;
    live.erase(in);
    idle_in.insert(in);
    idle_out.insert(callee[in]);
  }
};

/// The traced run's replay: a bare one-session engine over the same network
/// that re-runs each round's request/hangup stream right after the
/// exchange ran it, so both are timed in the same stretch of the run.
class Replay {
 public:
  explicit Replay(const graph::Network& net)
      : eng_(svc::make_engine(net, {})),
        raw_(net.inputs.size(), svc::Engine::kNoRawCall) {}

  /// Replays `steps`, timing them into `tr` while it is on.
  void run(const std::vector<Step>& steps, Tracer& tr) {
    for (const Step& s : steps) {
      if (s.dial) {
        const std::int64_t t0 = tr.begin();
        const svc::Engine::Connect c = eng_->connect(0, s.in, s.out);
        tr.end(Layer::kEngConnect, t0);
        if ((c.reject == svc::RejectReason::kNone) != s.connected ||
            c.path_length != s.path_length)
          ++mismatches_;
        raw_[s.in] = c.call;
      } else {
        const std::int64_t t0 = tr.begin();
        eng_->disconnect(0, raw_[s.in]);
        tr.end(Layer::kEngDisconnect, t0);
      }
    }
  }

  /// Same verdicts, and the same search work, as the exchange's engine.
  void check(const core::RouterStats& exchange_work, Report& rep) const {
    rep.check(mismatches_ == 0, "search-k9: engine replay verdicts differ");
    const core::RouterStats w = eng_->stats();
    rep.check(w.connect_calls == exchange_work.connect_calls &&
                  w.accepted == exchange_work.accepted &&
                  w.vertices_visited == exchange_work.vertices_visited &&
                  w.path_vertices == exchange_work.path_vertices,
              "search-k9: engine replay did different search work");
  }

 private:
  std::unique_ptr<svc::Engine> eng_;
  std::vector<svc::Engine::RawCall> raw_;
  std::uint64_t mismatches_ = 0;
};

}  // namespace

Report run_search_k9(const Options& o) {
  Report rep;
  EndToEnd e2e;
  PerLayer pl;

  // Set-up, kSetupReps times; the last one serves.
  std::unique_ptr<graph::Network> net;
  std::unique_ptr<svc::Exchange> ex;
  std::vector<double> build, construct;
  e2e.setup_s = median_seconds(kSetupReps, [&] {
    ex.reset();
    net.reset();
    const std::int64_t t0 = now_ns();
    net = std::make_unique<graph::Network>(networks::build_cantor({kOrder, 0}));
    const std::int64_t t1 = now_ns();
    ex = std::make_unique<svc::Exchange>(*net);
    const std::int64_t t2 = now_ns();
    build.push_back(static_cast<double>(t1 - t0) * 1e-9);
    construct.push_back(static_cast<double>(t2 - t1) * 1e-9);
  });
  pl.build_s = median(build);
  pl.construct_s = median(construct);

  Tracer tr;
  const auto n = static_cast<std::uint32_t>(ex->input_count());
  Loop loop{*ex, tr, rep, util::Xoshiro256(util::derive_seed(o.seed, 1)), n};
  std::vector<Step> steps;
  std::unique_ptr<Replay> replay;
  if (o.trace) {
    loop.steps = &steps;
    replay = std::make_unique<Replay>(*net);
  }
  const auto replay_steps = [&] {
    if (!replay) return;
    replay->run(steps, tr);
    steps.clear();
  };

  const std::size_t ops = op_count(o, kOpsPerSecond, kRounds);
  const std::size_t warmup = std::max<std::size_t>(4 * n, ops / 20);
  for (std::size_t i = 0; i < warmup; ++i) loop.step();
  replay_steps();

  // Measured rounds; a traced run alternates untraced and traced rounds so
  // trace.overhead_frac compares like with like.
  const core::RouterStats before = ex->stats().router;
  const std::uint64_t off_w = loop.offered, car_w = loop.carried,
                      hang_w = loop.hangups;
  Rounds traced;
  for (std::size_t r = 0; r < kRounds; ++r) {
    tr.on = o.trace && r % 2 == 1;
    const PinnedRound pin(r);
    loop.setup_us = tr.on ? nullptr : &e2e.rounds.setup_us;
    const std::uint64_t off0 = loop.offered, car0 = loop.carried;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ops / kRounds; ++i) loop.step();
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    (tr.on ? traced : e2e.rounds)
        .close(secs, loop.carried - car0, loop.offered - off0);
    replay_steps();
  }
  tr.on = false;
  loop.setup_us = nullptr;
  const core::RouterStats total = ex->stats().router;
  core::RouterStats work = total;
  work -= before;
  const std::uint64_t offered = loop.offered - off_w,
                      carried = loop.carried - car_w,
                      hangups = loop.hangups - hang_w;

  for (std::uint32_t in = 0; in < n; ++in)
    if (loop.live.contains(in)) loop.hang(in);

  // Quiescence: nothing busy, and the books balance.
  const svc::ExchangeStats st = ex->stats();
  rep.check(ex->active_calls() == 0, "search-k9: calls left after hangup-all");
  rep.check(ex->busy_vertices() == 0, "search-k9: busy vertices at quiescence");
  rep.check(st.router.accepted == st.router.disconnects,
            "search-k9: accepted != disconnects at quiescence");
  rep.check(st.router.connect_calls == loop.offered &&
                st.router.accepted == loop.carried,
            "search-k9: router books differ from offered traffic");
  rep.check(st.hangups == loop.hangups, "search-k9: hangup books differ");

  if (replay) replay->check(total, rep);

  rep.attempted = offered;
  e2e.offered = offered;
  e2e.blocked = loop.blocked;
  if (o.trace) {
    pl.call_ns = tr.mean_ns(Layer::kExCall);
    pl.connect_ns = tr.mean_ns(Layer::kEngConnect);
    pl.hangup_ns = tr.mean_ns(Layer::kExHangup);
    const auto calls = static_cast<double>(work.connect_calls);
    pl.visits_per_call = ratio(static_cast<double>(work.vertices_visited), calls);
    pl.bottom_up_per_call =
        ratio(static_cast<double>(work.bottom_up_levels), calls);
    pl.path_vertices_per_call = ratio(static_cast<double>(work.path_vertices),
                                      static_cast<double>(work.accepted));
    pl.from_tracer(tr, e2e.rounds, traced, {Layer::kExCall, Layer::kExHangup});
    pl.emit(rep);
  } else {
    e2e.emit(rep);
  }
  if (!tr.write(o.spans_path)) rep.fail("search-k9: cannot write spans");

  rep.count("offered", offered);
  rep.count("carried", carried);
  rep.count("blocked", loop.blocked);
  rep.count("hangups", hangups);
  rep.count("router_connect_calls", work.connect_calls);
  rep.count("router_vertices_visited", work.vertices_visited);
  rep.count("router_bottom_up_levels", work.bottom_up_levels);
  rep.count("router_path_vertices", work.path_vertices);
  rep.scale = {{"terminals", n},
               {"vertices", net->g.vertex_count()},
               {"switches", net->g.edge_count()},
               {"sessions", ex->sessions()},
               {"warmup_ops", warmup},
               {"measured_ops", ops},
               {"rounds", kRounds}};
  return rep;
}

}  // namespace perfbench
