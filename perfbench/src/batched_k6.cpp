// batched-k6: the batched plane (submit / drain_all with completion
// callbacks) of an svc::Exchange on cantor-k6 with the concurrent backend
// and two sessions. Each epoch hangs up the calls whose holding time ran
// out, then submits a window of up to 32 calls from distinct idle inputs to
// distinct outputs drawn uniformly from all outputs, so a callee that is
// still on a call answers busy — callee-busy rejects are part of the
// traffic. Holding times are geometric with a mean of four epochs.
//
// The network is cache-resident and searches are short, so admission, wave
// settling, the pool and completion delivery carry most of the cost.
// Distinct callees per window keep every verdict a function of the seed:
// which of two sessions claims a contended path may vary from run to run,
// but no two requests of one window ever race for the same terminal.
#include <memory>

#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftcs;

constexpr std::uint32_t kOrder = 6;
constexpr unsigned kSessions = 2;
constexpr std::uint32_t kWindow = 32;
constexpr double kMeanHoldEpochs = 4.0;
constexpr double kEpochsPerSecond = 4'500;  // nominal on the reference box
constexpr std::size_t kRounds = 32;

/// One request of the current window; the completion callback fills
/// `outcome` and `done_ns` from whichever pool thread routed it.
struct Request {
  std::uint32_t in = 0, out = 0;
  std::uint64_t hold = 0;
  bool callee_busy = false;  // the callee was on a call when submitted
  std::int64_t submit_ns = 0, done_ns = 0;
  int callback_cpus = 0;  // CPUs the completing thread may use (warm-up)
  svc::Outcome outcome;
};

struct Loop {
  svc::Exchange& ex;
  Tracer& tr;
  Report& rep;
  util::Xoshiro256 rng;
  std::uint32_t n;
  TerminalSet idle_in{n, true}, live{n, false};
  std::vector<std::uint8_t> out_busy = std::vector<std::uint8_t>(n);
  std::vector<svc::CallId> handle = std::vector<svc::CallId>(n);
  std::vector<std::uint32_t> callee = std::vector<std::uint32_t>(n);
  std::vector<std::uint64_t> expiry = std::vector<std::uint64_t>(n);
  std::vector<std::uint32_t> outputs = identity(n);
  std::vector<Request> window = std::vector<Request>(kWindow);
  std::uint64_t epoch = 0;
  std::uint64_t offered = 0, carried = 0, callee_busy = 0, blocked = 0,
                hangups = 0;
  std::vector<double>* setup_us = nullptr;  // set while sampling latency
  // Set in warm-up, which starts the drain pool: every completion must run
  // on a thread free to use every allowed CPU, or the two sessions would
  // share the cores of a pinned round for the whole run.
  bool check_threads = false;
  double queue_wait_us = 0, drain_to_done_us = 0;
  std::uint64_t traced_requests = 0;

  static std::vector<std::uint32_t> identity(std::uint32_t n) {
    std::vector<std::uint32_t> v(n);
    for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
    return v;
  }

  void run_epoch() {
    for (std::uint32_t in = 0; in < n; ++in)
      if (live.contains(in) && expiry[in] <= epoch) hang(in);

    const auto k = static_cast<std::uint32_t>(
        std::min<std::size_t>(kWindow, idle_in.size()));
    for (std::uint32_t i = 0; i < k; ++i) {
      Request& q = window[i];
      q.in = idle_in.pick(rng);
      idle_in.erase(q.in);
      const std::uint32_t j = i + static_cast<std::uint32_t>(rng.below(n - i));
      std::swap(outputs[i], outputs[j]);
      q.out = outputs[i];
      q.hold = 1 + rng.geometric(1.0 / kMeanHoldEpochs);
      q.callee_busy = out_busy[q.out] != 0;
    }
    for (std::uint32_t i = 0; i < k; ++i) {
      Request& q = window[i];
      q.submit_ns = now_ns();
      ex.submit({q.in, q.out, 0, q.in},
                [&q, check = check_threads](const svc::Outcome& o) {
                  q.outcome = o;
                  q.done_ns = now_ns();
                  if (check) q.callback_cpus = thread_cpu_count();
                });
      tr.end(Layer::kSubmit, q.submit_ns);
    }
    const std::int64_t d0 = now_ns();
    ex.drain_all();
    tr.record(Layer::kDrain, d0, now_ns());

    for (std::uint32_t i = 0; i < k; ++i) settle(window[i], d0);
    ++epoch;
  }

  void settle(const Request& q, std::int64_t drain_start) {
    ++offered;
    if (setup_us)
      setup_us->push_back(static_cast<double>(q.done_ns - q.submit_ns) * 1e-3);
    if (tr.on) {
      queue_wait_us += static_cast<double>(drain_start - q.submit_ns) * 1e-3;
      drain_to_done_us += static_cast<double>(q.done_ns - drain_start) * 1e-3;
      ++traced_requests;
    }
    const auto allowed = static_cast<int>(AllowedCpus::get().cpus.size());
    if (check_threads && q.callback_cpus != allowed)
      rep.fail("batched-k6: a completion ran on a thread allowed " +
               std::to_string(q.callback_cpus) + " of " +
               std::to_string(allowed) + " CPUs");
    const svc::Outcome& o = q.outcome;
    if (o.connected()) {
      rep.check(!q.callee_busy, "batched-k6: connected to a busy callee");
      ++carried;
      live.insert(q.in);
      handle[q.in] = o.id;
      callee[q.in] = q.out;
      out_busy[q.out] = 1;
      expiry[q.in] = epoch + q.hold;
      return;
    }
    idle_in.insert(q.in);
    if (o.reject == svc::RejectReason::kTerminalBusy) {
      ++callee_busy;
      rep.check(q.callee_busy, "batched-k6: idle callee answered busy");
      return;
    }
    if (is_blocking(o.reject)) ++blocked;
    rep.fail(std::string("batched-k6: idle-to-idle call got ") +
             svc::to_string(o.reject));
  }

  void hang(std::uint32_t in) {
    const std::int64_t t0 = tr.begin();
    const svc::RejectReason r = ex.hangup(handle[in]);
    tr.end(Layer::kExHangup, t0);
    rep.check(r == svc::RejectReason::kNone, "batched-k6: hangup refused");
    ++hangups;
    live.erase(in);
    idle_in.insert(in);
    out_busy[callee[in]] = 0;
  }
};

}  // namespace

Report run_batched_k6(const Options& o) {
  Report rep;
  EndToEnd e2e;
  PerLayer pl;

  std::unique_ptr<graph::Network> net;
  std::unique_ptr<svc::Exchange> ex;
  std::vector<double> build, construct;
  e2e.setup_s = median_seconds(kSetupReps, [&] {
    ex.reset();
    net.reset();
    const std::int64_t t0 = now_ns();
    net = std::make_unique<graph::Network>(networks::build_cantor({kOrder, 0}));
    const std::int64_t t1 = now_ns();
    svc::ExchangeConfig cfg;
    cfg.backend = svc::Backend::kConcurrent;
    cfg.sessions = kSessions;
    ex = std::make_unique<svc::Exchange>(*net, std::move(cfg));
    const std::int64_t t2 = now_ns();
    build.push_back(static_cast<double>(t1 - t0) * 1e-9);
    construct.push_back(static_cast<double>(t2 - t1) * 1e-9);
  });
  pl.build_s = median(build);
  pl.construct_s = median(construct);

  Tracer tr;
  const auto n = static_cast<std::uint32_t>(ex->input_count());
  Loop loop{*ex, tr, rep, util::Xoshiro256(util::derive_seed(o.seed, 1)), n};

  const std::size_t epochs = op_count(o, kEpochsPerSecond, kRounds);
  const std::size_t warmup = std::max<std::size_t>(64, epochs / 20);
  loop.check_threads = true;
  for (std::size_t i = 0; i < warmup; ++i) loop.run_epoch();
  loop.check_threads = false;

  const svc::ExchangeStats before = ex->stats();
  const std::uint64_t off_w = loop.offered, car_w = loop.carried,
                      busy_w = loop.callee_busy;
  Rounds traced;
  for (std::size_t r = 0; r < kRounds; ++r) {
    tr.on = o.trace && r % 2 == 1;
    const PinnedRound pin(r);
    loop.setup_us = tr.on ? nullptr : &e2e.rounds.setup_us;
    const std::uint64_t off0 = loop.offered, car0 = loop.carried;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < epochs / kRounds; ++i) loop.run_epoch();
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    (tr.on ? traced : e2e.rounds)
        .close(secs, loop.carried - car0, loop.offered - off0);
  }
  tr.on = false;
  loop.setup_us = nullptr;
  svc::ExchangeStats work = ex->stats();
  work -= before;
  const std::uint64_t offered = loop.offered - off_w,
                      carried = loop.carried - car_w,
                      callee_busy = loop.callee_busy - busy_w;

  for (std::uint32_t in = 0; in < n; ++in)
    if (loop.live.contains(in)) loop.hang(in);

  const svc::ExchangeStats st = ex->stats();
  rep.check(ex->active_calls() == 0, "batched-k6: calls left after hangup-all");
  rep.check(ex->busy_vertices() == 0,
            "batched-k6: busy vertices at quiescence");
  rep.check(ex->pending() == 0, "batched-k6: requests left queued");
  rep.check(st.router.accepted == st.router.disconnects,
            "batched-k6: accepted != disconnects at quiescence");
  rep.check(st.submitted == loop.offered && st.completed == loop.offered &&
                st.admitted == loop.offered,
            "batched-k6: submitted/admitted/completed books differ");
  rep.check(st.router.accepted == loop.carried,
            "batched-k6: router books differ from carried traffic");
  rep.check(st.hangups == loop.hangups, "batched-k6: hangup books differ");

  rep.attempted = offered;
  e2e.offered = offered;
  e2e.blocked = loop.blocked;
  if (o.trace) {
    const auto reqs = static_cast<double>(loop.traced_requests);
    pl.hangup_ns = tr.mean_ns(Layer::kExHangup);
    pl.submit_ns = tr.mean_ns(Layer::kSubmit);
    pl.drain_ns_per_request =
        ratio(static_cast<double>(tr.total_ns(Layer::kDrain)), reqs);
    pl.queue_wait_us = ratio(loop.queue_wait_us, reqs);
    pl.drain_to_done_us = ratio(loop.drain_to_done_us, reqs);
    const core::RouterStats& w = work.router;
    const auto calls = static_cast<double>(w.connect_calls);
    pl.visits_per_call = ratio(static_cast<double>(w.vertices_visited), calls);
    pl.bottom_up_per_call = ratio(static_cast<double>(w.bottom_up_levels), calls);
    pl.path_vertices_per_call = ratio(static_cast<double>(w.path_vertices),
                                      static_cast<double>(w.accepted));
    pl.wave_rounds_per_epoch = ratio(static_cast<double>(w.wave_epochs),
                                     static_cast<double>(work.epochs));
    pl.claim_conflicts_per_call =
        ratio(static_cast<double>(w.claim_conflicts), calls);
    pl.callee_busy_frac = ratio(static_cast<double>(callee_busy),
                                static_cast<double>(offered));
    pl.from_tracer(tr, e2e.rounds, traced,
                   {Layer::kSubmit, Layer::kDrain, Layer::kExHangup});
    pl.emit(rep);
  } else {
    e2e.emit(rep);
  }
  if (!tr.write(o.spans_path)) rep.fail("batched-k6: cannot write spans");

  rep.count("offered", offered);
  rep.count("carried", carried);
  rep.count("callee_busy", callee_busy);
  rep.count("blocked", loop.blocked);
  rep.count("hangups", loop.hangups);
  rep.count("epochs", loop.epoch);
  rep.count("admission_epochs", work.epochs);
  // Which session claims a contended path first varies with thread timing,
  // and with it the search work.
  rep.timing_counts = {{"router_connect_calls", work.router.connect_calls},
                       {"router_vertices_visited", work.router.vertices_visited},
                       {"router_claim_conflicts", work.router.claim_conflicts},
                       {"router_wave_epochs", work.router.wave_epochs}};
  rep.scale = {{"terminals", n},
               {"vertices", net->g.vertex_count()},
               {"switches", net->g.edge_count()},
               {"sessions", ex->sessions()},
               {"window", kWindow},
               {"warmup_epochs", warmup},
               {"measured_epochs", epochs},
               {"rounds", kRounds}};
  return rep;
}

}  // namespace perfbench
