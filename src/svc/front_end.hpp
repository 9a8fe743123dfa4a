// ftcs::svc::FrontEnd — the batched plane's admission front end, shared by
// Exchange (over Outcome) and Federation (over FedOutcome): the queue,
// ticket issue, refusal at the cap, the priority-ordered window, the
// take-once poll map and the front-end ExchangeStats rows. The plane keeps
// only its routing step: a drain is open_epoch() (one lock, into the
// plane's batch buffer), routing and callbacks with no lock held, then
// close_epoch() (one lock). submit(),
// poll(), pending() and books() are thread-safe; one thread at a time runs
// an epoch. Setup latency is submit -> epoch settle on both planes.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ftcs/router.hpp"
#include "ops/latency.hpp"
#include "svc/call.hpp"
#include "util/stat_fields.hpp"

namespace ftcs::svc {

/// Mergeable service-level counter block: the router's RouterStats plus the
/// admission front-end's queue/defer/epoch counters. operator+= aggregates
/// across exchanges (bench summaries); operator-= takes before/after deltas
/// (traffic reports). Every counter is a row of fields().
struct ExchangeStats {
  core::RouterStats router;           // the router's counters
  std::uint64_t submitted = 0;        // batch-plane requests enqueued
  std::uint64_t admitted = 0;         // requests admitted into some epoch
  std::uint64_t completed = 0;        // batch outcomes delivered
  std::uint64_t deferred = 0;         // request-epochs spent past the window
  std::uint64_t refused = 0;          // submissions bounced at the queue cap
  std::uint64_t epochs = 0;           // drain() epochs run
  std::uint64_t queue_high_water = 0; // max queue depth observed
  std::uint64_t hangups = 0;          // successful hangups (both planes)
  std::uint64_t handle_errors = 0;    // misuse detected: stale/foreign/double
                                      // hangups, bad-terminal calls,
                                      // bad-switch fault events
  // Fault-plane counters (inject()/repair()):
  std::uint64_t faults_injected = 0;       // open switch failures applied
  std::uint64_t faults_stuck = 0;          // stuck-on (closed) failures applied
  std::uint64_t faults_repaired = 0;       // switch repairs applied (either)
  std::uint64_t calls_killed_by_fault = 0; // live calls torn down by inject()
  std::uint64_t reroute_succeeded = 0;     // victims re-admitted and carried
  std::uint64_t reroute_failed = 0;        // victims whose re-admission failed
  // Lemma 7 transitions observed by the live weld tracker:
  std::uint64_t shorts_raised = 0;   // healthy -> terminals shorted
  std::uint64_t shorts_cleared = 0;  // shorted -> healthy again
  // Hitless-growth counters (grow()):
  std::uint64_t growths = 0;                   // growth plans applied
  std::uint64_t calls_carried_by_growth = 0;   // live calls carried across
  std::uint64_t calls_killed_by_growth = 0;    // always 0 by design: growth
                                               // is hitless (exported so the
                                               // invariant is observable)
  // Per-class QoS books: setup-latency histogram + served/rejected/SLA
  // tallies per service class. Batched-plane calls are always booked;
  // immediate-plane calls opt in via ExchangeConfig::qos_immediate.
  ops::ClassBook classes{};

  /// The field table (util/stat_fields.hpp). `router` and `classes` are
  /// blocks of their own and merge through their own operators.
  static constexpr auto fields() noexcept {
    return std::to_array<util::StatField<ExchangeStats>>({
        {&ExchangeStats::submitted, "calls_submitted_total"},
        {&ExchangeStats::admitted, "calls_admitted_total"},
        {&ExchangeStats::completed, "calls_completed_total"},
        {&ExchangeStats::deferred, "calls_deferred_total"},
        {&ExchangeStats::refused, "calls_refused_total",
         to_string(RejectReason::kRefused)},
        {&ExchangeStats::epochs, "epochs_total"},
        {&ExchangeStats::queue_high_water, "queue_high_water", nullptr,
         util::StatKind::kMax},
        {&ExchangeStats::hangups, "hangups_total"},
        {&ExchangeStats::handle_errors, "handle_errors_total"},
        {&ExchangeStats::faults_injected, "faults_injected_total"},
        {&ExchangeStats::faults_stuck, "faults_stuck_total"},
        {&ExchangeStats::faults_repaired, "faults_repaired_total"},
        {&ExchangeStats::calls_killed_by_fault, "calls_killed_by_fault_total"},
        {&ExchangeStats::reroute_succeeded, "reroute_succeeded_total"},
        {&ExchangeStats::reroute_failed, "reroute_failed_total"},
        {&ExchangeStats::shorts_raised, "shorts_raised_total"},
        {&ExchangeStats::shorts_cleared, "shorts_cleared_total"},
        {&ExchangeStats::growths, "growths_total"},
        {&ExchangeStats::calls_carried_by_growth, "growth_calls_carried_total"},
        {&ExchangeStats::calls_killed_by_growth, "growth_calls_killed_total"},
    });
  }
  ExchangeStats& operator+=(const ExchangeStats& o) noexcept {
    router += o.router;
    for (std::size_t c = 0; c < ops::kQosClasses; ++c) classes[c] += o.classes[c];
    return util::merge_fields(*this, o);
  }
  /// Delta of monotone counters (queue_high_water is kept, not subtracted).
  ExchangeStats& operator-=(const ExchangeStats& o) noexcept {
    router -= o.router;
    for (std::size_t c = 0; c < ops::kQosClasses; ++c) classes[c] -= o.classes[c];
    return util::subtract_fields(*this, o);
  }
};
static_assert(sizeof(ExchangeStats) ==
                  ExchangeStats::fields().size() * sizeof(std::uint64_t) +
                      sizeof(core::RouterStats) + sizeof(ops::ClassBook),
              "every ExchangeStats counter is a fields() row");

/// The admission queue, ticket book and front-end counters of a batched
/// plane whose requests complete as `Out` (Outcome or FedOutcome).
template <class Out>
class FrontEnd {
 public:
  using CompletionFn = std::function<void(const Out&)>;
  struct Pending {
    CallRequest req;
    Ticket ticket = 0;
    CompletionFn done;  // may be empty -> pollable
    std::uint32_t deferrals = 0;
    std::chrono::steady_clock::time_point submitted_at{};
  };

  /// `window`: requests an epoch admits at most (0 = the whole queue).
  /// `max_queue`: a submit() that finds this many queued is Refused (0 =
  /// no cap). `class_deadlines`: per-class SLA deadlines in seconds.
  FrontEnd(std::size_t window, std::size_t max_queue,
           const std::array<double, ops::kQosClasses>& class_deadlines)
      : window_(window),
        max_queue_(max_queue),
        class_deadlines_(class_deadlines) {}

  /// Enqueues `req` and returns its ticket. At the cap the request is
  /// Refused instead: `done` runs now, on this thread, or else the kRefused
  /// outcome is pollable at once.
  Ticket submit(const CallRequest& req, CompletionFn done) {
    Ticket ticket = 0;
    bool refused = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ticket = next_ticket_++;
      ++books_.submitted;
      if (max_queue_ > 0 && queue_.size() >= max_queue_) {
        refused = true;
        ++books_.refused;
        ++books_.completed;
        ++books_.classes[ops::qos_class(req.priority)].rejected;
        if (!done)
          completed_.emplace(ticket, bounced(req, RejectReason::kRefused));
      } else {
        queue_.push_back(Pending{req, ticket, std::move(done), 0,
                                 std::chrono::steady_clock::now()});
        books_.queue_high_water =
            std::max<std::uint64_t>(books_.queue_high_water, queue_.size());
      }
    }
    // There is no epoch to defer a refusal to.
    if (refused && done) done(bounced(req, RejectReason::kRefused));
    return ticket;
  }

  /// Completes `req` at once with `why`, outside the queue and the books
  /// (the plane books the misuse itself): `done` runs now, on this thread,
  /// or else the outcome is pollable at once.
  Ticket bounce(const CallRequest& req, RejectReason why, CompletionFn done) {
    Ticket ticket = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ticket = next_ticket_++;
      if (!done) completed_.emplace(ticket, bounced(req, why));
    }
    if (done) done(bounced(req, why));
    return ticket;
  }

  /// Opens an epoch: replaces `batch` with up to `window` queued requests
  /// (highest priority first, FIFO among equals; the batch keeps arrival
  /// order), books the epoch, and counts every request left queued as
  /// deferred once. `batch` is left empty iff the queue was, in which case
  /// no epoch is booked. A caller that keeps `batch` across epochs
  /// allocates nothing for a window no larger than an earlier one.
  void open_epoch(std::vector<Pending>& batch) {
    batch.clear();
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return;
    take_window(window_ ? window_ : queue_.size(), batch);
    ++books_.epochs;
    books_.admitted += batch.size();
    books_.deferred += queue_.size();
    for (auto& p : queue_) ++p.deferrals;
  }

  /// Closes the epoch open_epoch() returned `batch` for: outs[i] answers
  /// batch[i]. Outcomes without a callback become pollable, and each is
  /// booked under its class with setup latency `settled` - submit time.
  void close_epoch(const std::vector<Pending>& batch,
                   const std::vector<Out>& outs,
                   std::chrono::steady_clock::time_point settled) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].done) completed_.emplace(batch[i].ticket, outs[i]);
      ops::record_class(books_.classes, batch[i].req.priority,
                        outs[i].connected(),
                        std::chrono::duration<double>(
                            settled - batch[i].submitted_at)
                            .count(),
                        class_deadlines_);
    }
    books_.completed += batch.size();
  }

  /// Takes the completed outcome for `ticket` (once); nullopt if it is
  /// still queued, was delivered via callback, or was already polled.
  [[nodiscard]] std::optional<Out> poll(Ticket ticket) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = completed_.find(ticket);
    if (it == completed_.end()) return std::nullopt;
    Out o = it->second;
    completed_.erase(it);
    return o;
  }
  [[nodiscard]] std::size_t pending() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }
  /// A copy of the block: the front-end rows (submitted, admitted,
  /// completed, deferred, refused, epochs, queue_high_water, the batched
  /// class book) and whatever the plane booked through plane_rows().
  [[nodiscard]] ExchangeStats books() const {
    std::lock_guard<std::mutex> lk(mu_);
    return books_;
  }
  void reset_books() {
    std::lock_guard<std::mutex> lk(mu_);
    books_ = {};
  }
  /// The rows of the block the plane books itself (an Exchange's fault and
  /// growth rows), on the serializing thread and without the lock: no
  /// front-end code touches them.
  [[nodiscard]] ExchangeStats& plane_rows() noexcept { return books_; }
  [[nodiscard]] const std::array<double, ops::kQosClasses>& class_deadlines()
      const noexcept {
    return class_deadlines_;
  }

 private:
  static Out bounced(const CallRequest& req, RejectReason why) {
    Out o;
    o.reject = why;
    o.tag = req.tag;
    return o;
  }

  /// Moves the admitted window off the queue into the empty `out`: the
  /// `window` highest priorities, FIFO among equals; both parts keep
  /// arrival order. Caller holds mu_.
  void take_window(std::size_t window, std::vector<Pending>& out) {
    if (window >= queue_.size()) {
      for (auto& p : queue_) out.push_back(std::move(p));
      queue_.clear();
      return;
    }
    // `cut` is the lowest admitted priority: every request above it is
    // admitted, and the earliest `at_cut` requests at it fill the window.
    // One count per priority value finds both, with no scratch buffer.
    std::array<std::size_t, 256> count{};
    for (const auto& p : queue_) ++count[p.req.priority];
    int cut = 256;
    std::size_t above = 0;
    while (above + count[--cut] < window) above += count[cut];
    auto at_cut = static_cast<std::ptrdiff_t>(window - above);
    // Admitted requests leave in arrival order; the rest close up behind.
    std::size_t kept = 0, i = 0;
    for (; out.size() < window; ++i) {
      Pending& p = queue_[i];
      if (p.req.priority > cut || (p.req.priority == cut && at_cut-- > 0))
        out.push_back(std::move(p));
      else if (kept != i)
        queue_[kept++] = std::move(p);
      else
        ++kept;
    }
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
                 queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  const std::size_t window_;
  const std::size_t max_queue_;
  const std::array<double, ops::kQosClasses> class_deadlines_;
  mutable std::mutex mu_;  // guards everything below
  std::deque<Pending> queue_;
  std::unordered_map<Ticket, Out> completed_;
  Ticket next_ticket_ = 1;
  ExchangeStats books_;
};

}  // namespace ftcs::svc
