// The threaded tests' one shape: N submitter threads race ONE serving
// thread over an svc::Exchange. The submitters use only the thread-safe
// plane — submit(), pending() and input_count()/output_count(); the
// serving thread, the caller's, runs every serialized entry: drain(), the
// completion callbacks (on the draining thread, right after their request
// commits, so a callback may read the call's path), hangups, and the
// test's fault, growth or operator events. Run under -fsanitize=thread via
// the `tsan` ctest label, this is the data-race proof of that contract.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs::test {

struct Race {
  Race(unsigned submitters, std::uint64_t per_submitter, std::uint64_t seed)
      : submitters(submitters), per_submitter(per_submitter), seed(seed) {}

  unsigned submitters;
  std::uint64_t per_submitter;
  std::uint64_t seed;
  /// Runs on submitter t after its i-th submit (empty: nothing).
  std::function<void(unsigned t, std::uint64_t i)> after_submit;
};

/// Runs the race on `ex`. Submitter t submits `per_submitter` requests
/// between uniform random terminals of the exchange's current terminal
/// space (re-read per request, so a grow() mid-race widens it), with a
/// uniform priority in 0..3 and tag (t << 32) | i, and yields while 256
/// requests are queued. The serving thread alternates drain() and
/// `serve(admitted)`; `on_done(outcome)` sees every outcome. Returns once
/// every request has been delivered and every submitter has finished (an
/// after_submit hook may wait on the serving thread), with the submitters
/// joined.
template <class OnDone, class Serve>
void race_submitters(svc::Exchange& ex, const Race& race, OnDone&& on_done,
                     Serve&& serve) {
  const std::thread::id server = std::this_thread::get_id();
  std::uint64_t delivered = 0;  // written by the serving thread only
  const svc::Exchange::CompletionFn done = [&](const svc::Outcome& o) {
    EXPECT_EQ(std::this_thread::get_id(), server)
        << "a completion ran off the serving thread";
    ++delivered;
    on_done(o);
  };
  std::atomic<unsigned> running{race.submitters};
  std::vector<std::thread> threads;
  threads.reserve(race.submitters);
  for (unsigned t = 0; t < race.submitters; ++t)
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(util::derive_seed(race.seed, t));
      for (std::uint64_t i = 0; i < race.per_submitter; ++i) {
        svc::CallRequest req;
        req.input = static_cast<std::uint32_t>(rng.below(ex.input_count()));
        req.output = static_cast<std::uint32_t>(rng.below(ex.output_count()));
        req.priority = static_cast<std::uint8_t>(rng.below(4));
        req.tag = (std::uint64_t{t} << 32) | i;
        ex.submit(req, done);
        if (race.after_submit) race.after_submit(t, i);
        while (ex.pending() >= 256) std::this_thread::yield();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  const std::uint64_t total = race.submitters * race.per_submitter;
  while (delivered < total || running.load(std::memory_order_acquire) > 0) {
    const std::size_t admitted = ex.drain();
    serve(admitted);
    if (admitted == 0) std::this_thread::yield();
  }
  for (std::thread& th : threads) th.join();
}

/// The typed acks a hangup of a held handle may get under a fault storm:
/// kNone (still live), kFaulted (the fault plane tore it down; this ack is
/// the notification) or kStaleHandle (killed, and the slot's next call has
/// retired too). Nothing else is legal, and none of them touches another
/// call's state.
inline bool storm_hangup_ack(svc::RejectReason r) {
  return r == svc::RejectReason::kNone || r == svc::RejectReason::kFaulted ||
         r == svc::RejectReason::kStaleHandle;
}

}  // namespace ftcs::test
