// Admission policies for the Exchange's batched front-end.
//
// Submitted requests queue until a drain() epoch admits a window of them
// onto the engine. The policy decides two things: how many queued requests
// enter the epoch about to run (epoch_window), and how deep the queue may
// grow before further submissions are Refused outright (max_queue_depth).
// Requests that stay queued past an epoch are Deferred — they keep their
// place and their deferral count is surfaced in the eventual Outcome.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace ftcs::svc {

/// What the policy sees before each epoch, read at the epoch boundary.
struct EpochFeedback {
  std::size_t queued = 0;           // requests currently waiting
  std::size_t failed_switches = 0;  // switches currently down, either mode
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  /// Maximum number of queued requests to admit into the epoch about to
  /// run. May use feedback state; called once per drain().
  [[nodiscard]] virtual std::size_t epoch_window(const EpochFeedback& fb) = 0;
  /// Queue cap: a submit() that would grow the queue past this depth is
  /// Refused with RejectReason::kRefused. 0 = unbounded.
  [[nodiscard]] virtual std::size_t max_queue_depth() const noexcept {
    return 0;
  }
};

/// Admit everything that is queued, every epoch. No overload protection.
class UnboundedAdmission final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::size_t epoch_window(const EpochFeedback& fb) override {
    return fb.queued;
  }
};

/// Fixed per-epoch window with an optional queue cap: the classic
/// rate-limiter. Requests beyond the window wait (Deferred); submissions
/// beyond the cap bounce (Refused).
class FixedWindowAdmission final : public AdmissionPolicy {
 public:
  explicit FixedWindowAdmission(std::size_t window, std::size_t max_queue = 0)
      : window_(window), max_queue_(max_queue) {}
  [[nodiscard]] std::size_t epoch_window(const EpochFeedback&) override {
    return window_;
  }
  [[nodiscard]] std::size_t max_queue_depth() const noexcept override {
    return max_queue_;
  }

 private:
  std::size_t window_;
  std::size_t max_queue_;
};

/// Overlay-aware fixed window: derates the window while the TOPOLOGY is
/// degraded, instead of discovering rejects the hard way. Each switch down
/// (either failure mode) shrinks the window by kPerFaultShrink,
/// compounding, floored at kMinScale of it — a storm-damaged network is
/// offered proportionally less work, and the surplus stays queued
/// (Deferred) for post-repair epochs rather than burning searches into dead
/// topology. The window never drops below 1 (a non-empty queue always
/// drains) and recovers as repair() brings failed_switches down.
class OverlayAdaptiveAdmission final : public AdmissionPolicy {
 public:
  static constexpr double kPerFaultShrink = 0.05;
  static constexpr double kMinScale = 1.0 / 16.0;

  explicit OverlayAdaptiveAdmission(std::size_t window) : window_(window) {}

  [[nodiscard]] std::size_t epoch_window(const EpochFeedback& fb) override {
    std::size_t w = window_;
    if (fb.failed_switches > 0 && w > 1) {
      const double scale =
          std::max(std::pow(1.0 - kPerFaultShrink,
                            static_cast<double>(fb.failed_switches)),
                   kMinScale);
      w = static_cast<std::size_t>(static_cast<double>(w) * scale);
    }
    return std::max<std::size_t>(1, w);
  }

 private:
  std::size_t window_;
};

}  // namespace ftcs::svc
