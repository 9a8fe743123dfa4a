// Fixed-bucket log-scale latency histograms + per-class QoS books.
//
// The ops plane needs p50/p99 call-setup latency per service class without
// unbounded memory or sorting: LatencyHistogram is 40 power-of-two buckets
// over nanoseconds (1ns .. ~9min, everything above clips into the last
// bucket), mergeable exactly like core::RouterStats — operator+= aggregates
// across exchanges, operator-= takes before/after deltas for
// periodic metrics export. Quantiles are read by walking the cumulative
// counts and reporting the geometric midpoint of the landing bucket, so a
// reported p99 is within one 2x bucket of the true order statistic — the
// right fidelity for an SLA book, at 8 bytes per bucket.
//
// This header is a leaf on purpose: svc/exchange.hpp embeds these types in
// ExchangeStats, so nothing here may include svc/ (util/ is fine).
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/stat_fields.hpp"

namespace ftcs::ops {

/// Service classes the QoS books distinguish. CallRequest::priority is an
/// open uint8 used for admission ordering; for SLA accounting priorities
/// at or above the top class clamp into it (qos_class below).
inline constexpr std::size_t kQosClasses = 4;

/// Maps a request priority to its SLA book.
[[nodiscard]] constexpr std::size_t qos_class(std::uint8_t priority) noexcept {
  return priority < kQosClasses ? priority : kQosClasses - 1;
}

class LatencyHistogram {
 public:
  /// Bucket i counts samples in [2^i, 2^(i+1)) nanoseconds; bucket 0 also
  /// absorbs sub-nanosecond samples, the last bucket absorbs overflow.
  static constexpr std::size_t kBuckets = 40;

  /// Exclusive upper bound of bucket i, in seconds (Prometheus `le`).
  [[nodiscard]] static constexpr double bucket_upper_seconds(
      std::size_t i) noexcept {
    return static_cast<double>(1ull << (i + 1)) * 1e-9;
  }

  void record(double seconds) noexcept {
    double ns = seconds * 1e9;
    if (ns < 0.0) ns = 0.0;
    // Clamp before the cast: double -> uint64 above 2^63 is UB, and
    // anything past the last bucket clips there anyway.
    const auto n = ns >= 9.0e18 ? ~0ull : static_cast<std::uint64_t>(ns);
    std::size_t b = n < 2 ? 0 : static_cast<std::size_t>(std::bit_width(n)) - 1;
    if (b >= kBuckets) b = kBuckets - 1;
    ++counts_[b];
    ++total_;
    sum_seconds_ += seconds;
  }

  /// q in [0,1]: latency at that quantile (geometric bucket midpoint), in
  /// seconds. 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the order statistic, 1-based; q=0 -> first, q=1 -> last.
    const std::uint64_t rank =
        1 + static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        const double hi = bucket_upper_seconds(b);
        return hi / std::sqrt(2.0);  // geometric midpoint of [hi/2, hi)
      }
    }
    return bucket_upper_seconds(kBuckets - 1);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] double sum_seconds() const noexcept { return sum_seconds_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return counts_[i];
  }

  LatencyHistogram& operator+=(const LatencyHistogram& o) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
    sum_seconds_ += o.sum_seconds_;
    return *this;
  }
  /// Delta of monotone counts (before/after of the same histogram).
  LatencyHistogram& operator-=(const LatencyHistogram& o) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] -= o.counts_[b];
    total_ -= o.total_;
    sum_seconds_ -= o.sum_seconds_;
    return *this;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  double sum_seconds_ = 0.0;
};

/// One service class's SLA book: setup-latency histogram plus the served /
/// rejected / deadline-violation tallies the reject books surface. Every
/// tally is a row of fields(); a row exports per class as the Prometheus
/// family ftcs_class_<name>_total and the JSON key <name> of the class's
/// "classes" entry.
struct ClassStats {
  LatencyHistogram setup;             // latency of served calls only
  std::uint64_t served = 0;           // connected on this class
  std::uint64_t rejected = 0;         // any typed rejection on this class
  std::uint64_t sla_violations = 0;   // served, but past the class deadline

  /// The field table (util/stat_fields.hpp). `setup` merges through its
  /// own operators.
  static constexpr auto fields() noexcept {
    return std::to_array<util::StatField<ClassStats>>({
        {&ClassStats::served, "served"},
        {&ClassStats::rejected, "rejected"},
        {&ClassStats::sla_violations, "sla_violations"},
    });
  }
  ClassStats& operator+=(const ClassStats& o) noexcept {
    setup += o.setup;
    return util::merge_fields(*this, o);
  }
  ClassStats& operator-=(const ClassStats& o) noexcept {
    setup -= o.setup;
    return util::subtract_fields(*this, o);
  }
};
static_assert(sizeof(ClassStats) ==
                  ClassStats::fields().size() * sizeof(std::uint64_t) +
                      sizeof(LatencyHistogram),
              "every ClassStats tally is a fields() row");

using ClassBook = std::array<ClassStats, kQosClasses>;

/// Books one request's verdict under its service class: a served call's
/// setup latency, and an SLA violation when that exceeds the class's
/// deadline (0 = the class carries no SLA); anything else is a rejection.
inline void record_class(ClassBook& book, std::uint8_t priority, bool served,
                         double setup_seconds,
                         const std::array<double, kQosClasses>& deadlines = {}) {
  ClassStats& c = book[qos_class(priority)];
  if (!served) {
    ++c.rejected;
    return;
  }
  ++c.served;
  c.setup.record(setup_seconds);
  const double deadline = deadlines[qos_class(priority)];
  if (deadline > 0.0 && setup_seconds > deadline) ++c.sla_violations;
}

}  // namespace ftcs::ops
