// Trunk groups: the inter-exchange links of a federation (svc/federation.hpp).
//
// The paper's recursion says a network of strictly-nonblocking exchanges is
// itself a switching network; the links between member exchanges are the
// classic telephone-plant TRUNK GROUPS — bundles of identical lines between
// one ordered pair of exchanges. Each line of a group is a bound pair of
// member terminals: an egress (output) port of the upstream exchange wired
// to an ingress (input) port of the downstream one. Claiming a line
// therefore reserves both ports — the half-calls of an inter-exchange call
// then route *to* and *from* those ports through the members' ordinary
// admission planes.
//
// Hot-path design mirrors the routers: line state is a packed busy bitset
// plus an occupancy counter, and claim() is a rotating first-free scan (no
// allocation).
//
// Faults: a trunk line is an EDGE of the federation graph. fault() marks it
// unusable (capacity drops) without touching the busy bit — the federation
// tears the riding call down first (typed kFaulted) and releases the line
// afterwards, exactly like the Exchange fault plane's kill-then-claim
// discipline. repair() restores the line to the claimable pool.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/bitset.hpp"
#include "util/stat_fields.hpp"

namespace ftcs::svc {

/// One line of a trunk group: a dedicated (egress port, ingress port)
/// terminal pair, egress on the group's upstream member, ingress on its
/// downstream member.
struct TrunkLine {
  std::uint32_t egress_port = 0;   // output terminal of member `from()`
  std::uint32_t ingress_port = 0;  // input terminal of member `to()`
};

/// Mergeable per-group counter block (delta-friendly like RouterStats).
struct TrunkGroupStats {
  std::uint64_t claims = 0;    // lines handed out
  std::uint64_t releases = 0;  // lines returned
  std::uint64_t rejects = 0;   // claim() found no usable free line
  std::uint64_t faults = 0;    // lines failed
  std::uint64_t repairs = 0;   // lines repaired

  /// The field table (util/stat_fields.hpp); export names are those of the
  /// federation-wide merge.
  static constexpr auto fields() noexcept {
    return std::to_array<util::StatField<TrunkGroupStats>>({
        {&TrunkGroupStats::claims, "trunk_claims_total"},
        {&TrunkGroupStats::releases, "trunk_releases_total"},
        {&TrunkGroupStats::rejects, "trunk_rejects_total"},
        {&TrunkGroupStats::faults, "trunk_faults_total"},
        {&TrunkGroupStats::repairs, "trunk_repairs_total"},
    });
  }
  TrunkGroupStats& operator+=(const TrunkGroupStats& o) noexcept {
    return util::merge_fields(*this, o);
  }
  TrunkGroupStats& operator-=(const TrunkGroupStats& o) noexcept {
    return util::subtract_fields(*this, o);
  }
};
static_assert(sizeof(TrunkGroupStats) ==
                  TrunkGroupStats::fields().size() * sizeof(std::uint64_t),
              "every TrunkGroupStats counter is a fields() row");

class TrunkGroup {
 public:
  TrunkGroup(std::uint32_t id, std::uint32_t from, std::uint32_t to,
             std::vector<TrunkLine> lines)
      : id_(id), from_(from), to_(to), lines_(std::move(lines)) {
    busy_.resize(lines_.size());
    faulted_.resize(lines_.size());
    usable_ = static_cast<std::uint32_t>(lines_.size());
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  /// Upstream member (the exchange whose egress ports the lines leave).
  [[nodiscard]] std::uint32_t from() const noexcept { return from_; }
  /// Downstream member (whose ingress ports the lines enter).
  [[nodiscard]] std::uint32_t to() const noexcept { return to_; }

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(lines_.size());
  }
  /// Lines not currently faulted (claimable pool size).
  [[nodiscard]] std::uint32_t usable() const noexcept { return usable_; }
  /// Lines currently claimed by a call.
  [[nodiscard]] std::uint32_t occupancy() const noexcept { return occupancy_; }

  [[nodiscard]] const TrunkLine& line(std::uint32_t i) const {
    return lines_[i];
  }
  [[nodiscard]] bool line_busy(std::uint32_t i) const { return busy_.test(i); }
  [[nodiscard]] bool line_faulted(std::uint32_t i) const {
    return faulted_.test(i);
  }

  /// Claims the first usable free line scanning from a rotating cursor;
  /// nullopt when the group is exhausted.
  std::optional<std::uint32_t> claim();

  /// Returns a claimed line to the pool. Idempotent on a free line.
  void release(std::uint32_t i);

  /// Fails a line: it leaves the claimable pool but keeps its busy bit —
  /// the caller tears down the riding call and release()s afterwards.
  /// Returns true iff the line was carrying a call. Idempotent.
  bool fault(std::uint32_t i);

  /// Restores a faulted line to the pool. Idempotent.
  void repair(std::uint32_t i);

  [[nodiscard]] const TrunkGroupStats& stats() const noexcept { return stats_; }
  /// Zeroes the counter block; line and occupancy state is untouched.
  void reset_stats() noexcept { stats_ = TrunkGroupStats{}; }

 private:
  std::uint32_t id_;
  std::uint32_t from_, to_;
  std::vector<TrunkLine> lines_;
  util::Bitset busy_;     // claimed lines
  util::Bitset faulted_;  // failed lines (out of the pool, capacity intact)
  std::uint32_t usable_ = 0;
  std::uint32_t occupancy_ = 0;
  std::uint32_t cursor_ = 0;  // rotating scan start
  TrunkGroupStats stats_;
};

/// One row of the operator-facing trunk book (ops control plane / metrics).
struct TrunkGauge {
  std::uint32_t group = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t capacity = 0;
  std::uint32_t usable = 0;
  std::uint32_t occupancy = 0;
  std::uint64_t claims = 0;
  std::uint64_t rejects = 0;
};

}  // namespace ftcs::svc
