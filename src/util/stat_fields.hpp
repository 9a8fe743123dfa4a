// Field tables for mergeable counter blocks.
//
// A counter block (core::RouterStats, svc::ExchangeStats,
// svc::FederationStats, svc::TrunkGroupStats) keeps its counters as plain
// std::uint64_t members and lists each of them ONCE, in a static fields()
// table next to the members: the member, its export name and its kind.
// Everything per-counter is generated from that table:
//   - merge_fields / subtract_fields are the blocks' operator+= / -=;
//   - ops/metrics.cpp emits every row in both formats (Prometheus family
//     ftcs_<name>, JSON key <name>, and the ftcs_rejects_total{reason} book);
//   - a block resets with `= {}` (every member has a zero initializer).
// Each block static_asserts that its size is the table's rows plus its
// non-table members, so a counter declared outside the table breaks the
// build instead of silently never merging or reaching a scrape.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ftcs::util {

enum class StatKind : std::uint8_t {
  kCounter,  // monotone: += adds, -= subtracts; exported as a counter
  kMax,      // high-water mark: += takes the max, -= keeps it (a delta
             // still reports the mark); exported as a gauge
};

/// One row of a block's field table.
template <class Block>
struct StatField {
  std::uint64_t Block::*member;
  /// Export name: the Prometheus family without its ftcs_ prefix, and the
  /// JSON key. nullptr = exported only through `reject`.
  const char* name;
  /// svc::to_string(RejectReason) spelling when the counter also books a
  /// reject reason: ftcs_rejects_total{reason=...} and JSON rejects_<reason>.
  const char* reject = nullptr;
  StatKind kind = StatKind::kCounter;
};

template <class Block>
constexpr Block& merge_fields(Block& a, const Block& b) noexcept {
  for (const StatField<Block>& f : Block::fields()) {
    std::uint64_t& x = a.*f.member;
    const std::uint64_t y = b.*f.member;
    x = f.kind == StatKind::kMax ? std::max(x, y) : x + y;
  }
  return a;
}

template <class Block>
constexpr Block& subtract_fields(Block& a, const Block& b) noexcept {
  for (const StatField<Block>& f : Block::fields())
    if (f.kind == StatKind::kCounter) a.*f.member -= b.*f.member;
  return a;
}

}  // namespace ftcs::util
