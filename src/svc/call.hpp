// Typed call vocabulary for the service layer (svc/exchange.hpp).
//
// conf_spaa_PippengerL92 frames its networks as telephone exchanges in the
// Clos setting: an exchange *serves calls*. This header defines the request/
// outcome types every consumer speaks — one RejectReason enum with one
// spelling per failure mode (shared by reports, benches and JSON output),
// and a generation-tagged CallId that turns stale or foreign handles into
// detected, typed errors instead of undefined behaviour on the raw routers'
// reused integer slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ftcs::svc {

class Exchange;

/// Why a call (or a hangup) was not served. kNone means success. One enum
/// across both engine backends AND the admission front-end, so every report
/// uses the same spelling (to_string below).
enum class RejectReason : std::uint8_t {
  kNone = 0,         // served
  kTerminalBusy,     // input or output slot busy/faulty; no search was run
  kNoPath,           // search exhausted without finding an idle path
  kContention,       // concurrent engine gave up after its claim-retry budget
  kRefused,          // admission control bounced the request (queue overload)
  kStaleHandle,      // handle's generation expired (hung up, or never issued)
  kForeignHandle,    // handle was issued by a different Exchange
  kBadSession,       // session index out of range for this engine
  kFaulted,          // call was torn down by the fault plane (a component on
                     // its path died); also the ack a hangup of that handle
                     // receives — informative, not a handle misuse
  kTrunkBusy,        // federation: no usable trunk line toward the callee's
                     // exchange (every group toward it is full or faulted)
};

/// Canonical spelling, used verbatim in tables and JSON keys. The switch
/// deliberately has NO default: adding an enumerator without a spelling is
/// a -Werror=switch build break, not a silent "unknown".
[[nodiscard]] constexpr const char* to_string(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kNone: return "accepted";
    case RejectReason::kTerminalBusy: return "rejected_terminal";
    case RejectReason::kNoPath: return "rejected_no_path";
    case RejectReason::kContention: return "rejected_contention";
    case RejectReason::kRefused: return "refused_overload";
    case RejectReason::kStaleHandle: return "stale_handle";
    case RejectReason::kForeignHandle: return "foreign_handle";
    case RejectReason::kBadSession: return "bad_session";
    case RejectReason::kFaulted: return "killed_by_fault";
    case RejectReason::kTrunkBusy: return "rejected_trunk";
  }
  return "unknown";  // unreachable for in-range values; keeps -Wreturn-type quiet
}

/// Every enumerator, for code that iterates the reject books (metrics
/// export, round-trip tests). Must stay in sync with the enum — the
/// to_string switch above breaks the build first when one is added.
inline constexpr RejectReason kAllRejectReasons[] = {
    RejectReason::kNone,          RejectReason::kTerminalBusy,
    RejectReason::kNoPath,        RejectReason::kContention,
    RejectReason::kRefused,       RejectReason::kStaleHandle,
    RejectReason::kForeignHandle, RejectReason::kBadSession,
    RejectReason::kFaulted,       RejectReason::kTrunkBusy,
};
inline constexpr std::size_t kRejectReasonCount =
    sizeof(kAllRejectReasons) / sizeof(kAllRejectReasons[0]);

/// Inverse of to_string over the canonical spellings; nullopt for anything
/// else. Round-trip (from_string(to_string(r)) == r) is pinned by tests.
[[nodiscard]] constexpr std::optional<RejectReason> reject_reason_from_string(
    std::string_view s) noexcept {
  for (RejectReason r : kAllRejectReasons) {
    if (s == to_string(r)) return r;
  }
  return std::nullopt;
}

/// A connect request: terminal indices into the network's input/output
/// lists, a service class, and an opaque caller cookie echoed back in the
/// Outcome.
struct CallRequest {
  std::uint32_t input = 0;
  std::uint32_t output = 0;
  /// Service class: higher-priority requests are admitted first within an
  /// epoch (stable FIFO among equals).
  std::uint8_t priority = 0;
  /// Caller cookie, echoed in Outcome::tag.
  std::uint64_t tag = 0;
};

/// Opaque handle to a live call. Generation-tagged: hanging up releases the
/// slot and bumps its generation, so a retained (stale) handle, a double
/// hangup, or a handle from another Exchange is detected and reported as a
/// typed error — it can never corrupt another call's busy state.
class CallId {
 public:
  constexpr CallId() = default;
  /// True for a handle that was issued for a connected call (it may still
  /// be stale if the call was since hung up).
  [[nodiscard]] constexpr bool valid() const noexcept { return exchange_ != 0; }
  /// Engine session that carries the call; hangup() must run on the thread
  /// currently driving that session (see svc/README.md).
  [[nodiscard]] constexpr std::uint32_t session() const noexcept {
    return session_;
  }
  /// The call's slot in its session's handle table: unique among the
  /// session's live calls, reused once the call ends.
  [[nodiscard]] constexpr std::uint32_t slot() const noexcept { return slot_; }
  friend constexpr bool operator==(CallId, CallId) noexcept = default;

 private:
  friend class Exchange;
  std::uint32_t exchange_ = 0;  // issuing Exchange's id; 0 = null handle
  std::uint32_t session_ = 0;   // engine session holding the call
  std::uint32_t slot_ = 0;      // index into the session's handle table
  std::uint32_t gen_ = 0;       // slot generation at issue time
};

/// Result of serving one CallRequest. connected() iff reject == kNone, in
/// which case `id` is the live handle to hang up later.
struct Outcome {
  CallId id{};
  RejectReason reject = RejectReason::kNone;
  std::uint32_t session = 0;      // session that served (or rejected) it
  std::uint32_t path_length = 0;  // vertices on the settled path; 0 if not
  std::uint32_t deferrals = 0;    // admission epochs spent queued beyond the
                                  // window before being served
  std::uint64_t tag = 0;          // CallRequest::tag, echoed
  [[nodiscard]] constexpr bool connected() const noexcept {
    return reject == RejectReason::kNone;
  }
};

/// FIFO sequence number returned by Exchange::submit(); poll() key. Never 0.
using Ticket = std::uint64_t;

}  // namespace ftcs::svc
