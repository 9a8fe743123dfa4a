#include "svc/trunk.hpp"

namespace ftcs::svc {

std::optional<std::uint32_t> TrunkGroup::claim() {
  const auto n = capacity();
  for (std::uint32_t probe = 0; probe < n; ++probe) {
    const std::uint32_t i = (cursor_ + probe) % n;
    if (busy_.test(i) || faulted_.test(i)) continue;
    busy_.set(i);
    ++occupancy_;
    cursor_ = (i + 1) % n;
    ++stats_.claims;
    return i;
  }
  ++stats_.rejects;
  return std::nullopt;
}

void TrunkGroup::release(std::uint32_t i) {
  if (!busy_.test(i)) return;
  busy_.reset(i);
  --occupancy_;
  ++stats_.releases;
}

bool TrunkGroup::fault(std::uint32_t i) {
  if (faulted_.test(i)) return false;
  faulted_.set(i);
  --usable_;
  ++stats_.faults;
  return busy_.test(i);
}

void TrunkGroup::repair(std::uint32_t i) {
  if (!faulted_.test(i)) return;
  faulted_.reset(i);
  ++usable_;
  ++stats_.repairs;
}

}  // namespace ftcs::svc
