// The Cantor network: the classic strictly nonblocking construction in the
// SAME Θ(n log² n) size class as the paper's 𝒩̂ — but with no fault
// tolerance. It is the natural "what does the log² buy you without
// redundancy" baseline (cf. Pippenger [P78] §"Telephone switching networks").
//
// Structure: m parallel copies of a Beneš network on n = 2^k terminals;
// input i fans out to input i of every copy, output j collects from output
// j of every copy. Cantor's theorem: m = k = log₂ n copies make the network
// strictly nonblocking under arbitrary (no-rearrangement) routing.
#pragma once

#include <cstdint>

#include "graph/digraph.hpp"

namespace ftcs::networks {

struct CantorParams {
  std::uint32_t k = 3;       // n = 2^k terminals
  std::uint32_t copies = 0;  // 0 = use k copies (Cantor's theorem)
};

[[nodiscard]] graph::Network build_cantor(const CantorParams& params);

/// Hitless growth step: doubles a canonical Cantor network (built by
/// build_cantor(base_params)) from n = 2^k to 2n
/// terminals by APPEND-ONLY construction — the live-capacity analogue of
/// the containment observation that the depth-(k+1) network contains the
/// depth-k network.
///
/// Per existing Beneš plane: a sibling Beneš(k) plus outer columns wrap the
/// plane into a full Beneš(k+1) (the old plane becomes the low half of
/// stages 1..2k+1 — the bit arithmetic of the inner stages is unchanged),
/// and one fresh complete Beneš(k+1) plane is added, for m+1 planes of
/// Beneš(k+1) — Cantor's theorem for k+1 when the base used the default
/// m = k. The grown graph is a strict SUPERSET of canonical
/// build_cantor({k+1, m+1}) (the legacy direct input→plane switches remain
/// as shortcuts), so strict nonblockingness is preserved: appended switches
/// only add paths.
///
/// Append-only (graph::NetworkDelta): every pre-growth vertex id, edge id
/// and terminal index keeps its meaning and new terminals append after the
/// old ones, so live calls ride across Exchange::grow unchanged. Throws
/// std::invalid_argument if `base` is not structurally the canonical
/// build_cantor(base_params) network (in particular: a network that was
/// already grown, whose extra shortcut switches fail the edge-count check —
/// re-growing a grown exchange is ROADMAP follow-up, not silent
/// corruption).
[[nodiscard]] graph::Network grow_cantor(const graph::Network& base,
                                         const CantorParams& base_params);

}  // namespace ftcs::networks
