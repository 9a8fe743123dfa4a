// Repair-by-discard (paper §4, second observation): "with high probability
// we can find a nonblocking network contained in the fault-tolerant network
// merely by discarding faulty components and their immediate neighbors, so
// no difficult computations are hidden here."
//
// Discarding every faulty vertex (a vertex incident to any failed switch)
// removes, in particular, every failed edge, so the surviving network
// consists of normal-state switches only.
//
// Repair-by-contraction is the §2-faithful alternative for CLOSED failures:
// a stuck-on switch is permanently conducting, so instead of discarding its
// endpoints the edge is contracted — the endpoints merge into one
// electrical node. Open failures still discard as above. This offline
// rebuild is the reference the live fault plane's runtime contraction
// (routers' contract_edge) is equivalence-tested against.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_instance.hpp"
#include "graph/transform.hpp"

namespace ftcs::fault {

struct RepairResult {
  graph::Network net;                     // surviving normal-state network
  std::vector<graph::VertexId> old_to_new;  // kNoVertex where discarded
  std::size_t discarded_vertices = 0;
  std::size_t surviving_inputs = 0;
  std::size_t surviving_outputs = 0;
};

/// Discards all faulty vertices and returns the induced surviving network.
[[nodiscard]] RepairResult repair_by_discard(const FaultInstance& instance);

/// Faulty-vertex mask extended to immediate neighbors (the stricter discard
/// the paper mentions; used by ablation benches).
[[nodiscard]] std::vector<std::uint8_t> faulty_with_neighbors(
    const FaultInstance& instance);

/// Discards faulty vertices and their immediate neighbors.
[[nodiscard]] RepairResult repair_by_discard_with_neighbors(
    const FaultInstance& instance);

struct ContractionResult {
  graph::Network net;  // rebuilt: open-faulty discarded, stuck-on contracted
  /// Original vertex -> its electrical node in `net`; kNoVertex where
  /// discarded. Vertices merged by contraction share one new id.
  std::vector<graph::VertexId> old_to_new;
  std::size_t discarded_vertices = 0;   // killed by open failures
  std::size_t contracted_switches = 0;  // closed switches folded into nodes
  std::size_t surviving_inputs = 0;
  std::size_t surviving_outputs = 0;
};

/// The mixed-mode offline rebuild: vertices incident to an OPEN-failed
/// switch are discarded (terminals spared iff `spare_terminals`: the
/// instance's open_faulty_mask), then every closed-failed switch between
/// survivors is contracted (endpoints merged via union-find, both
/// directions — a welded contact conducts either way), and the
/// normal-state switches are re-laid between the resulting electrical
/// nodes (switches internal to one node are dropped). Routing on the FULL
/// network with that mask killed, the open failures failed and the closed
/// ones contracted (the router's liveness overlay) reaches exactly the
/// terminal pairs this network reaches — the live-contraction equivalence
/// the fault-plane tests pin.
[[nodiscard]] ContractionResult repair_by_contraction(
    const FaultInstance& instance, bool spare_terminals = false);

}  // namespace ftcs::fault
