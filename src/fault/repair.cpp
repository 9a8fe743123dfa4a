#include "fault/repair.hpp"

#include <algorithm>

#include "graph/dsu.hpp"

namespace ftcs::fault {

namespace {

RepairResult repair_with_mask(const FaultInstance& instance,
                              const std::vector<std::uint8_t>& faulty) {
  const graph::Network& net = instance.network();
  std::vector<std::uint8_t> keep(net.g.vertex_count());
  for (std::size_t v = 0; v < keep.size(); ++v) keep[v] = faulty[v] ? 0 : 1;

  auto induced = graph::induced_subnetwork(net, keep);
  RepairResult result;
  result.discarded_vertices = static_cast<std::size_t>(
      std::count(faulty.begin(), faulty.end(), std::uint8_t{1}));
  result.surviving_inputs = induced.net.inputs.size();
  result.surviving_outputs = induced.net.outputs.size();
  result.net = std::move(induced.net);
  result.old_to_new = std::move(induced.old_to_new);
  return result;
}

}  // namespace

RepairResult repair_by_discard(const FaultInstance& instance) {
  return repair_with_mask(instance, instance.faulty_vertices());
}

std::vector<std::uint8_t> faulty_with_neighbors(const FaultInstance& instance) {
  const graph::Network& net = instance.network();
  const auto& faulty = instance.faulty_vertices();
  std::vector<std::uint8_t> extended = faulty;
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v) {
    if (!faulty[v]) continue;
    for (graph::EdgeId e : net.g.out_edges(v)) extended[net.g.edge(e).to] = 1;
    for (graph::EdgeId e : net.g.in_edges(v)) extended[net.g.edge(e).from] = 1;
  }
  return extended;
}

RepairResult repair_by_discard_with_neighbors(const FaultInstance& instance) {
  return repair_with_mask(instance, faulty_with_neighbors(instance));
}

ContractionResult repair_by_contraction(const FaultInstance& instance,
                                        bool spare_terminals) {
  const graph::Network& net = instance.network();
  const std::size_t v_count = net.g.vertex_count();

  // 1. Open failures discard — the shared §6 open-discard mask a live
  // router kills to route the same instance, so the two cannot drift.
  const std::vector<std::uint8_t> dead =
      instance.open_faulty_mask(spare_terminals);

  // 2. Contract the stuck-on switches among survivors. A closed switch
  // with a discarded endpoint is severed along with that endpoint — the
  // live plane cannot cross it either (the dead endpoint holds its busy
  // bit), so it contributes no merge.
  graph::Dsu dsu(v_count);
  std::size_t contracted = 0;
  for (const Failure& f : instance.failures()) {
    if (f.state != SwitchState::kClosedFail) continue;
    const auto& e = net.g.edge(f.edge);
    if (dead[e.from] || dead[e.to]) continue;
    dsu.unite(e.from, e.to);
    ++contracted;
  }

  // 3. One rebuilt vertex per surviving electrical node; ids dense in the
  // order classes are first seen (ascending original vertex id).
  graph::NetworkBuilder nb;
  std::vector<graph::VertexId> class_vertex(v_count, graph::kNoVertex);
  ContractionResult result;
  result.old_to_new.assign(v_count, graph::kNoVertex);
  for (graph::VertexId v = 0; v < v_count; ++v) {
    if (dead[v]) {
      ++result.discarded_vertices;
      continue;
    }
    const auto root = dsu.find(v);
    if (class_vertex[root] == graph::kNoVertex)
      class_vertex[root] = nb.g.add_vertex();
    result.old_to_new[v] = class_vertex[root];
  }

  // 4. Normal-state switches between distinct surviving nodes. A switch
  // whose endpoints merged into one node switches nothing and is dropped.
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e) {
    if (instance.state(e) != SwitchState::kNormal) continue;
    const auto& ed = net.g.edge(e);
    if (dead[ed.from] || dead[ed.to]) continue;
    const auto a = result.old_to_new[ed.from];
    const auto b = result.old_to_new[ed.to];
    if (a == b) continue;
    nb.g.add_edge(a, b);
  }

  // 5. Terminals keep their list order; shorted terminals may share a node.
  for (const graph::VertexId v : net.inputs)
    if (result.old_to_new[v] != graph::kNoVertex)
      nb.inputs.push_back(result.old_to_new[v]);
  for (const graph::VertexId v : net.outputs)
    if (result.old_to_new[v] != graph::kNoVertex)
      nb.outputs.push_back(result.old_to_new[v]);
  nb.name = net.name + "-contracted";

  result.contracted_switches = contracted;
  result.surviving_inputs = nb.inputs.size();
  result.surviving_outputs = nb.outputs.size();
  result.net = nb.finalize();
  return result;
}

}  // namespace ftcs::fault
