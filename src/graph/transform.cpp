#include "graph/transform.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ftcs::graph {

Network mirror(const Network& net) {
  NetworkBuilder m;
  m.name = net.name + "-mirror";
  m.g.reserve(net.g.edge_count());
  m.g.add_vertices(net.g.vertex_count());
  for (EdgeId e = 0; e < net.g.edge_count(); ++e) {
    const auto& ed = net.g.edge(e);
    m.g.add_edge(ed.to, ed.from);
  }
  m.inputs = net.outputs;
  m.outputs = net.inputs;
  if (!net.stage.empty()) {
    const std::int32_t max_stage =
        *std::max_element(net.stage.begin(), net.stage.end());
    m.stage.resize(net.stage.size());
    for (std::size_t v = 0; v < net.stage.size(); ++v)
      m.stage[v] = net.stage[v] < 0 ? -1 : max_stage - net.stage[v];
  }
  return m.finalize();
}

Network substitute_edges(const Network& base, const Network& gadget) {
  if (gadget.inputs.size() != 1 || gadget.outputs.size() != 1)
    throw std::invalid_argument("substitute_edges: gadget must be a 1-network");
  const VertexId gin = gadget.inputs[0];
  const VertexId gout = gadget.outputs[0];
  if (gin == gout)
    throw std::invalid_argument("substitute_edges: gadget input == output");

  const std::size_t gv = gadget.g.vertex_count();
  const std::size_t internal = gv - 2;  // gadget vertices other than terminals

  NetworkBuilder out;
  out.name = base.name + "*" + gadget.name;
  out.g.reserve(base.g.edge_count() * gadget.g.edge_count());
  out.g.add_vertices(base.g.vertex_count());
  out.inputs = base.inputs;
  out.outputs = base.outputs;

  // Map of gadget vertex -> vertex in `out` for the current copy.
  std::vector<VertexId> map(gv);
  for (EdgeId e = 0; e < base.g.edge_count(); ++e) {
    const auto& ed = base.g.edge(e);
    VertexId fresh = internal > 0 ? out.g.add_vertices(internal) : kNoVertex;
    for (VertexId v = 0; v < gv; ++v) {
      if (v == gin) {
        map[v] = ed.from;
      } else if (v == gout) {
        map[v] = ed.to;
      } else {
        map[v] = fresh++;
      }
    }
    for (EdgeId ge = 0; ge < gadget.g.edge_count(); ++ge) {
      const auto& ged = gadget.g.edge(ge);
      out.g.add_edge(map[ged.from], map[ged.to]);
    }
  }
  return out.finalize();
}

InducedResult induced_subnetwork(const Network& net,
                                 std::span<const std::uint8_t> keep) {
  assert(keep.size() == net.g.vertex_count());
  InducedResult result;
  NetworkBuilder out;
  out.name = net.name + "-induced";
  result.old_to_new.assign(net.g.vertex_count(), kNoVertex);
  for (VertexId v = 0; v < net.g.vertex_count(); ++v) {
    if (keep[v]) result.old_to_new[v] = out.g.add_vertex();
  }
  for (EdgeId e = 0; e < net.g.edge_count(); ++e) {
    const auto& ed = net.g.edge(e);
    if (keep[ed.from] && keep[ed.to])
      out.g.add_edge(result.old_to_new[ed.from], result.old_to_new[ed.to]);
  }
  for (VertexId v : net.inputs)
    if (keep[v]) out.inputs.push_back(result.old_to_new[v]);
  for (VertexId v : net.outputs)
    if (keep[v]) out.outputs.push_back(result.old_to_new[v]);
  if (!net.stage.empty()) {
    out.stage.resize(out.g.vertex_count(), -1);
    for (VertexId v = 0; v < net.g.vertex_count(); ++v)
      if (keep[v]) out.stage[result.old_to_new[v]] = net.stage[v];
  }
  result.net = out.finalize();
  return result;
}

}  // namespace ftcs::graph
