#include "graph/digraph.hpp"

#include <algorithm>

namespace ftcs::graph {

Network NetworkBuilder::finalize() const {
  return Network{g.finalize(), inputs, outputs, stage, name};
}

NetworkDelta::NetworkDelta(const Network& base)
    : base_(&base), g_(base.g.vertex_count()), name_(base.name) {
  g_.reserve(base.g.edge_count());
  for (EdgeId e = 0; e < base.g.edge_count(); ++e)
    g_.add_edge(base.g.edge(e).from, base.g.edge(e).to);
}

Network NetworkDelta::finalize_grown() const {
  std::vector<VertexId> inputs = base_->inputs;
  inputs.insert(inputs.end(), new_inputs_.begin(), new_inputs_.end());
  std::vector<VertexId> outputs = base_->outputs;
  outputs.insert(outputs.end(), new_outputs_.begin(), new_outputs_.end());

  std::vector<std::int32_t> stage;
  if (restage_) {
    stage = *restage_;
  } else if (!base_->stage.empty() || !new_stage_.empty()) {
    stage = base_->stage;
    stage.resize(base_->g.vertex_count(), -1);
    stage.insert(stage.end(), new_stage_.begin(), new_stage_.end());
  }
  return Network{g_.finalize(), std::move(inputs), std::move(outputs),
                 std::move(stage), name_};
}

bool Network::is_input(VertexId v) const {
  return std::find(inputs.begin(), inputs.end(), v) != inputs.end();
}

bool Network::is_output(VertexId v) const {
  return std::find(outputs.begin(), outputs.end(), v) != outputs.end();
}

std::string Network::validate() const {
  const auto n = g.vertex_count();
  for (VertexId v : inputs)
    if (v >= n) return "input id out of range";
  for (VertexId v : outputs)
    if (v >= n) return "output id out of range";
  if (!stage.empty()) {
    if (stage.size() != n) return "stage vector size mismatch";
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& ed = g.edge(e);
      if (stage[ed.from] >= 0 && stage[ed.to] >= 0 && stage[ed.from] >= stage[ed.to])
        return "edge does not advance stage";
    }
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.from >= n || ed.to >= n) return "edge endpoint out of range";
    if (ed.from == ed.to) return "self-loop";
  }
  return {};
}

}  // namespace ftcs::graph
