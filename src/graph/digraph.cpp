#include "graph/digraph.hpp"

#include <algorithm>

namespace ftcs::graph {

Network NetworkBuilder::finalize() const {
  return Network{g.finalize(), inputs, outputs, stage, name};
}

GrownNetwork NetworkDelta::finalize_grown() const {
  const std::size_t old_v = base_->g.vertex_count();

  CsrGraph merged(base_->g, delta_);

  std::vector<VertexId> inputs = base_->inputs;
  inputs.insert(inputs.end(), new_inputs_.begin(), new_inputs_.end());
  std::vector<VertexId> outputs = base_->outputs;
  outputs.insert(outputs.end(), new_outputs_.begin(), new_outputs_.end());

  std::vector<std::int32_t> stage;
  if (restage_) {
    stage = *restage_;
  } else if (!base_->stage.empty() || !new_stage_.empty()) {
    stage = base_->stage;
    stage.resize(old_v, -1);
    stage.insert(stage.end(), new_stage_.begin(), new_stage_.end());
  }

  GrownNetwork out;
  out.net = Network{std::move(merged), std::move(inputs), std::move(outputs),
                    std::move(stage), name_};
  out.vmap.resize(old_v);
  for (VertexId v = 0; v < old_v; ++v) out.vmap[v] = v;
  return out;
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
