#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ftcs::graph {

void write_network(std::ostream& os, const Network& net) {
  os << "ftcs-network 1\n";
  os << "name " << (net.name.empty() ? "-" : net.name) << "\n";
  os << "vertices " << net.g.vertex_count() << "\n";
  os << "inputs";
  for (VertexId v : net.inputs) os << ' ' << v;
  os << "\noutputs";
  for (VertexId v : net.outputs) os << ' ' << v;
  os << "\nstages";
  if (net.stage.empty()) {
    os << " -";
  } else {
    for (auto s : net.stage) os << ' ' << s;
  }
  os << "\nedges " << net.g.edge_count() << "\n";
  for (EdgeId e = 0; e < net.g.edge_count(); ++e) {
    const auto& ed = net.g.edge(e);
    os << ed.from << ' ' << ed.to << "\n";
  }
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("read_network: " + what);
}

std::string expect_token(std::istream& is, const char* what) {
  std::string token;
  if (!(is >> token)) fail(std::string("missing ") + what);
  return token;
}

}  // namespace

Network read_network(std::istream& is) {
  if (expect_token(is, "magic") != "ftcs-network") fail("bad magic");
  if (expect_token(is, "version") != "1") fail("unsupported version");

  NetworkBuilder net;
  if (expect_token(is, "name keyword") != "name") fail("expected 'name'");
  net.name = expect_token(is, "name value");
  if (net.name == "-") net.name.clear();

  if (expect_token(is, "vertices keyword") != "vertices") fail("expected 'vertices'");
  std::size_t vertices = 0;
  if (!(is >> vertices)) fail("bad vertex count");
  net.g.add_vertices(vertices);

  if (expect_token(is, "inputs keyword") != "inputs") fail("expected 'inputs'");
  // Read terminal ids until the next keyword.
  std::string token;
  while (is >> token && token != "outputs") {
    const auto v = static_cast<VertexId>(std::stoul(token));
    if (v >= vertices) fail("input id out of range");
    net.inputs.push_back(v);
  }
  if (token != "outputs") fail("expected 'outputs'");
  while (is >> token && token != "stages") {
    const auto v = static_cast<VertexId>(std::stoul(token));
    if (v >= vertices) fail("output id out of range");
    net.outputs.push_back(v);
  }
  if (token != "stages") fail("expected 'stages'");
  while (is >> token && token != "edges") {
    if (token == "-") continue;
    net.stage.push_back(static_cast<std::int32_t>(std::stol(token)));
  }
  if (!net.stage.empty() && net.stage.size() != vertices)
    fail("stage count mismatch");
  if (token != "edges") fail("expected 'edges'");
  std::size_t edges = 0;
  if (!(is >> edges)) fail("bad edge count");
  net.g.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    VertexId from = 0, to = 0;
    if (!(is >> from >> to)) fail("truncated edge list");
    if (from >= vertices || to >= vertices) fail("edge endpoint out of range");
    net.g.add_edge(from, to);
  }
  return net.finalize();
}

void write_dot(std::ostream& os, const Network& net) {
  os << "digraph \"" << (net.name.empty() ? "ftcs" : net.name) << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=circle, width=0.3];\n";
  for (VertexId v : net.inputs)
    os << "  v" << v << " [shape=square, style=filled, fillcolor=lightblue];\n";
  for (VertexId v : net.outputs)
    os << "  v" << v << " [shape=square, style=filled, fillcolor=lightsalmon];\n";
  if (!net.stage.empty()) {
    std::int32_t max_stage = -1;
    for (auto s : net.stage) max_stage = std::max(max_stage, s);
    for (std::int32_t s = 0; s <= max_stage; ++s) {
      os << "  { rank=same;";
      for (VertexId v = 0; v < net.g.vertex_count(); ++v)
        if (net.stage[v] == s) os << " v" << v << ";";
      os << " }\n";
    }
  }
  for (EdgeId e = 0; e < net.g.edge_count(); ++e) {
    const auto& ed = net.g.edge(e);
    os << "  v" << ed.from << " -> v" << ed.to << ";\n";
  }
  os << "}\n";
}

bool structurally_equal(const Network& a, const Network& b) {
  if (a.g.vertex_count() != b.g.vertex_count()) return false;
  if (a.g.edge_count() != b.g.edge_count()) return false;
  if (a.inputs != b.inputs || a.outputs != b.outputs) return false;
  if (a.stage != b.stage) return false;
  for (EdgeId e = 0; e < a.g.edge_count(); ++e) {
    const auto& ea = a.g.edge(e);
    const auto& eb = b.g.edge(e);
    if (ea.from != eb.from || ea.to != eb.to) return false;
  }
  return true;
}

}  // namespace ftcs::graph
