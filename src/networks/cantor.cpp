#include "networks/cantor.hpp"

#include <stdexcept>

#include "networks/benes.hpp"

namespace ftcs::networks {

graph::Network build_cantor(const CantorParams& params) {
  if (params.k == 0 || params.k > 16)
    throw std::invalid_argument("cantor: need 1 <= k <= 16");
  const std::uint32_t m = params.copies == 0 ? params.k : params.copies;
  const std::uint32_t n = 1u << params.k;

  const Benes plane(params.k);
  const auto& pg = plane.network();
  const std::size_t plane_vertices = pg.g.vertex_count();

  graph::NetworkBuilder net;
  net.name = "cantor-" + std::to_string(n) + "-m" + std::to_string(m);
  net.g.reserve(2ul * n * m + m * pg.g.edge_count());
  // Layout: [inputs n][outputs n][m Benes copies].
  net.g.add_vertices(2ul * n);
  net.stage.assign(2ul * n, 0);
  const std::int32_t plane_stages = static_cast<std::int32_t>(2 * params.k + 1);
  for (std::uint32_t i = 0; i < n; ++i) net.stage[n + i] = plane_stages + 1;

  std::vector<graph::VertexId> base(m);
  for (std::uint32_t c = 0; c < m; ++c) {
    base[c] = net.g.add_vertices(plane_vertices);
    for (std::size_t v = 0; v < plane_vertices; ++v)
      net.stage.push_back(pg.stage[v] + 1);
    for (graph::EdgeId e = 0; e < pg.g.edge_count(); ++e) {
      const auto& ed = pg.g.edge(e);
      net.g.add_edge(base[c] + ed.from, base[c] + ed.to);
    }
  }
  // Fan-out / fan-in edges.
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t c = 0; c < m; ++c) {
      net.g.add_edge(i, base[c] + pg.inputs[i]);
      net.g.add_edge(base[c] + pg.outputs[i], n + i);
    }
  }
  net.inputs.resize(n);
  net.outputs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net.inputs[i] = i;
    net.outputs[i] = n + i;
  }
  return net.finalize();
}

graph::GrownNetwork grow_cantor(const graph::Network& base,
                                const CantorParams& base_params) {
  const std::uint32_t k = base_params.k;
  if (k == 0 || k > 15)
    throw std::invalid_argument("grow_cantor: need 1 <= k <= 15");
  const std::uint32_t m = base_params.copies == 0 ? k : base_params.copies;
  const std::uint32_t n = 1u << k;
  const std::uint32_t n2 = 2 * n;  // grown terminal count per side
  const std::uint32_t plane_v = (2 * k + 1) * n;        // Beneš(k) vertices
  const std::uint32_t plane_e = 2 * k * 2 * n;          // Beneš(k) switches
  const std::size_t want_v = 2ul * n + std::size_t{m} * plane_v;
  const std::size_t want_e = std::size_t{m} * plane_e + 2ul * n * m;
  const std::string want_name =
      "cantor-" + std::to_string(n) + "-m" + std::to_string(m);

  // Structural gate: growth arithmetic below addresses the canonical
  // build_cantor layout. A grown network
  // carries extra shortcut switches and fails the edge count — growing
  // twice is a typed error, never silent corruption.
  if (base.name != want_name || base.g.vertex_count() != want_v ||
      base.g.edge_count() != want_e ||
      base.inputs.size() != n || base.outputs.size() != n)
    throw std::invalid_argument(
        "grow_cantor: base is not canonical " + want_name + " (" +
        std::to_string(base.g.vertex_count()) + "v/" +
        std::to_string(base.g.edge_count()) + "e vs expected " +
        std::to_string(want_v) + "v/" + std::to_string(want_e) +
        "e); regrowing a grown exchange is not supported");

  // Canonical layout: [inputs n][outputs n][m Beneš(k) planes].
  const auto plane_vertex = [&](std::uint32_t c, std::uint32_t s,
                                std::uint32_t i) {
    return 2 * n + c * plane_v + s * n + i;
  };

  graph::NetworkDelta nd(base);
  nd.rename("cantor-" + std::to_string(n2) + "-m" + std::to_string(m + 1));

  // Restaged labels for the grown network (Beneš(k+1) planes span cantor
  // stages 1..2k+3): old inputs stay 0, old plane stage s becomes s+1, old
  // outputs move from 2k+2 to 2k+4. Old stage labels are metadata, not ids
  // — restaging them keeps Network::validate()'s monotonicity intact.
  const std::int32_t out_stage = static_cast<std::int32_t>(2 * k + 4);
  std::vector<std::int32_t> stages(base.stage);
  for (auto& s : stages) {
    if (s == 0) continue;
    s = s == static_cast<std::int32_t>(2 * k + 2) ? out_stage : s + 1;
  }
  const auto add_column = [&](std::size_t count, std::int32_t stage) {
    const graph::VertexId first = nd.add_vertices(count);
    stages.insert(stages.end(), count, stage);
    return first;
  };

  // Per old plane: sibling Beneš(k) (the high half of inner stages 1..2k+1
  // of the wrapped Beneš(k+1)) plus the outer stage-0 / stage-2k+2 columns.
  std::vector<graph::VertexId> col0(m), sib(m), col_last(m);
  for (std::uint32_t c = 0; c < m; ++c) {
    col0[c] = add_column(n2, 1);
    sib[c] = add_column(plane_v, 0);  // per-stage labels fixed below
    for (std::uint32_t s = 0; s <= 2 * k; ++s)
      for (std::uint32_t i = 0; i < n; ++i)
        stages[sib[c] + s * n + i] = static_cast<std::int32_t>(s + 2);
    col_last[c] = add_column(n2, static_cast<std::int32_t>(2 * k + 3));
  }
  // One fresh complete Beneš(k+1) plane (m -> m+1 copies).
  const std::uint32_t plane_v2 = (2 * k + 3) * n2;
  const graph::VertexId fresh = nd.add_vertices(plane_v2);
  for (std::uint32_t s = 0; s < 2 * k + 3; ++s)
    stages.insert(stages.end(), n2, static_cast<std::int32_t>(s + 1));
  // New terminals append AFTER the old ones: terminal index i < n keeps its
  // pre-growth meaning, index n + j is new.
  const graph::VertexId new_in = add_column(n, 0);
  const graph::VertexId new_out = add_column(n, out_stage);
  for (std::uint32_t j = 0; j < n; ++j) {
    nd.add_input(new_in + j);
    nd.add_output(new_out + j);
  }

  // Wrapped-plane position p (0..2n) at inner Beneš(k+1) stage s' (1..2k+1):
  // low half is the old plane, high half the sibling.
  const auto inner = [&](std::uint32_t c, std::uint32_t sp, std::uint32_t p) {
    return p < n ? plane_vertex(c, sp - 1, p) : sib[c] + (sp - 1) * n + (p - n);
  };
  const auto input_vertex = [&](std::uint32_t i) {
    return i < n ? i : new_in + (i - n);
  };
  const auto output_vertex = [&](std::uint32_t i) {
    return i < n ? n + i : new_out + (i - n);
  };

  for (std::uint32_t c = 0; c < m; ++c) {
    // Sibling inner switches: a verbatim Beneš(k) — the inner-stage bits of
    // Beneš(k+1) restricted to the high half reduce to exactly these.
    for (std::uint32_t s = 0; s < 2 * k; ++s) {
      const std::uint32_t bit = s < k ? (1u << (k - 1 - s)) : (1u << (s - k));
      for (std::uint32_t i = 0; i < n; ++i) {
        nd.add_edge(sib[c] + s * n + i, sib[c] + (s + 1) * n + i);
        nd.add_edge(sib[c] + s * n + i, sib[c] + (s + 1) * n + (i ^ bit));
      }
    }
    // Outer columns: stage 0 -> 1 and 2k+1 -> 2k+2 of the wrapped
    // Beneš(k+1) cross between halves with bit 2^k = n.
    for (std::uint32_t p = 0; p < n2; ++p) {
      nd.add_edge(col0[c] + p, inner(c, 1, p));
      nd.add_edge(col0[c] + p, inner(c, 1, p ^ n));
      nd.add_edge(inner(c, 2 * k + 1, p), col_last[c] + p);
      nd.add_edge(inner(c, 2 * k + 1, p), col_last[c] + (p ^ n));
    }
  }
  // Fresh plane: Beneš(k+1) switch pattern at full width.
  for (std::uint32_t s = 0; s < 2 * k + 2; ++s) {
    const std::uint32_t bit = s < k + 1 ? (1u << (k - s)) : (1u << (s - k - 1));
    for (std::uint32_t p = 0; p < n2; ++p) {
      nd.add_edge(fresh + s * n2 + p, fresh + (s + 1) * n2 + p);
      nd.add_edge(fresh + s * n2 + p, fresh + (s + 1) * n2 + (p ^ bit));
    }
  }
  // Fan-out / fan-in at grown width. Old inputs gain switches into the new
  // stage-0 columns (append-only switches from old vertices are legal); the
  // legacy input -> old-plane switches remain as shortcuts, which is why
  // the grown graph is a superset of canonical cantor-(k+1).
  for (std::uint32_t i = 0; i < n2; ++i) {
    for (std::uint32_t c = 0; c < m; ++c) {
      nd.add_edge(input_vertex(i), col0[c] + i);
      nd.add_edge(col_last[c] + i, output_vertex(i));
    }
    nd.add_edge(input_vertex(i), fresh + i);
    nd.add_edge(fresh + (2 * k + 2) * n2 + i, output_vertex(i));
  }

  nd.restage(std::move(stages));
  return nd.finalize_grown();
}

}  // namespace ftcs::networks
