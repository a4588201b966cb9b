#include "persist/derived.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "dynamic/overlay_graph.hpp"  // edge_key: the canonical packing
#include "primitives/small_biconn.hpp"
#include "primitives/union_find.hpp"

namespace wecc::persist {

bool QueryView::has_edge(graph::vertex_id u, graph::vertex_id v) const {
  if (u == v) return false;
  amem::count_read(2);
  const auto row = csr_adj.subspan(csr_offsets[u],
                                   csr_offsets[u + 1] - csr_offsets[u]);
  amem::count_read(std::bit_width(row.size()));
  return std::binary_search(row.begin(), row.end(), v);
}

bool QueryView::is_bridge(graph::vertex_id u, graph::vertex_id v) const {
  if (u == v) return false;
  amem::count_read(2 * std::bit_width(bridge_keys.size()));
  return std::binary_search(bridge_keys.begin(), bridge_keys.end(),
                            dynamic::edge_key(u, v));
}

bool QueryView::biconnected(graph::vertex_id u, graph::vertex_id v) const {
  if (u == v) return true;
  amem::count_read(2);
  auto bu = block_offsets[u], bu_end = block_offsets[u + 1];
  auto bv = block_offsets[v], bv_end = block_offsets[v + 1];
  amem::count_read((bu_end - bu) + (bv_end - bv));
  while (bu < bu_end && bv < bv_end) {
    if (block_ids[bu] == block_ids[bv]) return true;
    if (block_ids[bu] < block_ids[bv]) {
      ++bu;
    } else {
      ++bv;
    }
  }
  return false;
}

graph::EdgeList QueryView::edge_list() const {
  // Both directions are stored (self-loops once), so emitting arcs with
  // w >= u yields each undirected edge exactly once, multiplicities intact.
  graph::EdgeList out;
  const std::size_t n = num_vertices();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint64_t i = csr_offsets[u]; i < csr_offsets[u + 1]; ++i) {
      const std::uint32_t w = csr_adj[i];
      if (w >= u) out.push_back({graph::vertex_id(u), w});
    }
  }
  return out;
}

DerivedState DerivedState::compute(std::size_t n, const graph::EdgeList& edges,
                                   bool with_biconn) {
  DerivedState s;
  s.n_ = n;
  s.m_ = edges.size();

  // CSR: both directions, self-loops once, adjacency sorted ascending —
  // the same shape Graph::from_edges materializes.
  s.csr_offsets_.assign(n + 1, 0);
  for (const graph::Edge& e : edges) {
    ++s.csr_offsets_[e.u + 1];
    if (e.u != e.v) ++s.csr_offsets_[e.v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.csr_offsets_[i + 1] += s.csr_offsets_[i];
  }
  s.csr_adj_.resize(s.csr_offsets_[n]);
  {
    std::vector<std::uint64_t> cursor(s.csr_offsets_.begin(),
                                      s.csr_offsets_.end() - 1);
    for (const graph::Edge& e : edges) {
      s.csr_adj_[cursor[e.u]++] = e.v;
      if (e.u != e.v) s.csr_adj_[cursor[e.v]++] = e.u;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(s.csr_adj_.begin() + std::ptrdiff_t(s.csr_offsets_[v]),
              s.csr_adj_.begin() + std::ptrdiff_t(s.csr_offsets_[v + 1]));
  }

  if (!with_biconn) {
    // Connectivity only: DSU labels, canonicalized to the component's
    // minimum vertex id so labels are deterministic across rebuilds.
    primitives::UnionFind uf(n);
    for (const graph::Edge& e : edges) uf.unite(e.u, e.v);
    s.cc_label_.resize(n);
    std::vector<std::uint32_t> min_of(n, ~std::uint32_t{0});
    for (std::size_t v = 0; v < n; ++v) {
      const auto r = uf.find(graph::vertex_id(v));
      min_of[r] = std::min(min_of[r], std::uint32_t(v));
    }
    for (std::size_t v = 0; v < n; ++v) {
      s.cc_label_[v] = min_of[uf.find(graph::vertex_id(v))];
    }
    s.rebind_view(false);
    return s;
  }

  // Full surface: one Hopcroft–Tarjan pass over the multigraph.
  primitives::LocalGraph lg(n);
  for (const graph::Edge& e : edges) lg.add_edge(e.u, e.v);
  const primitives::BiconnResult bc = primitives::biconnectivity(lg);

  s.cc_label_.assign(bc.cc_label.begin(), bc.cc_label.end());
  s.tecc_label_.assign(bc.tecc_label.begin(), bc.tecc_label.end());
  s.artic_bits_.assign((n + 7) / 8, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (bc.is_artic[v]) s.artic_bits_[v >> 3] |= std::uint8_t(1u << (v & 7u));
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    // Multi-edges are never bridges (HT sees the duplicate as a back edge),
    // so bridge keys are unique without deduplication.
    if (bc.is_bridge[e]) {
      s.bridge_keys_.push_back(dynamic::edge_key(edges[e].u, edges[e].v));
    }
  }
  std::sort(s.bridge_keys_.begin(), s.bridge_keys_.end());

  // Per-vertex sorted block-id rows: each non-self-loop edge contributes
  // its block to both endpoints; sort + unique per row.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> vb;  // (vertex, block)
  vb.reserve(2 * edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::uint32_t b = bc.edge_bcc[e];
    if (b == primitives::BiconnResult::kNone) continue;  // self-loop
    vb.emplace_back(edges[e].u, b);
    if (edges[e].u != edges[e].v) vb.emplace_back(edges[e].v, b);
  }
  std::sort(vb.begin(), vb.end());
  vb.erase(std::unique(vb.begin(), vb.end()), vb.end());
  s.block_offsets_.assign(n + 1, 0);
  for (const auto& [v, b] : vb) ++s.block_offsets_[v + 1];
  for (std::size_t i = 0; i < n; ++i) {
    s.block_offsets_[i + 1] += s.block_offsets_[i];
  }
  s.block_ids_.resize(vb.size());
  for (std::size_t i = 0; i < vb.size(); ++i) {
    s.block_ids_[i] = vb[i].second;  // already sorted within each row
  }

  s.rebind_view(true);
  return s;
}

void DerivedState::rebind_view(bool with_biconn) {
  view_.csr_offsets = csr_offsets_;
  view_.csr_adj = csr_adj_;
  view_.cc_label = cc_label_;
  if (with_biconn) {
    view_.tecc_label = tecc_label_;
    view_.artic_bits = artic_bits_;
    view_.bridge_keys = bridge_keys_;
    view_.block_offsets = block_offsets_;
    view_.block_ids = block_ids_;
  }
}

}  // namespace wecc::persist
