#include "primitives/small_biconn.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "primitives/flat_scratch.hpp"

namespace wecc::primitives {

namespace {
constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};

/// The DFS and DSU arrays of one run, per thread and reused across runs:
/// local graphs are O(k) and every biconnectivity query builds one.
struct DfsScratch {
  std::vector<std::uint32_t> disc, low, parent_edge, edge_stack, dsu, label;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> frames;
  bool busy = false;

  void trim() {
    for (auto* v : {&disc, &low, &parent_edge, &edge_stack, &dsu, &label}) {
      trim_scratch(*v);
    }
    trim_scratch(frames);
  }
};
}  // namespace

void LocalGraph::build() {
  // Counting sort by endpoint. off_[u] first counts u's arcs, then becomes
  // the end of u's run; placing the edges in reverse while stepping each
  // run's cursor back leaves off_[u] at the start of the run and every run
  // in ascending edge id, i.e. insertion order.
  off_.assign(n_ + 1, 0);
  for (const auto& [u, v] : edges) {
    ++off_[u];
    if (u != v) ++off_[v];
  }
  std::size_t end = 0;
  for (std::size_t u = 0; u < n_; ++u) {
    end += off_[u];
    off_[u] = end;
  }
  off_[n_] = end;
  arcs_.resize(end);
  for (auto e = std::uint32_t(edges.size()); e-- > 0;) {
    const auto [u, v] = edges[e];
    arcs_[--off_[u]] = {v, e};
    if (u != v) arcs_[--off_[v]] = {u, e};
  }
  built_ = true;
}

void LocalGraph::trim() {
  trim_scratch(edges);
  trim_scratch(off_);
  trim_scratch(arcs_);
}

void BiconnResult::trim() {
  trim_scratch(edge_bcc);
  trim_scratch(is_bridge);
  trim_scratch(is_artic);
  trim_scratch(cc_label);
  trim_scratch(tecc_label);
}

void biconnectivity(const LocalGraph& g, BiconnResult& r) {
  if (!g.built()) {
    throw std::logic_error("biconnectivity: LocalGraph::build() not run");
  }
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();
  r.num_bcc = 0;
  r.num_cc = 0;
  r.edge_bcc.assign(m, BiconnResult::kNone);
  r.is_bridge.assign(m, 0);
  r.is_artic.assign(n, 0);
  r.cc_label.assign(n, kUnvisited);
  r.tecc_label.assign(n, kUnvisited);

  thread_local DfsScratch tls;
  const ScratchUse<DfsScratch> use(tls);
  DfsScratch& s = use.scratch();
  std::vector<std::uint32_t>& disc = s.disc;
  std::vector<std::uint32_t>& low = s.low;
  std::vector<std::uint32_t>& parent_edge = s.parent_edge;
  disc.assign(n, kUnvisited);
  low.assign(n, 0);
  parent_edge.assign(n, kUnvisited);
  std::vector<std::uint32_t>& edge_stack = s.edge_stack;  // awaiting a pop
  edge_stack.clear();
  // Iterative DFS frame: (vertex, index into its arcs).
  std::vector<std::pair<std::uint32_t, std::uint32_t>>& frames = s.frames;
  frames.clear();
  std::uint32_t clock = 0;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (disc[root] != kUnvisited) continue;
    const std::uint32_t cc = r.num_cc++;
    std::uint32_t root_children = 0;
    disc[root] = clock++;
    low[root] = disc[root];
    r.cc_label[root] = cc;
    frames.push_back({root, 0});

    while (!frames.empty()) {
      auto& [u, ai] = frames.back();
      if (const auto arcs = g.arcs(u); ai < arcs.size()) {
        const auto [w, eid] = arcs[ai++];
        if (w == u) continue;                 // self-loop: no block
        if (eid == parent_edge[u]) continue;  // the tree-edge instance
        if (disc[w] == kUnvisited) {
          parent_edge[w] = eid;
          disc[w] = clock++;
          low[w] = disc[w];
          r.cc_label[w] = cc;
          edge_stack.push_back(eid);
          if (u == root) ++root_children;
          frames.push_back({w, 0});
        } else if (disc[w] < disc[u]) {
          // Back edge (to an ancestor or cross within stack discipline).
          edge_stack.push_back(eid);
          low[u] = std::min(low[u], disc[w]);
        }
        continue;
      }
      // Post-visit of u: settle its tree edge to the parent.
      frames.pop_back();
      if (frames.empty()) break;
      const std::uint32_t p = frames.back().first;
      const std::uint32_t pe = parent_edge[u];
      low[p] = std::min(low[p], low[u]);
      if (low[u] >= disc[p]) {
        // p separates u's subtree: pop one block. (Root articulation is
        // decided by the >= 2 children rule after the component finishes.)
        const std::uint32_t bcc = r.num_bcc++;
        while (true) {
          assert(!edge_stack.empty());
          const std::uint32_t e = edge_stack.back();
          edge_stack.pop_back();
          r.edge_bcc[e] = bcc;
          if (e == pe) break;
        }
        if (p != root) r.is_artic[p] = 1;
      }
      if (low[u] > disc[p]) r.is_bridge[pe] = 1;
    }
    // Root rule: articulation iff >= 2 DFS children.
    if (root_children >= 2) r.is_artic[root] = 1;
  }

  // A doubled edge is never a bridge: the duplicate instance registers as a
  // back edge and forces low[child] <= disc[parent], so nothing extra to do.

  // 2-edge-connected components: connected components of non-bridge edges.
  {
    std::vector<std::uint32_t>& dsu = s.dsu;
    dsu.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) dsu[v] = v;
    auto find = [&](std::uint32_t x) {
      while (dsu[x] != x) {
        dsu[x] = dsu[dsu[x]];
        x = dsu[x];
      }
      return x;
    };
    for (std::uint32_t e = 0; e < m; ++e) {
      if (r.is_bridge[e]) continue;
      const auto [u, v] = g.edges[e];
      const std::uint32_t a = find(u), b = find(v);
      if (a != b) dsu[std::max(a, b)] = std::min(a, b);
    }
    // Canonical labels: index of the DSU root.
    std::vector<std::uint32_t>& label = s.label;
    label.assign(n, kUnvisited);
    std::uint32_t next = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t rt = find(v);
      if (label[rt] == kUnvisited) label[rt] = next++;
      r.tecc_label[v] = label[rt];
    }
  }
}

bool BiconnResult::same_bcc(const LocalGraph& g, std::uint32_t u,
                            std::uint32_t v) const {
  if (u == v) return true;
  for (const auto& [w1, e1] : g.arcs(u)) {
    if (w1 == u) continue;
    for (const auto& [w2, e2] : g.arcs(v)) {
      if (w2 == v) continue;
      if (edge_bcc[e1] != kNone && edge_bcc[e1] == edge_bcc[e2]) return true;
    }
  }
  return false;
}

bool BiconnResult::vertex_in_block(const LocalGraph& g, std::uint32_t v,
                                   std::uint32_t e) const {
  const std::uint32_t b = edge_bcc[e];
  if (b == kNone) return false;
  if (g.edges[e].first == v || g.edges[e].second == v) return true;
  for (const auto& [w, ve] : g.arcs(v)) {
    if (w == v) continue;
    if (edge_bcc[ve] == b) return true;
  }
  return false;
}

}  // namespace wecc::primitives
