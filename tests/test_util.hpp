// Shared ground-truth helpers for the test suite (uncounted brute force).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/durability.hpp"
#include "graph/graph.hpp"
#include "primitives/small_biconn.hpp"

namespace wecc::testutil {

/// A durability log whose append throws while `fail` is set: the
/// log-before-publish failure every update path must survive unchanged.
struct FailingLog final : dynamic::DurabilityLog {
  bool fail = true;
  void log_batch(std::uint64_t, const dynamic::UpdateBatch&) override {
    if (fail) throw std::runtime_error("log append failed");
  }
  void discard_tail(std::uint64_t) noexcept override {}
};

/// Uncounted BFS connectivity labels (label = min vertex of component).
inline std::vector<graph::vertex_id> brute_cc(const graph::Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<graph::vertex_id> label(n, graph::kNoVertex);
  std::vector<graph::vertex_id> stack;
  for (graph::vertex_id r = 0; r < n; ++r) {
    if (label[r] != graph::kNoVertex) continue;
    label[r] = r;
    stack.assign(1, r);
    while (!stack.empty()) {
      const graph::vertex_id u = stack.back();
      stack.pop_back();
      for (graph::vertex_id w : g.neighbors_raw(u)) {
        if (label[w] == graph::kNoVertex) {
          label[w] = r;
          stack.push_back(w);
        }
      }
    }
  }
  return label;
}

/// Do two labelings induce the same partition of [0, n)?
template <typename A, typename B>
bool same_partition(const A& a, const B& b, std::size_t n) {
  std::map<std::uint64_t, std::uint64_t> fa, fb;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t la = std::uint64_t(a[i]), lb = std::uint64_t(b[i]);
    const auto ia = fa.emplace(la, fa.size()).first->second;
    const auto ib = fb.emplace(lb, fb.size()).first->second;
    if (ia != ib) return false;
  }
  return true;
}

/// Canonical (min,max) orientation plus lexicographic sort — makes two
/// edge lists comparable as multisets with operator==.
inline graph::EdgeList canonical_edges(graph::EdgeList edges) {
  for (graph::Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return std::make_pair(a.u, a.v) < std::make_pair(b.u, b.v);
            });
  return edges;
}

/// Reference model for dynamic-graph tests: the current edge multiset,
/// materializable into a Graph for brute-force comparison. remove() throws
/// if the edge is absent (the test then fails with the exception).
class EdgeSetModel {
 public:
  using Key = std::pair<graph::vertex_id, graph::vertex_id>;

  EdgeSetModel(std::size_t n, const graph::EdgeList& edges) : n_(n) {
    for (const graph::Edge& e : edges) add(e);
  }

  void add(const graph::Edge& e) { ++edges_[key(e)]; }

  void remove(const graph::Edge& e) {
    const auto it = edges_.find(key(e));
    if (it == edges_.end()) {
      throw std::logic_error("EdgeSetModel: removing absent edge");
    }
    if (--it->second == 0) edges_.erase(it);
  }

  [[nodiscard]] const std::map<Key, std::size_t>& edges() const {
    return edges_;
  }

  [[nodiscard]] graph::Graph materialize() const {
    graph::EdgeList out;
    for (const auto& [k, cnt] : edges_) {
      for (std::size_t i = 0; i < cnt; ++i) out.push_back({k.first, k.second});
    }
    return graph::Graph::from_edges(n_, out);
  }

 private:
  static Key key(const graph::Edge& e) {
    return {std::min(e.u, e.v), std::max(e.u, e.v)};
  }
  std::size_t n_;
  std::map<Key, std::size_t> edges_;
};

/// Is `edges` a spanning forest of g (acyclic, right count, edges exist)?
inline bool is_spanning_forest(const graph::Graph& g,
                               const graph::EdgeList& edges,
                               std::size_t num_components) {
  const std::size_t n = g.num_vertices();
  if (edges.size() != n - num_components) return false;
  std::vector<graph::vertex_id> dsu(n);
  for (std::size_t i = 0; i < n; ++i) dsu[i] = graph::vertex_id(i);
  auto find = [&](graph::vertex_id x) {
    while (dsu[x] != x) x = dsu[x] = dsu[dsu[x]];
    return x;
  };
  for (const auto& e : edges) {
    // Edge must exist in g.
    const auto nb = g.neighbors_raw(e.u);
    if (!std::binary_search(nb.begin(), nb.end(), e.v)) return false;
    const auto a = find(e.u), b = find(e.v);
    if (a == b) return false;  // cycle
    dsu[std::max(a, b)] = std::min(a, b);
  }
  return true;
}

/// Uncounted ground truth for the full query surface of one edge multiset:
/// sequential Hopcroft–Tarjan, the same engine the static oracle tests
/// trust, plus a hashed index from each unordered vertex pair to its edge
/// copies. The one reference every dynamic, persistence and service suite
/// compares against.
class BruteSurface {
 public:
  BruteSurface(std::size_t n, const graph::EdgeList& edges)
      : g_(n), edges_(edges) {
    for (const graph::Edge& e : edges) {
      const std::uint32_t id = g_.add_edge(e.u, e.v);
      if (e.u != e.v) pair_edges_[pair_key(e.u, e.v)].push_back(id);
    }
    g_.build();
    primitives::biconnectivity(g_, bc_);
  }
  explicit BruteSurface(const graph::Graph& g)
      : BruteSurface(g.num_vertices(), g.edge_list()) {}

  [[nodiscard]] bool connected(graph::vertex_id u, graph::vertex_id v) const {
    return bc_.cc_label[u] == bc_.cc_label[v];
  }
  [[nodiscard]] bool biconnected(graph::vertex_id u,
                                 graph::vertex_id v) const {
    return u == v || bc_.same_bcc(g_, u, v);
  }
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    return u == v || bc_.two_edge_connected(u, v);
  }
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    return bc_.is_artic[v] != 0;
  }
  /// Pair-level bridge: some copy of (u, v) is a bridge (a parallel copy
  /// makes every copy a non-bridge, matching the oracle's doubled-edge
  /// rule).
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const {
    for (const std::uint32_t id : copies(u, v)) {
      if (bc_.is_bridge[id]) return true;
    }
    return false;
  }
  /// Is some non-self-loop copy of (u, v) present? Exactly the edges that
  /// belong to a block.
  [[nodiscard]] bool has_edge(graph::vertex_id u, graph::vertex_id v) const {
    return !copies(u, v).empty();
  }
  /// Hopcroft–Tarjan block of the present non-self-loop edge (u, v); every
  /// copy of a pair lies in one block.
  [[nodiscard]] std::uint32_t edge_block(graph::vertex_id u,
                                         graph::vertex_id v) const {
    return bc_.edge_bcc[copies(u, v).at(0)];
  }

  [[nodiscard]] const primitives::BiconnResult& result() const noexcept {
    return bc_;
  }
  [[nodiscard]] const graph::EdgeList& edges() const noexcept {
    return edges_;
  }

 private:
  static std::uint64_t pair_key(graph::vertex_id u, graph::vertex_id v) {
    return (std::uint64_t(std::min(u, v)) << 32) | std::max(u, v);
  }
  /// Edge ids of the non-self-loop copies of (u, v); empty when absent.
  [[nodiscard]] const std::vector<std::uint32_t>& copies(
      graph::vertex_id u, graph::vertex_id v) const {
    static const std::vector<std::uint32_t> kNone;
    const auto it = pair_edges_.find(pair_key(u, v));
    return it == pair_edges_.end() ? kNone : it->second;
  }

  primitives::LocalGraph g_;
  graph::EdgeList edges_;
  primitives::BiconnResult bc_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> pair_edges_;
};

/// Cross-check any object exposing the five query methods (QueryView,
/// DynamicBiconnectivity, BiconnSnapshot...) against brute force on the
/// given vertex pairs.
template <typename Q>
void expect_full_surface_eq(const Q& got, const BruteSurface& want,
                            const std::vector<graph::Edge>& pairs,
                            const char* where) {
  for (const graph::Edge& p : pairs) {
    EXPECT_EQ(got.connected(p.u, p.v), want.connected(p.u, p.v))
        << where << ": connected(" << p.u << "," << p.v << ")";
    EXPECT_EQ(got.biconnected(p.u, p.v), want.biconnected(p.u, p.v))
        << where << ": biconnected(" << p.u << "," << p.v << ")";
    EXPECT_EQ(got.two_edge_connected(p.u, p.v),
              want.two_edge_connected(p.u, p.v))
        << where << ": 2ec(" << p.u << "," << p.v << ")";
    EXPECT_EQ(got.is_articulation(p.u), want.is_articulation(p.u))
        << where << ": artic(" << p.u << ")";
    EXPECT_EQ(got.is_bridge(p.u, p.v), want.is_bridge(p.u, p.v))
        << where << ": bridge(" << p.u << "," << p.v << ")";
  }
}

}  // namespace wecc::testutil
