// Sequential biconnectivity on an adjacency-list multigraph (Hopcroft–
// Tarjan), the engine behind
//   * the ground-truth checker every oracle property test compares against,
//   * the per-cluster *local graph* computations of §5.3 (size O(k), held
//     entirely in symmetric scratch: no asymmetric reads/writes are charged
//     here — callers charge for building the local graph). The graph and
//     result are the caller's; the lookup tables around them (member index,
//     attach slots, redirects) are flat and, except the member index,
//     per-thread and reused (biconn_oracle_views.hpp).
//
// Handles parallel edges (distinct edge ids; a duplicate acts as a back
// edge, so a doubled edge is correctly non-bridge) and ignores self-loops.
// Works on disconnected graphs.
#pragma once

#include <cstdint>
#include <vector>

namespace wecc::primitives {

/// Mutable adjacency-list multigraph built in symmetric memory.
struct LocalGraph {
  explicit LocalGraph(std::size_t n) : adj(n) {}

  /// Adds edge {u,v}; returns its edge id.
  std::uint32_t add_edge(std::uint32_t u, std::uint32_t v) {
    const auto id = std::uint32_t(edges.size());
    edges.push_back({u, v});
    adj[u].push_back({v, id});
    if (u != v) adj[v].push_back({u, id});
    return id;
  }

  [[nodiscard]] std::size_t num_vertices() const { return adj.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges.size(); }

  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/// Full biconnectivity decomposition of a LocalGraph.
struct BiconnResult {
  std::uint32_t num_bcc = 0;
  std::uint32_t num_cc = 0;
  std::vector<std::uint32_t> edge_bcc;   // per edge id (self-loop: ~0u)
  std::vector<std::uint8_t> is_bridge;   // per edge id
  std::vector<std::uint8_t> is_artic;    // per vertex
  std::vector<std::uint32_t> cc_label;   // per vertex
  std::vector<std::uint32_t> tecc_label; // 2-edge-connected comp per vertex

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Do u and v share a biconnected component? O(deg u + deg v).
  [[nodiscard]] bool same_bcc(const LocalGraph& g, std::uint32_t u,
                              std::uint32_t v) const;
  /// Is vertex v in the block of edge e? O(deg v).
  [[nodiscard]] bool vertex_in_block(const LocalGraph& g, std::uint32_t v,
                                     std::uint32_t e) const;
  /// Are u and v 2-edge-connected (connected with no separating bridge)?
  [[nodiscard]] bool two_edge_connected(std::uint32_t u,
                                        std::uint32_t v) const {
    return tecc_label[u] == tecc_label[v];
  }
};

/// Run Hopcroft–Tarjan. Deterministic: DFS roots ascend, adjacency is
/// scanned in insertion order. No asymmetric-memory counters are touched.
BiconnResult biconnectivity(const LocalGraph& g);

}  // namespace wecc::primitives
