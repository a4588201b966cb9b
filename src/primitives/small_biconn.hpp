// Sequential biconnectivity on a flat multigraph (Hopcroft–Tarjan), the
// engine behind
//   * the ground-truth checker every oracle property test compares against,
//   * the per-cluster *local graph* computations of §5.3 (size O(k), held
//     entirely in symmetric scratch: no asymmetric reads/writes are charged
//     here — callers charge for building the local graph).
//
// The graph is an edge list plus a CSR laid out once by build(); the result
// is filled in place. Both keep their buffers' capacity across reset() and
// refills, so the oracle's per-thread local views (biconn_oracle_views.hpp)
// run warm queries and rebuild sweeps without touching the heap; the DFS
// and DSU arrays are per-thread scratch of their own.
//
// Handles parallel edges (distinct edge ids; a duplicate acts as a back
// edge, so a doubled edge is correctly non-bridge) and ignores self-loops.
// Works on disconnected graphs.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace wecc::primitives {

/// Multigraph in symmetric memory: edges are added one by one, then build()
/// lays out the adjacency as a CSR whose arcs per vertex keep edge-insertion
/// order (the order the DFS scans, so block numbering is a function of it).
struct LocalGraph {
  using Arc = std::pair<std::uint32_t, std::uint32_t>;  // (neighbor, edge)

  LocalGraph() = default;
  explicit LocalGraph(std::size_t n) : n_(n) {}

  /// Empty graph on n vertices; every buffer keeps its capacity.
  void reset(std::size_t n) {
    n_ = n;
    edges.clear();
    built_ = false;
  }

  /// Adds edge {u,v}; returns its edge id. The adjacency is stale until the
  /// next build().
  std::uint32_t add_edge(std::uint32_t u, std::uint32_t v) {
    const auto id = std::uint32_t(edges.size());
    edges.push_back({u, v});
    built_ = false;
    return id;
  }

  /// Lay out the CSR over the edges added so far. O(n + m).
  void build();

  /// Arcs of u in edge-insertion order (a self-loop appears once).
  [[nodiscard]] std::span<const Arc> arcs(std::uint32_t u) const {
    assert(built_ && u < n_);
    return {arcs_.data() + off_[u], arcs_.data() + off_[u + 1]};
  }

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges.size();
  }

  /// Release buffers that grew past kScratchRetainEntries (flat_scratch.hpp).
  void trim();

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

 private:
  std::size_t n_ = 0;
  // n + 1 offsets into arcs_; 2m arcs may pass 32 bits.
  std::vector<std::size_t> off_;
  std::vector<Arc> arcs_;
  bool built_ = false;
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

  /// Release buffers that grew past kScratchRetainEntries (flat_scratch.hpp).
  void trim();
};

/// Run Hopcroft–Tarjan on a built graph (std::logic_error otherwise),
/// overwriting `out` in place. Deterministic: DFS roots ascend, arcs are
/// scanned in insertion order. No asymmetric-memory counters are touched.
void biconnectivity(const LocalGraph& g, BiconnResult& out);

/// By-value form of the above.
inline BiconnResult biconnectivity(const LocalGraph& g) {
  BiconnResult r;
  biconnectivity(g, r);
  return r;
}

}  // namespace wecc::primitives
