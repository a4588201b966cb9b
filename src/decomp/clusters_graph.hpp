// The *implicit clusters graph* (Definition 1 + §4.3): vertices are the
// centers of an implicit k-decomposition (dense indices into center_list()),
// edges are the multigraph projections of boundary edges. Nothing is
// materialized — neighbor enumeration per Lemma 4.3 runs the cluster search
// in symmetric scratch and rho's the boundary endpoints: O(k^2) expected
// operations, zero asymmetric writes.
//
// Satisfies GraphView, so bfs_cc / we_connectivity / ldd::decompose run on
// it directly; `for_boundary_edges` additionally reports the underlying
// graph edge (u, w) of every projected edge instance — the provenance the
// §5.3 biconnectivity oracle needs to name clusters-tree edges.
#pragma once

#include "decomp/implicit_decomp.hpp"

namespace wecc::decomp {

template <graph::GraphView G>
class ClustersGraph {
 public:
  explicit ClustersGraph(const ImplicitDecomposition<G>& d) : d_(&d) {}

  [[nodiscard]] const ImplicitDecomposition<G>& decomposition() const {
    return *d_;
  }

  /// Number of (real) centers. Virtual centers of sub-k components have no
  /// boundary edges by definition and are handled outside the oracle core.
  [[nodiscard]] std::size_t num_vertices() const {
    return d_->center_list().size();
  }

  /// Multigraph neighbor enumeration: one callback per boundary edge
  /// instance (parallel cluster edges repeat, matching Definition 1).
  template <typename F>
  void for_neighbors(graph::vertex_id ci, F&& fn) const {
    for_boundary_edges(ci, [&](graph::vertex_id cj, graph::vertex_id,
                               graph::vertex_id) { fn(cj); });
  }

  /// fn(cj, u, w): boundary edge instance u in C(i), w in C(j), i != j.
  /// Emitted in deterministic (cluster-BFS member, ascending neighbor)
  /// order. O(k^2) expected operations (Lemma 4.3), no writes.
  template <typename F>
  void for_boundary_edges(graph::vertex_id ci, F&& fn) const {
    const graph::vertex_id s = d_->center_list()[ci];
    amem::count_read();
    for_boundary_edges_of(d_->cluster(s), s, fn);
  }

  /// Same enumeration over an already-materialized ClusterInfo of center
  /// `s` — the one body both the live path above and the rebuild pipeline's
  /// boundary cache fill (biconn_oracle_impl.hpp) run, so a cached replay
  /// is instance-for-instance identical to a live enumeration.
  template <typename F>
  void for_boundary_edges_of(const ClusterInfo& c, graph::vertex_id s,
                             F&& fn) const {
    using graph::vertex_id;
    primitives::FlatMap<vertex_id> members;
    members.reserve(c.members.size());
    for (const vertex_id u : c.members) members.insert(u);
    amem::SymScratch scratch(c.members.size());
    std::vector<vertex_id> nbrs;
    for (const vertex_id u : c.members) {
      nbrs.clear();
      d_->graph().for_neighbors(u, [&](vertex_id w) { nbrs.push_back(w); });
      std::sort(nbrs.begin(), nbrs.end());
      for (const vertex_id w : nbrs) {
        if (w == u || members.contains(w)) continue;
        const RhoResult rw = d_->rho(w);
        if (rw.center == s) continue;  // member discovered late: skip
        // rw is never virtual here: w touches a >= 1 sized real cluster's
        // component, which therefore has a primary center.
        fn(vertex_id(d_->center_index(rw.center)), u, w);
      }
    }
  }

 private:
  const ImplicitDecomposition<G>* d_;
};

}  // namespace wecc::decomp
