// Union-find over asymmetric memory with counted accesses.
//
// Used as (a) a sequential connectivity baseline (Theta(n) writes, near-m
// reads), and (b) the small DSU over clusters-tree edges in the §5.3
// biconnectivity oracle (O(n/k) elements, within the write budget).
// Path halving + union by index keeps finds cheap without rank storage.
#pragma once

#include <cstddef>

#include "amem/asym_array.hpp"
#include "graph/graph.hpp"

namespace wecc::primitives {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    // Model note: initializing parents is n writes, charged — a DSU-based
    // algorithm cannot dodge its Theta(n) write cost.
    for (std::size_t i = 0; i < n; ++i) {
      parent_.write(i, graph::vertex_id(i));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

  graph::vertex_id find(graph::vertex_id x) {
    while (true) {
      const graph::vertex_id p = parent_.read(x);
      if (p == x) return x;
      const graph::vertex_id gp = parent_.read(p);
      if (gp == p) return p;
      parent_.write(x, gp);  // path halving
      x = gp;
    }
  }

  /// Union the sets of a and b; smaller root id wins (deterministic).
  /// Returns true if a merge happened.
  bool unite(graph::vertex_id a, graph::vertex_id b) {
    graph::vertex_id ra = find(a), rb = find(b);
    if (ra == rb) return false;
    if (rb < ra) std::swap(ra, rb);
    parent_.write(rb, ra);
    return true;
  }

  [[nodiscard]] bool connected(graph::vertex_id a, graph::vertex_id b) {
    return find(a) == find(b);
  }

 private:
  amem::asym_array<graph::vertex_id> parent_;
};

}  // namespace wecc::primitives
