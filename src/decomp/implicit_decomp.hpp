// §3: implicit k-decomposition (Definition 2, Algorithm 1, Theorem 3.1).
//
// The decomposition stores only the center set S (with 1-bit primary /
// secondary labels); everything else — a vertex's center rho(v), a center's
// cluster C(s), the per-cluster spanning trees of Lemma 3.3 — is recomputed
// from G + S inside symmetric scratch, with zero asymmetric writes:
//
//   rho(v)    O(k) expected operations            (Lemma 3.2)
//   C(s)      O(k^2) expected operations          (Lemma 3.5)
//   build     O(kn) operations, O(n/k) writes     (Lemma 3.6)
//
// Tie-breaking: priority = ascending vertex id. rho(v) runs a lexicographic
// BFS (frontier in discovery order, neighbors ascending, first discovery
// wins), whose discovery order equals the paper's tie-broken shortest-path
// order; the parent pointers give the unique shortest path SP(v, rho0(v)),
// and rho(v) is the first center on it from v's side.
//
// Scratch: the searches keep their visited table, discovery order and
// predecessor indices in flat per-thread scratch (detail::SearchScratch),
// reused across calls, so a steady-state rho allocates nothing. Buffers
// that grew past primitives::kScratchRetainEntries are released after the
// call. The amem::SymScratch claims are those of a per-call allocation.
//
// Unconnected graphs (§3 "Extension"): an unsampled component of size >= k
// promotes its minimum vertex to a primary center (two-phase, so the pass is
// deterministic and parallel); a component smaller than k gets an *implicit
// virtual center* — its minimum vertex, never written.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "amem/sym_scratch.hpp"
#include "decomp/center_set.hpp"
#include "graph/graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "primitives/flat_scratch.hpp"

namespace wecc::decomp {

struct DecompOptions {
  std::size_t k = 8;
  std::uint64_t seed = 1;
  /// Lemma 3.7 parallel variant: each split also promotes the root's
  /// children, shrinking recursion depth (a few more centers, same bounds).
  bool parallel_children = false;
};

/// Result of rho(v).
struct RhoResult {
  graph::vertex_id center = graph::kNoVertex;
  /// Next hop from v along SP(v, center) (== center when adjacent;
  /// == kNoVertex when v is its own center). Edges (v, next_hop) over all v
  /// form the rooted cluster spanning trees of Lemma 3.3.
  graph::vertex_id next_hop = graph::kNoVertex;
  /// True when the component had no primary center and is smaller than k:
  /// `center` is the component minimum, which is not stored in S.
  bool virtual_center = false;
};

/// A materialized (in scratch) cluster: members in cluster-BFS order with
/// their in-cluster tree parents (parent[0] == center).
struct ClusterInfo {
  std::vector<graph::vertex_id> members;
  std::vector<graph::vertex_id> parent;  // parallel to members
};

/// One exported center with its primary bit — the unit of decomposition
/// reuse: a batch-dynamic selective rebuild re-installs these over the
/// mutated graph instead of re-running Algorithm 1.
struct CenterSeed {
  graph::vertex_id v = graph::kNoVertex;
  bool primary = false;
};

namespace detail {

/// Reused symmetric scratch of one search kind: the visited table, the
/// discovery order with each vertex's BFS predecessor (as an index into
/// the order) and a buffer for one vertex's sorted neighbours. Each kind
/// has its own instance per thread (the accessors below), taken through
/// primitives::ScratchUse, because the searches nest: cluster() and
/// SECONDARYCENTERS call rho() while their own search is live; rho() calls
/// nothing that searches.
struct SearchScratch {
  std::vector<graph::vertex_id> order;
  std::vector<std::uint32_t> parent;  // parallel to order; parent[0] == 0
  std::vector<graph::vertex_id> nbrs;
  std::vector<graph::vertex_id> path;          // rho's reconstructed path
  primitives::FlatMap<graph::vertex_id> seen;  // visited set
  bool busy = false;

  /// Empty the search state (a search's first step).
  void clear() noexcept {
    order.clear();
    parent.clear();
    seen.clear();
  }
  void trim() {
    primitives::trim_scratch(order);
    primitives::trim_scratch(parent);
    primitives::trim_scratch(nbrs);
    primitives::trim_scratch(path);
    seen.clear_and_trim();
  }
};
using ScratchUse = primitives::ScratchUse<SearchScratch>;

inline SearchScratch& rho_scratch() {
  thread_local SearchScratch s;
  return s;
}
inline SearchScratch& cluster_scratch() {
  thread_local SearchScratch s;
  return s;
}
inline SearchScratch& secondary_scratch() {
  thread_local SearchScratch s;
  return s;
}

}  // namespace detail

template <graph::GraphView G>
class ImplicitDecomposition {
 public:
  /// Algorithm 1 (+ unconnected-graph extension). The graph must outlive
  /// the decomposition.
  static ImplicitDecomposition build(const G& g, const DecompOptions& opt);

  /// Partial-rebuild entry point: install a previously exported center set
  /// over (a mutated version of) the graph instead of re-running Algorithm
  /// 1's sampling / promotion / splitting passes. O(|seeds|) counted writes,
  /// no traversal. Every derived quantity (rho, clusters, boundary edges) is
  /// recomputed on demand from the *new* graph, so correctness never depends
  /// on the seeds matching the mutated topology — only the performance
  /// bounds do (rho stays O(k) only while clusters stay O(k)-sized).
  ///
  /// Every seed is installed as a *primary* center, whatever its exported
  /// flag: a deletion can strand a secondary center in a component with no
  /// primary, where rho (which searches for primaries) would go virtual and
  /// break the clusters-graph invariant that a center-bearing component
  /// never resolves virtually. All-primary restores it on any topology;
  /// cluster shapes shift slightly, component structure does not.
  static ImplicitDecomposition build_reusing(
      const G& g, const DecompOptions& opt,
      const std::vector<CenterSeed>& seeds) {
    if (opt.k < 2) throw std::invalid_argument("k must be >= 2");
    ImplicitDecomposition d(g, opt.k);
    for (const CenterSeed& s : seeds) d.set_.insert(s.v, /*primary=*/true);
    d.center_list_ = d.set_.to_sorted_vector();
    amem::count_write(d.center_list_.size());
    return d;
  }

  /// Export the stored state (the whole Definition 2 object) for
  /// build_reusing. Ascending by vertex id; uncounted result extraction.
  [[nodiscard]] std::vector<CenterSeed> export_centers() const {
    std::vector<CenterSeed> seeds;
    seeds.reserve(center_list_.size());
    for (const graph::vertex_id v : center_list_) {
      seeds.push_back({v, set_.is_primary(v)});
    }
    return seeds;
  }

  [[nodiscard]] const G& graph() const noexcept { return *g_; }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] const CenterSet& centers() const noexcept { return set_; }

  /// All centers ascending (materialized once at build; O(n/k) writes).
  [[nodiscard]] const std::vector<graph::vertex_id>& center_list()
      const noexcept {
    return center_list_;
  }

  [[nodiscard]] bool is_center(graph::vertex_id v) const {
    return set_.contains(v);
  }

  /// Lemma 3.2. No asymmetric writes; O(k log n) scratch whp. The scratch
  /// is per-thread and reused across calls (detail::SearchScratch); the
  /// words claimed through amem::SymScratch are the ones the search holds,
  /// as when it was allocated per call. Safe to call from many threads.
  [[nodiscard]] RhoResult rho(graph::vertex_id v) const;

  /// Lemma 3.5: the cluster of center s (s may be a virtual center).
  /// No asymmetric writes; O(|C| + k log n) scratch whp, per-thread and
  /// reused like rho's (an instance of its own: rho runs inside it).
  [[nodiscard]] ClusterInfo cluster(graph::vertex_id s) const;

  /// Dense index of a (real) center in center_list(), by binary search.
  [[nodiscard]] std::size_t center_index(graph::vertex_id c) const {
    amem::count_read(2);
    const auto it =
        std::lower_bound(center_list_.begin(), center_list_.end(), c);
    if (it == center_list_.end() || *it != c) {
      throw std::invalid_argument("not a center");
    }
    return std::size_t(it - center_list_.begin());
  }

 private:
  ImplicitDecomposition(const G& g, std::size_t k)
      : g_(&g), k_(k), set_(g.num_vertices()) {}

  /// Lexicographic BFS from v until `stop(u)` returns true for a discovered
  /// vertex (checked in discovery order) or the component is exhausted.
  /// Leaves the discovery order and BFS predecessors in `s` and returns
  /// the hit's index in the order, or kNoHit.
  static constexpr std::size_t kNoHit = ~std::size_t{0};
  template <typename Stop>
  std::size_t lex_bfs(detail::SearchScratch& s, graph::vertex_id v,
                      Stop&& stop) const;

  /// The cluster search of cluster() and SECONDARYCENTERS: BFS from center
  /// c pruned to vertices whose rho is c (Corollary 3.4 makes this
  /// complete), in (member, ascending neighbour) order, appending each
  /// member and its tree parent to `c_out` until it holds `max_members`.
  void member_bfs(detail::SearchScratch& s, graph::vertex_id c,
                  ClusterInfo& c_out, std::size_t max_members) const;

  /// rho(u) == s test used by cluster searches (avoids re-deriving paths).
  [[nodiscard]] bool rho_is(graph::vertex_id u, graph::vertex_id s) const {
    return rho(u).center == s;
  }

  /// Algorithm 1's SECONDARYCENTERS, iterative work-list form.
  void secondary_centers(graph::vertex_id v, bool parallel_children);

  const G* g_;
  std::size_t k_;
  CenterSet set_;
  std::vector<graph::vertex_id> center_list_;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <graph::GraphView G>
template <typename Stop>
std::size_t ImplicitDecomposition<G>::lex_bfs(detail::SearchScratch& s,
                                              graph::vertex_id v,
                                              Stop&& stop) const {
  using graph::vertex_id;
  amem::SymScratch scratch(2);
  s.clear();
  s.order.push_back(v);
  s.parent.push_back(0);
  s.seen.insert(v);
  if (stop(v)) return 0;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const vertex_id u = s.order[i];
    s.nbrs.clear();
    g_->for_neighbors(u, [&](vertex_id w) { s.nbrs.push_back(w); });
    std::sort(s.nbrs.begin(), s.nbrs.end());
    for (const vertex_id w : s.nbrs) {
      if (w == u) continue;  // self-loop
      if (s.seen.insert(w)) {
        scratch.grow(2);
        s.order.push_back(w);
        s.parent.push_back(std::uint32_t(i));
        if (stop(w)) return s.order.size() - 1;
      }
    }
  }
  return kNoHit;
}

template <graph::GraphView G>
RhoResult ImplicitDecomposition<G>::rho(graph::vertex_id v) const {
  using graph::vertex_id;
  RhoResult r;
  const detail::ScratchUse use(detail::rho_scratch());
  detail::SearchScratch& s = use.scratch();
  // Find the nearest primary center rho0(v) in tie-broken order.
  const std::size_t hit =
      lex_bfs(s, v, [&](vertex_id u) { return set_.is_primary(u); });
  if (hit == kNoHit) {
    // Component with no primary center: virtual center = minimum vertex.
    // (Size >= k cannot happen post-build — see the promotion pass.)
    std::size_t mi = 0;
    for (std::size_t i = 1; i < s.order.size(); ++i) {
      if (s.order[i] < s.order[mi]) mi = i;
    }
    r.center = s.order[mi];
    r.virtual_center = true;
    if (mi != 0) {
      // First step of the path from v to the minimum: chase parents to v.
      std::size_t x = mi, prev = mi;
      while (x != 0) {
        prev = x;
        x = s.parent[x];
      }
      r.next_hop = s.order[prev];
    }
    return r;
  }
  // Path v -> rho0(v): reconstruct by chasing parents from the hit.
  std::vector<vertex_id>& path = s.path;  // rho0 ... v (reversed)
  path.clear();
  for (std::size_t x = hit;; x = s.parent[x]) {
    path.push_back(s.order[x]);
    if (x == 0) break;
  }
  amem::SymScratch scratch(path.size());
  // First center from v's side (path is reversed: v is path.back()).
  for (std::size_t i = path.size(); i > 0; --i) {
    const vertex_id x = path[i - 1];
    if (set_.contains(x)) {
      r.center = x;
      // Next hop from v toward the center: the path vertex adjacent to v.
      if (x != v) r.next_hop = path[path.size() - 2];
      break;
    }
  }
  return r;
}

template <graph::GraphView G>
void ImplicitDecomposition<G>::member_bfs(detail::SearchScratch& s,
                                          graph::vertex_id c,
                                          ClusterInfo& c_out,
                                          std::size_t max_members) const {
  using graph::vertex_id;
  amem::SymScratch scratch(2);
  s.clear();
  c_out.members.push_back(c);
  c_out.parent.push_back(c);
  s.seen.insert(c);
  for (std::size_t i = 0; i < c_out.members.size(); ++i) {
    const vertex_id u = c_out.members[i];
    s.nbrs.clear();
    g_->for_neighbors(u, [&](vertex_id w) { s.nbrs.push_back(w); });
    std::sort(s.nbrs.begin(), s.nbrs.end());
    for (const vertex_id w : s.nbrs) {
      if (w == u || !s.seen.insert(w)) continue;
      scratch.grow(1);
      const RhoResult rw = rho(w);
      if (rw.center == c) {
        c_out.members.push_back(w);
        c_out.parent.push_back(rw.next_hop);
        scratch.grow(2);
        if (c_out.members.size() >= max_members) return;
      }
    }
  }
}

template <graph::GraphView G>
ClusterInfo ImplicitDecomposition<G>::cluster(graph::vertex_id s) const {
  ClusterInfo c;
  const detail::ScratchUse use(detail::cluster_scratch());
  member_bfs(use.scratch(), s, c, ~std::size_t{0});
  return c;
}

template <graph::GraphView G>
void ImplicitDecomposition<G>::secondary_centers(graph::vertex_id v,
                                                 bool parallel_children) {
  using graph::vertex_id;
  std::vector<vertex_id> pending{v};
  ClusterInfo cl;  // the search's members and tree parents
  std::vector<std::uint32_t> sub;
  while (!pending.empty()) {
    const vertex_id c = pending.back();
    pending.pop_back();

    // Search for the first k+1 vertices whose center is c (line 7).
    cl.members.clear();
    cl.parent.clear();
    const detail::ScratchUse use(detail::secondary_scratch());
    member_bfs(use.scratch(), c, cl, k_ + 1);
    if (cl.members.size() <= k_) continue;  // line 8: cluster fits

    // Build the (truncated) tree on the first k members; find the splitter
    // maximizing min(subtree, k - subtree) (line 9).
    std::vector<vertex_id>& members = cl.members;
    std::vector<vertex_id>& parents = cl.parent;
    members.resize(k_);
    parents.resize(k_);
    primitives::FlatMap<vertex_id>& idx = use.scratch().seen;
    idx.clear();
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      idx.try_emplace(members[i], i);
    }
    sub.assign(members.size(), 1);
    for (std::size_t i = members.size(); i > 1; --i) {
      // members is in BFS order, so children come after parents.
      const std::uint32_t pi = idx.find(parents[i - 1]);
      if (pi != idx.kAbsent) sub[pi] += sub[i - 1];
    }
    std::size_t best = 0;
    std::uint32_t best_score = 0;
    for (std::size_t i = 1; i < members.size(); ++i) {
      const std::uint32_t score =
          std::min<std::uint32_t>(sub[i], std::uint32_t(k_) - sub[i]);
      if (score > best_score ||
          (score == best_score && best != 0 &&
           members[i] < members[best])) {
        best = i;
        best_score = score;
      }
    }
    if (best == 0) continue;  // defensive: no splitter (k == 1 corner)

    const vertex_id u = members[best];
    set_.insert(u, /*primary=*/false);  // line 10
    if (parallel_children) {
      // Lemma 3.7: also promote the root's children in the truncated tree.
      for (std::size_t i = 1; i < members.size(); ++i) {
        if (parents[i] == c && members[i] != u) {
          set_.insert(members[i], false);
          pending.push_back(members[i]);
        }
      }
    }
    pending.push_back(c);  // line 11
    pending.push_back(u);  // line 12
  }
}

template <graph::GraphView G>
ImplicitDecomposition<G> ImplicitDecomposition<G>::build(
    const G& g, const DecompOptions& opt) {
  using graph::vertex_id;
  if (opt.k < 2) throw std::invalid_argument("k must be >= 2");
  const std::size_t n = g.num_vertices();
  ImplicitDecomposition d(g, opt.k);

  // Line 1: sample primaries with probability 1/k.
  for (std::size_t v = 0; v < n; ++v) {
    amem::count_read();
    if (parallel::bernoulli(opt.seed, v, 1.0 / double(opt.k))) {
      d.set_.insert(vertex_id(v), true);
    }
  }

  // Unsampled components of size >= k: promote the component minimum.
  // Two-phase (scan then insert) keeps the pass deterministic in parallel.
  std::vector<std::vector<vertex_id>> promote(parallel::num_threads() * 4);
  {
    const std::size_t nb = promote.size();
    const std::size_t block = (n + nb - 1) / nb;
    parallel::detail::run_tasks(nb, [&](std::size_t b) {
      const std::size_t lo = b * block, hi = std::min(n, lo + block);
      for (std::size_t vv = lo; vv < hi; ++vv) {
        const auto v = vertex_id(vv);
        const detail::ScratchUse use(detail::rho_scratch());
        detail::SearchScratch& s = use.scratch();
        const auto primary = [&](vertex_id u) { return d.set_.is_primary(u); };
        if (d.lex_bfs(s, v, primary) != kNoHit) continue;
        if (s.order.size() < opt.k) continue;  // implicit virtual center
        if (*std::min_element(s.order.begin(), s.order.end()) == v) {
          promote[b].push_back(v);
        }
      }
    });
  }
  for (auto& vec : promote) {
    for (vertex_id v : vec) d.set_.insert(v, true);
  }

  // Lines 3-4: secondary centers per primary cluster, in parallel (clusters
  // are independent — a vertex's path to its primary center stays inside
  // its primary cluster, Lemma 3.3).
  std::vector<vertex_id> primaries;
  for (vertex_id v : d.set_.to_sorted_vector()) {
    if (d.set_.is_primary(v)) primaries.push_back(v);
  }
  const std::size_t np = primaries.size();
  const std::size_t nb = std::min<std::size_t>(
      parallel::num_threads() * 4, std::max<std::size_t>(1, np));
  const std::size_t block = (np + nb - 1) / nb;
  parallel::detail::run_tasks(nb, [&](std::size_t b) {
    const std::size_t lo = b * block, hi = std::min(np, lo + block);
    for (std::size_t i = lo; i < hi; ++i) {
      d.secondary_centers(primaries[i], opt.parallel_children);
    }
  });

  // Materialize the sorted center list (O(n/k) counted writes).
  d.center_list_ = d.set_.to_sorted_vector();
  amem::count_write(d.center_list_.size());
  return d;
}

}  // namespace wecc::decomp
