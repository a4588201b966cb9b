// §5.3 (Theorem 5.3): biconnectivity oracle in sublinear writes.
//
// Construction (Algorithm 2), all on top of an implicit k-decomposition:
//   1. clusters spanning forest with edge provenance — each non-root
//      cluster D stores its parent cluster, the *cluster root* vertex
//      croot(D) in D and the attach vertex in the parent (the endpoints of
//      the chosen tree-edge instance); O(n/k) writes;
//   2. BC labeling of the *implicit* clusters multigraph (Euler numbers,
//      low/high from boundary-edge enumeration, critical edges,
//      connectivity minus critical edges) — cluster labels l', cluster-level
//      bridges; O(nk) operations, O(n/k) writes;
//   3. local graphs (Definition 4) per cluster, with category-2 edges drawn
//      from an equivalence over clusters-tree edges; per-cluster
//      Hopcroft–Tarjan runs entirely in symmetric scratch;
//   4. a fixpoint DSU over clusters-tree edges: initialized from the sound
//      cluster-level relation (a simple cycle in the clusters multigraph
//      lifts to a simple cycle in G), then refined by local-graph block
//      merges until stable. This generalizes the paper's "neighbor clusters
//      sharing a cluster label" rule to G-cycles that revisit a cluster
//      (see DESIGN.md §3). A second fixpoint, seeded from the first, does
//      the same for 2-edge-connectivity;
//   5. per-edge bits within the O(n/k) budget: up_ok / bridge_up_ok
//      (does the path through the parent cluster stay in one block / avoid
//      bridges), root biconnectivity (Definition 5), global BCC ids of
//      spanning blocks (DSU roots), internal-block counts with prefix
//      offsets (Lemma 5.7), prefix bad counts, plus LCA/level-ancestor
//      indices on the clusters forest (O((n/k) log n) words — documented
//      log-factor deviation).
//
// Queries (no writes, O(k^2) expected operations = O(omega) at k=sqrt(w)):
//   articulation points, bridges, vertex-pair biconnectivity, vertex-pair
//   2-edge-connectivity, per-edge BCC labels. Components of size < k with
//   no stored center ("virtual" components) are solved wholesale in
//   scratch. Correctness is property-tested against Hopcroft–Tarjan ground
//   truth in biconn_oracle_test.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "biconn/bc_labeling.hpp"
#include "decomp/clusters_graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/shard.hpp"
#include "primitives/blocked_lca.hpp"
#include "primitives/flat_scratch.hpp"
#include "primitives/small_biconn.hpp"

namespace wecc::biconn {

struct BiconnOracleOptions {
  std::size_t k = 8;  // callers pass floor(sqrt(omega)), min 2
  std::uint64_t seed = 1;
  /// §5.4: worker count for the per-cluster construction passes
  /// (boundary-cache fill, cluster labeling, fixpoint sweeps, bit
  /// finalization); 0 and 1 both mean serial. Published output is
  /// identical for every thread count (per-cluster results land in
  /// disjoint slots; cross-cluster merges apply serially in cluster order;
  /// fixpoint rounds are Jacobi-style) — the determinism contract the
  /// dynamic facades' rebuild_threads knob rides on.
  std::size_t threads = 0;
};

/// Execution telemetry of one build_reusing call, surfaced through the
/// dynamic facades' update reports and the rebuild bench rows.
struct BiconnRebuildStats {
  std::size_t dirty_clusters = 0;  // clusters whose state was re-derived
  std::size_t threads = 0;  // resolved worker count
  std::size_t shards = 0;   // shard partition of the per-cluster passes
};

/// A globally unique biconnected-component id. Spanning blocks are named by
/// their clusters-tree edge DSU root; blocks confined to one cluster by a
/// per-cluster offset + deterministic local rank; blocks of virtual (< k,
/// centerless) components by their component minimum + local rank.
struct BccId {
  enum class Kind : std::uint8_t { kSpanning, kInternal, kVirtual };
  Kind kind = Kind::kInternal;
  std::uint64_t value = 0;
  bool operator==(const BccId&) const = default;
};

namespace detail {

/// One boundary-edge instance as ClustersGraph::for_boundary_edges emits
/// it: neighbor cluster cj, endpoint u in this cluster, w in cj's.
struct BoundaryInstance {
  graph::vertex_id cj;
  graph::vertex_id u;
  graph::vertex_id w;
};

/// A view (LocalView / VirtualView) filled into a free per-thread slot and
/// held for the handle's scope; the slot goes back, trimmed to
/// primitives::kScratchRetainEntries, when the handle dies. Each thread has
/// two slots per view kind, the most any caller holds at once
/// (finalize_bits' block and 2ecc views; two_edge_class's own cluster and
/// its top cluster), so a warm view makes no heap allocation.
template <typename View>
class HeldView {
 public:
  template <typename Fill>
  explicit HeldView(Fill&& fill) : use_(free_slot()) {
    fill(use_.scratch().view);
  }
  [[nodiscard]] const View& operator*() const noexcept {
    return use_.scratch().view;
  }
  [[nodiscard]] const View* operator->() const noexcept {
    return &use_.scratch().view;
  }

 private:
  struct Slot {
    View view;
    bool busy = false;
    void trim() { view.trim(); }
  };
  static Slot& free_slot() {
    thread_local std::array<Slot, 2> slots;
    for (Slot& s : slots) {
      if (!s.busy) return s;
    }
    throw std::logic_error("more than two local views held by one thread");
  }
  primitives::ScratchUse<Slot> use_;
};

}  // namespace detail

template <graph::GraphView G>
class BiconnectivityOracle {
 public:
  static BiconnectivityOracle build(const G& g,
                                    const BiconnOracleOptions& opt);

  /// Reuse hook 1 (batch-dynamic layer): run the full construction over an
  /// externally prepared decomposition instead of re-running Algorithm 1.
  /// The graph the decomposition references must outlive the oracle.
  static BiconnectivityOracle from_decomposition(
      decomp::ImplicitDecomposition<G> d, const BiconnOracleOptions& opt);

  /// Reuse hook 2 (batch-dynamic selective rebuild): re-install `old`'s
  /// center set over the mutated graph `g` (ImplicitDecomposition::
  /// build_reusing — all centers re-installed primary) and re-run the BC
  /// labeling pipeline only on the clusters whose *old* connected component
  /// (old.component_of label) is in `dirty_components`; every other
  /// cluster's forest slot, cluster-level labels, fixpoint DSU entries and
  /// per-edge bits are copied from `old`.
  ///
  /// Soundness contract (the caller — DynamicBiconnectivity — enforces it):
  ///  * `dirty_components` covers every component an edge changed in since
  ///    `old`'s graph was frozen, so a clean component's subgraph in `g` is
  ///    bit-identical to its subgraph in old's graph;
  ///  * `old` was itself built over an all-primary reused decomposition
  ///    (from_decomposition after export/reinstall, or a previous
  ///    build_reusing), so rho() in clean components — a deterministic
  ///    function of (subgraph, center set, primary flags) — is unchanged
  ///    and the copied per-cluster state matches the query-time local
  ///    views recomputed from `g`.
  /// Cost: O(n/k) writes for the copies + forest/LCA rebuild, graph
  /// traversal only inside dirty components (O(|dirty| k^2) expected per
  /// dirty cluster), vs O(nk) operations for a from-scratch build.
  /// `stats`, when non-null, receives the rebuild's execution shape.
  static BiconnectivityOracle build_reusing(
      const G& g, const BiconnOracleOptions& opt,
      const BiconnectivityOracle& old,
      const std::unordered_set<graph::vertex_id>& dirty_components,
      BiconnRebuildStats* stats = nullptr);

  [[nodiscard]] const decomp::ImplicitDecomposition<G>& decomposition()
      const noexcept {
    return decomp_;
  }

  /// Is v an articulation point of G?
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const;

  /// Is {u, v} a bridge of G? (False if not an edge, or doubled.)
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const;

  /// Do u and v share a biconnected component?
  [[nodiscard]] bool biconnected(graph::vertex_id u,
                                 graph::vertex_id v) const;

  /// Are u and v 2-edge-connected (connected, no separating bridge)?
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const;

  /// Canonical name of v's 2-edge-connected class: two vertices are
  /// two_edge_connected iff their keys are equal (property-tested against
  /// the pairwise query). O(1) local views + O(log depth) ancestor hops,
  /// so callers can bucket vertices by 2ec class instead of paying a
  /// pairwise query per candidate — the dynamic layer's 2ec anchor maps
  /// ride on this. Keys are only comparable within one oracle version.
  [[nodiscard]] std::uint64_t two_edge_class(graph::vertex_id v) const;

  /// BCC id of edge {u, v} (first matching instance; std::nullopt for
  /// self-loops). The classic per-edge output of [21, 32], on demand.
  [[nodiscard]] std::optional<BccId> edge_bcc(graph::vertex_id u,
                                              graph::vertex_id v) const;

  /// Connected-component representative (piggybacks on the clusters forest).
  [[nodiscard]] graph::vertex_id component_of(graph::vertex_id v) const;

  /// Definition 5: is the outside vertex of child cluster `ci` (i.e. its
  /// cluster root, viewed from the parent's local graph) root-biconnected
  /// in the parent? Exposed for tests of Lemma 5.6.
  [[nodiscard]] bool root_biconnected_bit(std::size_t ci) const {
    amem::count_read();
    return rb_[ci] != 0;
  }

  /// Rounds each fixpoint took to converge (ablation instrumentation; the
  /// paper's single-pass rule corresponds to stopping after round 1).
  [[nodiscard]] std::size_t fixpoint_rounds_bc() const noexcept {
    return rounds_bc_;
  }
  [[nodiscard]] std::size_t fixpoint_rounds_tecc() const noexcept {
    return rounds_te_;
  }

  /// Enumerate every articulation point of G exactly once (ascending
  /// order within each cluster; clusters in index order, then virtual
  /// components). O(nk) operations, no asymmetric writes. `fn` runs while
  /// the enumeration holds one of the thread's two view slots, so a query
  /// it makes may hold one more view (two_edge_class holds two).
  template <typename F>
  void for_each_articulation(F&& fn) const {
    for (std::size_t ci = 0; ci < nc_; ++ci) {
      const auto lv = local_view(ci, false, false);
      for (std::uint32_t mi = 0; mi < lv->members.size(); ++mi) {
        if (lv->bc.is_artic[mi]) fn(lv->members[mi]);
      }
    }
    // Virtual components: their minimum vertex discovers each exactly once.
    const std::size_t n = decomp_.graph().num_vertices();
    for (graph::vertex_id v = 0; v < n; ++v) {
      const auto r = decomp_.rho(v);
      if (!r.virtual_center || r.center != v) continue;
      const auto vv = virtual_view(v);
      for (std::uint32_t mi = 0; mi < vv->members.size(); ++mi) {
        if (vv->bc.is_artic[mi]) fn(vv->members[mi]);
      }
    }
  }

 private:
  using Decomp = decomp::ImplicitDecomposition<G>;
  using vid = graph::vertex_id;
  static constexpr vid kNo = graph::kNoVertex;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit BiconnectivityOracle(Decomp d) : decomp_(std::move(d)) {}

  /// Selective-rebuild context threaded through the construction stages:
  /// `dirty[ci]` says cluster ci's old component changed; clean clusters
  /// copy their state from `old` instead of touching the graph. Null
  /// context (the full-build path) means every cluster is dirty.
  struct ReuseContext {
    const BiconnectivityOracle* old = nullptr;
    std::vector<std::uint8_t> dirty;
  };
  [[nodiscard]] bool is_dirty(const ReuseContext* rc, std::size_t ci) const {
    return rc == nullptr || rc->dirty[ci] != 0;
  }

  // ---- build-scoped scratch cache ----
  using BoundaryInstance = detail::BoundaryInstance;
  /// Per-cluster scratch materialized once per construction and consumed
  /// by every pass that would otherwise re-enumerate the cluster (forest
  /// BFS, w'/W', cc_minus, and each local_view — up to ~6 enumerations per
  /// cluster, each O(k^2) expected with O(k) rho calls). Filled in
  /// parallel over dirty clusters only; a cluster's entry is a
  /// deterministic function of (subgraph, center set), so replays are
  /// instance-for-instance identical to live enumeration whatever the
  /// thread count. Uncounted symmetric scratch by the same convention as
  /// LocalView: the underlying graph reads are charged once at fill time
  /// (the live path charged them per enumeration); counted writes are
  /// unchanged. Unlike per-task scratch its footprint is O(sum of dirty
  /// boundary degrees), a documented deviation (docs/parallel_rebuild.md).
  struct BuildCache {
    std::vector<std::uint8_t> cached;  // per cluster: entry valid?
    std::vector<std::vector<vid>> members;
    std::vector<std::vector<BoundaryInstance>> boundary;
  };
  void fill_build_cache(BuildCache& cache, std::size_t threads,
                        const ReuseContext* rc) const;

  /// Enumerate ci's boundary edges from the build cache when present,
  /// falling back to the live (query-time) enumeration.
  template <typename F>
  void for_boundary_cached(const decomp::ClustersGraph<G>& cg, vid ci,
                           F&& fn) const {
    if (cache_ != nullptr && cache_->cached[ci]) {
      for (const BoundaryInstance& b : cache_->boundary[ci]) {
        fn(b.cj, b.u, b.w);
      }
      return;
    }
    cg.for_boundary_edges(ci, fn);
  }

  // ---- construction stages (defined in biconn_oracle_impl.hpp) ----
  void build_clusters_forest(const ReuseContext* rc);
  void build_cluster_labeling(std::size_t threads, const ReuseContext* rc);
  void run_fixpoints(std::size_t threads, const ReuseContext* rc);
  void finalize_bits(std::size_t threads, const ReuseContext* rc);
  void run_construction(const BiconnOracleOptions& opt,
                        const ReuseContext* rc, BiconnRebuildStats* stats);

  /// Run fn(ci) over clusters on `threads` workers (<= 1: sequential).
  /// fn writes only slots owned by ci, keeping the result independent of
  /// the thread count; exceptions propagate to the caller (shard.hpp).
  template <typename F>
  void over_clusters(std::size_t threads, F&& fn) const {
    wecc::parallel::sharded_for(nc_, threads, fn);
  }

  // ---- local views ----
  /// A materialized local graph (Definition 4) in symmetric scratch, filled
  /// in place into a per-thread slot (detail::HeldView) whose buffers are
  /// reused across views. Its construction's temporary tables are
  /// per-thread too (detail::ViewScratch); SymScratch claims are unchanged.
  struct LocalView {
    primitives::LocalGraph lg;
    /// Global vertex ids; local node i = members[i]. During a construction
    /// it reads the build cache's entry, otherwise `cluster.members`.
    std::span<const vid> members;
    decomp::ClusterInfo cluster;  // members' storage outside a construction
    primitives::FlatMap<vid> member_idx;  // inverse of members
    std::uint32_t parent_node = kNone;   // local node of the parent outside
    std::uint32_t parent_edge = kNone;   // local edge of the parent tree edge
    std::vector<std::uint32_t> child_nodes;  // per child (children order)
    std::vector<std::uint32_t> child_edges;
    /// Original (u, w) endpoints per local edge; category-2 edges get
    /// (kNoVertex, kNoVertex). Lets edge queries find *their* instance.
    std::vector<std::pair<vid, vid>> edge_origin;
    primitives::BiconnResult bc;

    void trim() {
      members = {};
      lg.trim();
      primitives::trim_scratch(cluster.members);
      primitives::trim_scratch(cluster.parent);
      member_idx.clear_and_trim();
      primitives::trim_scratch(child_nodes);
      primitives::trim_scratch(child_edges);
      primitives::trim_scratch(edge_origin);
      bc.trim();
    }
  };
  /// The local view of cluster `ci`, held in a per-thread slot for the
  /// handle's scope; `use_tecc_equiv` selects which DSU provides the
  /// category-2 edges; `extra_lprime` additionally joins directions with
  /// equal cluster labels (used during fixpoint rounds).
  [[nodiscard]] detail::HeldView<LocalView> local_view(
      std::size_t ci, bool use_tecc_equiv, bool extra_lprime) const {
    return detail::HeldView<LocalView>([&](LocalView& lv) {
      fill_local_view(ci, use_tecc_equiv, extra_lprime, lv);
    });
  }
  void fill_local_view(std::size_t ci, bool use_tecc_equiv, bool extra_lprime,
                       LocalView& lv) const;

  /// Direction of cluster `to` as seen from `from` (adjacent or not):
  /// index into children list, or kNone meaning the parent direction.
  [[nodiscard]] std::uint32_t direction_of(std::size_t from,
                                           std::size_t to) const;

  /// Slot of child cluster `cj` in `ci`'s children list.
  [[nodiscard]] std::uint32_t child_slot(vid ci, vid cj) const {
    for (std::uint32_t s = children_off_[ci]; s < children_off_[ci + 1];
         ++s) {
      amem::count_read();
      if (children_[s] == cj) return s - children_off_[ci];
    }
    assert(false && "not a child");
    return kNone;
  }

  /// Internal blocks of a local view (see finalize_bits): how many there
  /// are, and how many have a local block number below `below`, which
  /// must itself be internal (kNone: all of them).
  struct InternalBlocks {
    std::uint32_t count = 0;
    std::uint32_t rank = 0;
  };
  [[nodiscard]] InternalBlocks internal_blocks(
      const LocalView& lv, std::uint32_t below = kNone) const;

  /// Virtual (< k, centerless) component handling: materialize it fully,
  /// into a per-thread slot like LocalView.
  struct VirtualView {
    primitives::LocalGraph lg;
    std::vector<vid> members;
    primitives::FlatMap<vid> member_idx;  // inverse of members
    primitives::BiconnResult bc;
    vid comp_min = 0;

    void trim() {
      lg.trim();
      primitives::trim_scratch(members);
      member_idx.clear_and_trim();
      bc.trim();
    }
  };
  [[nodiscard]] detail::HeldView<VirtualView> virtual_view(
      vid any_member) const {
    return detail::HeldView<VirtualView>(
        [&](VirtualView& vv) { fill_virtual_view(any_member, vv); });
  }
  void fill_virtual_view(vid any_member, VirtualView& vv) const;

  // DSU find over clusters-tree edges (read-only at query time).
  [[nodiscard]] std::uint32_t dsu_find(const std::vector<std::uint32_t>& p,
                                       std::uint32_t x) const {
    while (p[x] != x) {
      amem::count_read();
      x = p[x];
    }
    return x;
  }

  Decomp decomp_;
  std::size_t nc_ = 0;  // number of (real) clusters

  /// Non-null only while run_construction executes (local_view and the
  /// boundary passes consult it); always null on finished oracles, so
  /// copies/moves never carry a dangling pointer.
  const BuildCache* cache_ = nullptr;

  // Clusters forest (all indexed by cluster index).
  std::vector<vid> cparent_;        // parent cluster (self for roots)
  std::vector<vid> attach_;         // attach vertex in the parent (global)
  std::vector<vid> croot_;          // cluster root vertex (global)
  std::vector<std::uint32_t> children_off_;
  std::vector<vid> children_;
  primitives::BlockedLca clca_;  // also owns the forest's TreeArrays
  std::vector<vid> ccomp_;          // forest root per cluster (component)

  /// The clusters-forest arrays (parent/depth/Euler numbers) — owned by
  /// clca_ so only one copy travels with each oracle version.
  [[nodiscard]] const primitives::TreeArrays& ctree() const noexcept {
    return clca_.tree();
  }

  // Cluster-level BC labeling of the clusters multigraph. l' doubles as
  // the category-2 label source for *both* fixpoint relations: its labels
  // name cluster-level blocks, the only certificate that lifts to a
  // vertex- (hence edge-) disjoint external path (see local_view).
  std::vector<std::uint8_t> ccritical_;  // parent edge critical
  std::vector<std::uint32_t> lprime_;    // labels after removing critical

  // Fixpoint DSUs over clusters-tree edges (element = non-root cluster).
  std::vector<std::uint32_t> dsu_bc_;    // biconnectivity equivalence
  std::vector<std::uint32_t> dsu_te_;    // 2-edge-connectivity equivalence
  std::size_t rounds_bc_ = 0;            // fixpoint convergence telemetry
  std::size_t rounds_te_ = 0;

  // Final per-edge bits and indices.
  std::vector<std::uint8_t> up_ok_;         // block-chains through parent
  std::vector<std::uint8_t> bridge_up_ok_;  // bridge-free through parent
  std::vector<std::uint8_t> gbridge_;       // the tree edge is a G-bridge
  std::vector<std::uint8_t> rb_;            // Definition 5 bit
  std::vector<std::uint32_t> pref_bad_;     // #!up_ok on path to root
  std::vector<std::uint32_t> pref_bbad_;    // #!bridge_up_ok on path to root
  std::vector<std::uint32_t> internal_off_; // prefix of internal block counts
};

}  // namespace wecc::biconn

#include "biconn/biconn_oracle_impl.hpp"
