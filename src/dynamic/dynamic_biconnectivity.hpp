// DynamicBiconnectivity: batch-dynamic biconnectivity over the §5.3
// write-efficient oracle, with epoch-versioned snapshots — the facade that
// mirrors DynamicConnectivity and completes the paper's query surface
// (connected? plus biconnected? / 2-edge-connected? / articulation? /
// bridge?) under batched edge churn.
//
// Update paths, cheapest first (phase counters under "dynamic_biconn/..."):
//
//  * Insert fast path — a batch of B insertions is *absorbed* when every
//    edge, processed in order against the staged patch, is either
//      (a) intra-block: some block class of the patched view (a frozen
//          block, possibly united with others by earlier merges) already
//          holds both endpoints, and they are 2-edge-connected in the
//          patched view — adding an edge inside a 2-connected,
//          2-edge-connected block changes no biconnectivity answer, so the
//          patch records the edge under that class plus a
//          touched-component breadcrumb;
//      (b) a component merge: its endpoints lie in different (patched)
//          components — the new edge is then the *only* edge between the
//          two merged components, i.e. a bridge whose endpoints become
//          articulation points exactly when they had any other neighbor.
//          The patch records the connectivity merge, the bridge (a fresh
//          patch-born K2 block), and the promotions; or
//      (c) a cycle-closing block merge: its endpoints are already connected
//          in the patched view but share no block. Inserting (u, v) merges
//          exactly the blocks along any simple u–v path into one, so a
//          bounded BFS over the patched graph finds such a path and the
//          patch unites the block classes along it (union-find over block
//          ids), demotes every bridge the merge swallowed, and registers
//          2ec anchors so 2-edge-connectivity answers follow the merge.
//          Cost: O(path length) counted writes — O(#blocks merged).
//    Self-loops are biconnectivity-inert and absorbed unconditionally. A
//    path the search cannot reach within kMergeSearchLimit visited
//    vertices forces the rebuild (rebuild_reason = cross-block).
//  * Fast mixed path — a batch with deletions is still absorbable when
//    deletion triage succeeds: deletions of patch-inserted copies cancel
//    against the insert-event journal, and each deletion of a frozen edge
//    must pass a 2-connectivity certificate (two internally vertex-disjoint
//    replacement paths in frozen-minus-masks — parallel copies count — so
//    the block provably stays 2-connected and no answer changes; the edge
//    becomes a mask). The surviving journal then *replays* into a fresh
//    patch through the same per-edge planner, which also re-splits
//    components correctly when a patched bridge was deleted. Batches whose
//    journal would exceed kReplayEventLimit skip triage (rebuild_reason =
//    deletion-overflow).
//  * Selective rebuild — any batch the above refuse. Only the connected
//    components an edge changed in since the last rebuild (batch
//    endpoints + every patch-touched component) are relabeled:
//    BiconnectivityOracle::build_reusing re-installs the center set
//    (O(n/k) writes, no traversal) and re-runs the clusters forest, BC
//    labeling, fixpoint and bit-finalization passes over dirty clusters
//    only, copying every clean cluster's state from the previous version.
//  * Compaction — when the overlay delta outgrows `compact_threshold`, the
//    overlay is flattened and the oracle is rebuilt from scratch over a
//    fresh normalized decomposition, restoring the static bounds.
//
// Decomposition normalization invariant: every oracle version this facade
// publishes is built over an all-primary reused center set (Algorithm 1
// runs, its centers are exported and re-installed primary). That makes
// rho() — and therefore cluster membership, local views, and all copied
// per-cluster state — a deterministic function of (subgraph, center set)
// alone, which is what lets build_reusing copy clean components' state
// across versions byte-for-byte.
//
// The writer core — options, epochs, snapshot ring, durability log, the
// strong exception guarantee and the concurrency contract — is FacadeCore
// (facade_core.hpp), shared with DynamicConnectivity; this file supplies
// the planners, the selective and full builds, and the absorb-rate /
// rebuild_reason bookkeeping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/biconn_snapshot.hpp"
#include "dynamic/block_merge.hpp"
#include "dynamic/facade_core.hpp"
#include "dynamic/update_batch.hpp"

namespace wecc::dynamic {

struct DynamicBiconnOptions : FacadeOptions {
  biconn::BiconnOracleOptions oracle;
};

/// What one apply() did — the shared base (epoch, path, counted
/// reads/writes, wall clock) plus the biconnectivity-specific counters.
struct BiconnUpdateReport : UpdateReportBase {
  std::size_t absorbed_edges = 0;     // fast path: intra-block / merges
  std::size_t patched_bridges = 0;    // fast path: component merges
  std::size_t merged_blocks = 0;      // fast path: block-class unions
  std::size_t absorbed_deletions = 0; // fast mixed: cancelled + masked
  std::size_t dirty_components = 0;   // selective rebuild only
  std::size_t dirty_clusters = 0;     // selective rebuild only
  /// Why this batch fell off the fast path (kNone when it did not).
  RebuildReason rebuild_reason = RebuildReason::kNone;
  /// Cumulative fraction of apply() batches absorbed by a fast path since
  /// construction (initial build excluded; 1.0 before the first batch).
  double absorb_rate = 1.0;
};

/// One entry per insert-event journal entry: the cycle path the event's
/// block merge united along (empty for self-loops, bridges, and
/// intra-block edges). Writer-side planning scratch only — snapshots never
/// carry it. Deletion triage replays the journal through the planner every
/// mixed batch; re-validating a remembered path costs O(path) edge-presence
/// probes where re-searching costs a BFS, which is what keeps replay
/// linear in the journal instead of quadratic.
using MergePaths = std::vector<std::vector<graph::vertex_id>>;

/// What the biconnectivity fast paths absorbed since the last rebuild: the
/// patch every snapshot carries, and the merge paths aligned with its
/// journal that only the writer needs.
struct BiconnPending {
  BiconnPatch patch;
  MergePaths paths;
};

class DynamicBiconnectivity
    : public FacadeCore<DynamicBiconnectivity, DynamicBiconnOptions,
                        BiconnUpdateReport, BiconnSnapshot,
                        VersionedBiconnOracle, BiconnPending> {
 public:
  /// Builds the epoch-0 oracle over `base` (vertex set fixed thereafter).
  explicit DynamicBiconnectivity(graph::Graph base,
                                 DynamicBiconnOptions opt = {})
      : FacadeCore(std::move(base), opt) {
    publish_initial();
  }

  [[nodiscard]] bool biconnected(graph::vertex_id u,
                                 graph::vertex_id v) const {
    return snapshot()->biconnected(u, v);
  }
  [[nodiscard]] bool two_edge_connected(graph::vertex_id u,
                                        graph::vertex_id v) const {
    return snapshot()->two_edge_connected(u, v);
  }
  [[nodiscard]] bool is_articulation(graph::vertex_id v) const {
    return snapshot()->is_articulation(v);
  }
  [[nodiscard]] bool is_bridge(graph::vertex_id u, graph::vertex_id v) const {
    return snapshot()->is_bridge(u, v);
  }

 private:
  friend FacadeCore;
  static constexpr const char* kPhasePrefix = "dynamic_biconn/";
  /// Vertex-visit budget for the fast path's bounded searches (the
  /// cycle-closing merge path BFS and the deletion certificate's
  /// disjoint-path checks). A search that exhausts it fails the
  /// absorbability check and the batch rebuilds instead. It must cover a
  /// search across the largest patched component churn can glue together,
  /// not just one frozen cluster: sustained random inserts merge
  /// percolation clusters into a giant component (tens of thousands of
  /// vertices), and one refused merge costs a rebuild that freezes every
  /// patch edge — after which LIFO deletions of those edges fail triage
  /// forever. Erring high is strictly cheaper: the search is bidirectional
  /// scratch (visits cost time, not counted writes) and caps at the
  /// component size anyway.
  static constexpr std::size_t kMergeSearchLimit = 65536;
  /// Largest insert-event journal the deletion triage will replay. Bounds
  /// the mixed fast path's worst case at O(journal × path) operations;
  /// larger journals send deletion batches straight to the rebuild.
  static constexpr std::size_t kReplayEventLimit = 16384;

  /// The fast paths' planner: stage the absorption of `batch` into
  /// `staged` — insert-only batches extend a copy of the pending patch,
  /// mixed batches replay into a fresh one. Returns false with
  /// report.rebuild_reason set (and the planning counts discarded) when
  /// the batch must rebuild.
  bool plan_absorb(const UpdateBatch& batch, BiconnPending& staged,
                   BiconnUpdateReport& report) {
    bool absorbed = false;
    if (!fits_fast_path(batch)) {
      report.rebuild_reason = RebuildReason::kCompactionDue;
    } else if (batch.deletions.empty()) {
      staged = pending_;
      absorbed = plan_fast_insert(batch.insertions, staged.patch,
                                  staged.paths, report);
    } else if (pending_.patch.events().size() + batch.size() <=
               kReplayEventLimit) {
      absorbed = plan_fast_mixed(batch, staged.patch, staged.paths, report);
    } else {
      report.rebuild_reason = RebuildReason::kDeletionOverflow;
    }
    if (!absorbed) {
      BiconnUpdateReport refused;
      refused.epoch = report.epoch;
      refused.rebuild_reason = report.rebuild_reason;
      report = refused;
    }
    return absorbed;
  }

  /// Decide whether the insertion batch is absorbable and stage the patch
  /// mutations into `staged` (a copy of pending_.patch). Returns false —
  /// leaving members untouched and report.rebuild_reason set — when any
  /// edge needs a structural rebuild. Reads only against members; O(B k^2)
  /// expected operations plus bounded merge-path searches, O(B + merged
  /// blocks) counted writes into the staged patch.
  bool plan_fast_insert(const graph::EdgeList& insertions,
                        BiconnPatch& staged, MergePaths& staged_paths,
                        BiconnUpdateReport& report) {
    for (const graph::Edge& e : insertions) {
      if (!plan_insert_edge(e, staged, staged_paths, report,
                            /*count=*/true)) {
        return false;
      }
    }
    return true;
  }

  /// Plan one insertion against the staged patch — cases (a)/(b)/(c) of the
  /// header comment. `count` is false when replaying journaled events
  /// during deletion triage (the epoch that absorbed them already counted
  /// them); `hint` is the path that event's merge followed last time, if
  /// any. Every absorbed edge appends exactly one journal event and one
  /// staged_paths entry, keeping the two aligned by index. On failure sets
  /// report.rebuild_reason and returns false; the caller discards `staged`.
  bool plan_insert_edge(const graph::Edge& e, BiconnPatch& staged,
                        MergePaths& staged_paths, BiconnUpdateReport& report,
                        bool count,
                        const std::vector<graph::vertex_id>* hint = nullptr) {
    const auto& oracle = state_->oracle;
    if (e.u == e.v) {
      // Self-loops are biconnectivity-inert, but still recorded (class 0 —
      // no block) so deletion triage can cancel them against the journal,
      // and still leave the breadcrumb: build_reusing's contract is that a
      // clean component's subgraph is bit-identical to the old frozen one.
      staged.add_patch_edge(e.u, e.v, 0);
      staged.append_event(e);
      staged_paths.emplace_back();
      staged.touch_component(oracle.component_of(e.u));
      if (count) ++report.absorbed_edges;
      return true;
    }
    const graph::vertex_id bu = oracle.component_of(e.u);
    const graph::vertex_id bv = oracle.component_of(e.v);
    const BiconnPatchView view(*state_, staged);
    if (staged.conn.find(bu) != staged.conn.find(bv)) {
      // (b) component merge: the one edge between two merged components —
      // a bridge forming a fresh patch-born K2 block.
      if (view.has_neighbor(e.u)) staged.add_articulation(e.u);
      if (view.has_neighbor(e.v)) staged.add_articulation(e.v);
      staged.conn.unite(bu, bv, [&](graph::vertex_id l) {
        return oracle.decomposition().is_center(l);
      });
      staged.add_bridge(e.u, e.v);
      staged.add_patch_edge(e.u, e.v, staged.fresh_patch_block());
      staged.append_event(e);
      staged_paths.emplace_back();
      staged.touch_component(bu);
      staged.touch_component(bv);
      if (count) ++report.patched_bridges;
      return true;
    }
    // (a) intra-block: some block class — a frozen block, or one that
    // earlier merges united — already holds both endpoints, so the edge
    // lands inside a 2-connected block and changes no answer. Once churn
    // has united most of a component into one class this is the common
    // case, and it costs O(deg u + deg v) finds instead of a ball walk.
    // The patched-2ec guard matters: a lone bridge block (K2) holds both
    // endpoints of its edge without being 2-edge-connected, and a parallel
    // copy of that bridge must fall through to the path search so the
    // bridge is demoted and the endpoints' 2ec anchors united.
    if (const std::uint64_t shared = common_patched_class(e, staged, view);
        shared != 0 && view.two_edge_connected(e.u, e.v)) {
      staged.add_patch_edge(e.u, e.v, shared);
      staged.append_event(e);
      staged_paths.emplace_back();
      staged.touch_component(bu);
      staged.touch_component(bv);
      if (count) ++report.absorbed_edges;
      return true;
    }
    // (c) cycle-closing block merge.
    return plan_cycle_merge(e, staged, staged_paths, report, count, view,
                            hint);
  }

  /// Case (c): endpoints already connected in the patched view but sharing
  /// no block. Find a simple u–v path (bounded bidirectional BFS over
  /// frozen-minus-masks plus patch edges — or a still-valid memoized path
  /// when replaying); inserting (u, v) merges exactly the blocks along it,
  /// so unite their classes, demote swallowed bridges, and register the
  /// path's 2ec anchor groups.
  bool plan_cycle_merge(const graph::Edge& e, BiconnPatch& staged,
                        MergePaths& staged_paths, BiconnUpdateReport& report,
                        bool count, const BiconnPatchView& view,
                        const std::vector<graph::vertex_id>* hint) {
    const auto& oracle = state_->oracle;
    // A memoized path whose edges all survive in the staged view closes
    // the same cycle now as when it was found: a present simple cycle
    // justifies uniting its blocks no matter which journal events were
    // dropped since. Validation is O(path) presence probes; only a stale
    // memo (an edge on it was deleted) pays a fresh search.
    std::vector<graph::vertex_id> path;
    if (hint != nullptr && path_still_present(*hint, e, staged)) {
      path = *hint;
    } else {
      path = bounded_path_search(e.u, e.v, kMergeSearchLimit,
                                 [&](graph::vertex_id x, auto&& fn) {
                                   view.for_patched_neighbors(x, fn);
                                 });
    }
    if (path.empty()) {
      report.rebuild_reason = RebuildReason::kCrossBlock;
      return false;
    }
    // One class for every block the path crosses (plus the new edge).
    std::uint64_t cls = 0;
    std::size_t unions = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const graph::vertex_id x = path[i];
      const graph::vertex_id y = path[i + 1];
      const std::uint64_t k = edge_key(x, y);
      std::uint64_t c = staged.edge_copies(k) > 0 ? staged.edge_block_raw(k)
                                                  : std::uint64_t{0};
      if (c == 0) c = frozen_edge_block(x, y);
      if (c == 0) {
        // A path edge with no block — cannot happen (every non-self
        // patched edge carries one); refuse rather than merge blindly.
        report.rebuild_reason = RebuildReason::kCrossBlock;
        return false;
      }
      c = staged.blocks().find(c);
      if (cls == 0) {
        cls = c;
      } else if (cls != c) {
        cls = staged.unite_blocks(cls, c);
        ++unions;
      }
      // Bridges swallowed by the merge stop being bridges.
      if (!staged.is_demoted_bridge(k) &&
          (staged.is_patched_bridge(x, y) || oracle.is_bridge(x, y))) {
        staged.demote_bridge(k);
      }
    }
    staged.add_patch_edge(e.u, e.v, cls);
    staged.append_event(e);
    // The new cycle makes every path vertex 2-edge-connected with every
    // other: unite their 2ec anchor groups (one keyed probe per vertex via
    // the memoized canonical class), and flip their components to
    // class-recomputed articulation/biconnected answers.
    graph::vertex_id prev = graph::kNoVertex;
    for (const graph::vertex_id x : path) {
      staged.note_merged_component(oracle.component_of(x));
      const graph::vertex_id a = staged.anchor_for(frozen_tec_class(x), x);
      if (prev != graph::kNoVertex && prev != a) staged.tec_unite(prev, a);
      prev = a;
    }
    staged.touch_component(oracle.component_of(e.u));
    staged.touch_component(oracle.component_of(e.v));
    staged_paths.push_back(std::move(path));
    if (count) {
      ++report.absorbed_edges;
      report.merged_blocks += unions;
    }
    return true;
  }

  /// Planner-side memo of the frozen oracle's per-edge block key (0 =
  /// none). A pure function of state_->oracle, but on_staged_commit clears
  /// it on every staged commit, so entries are shared within one plan: a
  /// mixed batch's journal replay and its own inserts re-resolve the same
  /// frozen edges, which this turns into hash probes. Writer-serialized
  /// like the planner.
  [[nodiscard]] std::uint64_t frozen_edge_block(graph::vertex_id x,
                                               graph::vertex_id y) {
    const std::uint64_t k = edge_key(x, y);
    const auto it = edge_block_memo_.find(k);
    if (it != edge_block_memo_.end()) return it->second;
    const auto b = state_->oracle.edge_bcc(x, y);
    const std::uint64_t c = b ? block_key(*b) : 0;
    edge_block_memo_.emplace(k, c);
    return c;
  }

  /// Same discipline for the oracle's canonical 2ec class of a vertex —
  /// the anchor loop's key. One oracle computation per distinct vertex per
  /// plan instead of per replayed event.
  [[nodiscard]] std::uint64_t frozen_tec_class(graph::vertex_id x) {
    const auto it = tec_class_memo_.find(x);
    if (it != tec_class_memo_.end()) return it->second;
    const std::uint64_t c = state_->oracle.two_edge_class(x);
    tec_class_memo_.emplace(x, c);
    return c;
  }

  /// The block class (root key) containing both endpoints of e, or 0 when
  /// none does. A vertex's blocks are the classes of its incident edges in
  /// the patched view, so the test is a class-list intersection —
  /// deterministic because both lists follow the view's enumeration order.
  [[nodiscard]] std::uint64_t common_patched_class(
      const graph::Edge& e, const BiconnPatch& staged,
      const BiconnPatchView& view) {
    const auto classes_of = [&](graph::vertex_id x,
                                std::vector<std::uint64_t>& out) {
      view.for_patched_neighbors(x, [&](graph::vertex_id w) {
        if (w == x) return;
        const std::uint64_t k = edge_key(x, w);
        std::uint64_t c = staged.edge_copies(k) > 0
                              ? staged.edge_block_raw(k)
                              : std::uint64_t{0};
        if (c == 0) c = frozen_edge_block(x, w);
        if (c != 0) out.push_back(staged.blocks().find(c));
      });
    };
    std::vector<std::uint64_t> cu;
    std::vector<std::uint64_t> cv;
    classes_of(e.u, cu);
    if (cu.empty()) return 0;
    classes_of(e.v, cv);
    for (const std::uint64_t c : cv) {
      if (std::find(cu.begin(), cu.end(), c) != cu.end()) return c;
    }
    return 0;
  }

  /// A memoized merge path is reusable iff it still runs endpoint to
  /// endpoint over edges present in the staged patched view: frozen copies
  /// not fully masked, plus copies the staged patch has (re)inserted.
  [[nodiscard]] bool path_still_present(
      const std::vector<graph::vertex_id>& path, const graph::Edge& e,
      const BiconnPatch& staged) const {
    if (path.size() < 2 || path.front() != e.u || path.back() != e.v) {
      return false;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint64_t k = edge_key(path[i], path[i + 1]);
      if (staged.edge_copies(k) == 0 &&
          state_->graph->multiplicity(path[i], path[i + 1]) <=
              std::size_t{staged.masked_count(k)}) {
        return false;
      }
    }
    return true;
  }

  /// Deletion triage + journal replay: stage a *fresh* patch expressing
  /// (old patch + batch). Deletions of patch-inserted copies cancel against
  /// the journal; each frozen-edge deletion must pass the 2-connectivity
  /// certificate and becomes a mask. The surviving journal replays through
  /// plan_insert_edge (uncounted), then the batch's insertions plan
  /// normally. Returns false with report.rebuild_reason set on any refusal.
  bool plan_fast_mixed(const UpdateBatch& batch, BiconnPatch& staged,
                       MergePaths& staged_paths,
                       BiconnUpdateReport& report) {
    const auto& oracle = state_->oracle;
    // 1. Classify deletions: per edge key, up to the journal's copy count
    // cancels in the patch; the overflow must delete frozen copies.
    std::unordered_map<std::uint64_t, std::uint32_t> drop;
    graph::EdgeList frozen_dels;
    for (const graph::Edge& e : batch.deletions) {
      const std::uint64_t k = edge_key(e.u, e.v);
      auto& d = drop[k];
      if (d < pending_.patch.edge_copies(k)) {
        ++d;
      } else {
        frozen_dels.push_back(e);
      }
    }
    // 2. Carry the permanently-valid prior masks and breadcrumbs, then
    // certify each new frozen deletion sequentially (each certificate runs
    // against frozen minus the masks before it).
    staged.carry_masks_from(pending_.patch);
    staged.carry_touched_from(pending_.patch);
    for (const graph::Edge& e : frozen_dels) {
      if (e.u != e.v && !certify_frozen_deletion(e, staged)) {
        report.rebuild_reason = RebuildReason::kTriageFailed;
        return false;
      }
      staged.add_mask(edge_key(e.u, e.v));
      staged.touch_component(oracle.component_of(e.u));
      staged.touch_component(oracle.component_of(e.v));
      ++report.absorbed_deletions;
    }
    // 3. Replay the surviving journal into the fresh patch. Cancelled
    // insert+delete pairs leave the component subgraph bit-identical, but
    // both edges churned it — keep the breadcrumbs. Each surviving event
    // hands the planner the path its merge followed last time, so an
    // unaffected cycle merge re-validates in O(path) instead of
    // re-searching.
    const auto& events = pending_.patch.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const graph::Edge& ev = events[i];
      const auto it = drop.find(edge_key(ev.u, ev.v));
      if (it != drop.end() && it->second > 0) {
        --it->second;
        staged.touch_component(oracle.component_of(ev.u));
        staged.touch_component(oracle.component_of(ev.v));
        ++report.absorbed_deletions;
        continue;
      }
      const std::vector<graph::vertex_id>* hint =
          i < pending_.paths.size() && !pending_.paths[i].empty()
              ? &pending_.paths[i]
              : nullptr;
      if (!plan_insert_edge(ev, staged, staged_paths, report,
                            /*count=*/false, hint)) {
        report.rebuild_reason = RebuildReason::kTriageFailed;
        return false;
      }
    }
    // 4. The batch's own insertions.
    for (const graph::Edge& e : batch.insertions) {
      if (!plan_insert_edge(e, staged, staged_paths, report,
                            /*count=*/true)) {
        return false;
      }
    }
    return true;
  }

  /// The deletion certificate: after masking one more copy of (u, v), do
  /// two internally vertex-disjoint u–v replacement paths survive in the
  /// frozen graph minus masks? (Parallel copies count as paths; patch edges
  /// deliberately do not — that is what makes masks permanently valid under
  /// journal replay.) Greedy two-path check: sound, conservatively
  /// incomplete — a miss only costs a rebuild, never a wrong answer.
  [[nodiscard]] bool certify_frozen_deletion(const graph::Edge& e,
                                             const BiconnPatch& staged) const {
    const std::uint64_t k = edge_key(e.u, e.v);
    const BiconnPatchView view(*state_, staged);
    const std::size_t frozen_copies = state_->graph->multiplicity(e.u, e.v);
    const std::size_t gone = std::size_t{staged.masked_count(k)} + 1;
    if (frozen_copies < gone) return false;  // nothing frozen left to mask
    const std::size_t remaining = frozen_copies - gone;
    if (remaining >= 2) return true;  // two surviving parallel copies
    const auto nbrs = [&](graph::vertex_id x, auto&& fn) {
      view.for_frozen_unmasked(x, [&](graph::vertex_id w) {
        if (edge_key(x, w) == k) return;  // avoid every (u, v) copy
        fn(w);
      });
    };
    const auto p1 =
        bounded_path_search(e.u, e.v, kMergeSearchLimit, nbrs);
    if (p1.empty()) return false;
    if (remaining == 1) return true;  // surviving copy + p1 are disjoint
    const std::unordered_set<graph::vertex_id> interior(p1.begin() + 1,
                                                        p1.end() - 1);
    const auto p2 = bounded_path_search(
        e.u, e.v, kMergeSearchLimit, nbrs,
        [&](graph::vertex_id w) { return interior.count(w) != 0; });
    return !p2.empty();
  }

  /// Selective rebuild: relabel only the components the batch or the
  /// pending patch touched; BiconnectivityOracle::build_reusing copies
  /// every clean cluster's state. Reads the old state_/pending_ and the
  /// frozen staged overlay; mutates neither member.
  std::shared_ptr<const VersionedBiconnOracle> build_selective(
      std::shared_ptr<const OverlayGraph> frozen, const UpdateBatch& batch,
      BiconnUpdateReport& report) const {
    const auto& old = state_->oracle;

    std::unordered_set<graph::vertex_id> dirty = pending_.patch.touched();
    // Belt and braces: the conn patch's labels are a subset of touched(),
    // but folding them in keeps the dirty set sound even if the two ever
    // drift.
    pending_.patch.conn.for_touched(
        [&](graph::vertex_id l) { dirty.insert(l); });
    for (const graph::Edge& e : batch.deletions) {
      dirty.insert(old.component_of(e.u));
      dirty.insert(old.component_of(e.v));
    }
    for (const graph::Edge& e : batch.insertions) {
      dirty.insert(old.component_of(e.u));
      dirty.insert(old.component_of(e.v));
    }

    biconn::BiconnOracleOptions ropt = opt_.oracle;
    ropt.threads = resolved_rebuild_threads();
    biconn::BiconnRebuildStats stats;
    auto oracle2 = biconn::BiconnectivityOracle<OverlayGraph>::build_reusing(
        *frozen, ropt, old, dirty, &stats);
    report.dirty_components = dirty.size();
    report.dirty_clusters = stats.dirty_clusters;
    report.rebuild_threads = stats.threads;
    report.rebuild_shards = stats.shards;
    return std::make_shared<VersionedBiconnOracle>(std::move(frozen),
                                                   std::move(oracle2));
  }

  /// Full build with the all-primary normalization invariant: run
  /// Algorithm 1, export its centers, re-install them primary, then build
  /// the oracle over the reused decomposition — so later selective
  /// rebuilds reproduce clean components' rho() exactly.
  std::shared_ptr<const VersionedBiconnOracle> build_full(
      std::shared_ptr<const OverlayGraph> frozen,
      BiconnUpdateReport& report) const {
    decomp::DecompOptions dopt;
    dopt.k = opt_.oracle.k;
    dopt.seed = opt_.oracle.seed;
    auto seeded = decomp::ImplicitDecomposition<OverlayGraph>::build(
        *frozen, dopt);
    auto normalized =
        decomp::ImplicitDecomposition<OverlayGraph>::build_reusing(
            *frozen, dopt, seeded.export_centers());
    biconn::BiconnOracleOptions bopt = opt_.oracle;
    bopt.threads = resolved_rebuild_threads();
    const std::size_t nc = normalized.center_list().size();
    auto oracle = biconn::BiconnectivityOracle<OverlayGraph>::
        from_decomposition(std::move(normalized), bopt);
    report.rebuild_threads = bopt.threads;
    report.rebuild_shards = parallel::shard_count(nc, bopt.threads);
    return std::make_shared<VersionedBiconnOracle>(std::move(frozen),
                                                   std::move(oracle));
  }

  static std::shared_ptr<const BiconnSnapshot> snapshot_of(
      std::uint64_t epoch, std::shared_ptr<const VersionedBiconnOracle> state,
      const BiconnPending& pending) {
    return std::make_shared<BiconnSnapshot>(epoch, std::move(state),
                                            pending.patch);
  }

  /// Every staged commit clears the frozen-oracle planner memos: a rebuild
  /// installs a new oracle version. The fast mixed commit keeps its
  /// version, so clearing there only costs later re-reads.
  void on_staged_commit() noexcept {
    edge_block_memo_.clear();
    tec_class_memo_.clear();
  }

  /// Absorb-rate and rebuild-reason bookkeeping. Only apply() batches
  /// count toward the rate; compact() is not a batch.
  void account(BiconnUpdateReport& report, Outcome outcome) noexcept {
    if (outcome == Outcome::kForced) {
      report.rebuild_reason = RebuildReason::kForced;
    } else {
      ++applied_batches_;
      if (outcome == Outcome::kAbsorbed) ++absorbed_batches_;
    }
    report.absorb_rate = applied_batches_ == 0
                             ? 1.0
                             : double(absorbed_batches_) /
                                   double(applied_batches_);
  }

  /// Frozen-oracle planner memos (see frozen_edge_block / frozen_tec_class):
  /// cleared on every staged commit (on_staged_commit).
  std::unordered_map<std::uint64_t, std::uint64_t> edge_block_memo_;
  std::unordered_map<graph::vertex_id, std::uint64_t> tec_class_memo_;
  // Absorb-rate accounting (writer lock): apply() calls only — the initial
  // build and compact() touch neither counter.
  std::uint64_t applied_batches_ = 0;
  std::uint64_t absorbed_batches_ = 0;
};

}  // namespace wecc::dynamic
