// DynamicConnectivity: batch-dynamic connectivity over the static
// write-efficient oracle, with epoch-versioned snapshots.
//
// Update paths, cheapest first (phase counters under "dynamic/..."):
//
//  * Insert fast path — a batch of B insertions merges component labels in
//    a LabelPatch: O(B k) expected operations (two oracle queries per
//    edge), O(B) counted writes. Nothing is rebuilt; the new snapshot
//    shares the previous oracle version.
//  * Selective rebuild — any batch with deletions. The previous center set
//    is re-installed over the mutated graph (ImplicitDecomposition::
//    build_reusing — Algorithm 1's sampling/promotion/splitting passes are
//    all skipped), old labels are copied, and only the centers whose
//    component a changed edge or pending patch entry touches are relabeled
//    by BFS on the new clusters graph: O(n/k + |dirty| k^2) expected
//    operations, O(n/k) counted writes — sublinear in n for k >= 2.
//    Correctness never depends on the reused centers fitting the new
//    topology (rho/cluster/boundary queries recompute from the new graph);
//    only the O(k) query bound degrades if many deletions distort cluster
//    sizes, which the compaction path repairs.
//  * Compaction — when the overlay delta outgrows `compact_threshold`, the
//    overlay is flattened into a fresh CSR base and the oracle is rebuilt
//    from scratch, restoring the static bounds. Amortized over the
//    threshold's worth of updates this keeps per-update cost sublinear.
//
// The writer core — options, epochs, snapshot ring, durability log, the
// strong exception guarantee and the concurrency contract — is FacadeCore
// (facade_core.hpp); this file supplies the three decisions above.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/facade_core.hpp"
#include "dynamic/snapshot_store.hpp"
#include "dynamic/update_batch.hpp"

namespace wecc::dynamic {

struct DynamicOptions : FacadeOptions {
  connectivity::CcOracleOptions oracle;
};

class DynamicConnectivity
    : public FacadeCore<DynamicConnectivity, DynamicOptions, UpdateReport,
                        Snapshot, VersionedOracle, LabelPatch> {
 public:
  /// Builds the epoch-0 oracle over `base` (vertex set fixed thereafter).
  explicit DynamicConnectivity(graph::Graph base, DynamicOptions opt = {})
      : FacadeCore(std::move(base), opt) {
    publish_initial();
  }

 private:
  friend FacadeCore;
  static constexpr const char* kPhasePrefix = "dynamic/";

  /// Insert fast path, O(B): merge endpoint component labels in a copy of
  /// the pending patch (the oracle keeps reading its frozen pre-insertion
  /// graph; the patch carries exactly the connectivity the new edges add).
  /// Batches with deletions always rebuild.
  bool plan_absorb(const UpdateBatch& batch, LabelPatch& patch,
                   UpdateReport& /*report*/) const {
    if (!batch.deletions.empty() || !fits_fast_path(batch)) return false;
    patch = pending_;
    const auto& oracle = state_->oracle;
    const auto is_center = [&](graph::vertex_id l) {
      return oracle.decomposition().is_center(l);
    };
    for (const graph::Edge& e : batch.insertions) {
      if (e.u == e.v) continue;
      patch.unite(patch.find(oracle.component_of(e.u)),
                  patch.find(oracle.component_of(e.v)), is_center);
    }
    return true;
  }

  /// Selective rebuild: reuse the center set, relabel only dirty
  /// components. Reads the old state_/pending_ and the frozen staged
  /// overlay; mutates neither member.
  std::shared_ptr<const VersionedOracle> build_selective(
      std::shared_ptr<const OverlayGraph> frozen, const UpdateBatch& batch,
      UpdateReport& report) const {
    const auto& old = state_->oracle;
    const auto& old_decomp = old.decomposition();

    // 1. Dirty analysis against the *old* graph/labels: the old component
    // labels (center-index valued, as stored in CcResult) whose component
    // may have changed, and the clusters (center indices) the batch
    // endpoints land in, which only the report reads.
    //
    // Why every other label stays valid: components can only change where
    // edges changed. Every edge inserted since the last full labeling is
    // either in the pending LabelPatch (both endpoint labels are
    // patch-touched) or in the current batch (both endpoint labels are
    // marked here); deleted edges only remove connections inside their
    // endpoints' components. Cluster-membership shifts (rho re-routing
    // near a changed edge) stay inside a component, so boundary edges
    // never connect a dirty-label center to a clean-label one. Endpoints
    // in virtual (centerless) components mark nothing: they self-heal
    // because rho() recomputes the component minimum on the current graph.
    std::unordered_set<graph::vertex_id> dirty_labels, dirty_clusters;
    pending_.for_touched([&](graph::vertex_id l) {
      if (old_decomp.is_center(l)) {
        dirty_labels.insert(old.cc().label.read(old_decomp.center_index(l)));
      }
    });
    const auto note_endpoint = [&](graph::vertex_id x) {
      const decomp::RhoResult r = old_decomp.rho(x);
      if (r.virtual_center) return;
      const std::size_t ci = old_decomp.center_index(r.center);
      dirty_clusters.insert(graph::vertex_id(ci));
      dirty_labels.insert(old.cc().label.read(ci));
    };
    for (const graph::Edge& e : batch.deletions) {
      note_endpoint(e.u);
      note_endpoint(e.v);
    }
    for (const graph::Edge& e : batch.insertions) {
      note_endpoint(e.u);
      note_endpoint(e.v);
    }
    const auto label_dirty = [&](std::size_t ci) {
      return dirty_labels.count(old.cc().label.read(ci)) != 0;
    };

    // 2. Re-install the center set over the frozen staged overlay.
    auto decomp2 = decomp::ImplicitDecomposition<OverlayGraph>::build_reusing(
        *frozen,
        decomp::DecompOptions{opt_.oracle.k, opt_.oracle.seed,
                              opt_.oracle.parallel_children},
        old_decomp.export_centers());

    // 3. Copy old labels; relabel dirty components from the new clusters
    // graph. BFS is seeded at dirty centers but deliberately unrestricted:
    // under the dirty-set invariant it never leaves dirty labels, and if
    // the invariant were ever violated, following the actual boundary
    // edges still yields a correct labeling of everything reachable.
    const std::size_t nc = decomp2.center_list().size();
    connectivity::CcResult cc2;
    cc2.label.resize(nc);
    for (std::size_t ci = 0; ci < nc; ++ci) {
      cc2.label.write(ci, old.cc().label.read(ci));
    }
    const decomp::ClustersGraph<OverlayGraph> cg(decomp2);

    // Sharded prefill of the enumeration the BFS below consumes: every
    // dirty-labeled cluster's boundary neighbors, gathered in parallel
    // into disjoint per-cluster slots (order within a slot matches the
    // live enumeration, so the replayed BFS visits clusters in exactly
    // the serial order — identical labels for any thread count). The BFS
    // itself stays serial: it only walks the prefilled lists.
    const std::size_t threads = resolved_rebuild_threads();
    std::vector<std::vector<graph::vertex_id>> nbr_cache(nc);
    std::vector<std::uint8_t> nbr_cached(nc, 0);
    parallel::sharded_for(nc, threads, [&](std::size_t ci) {
      if (!label_dirty(ci)) return;
      cg.for_boundary_edges(
          graph::vertex_id(ci),
          [&](graph::vertex_id cj, graph::vertex_id, graph::vertex_id) {
            nbr_cache[ci].push_back(cj);
          });
      nbr_cached[ci] = 1;
    });
    // Live fallback for clusters the prefill skipped: the unrestricted
    // BFS may step outside the dirty-label set if the dirty invariant
    // were ever violated, and correctness must not depend on it.
    const auto for_nbrs = [&](graph::vertex_id c, auto&& fn) {
      if (nbr_cached[c]) {
        for (const graph::vertex_id cj : nbr_cache[c]) fn(cj);
        return;
      }
      cg.for_neighbors(c, fn);
    };

    std::unordered_set<graph::vertex_id> visited;
    std::vector<graph::vertex_id> frontier, next;
    std::size_t relabeled = 0;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const auto root = graph::vertex_id(ci);
      if (!label_dirty(ci)) continue;
      if (!visited.insert(root).second) continue;
      cc2.label.write(ci, root);
      ++relabeled;
      frontier.assign(1, root);
      while (!frontier.empty()) {
        next.clear();
        for (const graph::vertex_id c : frontier) {
          for_nbrs(c, [&](graph::vertex_id cj) {
            if (!visited.insert(cj).second) return;
            cc2.label.write(cj, root);
            ++relabeled;
            next.push_back(cj);
          });
        }
        frontier.swap(next);
      }
    }
    // Exact component count among real clusters (scratch pass; uncounted
    // by the same convention as the from-scratch builder's stats).
    // amem-ok: derived statistic over a finished label array.
    const auto& labels2 = cc2.label.raw();
    std::unordered_set<graph::vertex_id> distinct(labels2.begin(),
                                                  labels2.end());
    cc2.num_components = distinct.size();

    report.dirty_clusters = dirty_clusters.size();
    report.dirty_labels = dirty_labels.size();
    report.relabeled_centers = relabeled;
    report.rebuild_threads = threads;
    report.rebuild_shards = parallel::shard_count(nc, threads);
    return std::make_shared<VersionedOracle>(
        std::move(frozen),
        connectivity::ConnectivityOracle<OverlayGraph>::from_parts(
            std::move(decomp2), std::move(cc2)));
  }

  std::shared_ptr<const VersionedOracle> build_full(
      std::shared_ptr<const OverlayGraph> frozen,
      UpdateReport& /*report*/) const {
    auto oracle = connectivity::ConnectivityOracle<OverlayGraph>::build(
        *frozen, opt_.oracle);
    return std::make_shared<VersionedOracle>(std::move(frozen),
                                             std::move(oracle));
  }
};

}  // namespace wecc::dynamic
