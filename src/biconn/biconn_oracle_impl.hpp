// Implementation of BiconnectivityOracle (included from biconn_oracle.hpp).
#pragma once

#include <algorithm>
#include <cassert>

namespace wecc::biconn {

/// Rounds after which a fixpoint sweep is declared divergent (an assert in
/// debug builds). Probes on cycles, grids, percolation grids and cactus
/// chains at k in {4, 16, 64} all converge within 2 rounds per relation.
inline constexpr std::size_t kMaxFixpointRounds = 32;

namespace detail {
/// Per-thread scratch of one cluster's step in a construction pass. The
/// passes never nest.
struct PassScratch {
  decomp::ClusterInfo cluster;  // cache fill: the cluster search
  std::vector<BoundaryInstance> boundary;   // cache fill
  std::vector<std::uint8_t> skipped_child;  // labeling: tree instances seen
  /// Fixpoint sweep: (group key, first element) per group. A cluster has
  /// only 1 + children directions, so a linear scan.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rep;
  bool busy = false;

  void trim() {
    primitives::trim_scratch(cluster.members);
    primitives::trim_scratch(cluster.parent);
    primitives::trim_scratch(boundary);
    primitives::trim_scratch(skipped_child);
    primitives::trim_scratch(rep);
  }
};
inline PassScratch& pass_scratch() {
  thread_local PassScratch s;
  return s;
}
}  // namespace detail

// ---------------------------------------------------------------------------
// construction
// ---------------------------------------------------------------------------

template <graph::GraphView G>
BiconnectivityOracle<G> BiconnectivityOracle<G>::build(
    const G& g, const BiconnOracleOptions& opt) {
  decomp::DecompOptions dopt;
  dopt.k = opt.k;
  dopt.seed = opt.seed;
  return from_decomposition(Decomp::build(g, dopt), opt);
}

template <graph::GraphView G>
BiconnectivityOracle<G> BiconnectivityOracle<G>::from_decomposition(
    decomp::ImplicitDecomposition<G> d, const BiconnOracleOptions& opt) {
  BiconnectivityOracle o(std::move(d));
  o.nc_ = o.decomp_.center_list().size();
  o.run_construction(opt, nullptr, nullptr);
  return o;
}

template <graph::GraphView G>
BiconnectivityOracle<G> BiconnectivityOracle<G>::build_reusing(
    const G& g, const BiconnOracleOptions& opt,
    const BiconnectivityOracle& old,
    const std::unordered_set<graph::vertex_id>& dirty_components,
    BiconnRebuildStats* stats) {
  decomp::DecompOptions dopt;
  dopt.k = opt.k;
  dopt.seed = opt.seed;
  BiconnectivityOracle o(
      Decomp::build_reusing(g, dopt, old.decomp_.export_centers()));
  o.nc_ = o.decomp_.center_list().size();
  // Re-installing the exported seeds reproduces the center list verbatim,
  // so cluster indices align between old and new — the property every copy
  // below rides on.
  assert(o.nc_ == old.nc_);
  ReuseContext rc;
  rc.old = &old;
  rc.dirty.assign(o.nc_, 0);
  const auto& centers = old.decomp_.center_list();
  for (std::size_t ci = 0; ci < o.nc_; ++ci) {
    // A cluster's old component label is its forest root's center vertex —
    // exactly what old.component_of reported to the caller.
    rc.dirty[ci] =
        dirty_components.count(centers[old.ccomp_[ci]]) != 0 ? 1 : 0;
  }
  o.run_construction(opt, &rc, stats);
  return o;
}

template <graph::GraphView G>
void BiconnectivityOracle<G>::run_construction(const BiconnOracleOptions& opt,
                                               const ReuseContext* rc,
                                               BiconnRebuildStats* stats) {
  const std::size_t threads = std::max<std::size_t>(opt.threads, 1);
  // Materialize the per-cluster scratch up front — the embarrassingly
  // parallel part — then run the pipeline against it. The cache pointer is
  // cleared before returning (and by stack unwinding the cache itself dies
  // with any exception, after the sharded loops have joined), so finished
  // oracles never reference it.
  BuildCache cache;
  {
    const amem::ScopedPhase phase("biconn_build/cache_fill");
    fill_build_cache(cache, threads, rc);
  }
  cache_ = &cache;
  try {
    {
      const amem::ScopedPhase phase("biconn_build/forest");
      build_clusters_forest(rc);
    }
    {
      const amem::ScopedPhase phase("biconn_build/labeling");
      build_cluster_labeling(threads, rc);
    }
    {
      const amem::ScopedPhase phase("biconn_build/fixpoints");
      run_fixpoints(threads, rc);
    }
    {
      const amem::ScopedPhase phase("biconn_build/bits");
      finalize_bits(threads, rc);
    }
  } catch (...) {
    cache_ = nullptr;
    throw;
  }
  cache_ = nullptr;
  if (stats != nullptr) {
    stats->dirty_clusters = nc_;
    if (rc != nullptr) {
      stats->dirty_clusters = std::size_t(
          std::count(rc->dirty.begin(), rc->dirty.end(), std::uint8_t(1)));
    }
    stats->threads = threads;
    stats->shards = wecc::parallel::shard_count(nc_, threads);
  }
}

template <graph::GraphView G>
void BiconnectivityOracle<G>::fill_build_cache(BuildCache& cache,
                                               std::size_t threads,
                                               const ReuseContext* rc) const {
  const decomp::ClustersGraph<G> cg(decomp_);
  cache.cached.assign(nc_, 0);
  cache.members.assign(nc_, {});
  cache.boundary.assign(nc_, {});
  over_clusters(threads, [&](std::size_t ci) {
    if (!is_dirty(rc, ci)) return;  // clean clusters are never enumerated
    const vid s = decomp_.center_list()[ci];
    amem::count_read();
    // Search and enumerate into per-thread scratch, then copy each entry
    // out at its exact size.
    const primitives::ScratchUse use(detail::pass_scratch());
    decomp::ClusterInfo& c = use.scratch().cluster;
    std::vector<BoundaryInstance>& b = use.scratch().boundary;
    decomp_.cluster(s, c);
    b.clear();
    cg.for_boundary_edges_of(
        c, s, [&](vid cj, vid u, vid w) { b.push_back({cj, u, w}); });
    cache.members[ci].assign(c.members.begin(), c.members.end());
    cache.boundary[ci].assign(b.begin(), b.end());
    cache.cached[ci] = 1;
  });
}

template <graph::GraphView G>
void BiconnectivityOracle<G>::build_clusters_forest(const ReuseContext* rc) {
  // Deterministic BFS over the implicit clusters graph, recording the
  // chosen tree-edge instance per cluster: croot_ (endpoint inside the
  // cluster — "the head vertex of a cluster is chosen as the cluster root")
  // and attach_ (endpoint inside the parent). O(n/k) writes, O(nk) reads.
  // Under a ReuseContext clean clusters keep their old forest slots (their
  // component's subgraph is unchanged, so the old provenance edges still
  // exist) and the BFS only runs inside dirty components.
  const decomp::ClustersGraph<G> cg(decomp_);
  cparent_.assign(nc_, kNo);
  attach_.assign(nc_, kNo);
  croot_.assign(nc_, kNo);
  ccomp_.assign(nc_, kNo);
  amem::count_write(nc_);  // the forest arrays below are the O(n/k) state
  if (rc != nullptr) {
    for (std::size_t ci = 0; ci < nc_; ++ci) {
      if (rc->dirty[ci]) continue;
      cparent_[ci] = rc->old->cparent_[ci];
      attach_[ci] = rc->old->attach_[ci];
      croot_[ci] = rc->old->croot_[ci];
      ccomp_[ci] = rc->old->ccomp_[ci];
      amem::count_write(4);
    }
  }

  std::vector<vid> frontier, next;
  for (std::size_t r = 0; r < nc_; ++r) {
    if (cparent_[r] != kNo) continue;
    cparent_[r] = vid(r);
    ccomp_[r] = vid(r);
    frontier.assign(1, vid(r));
    while (!frontier.empty()) {
      next.clear();
      for (const vid ci : frontier) {
        for_boundary_cached(cg, ci, [&](vid cj, vid u, vid w) {
          if (cparent_[cj] != kNo) return;
          // Dirty components only merge with dirty components (edges only
          // changed inside the dirty set), so the restricted BFS never
          // steps into a cluster whose slot was copied above.
          assert(is_dirty(rc, cj));
          cparent_[cj] = ci;
          attach_[cj] = u;   // in parent cluster ci
          croot_[cj] = w;    // in child cluster cj — its cluster root
          ccomp_[cj] = ccomp_[ci];
          amem::count_write(4);
          next.push_back(cj);
        });
      }
      frontier.swap(next);
    }
  }

  // Children CSR (ascending child index: deterministic slot order).
  children_off_.assign(nc_ + 1, 0);
  for (std::size_t c = 0; c < nc_; ++c) {
    if (cparent_[c] != vid(c)) children_off_[cparent_[c] + 1]++;
  }
  for (std::size_t i = 0; i < nc_; ++i) {
    children_off_[i + 1] += children_off_[i];
  }
  children_.resize(children_off_[nc_]);
  {
    std::vector<std::uint32_t> cur(children_off_.begin(),
                                   children_off_.end() - 1);
    for (std::size_t c = 0; c < nc_; ++c) {
      if (cparent_[c] != vid(c)) children_[cur[cparent_[c]]++] = vid(c);
    }
  }
  amem::count_write(nc_);

  clca_ = primitives::BlockedLca(primitives::build_tree_arrays(cparent_));
}

template <graph::GraphView G>
void BiconnectivityOracle<G>::build_cluster_labeling(std::size_t threads,
                                                     const ReuseContext* rc) {
  // BC labeling of the implicit clusters multigraph against the provenance
  // forest. The only non-obvious bit is instance-aware tree-edge skipping:
  // a boundary edge (u, w) from ci to cj is *the* tree instance iff its
  // endpoints equal the recorded (attach, croot) pair — and only the first
  // such match per enumeration is skipped (exact duplicates are parallel
  // edges and count as non-tree).
  //
  // Under a ReuseContext, the graph-traversal passes (boundary-edge
  // enumeration here and the cc_minus BFS below) run only over dirty
  // clusters; clean clusters copy ccritical_ and their (canonical,
  // min-cluster-index valued) l' labels from the old oracle. The Euler
  // numbers behind low/high are renumbered globally, but they are only
  // consulted for dirty clusters, whose wlo/whi were computed fresh in the
  // new numbering.
  const decomp::ClustersGraph<G> cg(decomp_);

  const auto is_tree_instance = [&](vid ci, vid cj, vid u, vid w) {
    return (cparent_[cj] == ci && u == attach_[cj] && w == croot_[cj]) ||
           (cparent_[ci] == cj && u == croot_[ci] && w == attach_[ci]);
  };

  // w'/W' per cluster.
  std::vector<std::uint32_t> wlo(nc_), whi(nc_);
  over_clusters(threads, [&](std::size_t ci) {
    if (!is_dirty(rc, ci)) {
      // Neutral leaffix seed; the result is never read for clean clusters.
      wlo[ci] = whi[ci] = ctree().first[ci];
      return;
    }
    std::uint32_t mn = ctree().first[ci], mx = ctree().first[ci];
    bool skipped_parent = false;
    const primitives::ScratchUse use(detail::pass_scratch());
    std::vector<std::uint8_t>& skipped_child = use.scratch().skipped_child;
    skipped_child.assign(children_off_[ci + 1] - children_off_[ci], 0);
    for_boundary_cached(cg, vid(ci), [&](vid cj, vid u, vid w) {
      if (is_tree_instance(vid(ci), cj, u, w)) {
        if (cparent_[cj] == vid(ci)) {
          const std::uint32_t slot = child_slot(vid(ci), cj);
          if (!skipped_child[slot]) {
            skipped_child[slot] = 1;
            return;
          }
        } else if (!skipped_parent) {
          skipped_parent = true;
          return;
        }
      }
      mn = std::min(mn, ctree().first[cj]);
      mx = std::max(mx, ctree().first[cj]);
    });
    wlo[ci] = mn;
    whi[ci] = mx;
    amem::count_write(2);
  });

  const auto low = primitives::leaffix<std::uint32_t>(
      ctree(), [&](vid c) { return wlo[c]; },
      [](std::uint32_t a, std::uint32_t b) { return std::min(a, b); });
  const auto high = primitives::leaffix<std::uint32_t>(
      ctree(), [&](vid c) { return whi[c]; },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });

  ccritical_.assign(nc_, 0);
  for (std::size_t c = 0; c < nc_; ++c) {
    if (!is_dirty(rc, c)) {
      ccritical_[c] = rc->old->ccritical_[c];
      continue;
    }
    const vid p = cparent_[c];
    if (p == vid(c)) continue;
    if (ctree().first[p] <= low[c] && high[c] <= ctree().last[p]) {
      ccritical_[c] = 1;
      amem::count_write();
    }
  }

  // Connectivity over the clusters graph minus removed tree edges *and
  // their parallel duplicates* (footnote-3 rule: every instance between the
  // two clusters is excluded, else the duplicate reconnects the component
  // the removal is meant to split). Labels are canonical — the
  // minimum cluster index of the component (BFS roots ascend) — so they are
  // stable across selective rebuilds: a clean cluster's copied label can
  // never collide with a freshly assigned dirty one (label components never
  // straddle the clean/dirty partition, which is a union of connectivity
  // components).
  const auto cc_minus = [&](const std::vector<std::uint8_t>& removed,
                            const std::vector<std::uint32_t>* old_labels) {
    std::vector<std::uint32_t> label(nc_, kNone);
    if (rc != nullptr) {
      for (std::size_t ci = 0; ci < nc_; ++ci) {
        if (!rc->dirty[ci]) label[ci] = (*old_labels)[ci];
      }
    }
    std::vector<vid> frontier, next;
    for (std::size_t r = 0; r < nc_; ++r) {
      if (label[r] != kNone) continue;
      const std::uint32_t id = std::uint32_t(r);
      label[r] = id;
      amem::count_write();
      frontier.assign(1, vid(r));
      while (!frontier.empty()) {
        next.clear();
        for (const vid ci : frontier) {
          for_boundary_cached(cg, ci, [&](vid cj, vid, vid) {
            if ((cparent_[cj] == ci && removed[cj]) ||
                (cparent_[ci] == cj && removed[ci])) {
              return;
            }
            if (label[cj] == kNone) {
              label[cj] = id;
              amem::count_write();
              next.push_back(cj);
            }
          });
        }
        frontier.swap(next);
      }
    }
    return label;
  };

  lprime_ = cc_minus(ccritical_, rc ? &rc->old->lprime_ : nullptr);
}

template <graph::GraphView G>
void BiconnectivityOracle<G>::run_fixpoints(std::size_t threads,
                                            const ReuseContext* rc) {
  // Under a ReuseContext, clean clusters keep their converged DSU entries
  // (cluster indices are stable, and a DSU chain never leaves its
  // component, so clean chains never route through a reset dirty entry);
  // only dirty clusters re-derive their equivalences, and the sweeps visit
  // dirty clusters only — re-sweeping a clean cluster could only re-derive
  // unions its component already holds.
  dsu_bc_.resize(nc_);
  dsu_te_.resize(nc_);
  for (std::size_t i = 0; i < nc_; ++i) {
    dsu_bc_[i] =
        is_dirty(rc, i) ? std::uint32_t(i) : rc->old->dsu_bc_[i];
  }
  amem::count_write(nc_);

  const auto unite = [&](std::vector<std::uint32_t>& p, std::uint32_t a,
                         std::uint32_t b) {
    a = dsu_find(p, a);
    b = dsu_find(p, b);
    if (a == b) return false;
    p[std::max(a, b)] = std::min(a, b);
    amem::count_write();
    return true;
  };

  // One fixpoint pass: group each cluster's incident tree edges by their
  // local block (tecc class for the 2ecc variant) and union within groups.
  // Jacobi discipline: local views read the round-start DSU (no writes
  // happen during collection, so the parallel pass is race-free); the
  // collected merge pairs apply afterwards in cluster order. A cluster's
  // 1 + children directions yield at most `children` pairs, so its pairs
  // fit in its own range of the children CSR.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(
      children_off_[nc_]);
  std::vector<std::uint32_t> npairs(nc_);
  const auto sweep = [&](std::vector<std::uint32_t>& dsu, bool tecc) {
    over_clusters(threads, [&](std::size_t ci) {
      npairs[ci] = 0;
      if (!is_dirty(rc, ci)) return;
      const auto lv = local_view(ci, tecc, /*extra_lprime=*/true);
      // (element, group key): key = local block of the edge instance, or
      // tecc class of the outside node for the 2ecc relation (guarded by
      // the edge not being a local bridge).
      const primitives::ScratchUse use(detail::pass_scratch());
      auto& rep = use.scratch().rep;  // (key, first elem)
      rep.clear();
      const auto consider = [&](std::uint32_t elem, std::uint32_t edge,
                                std::uint32_t node) {
        std::uint32_t key;
        if (tecc) {
          if (lv->bc.is_bridge[edge]) return;  // bridges chain nothing
          key = lv->bc.tecc_label[node];
        } else {
          key = lv->bc.edge_bcc[edge];
          if (key == primitives::BiconnResult::kNone) return;
        }
        for (const auto& [k, first] : rep) {
          if (k == key) {
            assert(children_off_[ci] + npairs[ci] < children_off_[ci + 1]);
            pairs[children_off_[ci] + npairs[ci]++] = {first, elem};
            return;
          }
        }
        rep.push_back({key, elem});
      };
      if (cparent_[ci] != vid(ci)) {
        consider(std::uint32_t(ci), lv->parent_edge, lv->parent_node);
      }
      const std::uint32_t nch = children_off_[ci + 1] - children_off_[ci];
      for (std::uint32_t s = 0; s < nch; ++s) {
        consider(std::uint32_t(children_[children_off_[ci] + s]),
                 lv->child_edges[s], lv->child_nodes[s]);
      }
    });
    bool changed = false;
    for (std::size_t ci = 0; ci < nc_; ++ci) {
      for (std::uint32_t i = 0; i < npairs[ci]; ++i) {
        const auto [a, b] = pairs[children_off_[ci] + i];
        changed |= unite(dsu, a, b);
      }
    }
    return changed;
  };

  rounds_bc_ = 1;
  while (sweep(dsu_bc_, false)) {
    if (++rounds_bc_ > kMaxFixpointRounds) {
      assert(false && "biconnectivity fixpoint failed to converge");
      break;
    }
  }
  // Seed the 2ecc relation from the (finer) biconnectivity one.
  for (std::size_t i = 0; i < nc_; ++i) {
    dsu_te_[i] = is_dirty(rc, i) ? dsu_find(dsu_bc_, std::uint32_t(i))
                                 : rc->old->dsu_te_[i];
  }
  amem::count_write(nc_);
  rounds_te_ = 1;
  while (sweep(dsu_te_, true)) {
    if (++rounds_te_ > kMaxFixpointRounds) {
      assert(false && "2ecc fixpoint failed to converge");
      break;
    }
  }
}

template <graph::GraphView G>
void BiconnectivityOracle<G>::finalize_bits(std::size_t threads,
                                            const ReuseContext* rc) {
  up_ok_.assign(nc_, 1);
  bridge_up_ok_.assign(nc_, 1);
  gbridge_.assign(nc_, 0);
  rb_.assign(nc_, 1);
  internal_off_.assign(nc_ + 1, 0);
  if (rc != nullptr) {
    // Clean clusters' bits are set by their (clean) parent's pass in the
    // old build; dirty clusters that turned into forest roots keep the
    // defaults above, and dirty non-roots are overwritten below (a dirty
    // child's parent is dirty, so every one of them is visited).
    for (std::size_t d = 0; d < nc_; ++d) {
      if (rc->dirty[d]) continue;
      up_ok_[d] = rc->old->up_ok_[d];
      bridge_up_ok_[d] = rc->old->bridge_up_ok_[d];
      gbridge_[d] = rc->old->gbridge_[d];
      rb_[d] = rc->old->rb_[d];
      amem::count_write(4);
    }
  }

  over_clusters(threads, [&](std::size_t ci) {
    if (!is_dirty(rc, ci)) {
      // Per-cluster internal-block count, recovered from the old prefix.
      internal_off_[ci + 1] =
          rc->old->internal_off_[ci + 1] - rc->old->internal_off_[ci];
      return;
    }
    const auto hb = local_view(ci, false, false);
    const auto ht = local_view(ci, true, false);
    const LocalView& lvb = *hb;
    const LocalView& lvt = *ht;
    const bool has_parent = cparent_[ci] != vid(ci);
    const std::uint32_t root_idx =
        has_parent ? lvb.member_idx.at(croot_[ci]) : kNone;
    const std::uint32_t nch = children_off_[ci + 1] - children_off_[ci];
    for (std::uint32_t s = 0; s < nch; ++s) {
      const std::uint32_t d = children_[children_off_[ci] + s];
      if (has_parent) {
        up_ok_[d] = lvb.bc.edge_bcc[lvb.child_edges[s]] ==
                    lvb.bc.edge_bcc[lvb.parent_edge];
        bridge_up_ok_[d] = lvt.bc.tecc_label[lvt.child_nodes[s]] ==
                           lvt.bc.tecc_label[lvt.parent_node];
        rb_[d] = lvb.bc.same_bcc(lvb.lg, lvb.child_nodes[s], root_idx);
      }
      gbridge_[d] = lvt.bc.is_bridge[lvt.child_edges[s]];
    }
    amem::count_write(4 * nch + 1);

    // Internal blocks: local blocks none of whose edges touch an outside
    // node (Lemma 5.7: everything else is biconnected with an outside
    // vertex and therefore named at the clusters level).
    internal_off_[ci + 1] = internal_blocks(lvb).count;
  });
  for (std::size_t i = 0; i < nc_; ++i) {
    internal_off_[i + 1] += internal_off_[i];
  }
  amem::count_write(nc_);

  // Prefix bad counts over the clusters forest (rootfix).
  const auto pb = primitives::rootfix<std::uint32_t>(
      ctree(), [](vid) { return 0u; },
      [&](std::uint32_t acc, vid d) { return acc + (up_ok_[d] ? 0 : 1); });
  const auto pbb = primitives::rootfix<std::uint32_t>(
      ctree(), [](vid) { return 0u; },
      [&](std::uint32_t acc, vid d) {
        return acc + (bridge_up_ok_[d] ? 0 : 1);
      });
  pref_bad_.assign(pb.begin(), pb.end());
  pref_bbad_.assign(pbb.begin(), pbb.end());
  amem::count_write(2 * nc_);
}

}  // namespace wecc::biconn

#include "biconn/biconn_oracle_views.hpp"
#include "biconn/biconn_oracle_queries.hpp"
