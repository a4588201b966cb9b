// Query implementations for BiconnectivityOracle.
// Included from biconn_oracle_impl.hpp.
#pragma once

namespace wecc::biconn {

template <graph::GraphView G>
graph::vertex_id BiconnectivityOracle<G>::component_of(
    graph::vertex_id v) const {
  const auto r = decomp_.rho(v);
  if (r.virtual_center) return r.center;
  amem::count_read(2);
  return decomp_.center_list()[ccomp_[decomp_.center_index(r.center)]];
}

template <graph::GraphView G>
bool BiconnectivityOracle<G>::is_articulation(graph::vertex_id v) const {
  const auto r = decomp_.rho(v);
  if (r.virtual_center) {
    const auto vv = virtual_view(v);
    return vv->bc.is_artic[vv->member_idx.at(v)] != 0;
  }
  const std::size_t ci = decomp_.center_index(r.center);
  const auto lv = local_view(ci, false, false);
  return lv->bc.is_artic[lv->member_idx.at(v)] != 0;
}

template <graph::GraphView G>
bool BiconnectivityOracle<G>::is_bridge(graph::vertex_id u,
                                        graph::vertex_id v) const {
  if (u == v) return false;
  const auto ru = decomp_.rho(u);
  const auto rv = decomp_.rho(v);
  if (ru.virtual_center || rv.virtual_center) {
    if (!ru.virtual_center || !rv.virtual_center || ru.center != rv.center) {
      return false;  // different components: not even an edge
    }
    const auto vv = virtual_view(u);
    const std::uint32_t ui = vv->member_idx.at(u), vi = vv->member_idx.at(v);
    for (const auto& [w, e] : vv->lg.arcs(ui)) {
      if (w == vi) return vv->bc.is_bridge[e] != 0;  // doubled => 0 anyway
    }
    return false;
  }
  const std::size_t cu = decomp_.center_index(ru.center);
  const std::size_t cv = decomp_.center_index(rv.center);
  if (cu == cv) {
    const auto lv = local_view(cu, true, false);
    const std::uint32_t ui = lv->member_idx.at(u), vi = lv->member_idx.at(v);
    for (const auto& [w, e] : lv->lg.arcs(ui)) {
      if (w == vi) return lv->bc.is_bridge[e] != 0;
    }
    return false;
  }
  // Clusters-tree edge instance? (Everything else crossing clusters is a
  // cross or parallel edge, never a bridge.)
  amem::count_read(4);
  if (cparent_[cv] == vid(cu) && attach_[cv] == u && croot_[cv] == v) {
    return gbridge_[cv] != 0;
  }
  if (cparent_[cu] == vid(cv) && attach_[cu] == v && croot_[cu] == u) {
    return gbridge_[cu] != 0;
  }
  return false;
}

template <graph::GraphView G>
bool BiconnectivityOracle<G>::biconnected(graph::vertex_id u,
                                          graph::vertex_id v) const {
  if (u == v) return true;
  const auto ru = decomp_.rho(u);
  const auto rv = decomp_.rho(v);
  if (ru.virtual_center || rv.virtual_center) {
    if (!ru.virtual_center || !rv.virtual_center || ru.center != rv.center) {
      return false;
    }
    const auto vv = virtual_view(u);
    return vv->bc.same_bcc(vv->lg, vv->member_idx.at(u), vv->member_idx.at(v));
  }
  const std::size_t cu = decomp_.center_index(ru.center);
  const std::size_t cv = decomp_.center_index(rv.center);
  if (cu == cv) {
    const auto lv = local_view(cu, false, false);
    return lv->bc.same_bcc(lv->lg, lv->member_idx.at(u), lv->member_idx.at(v));
  }
  amem::count_read(2);
  if (ccomp_[cu] != ccomp_[cv]) return false;
  const vid L = clca_.lca(vid(cu), vid(cv));

  // Leg from an end cluster up to (excluding) L: the end cluster's own
  // block check plus the O(1) middle-cluster certificate.
  const auto leg = [&](std::size_t cend,
                       graph::vertex_id vert) -> std::pair<bool, vid> {
    if (cend == std::size_t(L)) return {true, kNo};
    const auto lv = local_view(cend, false, false);
    if (!lv->bc.vertex_in_block(lv->lg, lv->member_idx.at(vert),
                                lv->parent_edge)) {
      return {false, kNo};
    }
    const vid child_of_l =
        clca_.ancestor_at_depth(vid(cend), ctree().depth[L] + 1);
    amem::count_read(2);
    if (pref_bad_[cend] - pref_bad_[child_of_l] != 0) return {false, kNo};
    return {true, child_of_l};
  };
  const auto [ok1, d1] = leg(cu, u);
  if (!ok1) return false;
  const auto [ok2, d2] = leg(cv, v);
  if (!ok2) return false;

  const auto lvL = local_view(std::size_t(L), false, false);
  const auto edge_of = [&](vid d) {
    return lvL->child_edges[child_slot(L, d)];
  };
  if (cu == std::size_t(L)) {
    return lvL->bc.vertex_in_block(lvL->lg, lvL->member_idx.at(u),
                                   edge_of(d2));
  }
  if (cv == std::size_t(L)) {
    return lvL->bc.vertex_in_block(lvL->lg, lvL->member_idx.at(v),
                                   edge_of(d1));
  }
  const auto b1 = lvL->bc.edge_bcc[edge_of(d1)];
  return b1 != primitives::BiconnResult::kNone &&
         b1 == lvL->bc.edge_bcc[edge_of(d2)];
}

template <graph::GraphView G>
bool BiconnectivityOracle<G>::two_edge_connected(graph::vertex_id u,
                                                 graph::vertex_id v) const {
  if (u == v) return true;
  const auto ru = decomp_.rho(u);
  const auto rv = decomp_.rho(v);
  if (ru.virtual_center || rv.virtual_center) {
    if (!ru.virtual_center || !rv.virtual_center || ru.center != rv.center) {
      return false;
    }
    const auto vv = virtual_view(u);
    return vv->bc.two_edge_connected(vv->member_idx.at(u),
                                     vv->member_idx.at(v));
  }
  const std::size_t cu = decomp_.center_index(ru.center);
  const std::size_t cv = decomp_.center_index(rv.center);
  if (cu == cv) {
    const auto lv = local_view(cu, true, false);
    return lv->bc.two_edge_connected(lv->member_idx.at(u),
                                     lv->member_idx.at(v));
  }
  amem::count_read(2);
  if (ccomp_[cu] != ccomp_[cv]) return false;
  const vid L = clca_.lca(vid(cu), vid(cv));

  const auto leg = [&](std::size_t cend,
                       graph::vertex_id vert) -> std::pair<bool, vid> {
    if (cend == std::size_t(L)) return {true, kNo};
    const auto lv = local_view(cend, true, false);
    if (lv->bc.tecc_label[lv->member_idx.at(vert)] !=
        lv->bc.tecc_label[lv->parent_node]) {
      return {false, kNo};
    }
    const vid child_of_l =
        clca_.ancestor_at_depth(vid(cend), ctree().depth[L] + 1);
    amem::count_read(2);
    if (pref_bbad_[cend] - pref_bbad_[child_of_l] != 0) return {false, kNo};
    return {true, child_of_l};
  };
  const auto [ok1, d1] = leg(cu, u);
  if (!ok1) return false;
  const auto [ok2, d2] = leg(cv, v);
  if (!ok2) return false;

  const auto lvL = local_view(std::size_t(L), true, false);
  const auto node_of = [&](vid d) {
    return lvL->child_nodes[child_slot(L, d)];
  };
  if (cu == std::size_t(L)) {
    return lvL->bc.tecc_label[lvL->member_idx.at(u)] ==
           lvL->bc.tecc_label[node_of(d2)];
  }
  if (cv == std::size_t(L)) {
    return lvL->bc.tecc_label[lvL->member_idx.at(v)] ==
           lvL->bc.tecc_label[node_of(d1)];
  }
  return lvL->bc.tecc_label[node_of(d1)] == lvL->bc.tecc_label[node_of(d2)];
}

// The canonical 2ec class name mirrors the pairwise query's chain: a
// vertex that is not 2ec with its cluster's upward exit is named by its
// local tecc label; one that is climbs the clusters forest to the topmost
// ancestor the bridge-free chain reaches and is named by its entry label
// there. Equality matches two_edge_connected because bridge_up_ok[d] is
// itself a label comparison in d's parent ("entry label == parent's exit
// label"), so two chains meeting any cluster with equal labels make the
// same climb decision from there on — the climb endpoint and entry label
// are functions of the class, not of the starting vertex.
template <graph::GraphView G>
std::uint64_t BiconnectivityOracle<G>::two_edge_class(
    graph::vertex_id u) const {
  // (virtual? : 1) | (cluster index : 32) | (label : 31). Cluster local
  // views are deterministic functions of the cluster, so their label
  // values are comparable across calls; virtual views are materialized
  // from the queried vertex, so virtual classes are instead named by
  // their minimum member (globally unique — no cluster part needed).
  const auto pack = [](bool virt, std::uint64_t idx, std::uint64_t label) {
    assert(label < (std::uint64_t{1} << 31));
    return (std::uint64_t{virt} << 63) | (idx << 31) | label;
  };
  const auto ru = decomp_.rho(u);
  if (ru.virtual_center) {
    const auto vv = virtual_view(u);
    const std::uint32_t lab = vv->bc.tecc_label[vv->member_idx.at(u)];
    graph::vertex_id rep = u;
    for (std::uint32_t i = 0; i < vv->members.size(); ++i) {
      if (vv->bc.tecc_label[i] == lab && vv->members[i] < rep) {
        rep = vv->members[i];
      }
    }
    return (std::uint64_t{1} << 63) | rep;
  }
  const std::size_t cu = decomp_.center_index(ru.center);
  const auto lv = local_view(cu, true, false);
  const std::uint32_t lab = lv->bc.tecc_label[lv->member_idx.at(u)];
  amem::count_read();
  if (cparent_[cu] == vid(cu) ||
      lab != lv->bc.tecc_label[lv->parent_node]) {
    return pack(false, cu, lab);
  }
  // u is 2ec with its cluster's upward exit. The chain stalls exactly at
  // the deepest root-path ancestor B with !bridge_up_ok (where pref_bbad_
  // last increments — prefix counts are nondecreasing with depth), so the
  // class lives in T = parent(B), named by B's entry label there.
  amem::count_read(2);
  const std::uint32_t target = pref_bbad_[cu];
  const vid root = ccomp_[cu];
  vid bstop;
  if (target == 0) {
    bstop = clca_.ancestor_at_depth(vid(cu), ctree().depth[root] + 1);
  } else {
    // Binary search the shallowest ancestor whose prefix reaches `target`.
    std::uint32_t lo = ctree().depth[root] + 1;
    std::uint32_t hi = ctree().depth[cu];
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const vid a = clca_.ancestor_at_depth(vid(cu), mid);
      amem::count_read();
      if (pref_bbad_[a] >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    bstop = clca_.ancestor_at_depth(vid(cu), lo);
  }
  const vid top = cparent_[bstop];
  const auto lvt = local_view(std::size_t(top), true, false);
  return pack(
      false, std::uint64_t(top),
      lvt->bc.tecc_label[lvt->child_nodes[child_slot(top, bstop)]]);
}

template <graph::GraphView G>
std::optional<BccId> BiconnectivityOracle<G>::edge_bcc(
    graph::vertex_id u, graph::vertex_id v) const {
  if (u == v) return std::nullopt;  // self-loops belong to no block
  const auto ru = decomp_.rho(u);
  const auto rv = decomp_.rho(v);
  if (ru.virtual_center || rv.virtual_center) {
    if (!ru.virtual_center || !rv.virtual_center || ru.center != rv.center) {
      return std::nullopt;
    }
    const auto vv = virtual_view(u);
    const std::uint32_t ui = vv->member_idx.at(u), vi = vv->member_idx.at(v);
    for (const auto& [w, e] : vv->lg.arcs(ui)) {
      if (w == vi) {
        // Local block numbers depend on which member virtual_view() grew
        // from, so the id uses each block's rank by its lexicographically
        // smallest global edge — blocks partition edges, so that minimum
        // is unique per block and identical from every entry vertex.
        const std::uint32_t b = vv->bc.edge_bcc[e];
        const primitives::ScratchUse use(detail::block_scratch());
        std::vector<std::uint64_t>& best = use.scratch().best;
        best.assign(vv->bc.num_bcc, ~std::uint64_t{0});
        for (std::uint32_t f = 0; f < vv->lg.num_edges(); ++f) {
          const auto blk = vv->bc.edge_bcc[f];
          if (blk == primitives::BiconnResult::kNone) continue;
          const auto [x, y] = vv->lg.edges[f];
          const graph::vertex_id gx = vv->members[x];
          const graph::vertex_id gy = vv->members[y];
          const std::uint64_t key =
              (std::uint64_t(std::min(gx, gy)) << 32) | std::max(gx, gy);
          if (key < best[blk]) best[blk] = key;
        }
        std::uint32_t rank = 0;
        for (std::uint32_t blk = 0; blk < vv->bc.num_bcc; ++blk) {
          if (best[blk] < best[b]) ++rank;
        }
        return BccId{BccId::Kind::kVirtual,
                     (std::uint64_t(vv->comp_min) << 20) | rank};
      }
    }
    return std::nullopt;
  }
  const std::size_t cu = decomp_.center_index(ru.center);
  const std::size_t cv = decomp_.center_index(rv.center);

  const auto spanning = [&](std::uint32_t elem) {
    return BccId{BccId::Kind::kSpanning, dsu_find(dsu_bc_, elem)};
  };

  if (cu != cv) {
    amem::count_read(4);
    if (cparent_[cv] == vid(cu) && attach_[cv] == u && croot_[cv] == v) {
      return spanning(std::uint32_t(cv));
    }
    if (cparent_[cu] == vid(cv) && attach_[cu] == v && croot_[cu] == u) {
      return spanning(std::uint32_t(cu));
    }
    // Cross edge: resolve through u's local view; its block necessarily
    // meets a clusters-tree edge of cu (the tree path to v crosses one).
    const auto lv = local_view(cu, false, false);
    const std::uint32_t ui = lv->member_idx.at(u);
    for (const auto& [w, e] : lv->lg.arcs(ui)) {
      (void)w;
      if (lv->edge_origin[e] != std::make_pair(u, v)) continue;
      const auto b = lv->bc.edge_bcc[e];
      if (lv->parent_edge != kNone && b == lv->bc.edge_bcc[lv->parent_edge]) {
        return spanning(std::uint32_t(cu));
      }
      for (std::uint32_t sl = 0; sl < lv->child_edges.size(); ++sl) {
        if (b == lv->bc.edge_bcc[lv->child_edges[sl]]) {
          return spanning(children_[children_off_[cu] + sl]);
        }
      }
      assert(false && "cross edge block met no clusters-tree edge");
      return std::optional<BccId>{};
    }
    return std::nullopt;  // not an edge of G
  }

  // Intra-cluster edge.
  const auto lv = local_view(cu, false, false);
  const std::uint32_t ui = lv->member_idx.at(u);
  for (const auto& [w, e] : lv->lg.arcs(ui)) {
    (void)w;
    if (lv->edge_origin[e] != std::make_pair(std::min(u, v), std::max(u, v)))
      continue;
    const auto b = lv->bc.edge_bcc[e];
    if (b == primitives::BiconnResult::kNone) continue;
    if (lv->parent_edge != kNone && b == lv->bc.edge_bcc[lv->parent_edge]) {
      return spanning(std::uint32_t(cu));
    }
    for (std::uint32_t sl = 0; sl < lv->child_edges.size(); ++sl) {
      if (b == lv->bc.edge_bcc[lv->child_edges[sl]]) {
        return spanning(children_[children_off_[cu] + sl]);
      }
    }
    // Internal block (Lemma 5.7): per-cluster offset + local rank.
    const std::uint32_t rank = internal_blocks(*lv, b).rank;
    amem::count_read(2);
    return BccId{BccId::Kind::kInternal, internal_off_[cu] + rank};
  }
  return std::nullopt;  // not an edge of G
}

}  // namespace wecc::biconn
