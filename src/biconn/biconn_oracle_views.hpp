// Local-graph construction for BiconnectivityOracle (Definition 4).
// Included from biconn_oracle_impl.hpp.
//
// A view's lookup tables are flat (primitives::FlatMap). The ones that die
// with the call live in per-thread ViewScratch, reused across calls and
// trimmed back to primitives::kScratchRetainEntries after each; the view
// keeps only its own member index. The SymScratch claims are unchanged.
#pragma once

namespace wecc::biconn {

namespace detail {

/// Per-thread scratch of local_view / virtual_view (they never nest).
struct ViewScratch {
  std::vector<graph::vertex_id> nbrs;
  /// Child slots grouped by attach vertex: first slot per attach vertex,
  /// then a per-slot link to the next slot of the group (ascending).
  primitives::FlatMap<graph::vertex_id> attach_head;
  std::vector<std::uint32_t> attach_next;
  std::vector<std::uint8_t> child_used;
  primitives::FlatMap<std::uint64_t> redirect;  // (u << 32 | w) -> cj
  struct Dir {
    std::uint32_t node;
    std::uint32_t elem;   // clusters-tree edge element (cluster index)
    std::uint32_t label;  // cluster-level label (kNone: joins nothing)
  };
  std::vector<Dir> dirs;
  std::vector<std::uint32_t> gp;  // tiny DSU over dirs
  primitives::FlatMap<std::uint32_t> by_dsu, by_label;
  std::vector<std::uint32_t> prev_in_group;  // per group root (a dir index)
  std::vector<graph::vertex_id> frontier, next;
  bool busy = false;

  void trim() {
    primitives::trim_scratch(nbrs);
    attach_head.clear_and_trim();
    primitives::trim_scratch(attach_next);
    primitives::trim_scratch(child_used);
    redirect.clear_and_trim();
    primitives::trim_scratch(dirs);
    primitives::trim_scratch(gp);
    by_dsu.clear_and_trim();
    by_label.clear_and_trim();
    primitives::trim_scratch(prev_in_group);
    primitives::trim_scratch(frontier);
    primitives::trim_scratch(next);
  }
};

inline ViewScratch& view_scratch() {
  thread_local ViewScratch s;
  return s;
}

}  // namespace detail

template <graph::GraphView G>
std::uint32_t BiconnectivityOracle<G>::direction_of(std::size_t from,
                                                    std::size_t to) const {
  amem::count_read(2);
  if (ctree().is_ancestor(vid(from), vid(to))) {
    // The child of `from` whose subtree holds `to`.
    const vid d = clca_.ancestor_at_depth(vid(to), ctree().depth[from] + 1);
    return child_slot(vid(from), d);
  }
  return kNone;  // parent direction
}

template <graph::GraphView G>
typename BiconnectivityOracle<G>::LocalView
BiconnectivityOracle<G>::local_view(std::size_t ci, bool use_tecc_equiv,
                                    bool extra_lprime) const {
  LocalView lv;
  const vid s = decomp_.center_list()[ci];
  amem::count_read();
  const bool from_cache = cache_ != nullptr && cache_->cached[ci] != 0;
  if (from_cache) {
    lv.members = cache_->members[ci];
  } else {
    lv.members = decomp_.cluster(s).members;
  }
  amem::SymScratch scratch(4 * lv.members.size() + 8);
  const primitives::ScratchUse use(detail::view_scratch());
  detail::ViewScratch& vs = use.scratch();
  lv.member_idx.reserve(lv.members.size());
  for (std::uint32_t i = 0; i < lv.members.size(); ++i) {
    lv.member_idx.try_emplace(lv.members[i], i);
  }

  const bool has_parent = cparent_[ci] != vid(ci);
  const std::uint32_t nch = children_off_[ci + 1] - children_off_[ci];
  const std::uint32_t nm = std::uint32_t(lv.members.size());
  lv.lg = primitives::LocalGraph(nm + (has_parent ? 1 : 0) + nch);
  if (has_parent) lv.parent_node = nm;
  lv.child_nodes.resize(nch);
  lv.child_edges.assign(nch, kNone);
  for (std::uint32_t sl = 0; sl < nch; ++sl) {
    lv.child_nodes[sl] = nm + (has_parent ? 1 : 0) + sl;
  }

  // Attach-vertex lookup for fast tree-instance detection: child slots
  // grouped by their attach vertex in this cluster, each group ascending
  // (linked back to front so every head is the group's smallest slot).
  vs.attach_head.clear();
  vs.attach_next.assign(nch, kNone);
  for (std::uint32_t sl = nch; sl-- > 0;) {
    const auto [head, fresh] =
        vs.attach_head.try_emplace(attach_[children_[children_off_[ci] + sl]],
                                   sl);
    if (!fresh) {
      vs.attach_next[sl] = *head;
      *head = sl;
    }
  }
  vs.child_used.assign(nch, 0);
  bool parent_used = false;

  // Redirect lookup for category-3 instances: during a construction the
  // build cache already rho'd every boundary instance of this cluster, so
  // key them by graph edge and skip the per-instance rho. Misses fall back
  // to the live rho — for_boundary_edges_of drops instances whose far
  // endpoint was discovered into this cluster late, so those never reach
  // the cache.
  vs.redirect.clear();
  if (from_cache) {
    vs.redirect.reserve(cache_->boundary[ci].size());
    for (const BoundaryInstance& b : cache_->boundary[ci]) {
      vs.redirect.try_emplace((std::uint64_t(b.u) << 32) | b.w, b.cj);
    }
  }

  const auto add_edge = [&](std::uint32_t a, std::uint32_t b, vid ou,
                            vid ow) {
    const std::uint32_t e = lv.lg.add_edge(a, b);
    lv.edge_origin.push_back({ou, ow});
    return e;
  };

  // Categories 1 (intra + tree edges) and 3 (redirected boundary edges).
  for (std::uint32_t mi = 0; mi < nm; ++mi) {
    const vid u = lv.members[mi];
    vs.nbrs.clear();
    decomp_.graph().for_neighbors(u, [&](vid w) { vs.nbrs.push_back(w); });
    std::sort(vs.nbrs.begin(), vs.nbrs.end());
    for (const vid w : vs.nbrs) {
      if (w == u) continue;  // self-loops are biconnectivity-inert
      if (const std::uint32_t wi = lv.member_idx.find(w); wi != kNone) {
        if (w > u) add_edge(mi, wi, u, w);  // one side adds
        continue;
      }
      // Boundary instance. The chosen tree instances become edges to their
      // outside nodes; everything else is category 3 (redirected).
      if (has_parent && !parent_used && u == croot_[ci] &&
          w == attach_[ci]) {
        parent_used = true;
        lv.parent_edge = add_edge(mi, lv.parent_node, u, w);
        continue;
      }
      bool was_tree_child = false;
      for (std::uint32_t sl = vs.attach_head.find(u); sl != kNone;
           sl = vs.attach_next[sl]) {
        const vid d = children_[children_off_[ci] + sl];
        if (!vs.child_used[sl] && w == croot_[d]) {
          vs.child_used[sl] = 1;
          lv.child_edges[sl] = add_edge(mi, lv.child_nodes[sl], u, w);
          was_tree_child = true;
          break;
        }
      }
      if (was_tree_child) continue;
      // Category 3: redirect to the outside node toward rho(w)'s cluster.
      std::size_t ce = vs.redirect.find((std::uint64_t(u) << 32) | w);
      if (ce == kNone) {
        const decomp::RhoResult rw = decomp_.rho(w);
        ce = decomp_.center_index(rw.center);
      }
      const std::uint32_t dir = direction_of(ci, ce);
      const std::uint32_t node =
          dir == kNone ? lv.parent_node : lv.child_nodes[dir];
      assert(node != kNone);
      add_edge(mi, node, u, w);
    }
  }
  assert(!has_parent || lv.parent_edge != kNone);

  // Category 2: chain outside nodes of equivalent directions. Directions
  // carry their clusters-tree edge element: child slot sl -> child cluster,
  // parent direction -> this cluster. Equivalence = same DSU class, plus
  // (during fixpoint rounds) equal cluster-level labels.
  {
    const auto& dsu = use_tecc_equiv ? dsu_te_ : dsu_bc_;
    // Label semantics (both relations): l'(elem) is by BC-labeling
    // construction the cluster-level *block* of that tree edge. Equal
    // blocks mean a simple cycle of the clusters multigraph passes through
    // both tree edges; a simple cycle visits this cluster exactly once
    // (degree 2, via the two tree edges), so it certifies an *external*
    // vertex-disjoint — hence also edge-disjoint — path between the two
    // directions. That makes the rule sound for 2-edge-connectivity too.
    // (A mere bridge-free connectivity label is NOT sound here: the
    // connecting cluster-path may route back through this cluster, e.g.
    // parallel cluster edges sharing an attach vertex, and lift to a walk
    // that reuses an intra-cluster bridge. The per-cluster Hopcroft–Tarjan
    // already sees such parallel instances as local edges, so they need no
    // category-2 chord.)
    const auto label_of = [&](std::uint32_t elem) { return lprime_[elem]; };
    std::vector<detail::ViewScratch::Dir>& dirs = vs.dirs;
    dirs.clear();
    if (has_parent) {
      dirs.push_back({lv.parent_node, std::uint32_t(ci),
                      label_of(std::uint32_t(ci))});
    }
    for (std::uint32_t sl = 0; sl < nch; ++sl) {
      const std::uint32_t d = children_[children_off_[ci] + sl];
      dirs.push_back({lv.child_nodes[sl], d, label_of(d)});
    }
    // Group by DSU class (and label when extra_lprime): tiny DSU on dirs.
    std::vector<std::uint32_t>& gp = vs.gp;
    gp.resize(dirs.size());
    for (std::uint32_t i = 0; i < dirs.size(); ++i) gp[i] = i;
    const auto gfind = [&](std::uint32_t x) {
      while (gp[x] != x) x = gp[x] = gp[gp[x]];
      return x;
    };
    vs.by_dsu.clear();
    vs.by_label.clear();
    for (std::uint32_t i = 0; i < dirs.size(); ++i) {
      const auto cls = dsu_find(dsu, dirs[i].elem);
      if (const auto [first, fresh] = vs.by_dsu.try_emplace(cls, i); !fresh) {
        gp[gfind(i)] = gfind(*first);
      }
      if (extra_lprime && dirs[i].label != kNone) {
        if (const auto [first, fresh] =
                vs.by_label.try_emplace(dirs[i].label, i);
            !fresh) {
          gp[gfind(i)] = gfind(*first);
        }
      }
    }
    // Group roots are dir indices, so the last member seen per group is a
    // dense array.
    std::vector<std::uint32_t>& prev_in_group = vs.prev_in_group;
    prev_in_group.assign(dirs.size(), kNone);
    for (std::uint32_t i = 0; i < dirs.size(); ++i) {
      std::uint32_t& prev = prev_in_group[gfind(i)];
      if (prev != kNone) {
        add_edge(dirs[prev].node, dirs[i].node, kNo, kNo);
      }
      prev = i;  // chain: c-1 edges for c directions
    }
  }

  lv.bc = primitives::biconnectivity(lv.lg);
  return lv;
}

template <graph::GraphView G>
typename BiconnectivityOracle<G>::InternalBlocks
BiconnectivityOracle<G>::internal_blocks(const LocalView& lv) const {
  InternalBlocks ib;
  ib.internal.assign(lv.bc.num_bcc, 1);
  const std::uint32_t nm = std::uint32_t(lv.members.size());
  for (std::uint32_t e = 0; e < lv.lg.num_edges(); ++e) {
    const auto b = lv.bc.edge_bcc[e];
    if (b == primitives::BiconnResult::kNone) continue;
    const auto [x, y] = lv.lg.edges[e];
    if (x >= nm || y >= nm) ib.internal[b] = 0;  // touches an outside node
  }
  for (const auto f : ib.internal) ib.count += f;
  return ib;
}

template <graph::GraphView G>
typename BiconnectivityOracle<G>::VirtualView
BiconnectivityOracle<G>::virtual_view(vid any_member) const {
  VirtualView vv;
  const primitives::ScratchUse use(detail::view_scratch());
  detail::ViewScratch& vs = use.scratch();
  // Exhaustive BFS (component size < k by construction).
  vs.frontier.assign(1, any_member);
  vv.member_idx.try_emplace(any_member, 0);
  vv.members.push_back(any_member);
  amem::SymScratch scratch(2);
  while (!vs.frontier.empty()) {
    vs.next.clear();
    for (const vid u : vs.frontier) {
      decomp_.graph().for_neighbors(u, [&](vid w) {
        if (vv.member_idx.try_emplace(w, std::uint32_t(vv.members.size()))
                .second) {
          vv.members.push_back(w);
          scratch.grow(2);
          vs.next.push_back(w);
        }
      });
    }
    vs.frontier.swap(vs.next);
  }
  vv.comp_min = *std::min_element(vv.members.begin(), vv.members.end());
  vv.lg = primitives::LocalGraph(vv.members.size());
  for (std::uint32_t mi = 0; mi < vv.members.size(); ++mi) {
    const vid u = vv.members[mi];
    decomp_.graph().for_neighbors(u, [&](vid w) {
      if (w > u) vv.lg.add_edge(mi, vv.member_idx.at(w));
    });
  }
  vv.bc = primitives::biconnectivity(vv.lg);
  return vv;
}

}  // namespace wecc::biconn
