// Tests for the §5.2 BC labeling: the paper's exact Figure 2 example, query
// correctness against the Hopcroft–Tarjan ground truth across families and
// random multigraphs, the Theta(m)-vs-O(n) write separation from the
// Tarjan–Vishkin baseline, and block-cut-tree structure.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "amem/counters.hpp"
#include "biconn/bc_labeling.hpp"
#include "biconn/tarjan_vishkin.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "primitives/small_biconn.hpp"

namespace {

using namespace wecc;
using biconn::BcLabeling;
using graph::Graph;
using graph::vertex_id;

primitives::LocalGraph to_local(const Graph& g) {
  primitives::LocalGraph lg(g.num_vertices());
  for (const auto& e : g.edge_list()) lg.add_edge(e.u, e.v);
  lg.build();
  return lg;
}

/// Compare every supported query on `g` against Hopcroft–Tarjan.
void check_against_ground_truth(const Graph& g, const BcLabeling& bc) {
  const auto lg = to_local(g);
  const auto truth = primitives::biconnectivity(lg);
  const std::size_t n = g.num_vertices();

  for (vertex_id v = 0; v < n; ++v) {
    EXPECT_EQ(bc.is_articulation(v), bool(truth.is_artic[v]))
        << "articulation of " << v;
  }
  for (std::uint32_t e = 0; e < lg.num_edges(); ++e) {
    const auto [u, v] = lg.edges[e];
    EXPECT_EQ(bc.is_bridge(g, u, v), bool(truth.is_bridge[e]))
        << "bridge " << u << "-" << v;
  }
  for (vertex_id u = 0; u < n; ++u) {
    for (vertex_id v = u + 1; v < n; ++v) {
      EXPECT_EQ(bc.same_bcc(u, v), truth.same_bcc(lg, u, v))
          << "same_bcc " << u << "," << v;
      EXPECT_EQ(bc.two_edge_connected(u, v),
                truth.cc_label[u] == truth.cc_label[v] &&
                    truth.two_edge_connected(u, v))
          << "2ec " << u << "," << v;
      EXPECT_EQ(bc.same_component(u, v),
                truth.cc_label[u] == truth.cc_label[v])
          << "cc " << u << "," << v;
    }
  }
  // Edge labels induce the same edge partition as ground-truth BCC ids
  // (self-loops excluded).
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
  std::map<std::uint32_t, std::uint32_t> fa, fb;
  for (std::uint32_t e = 0; e < lg.num_edges(); ++e) {
    const auto [u, v] = lg.edges[e];
    if (u == v) continue;
    const auto la = bc.edge_label(u, v);
    const auto lb = truth.edge_bcc[e];
    const auto ia = fa.emplace(la, fa.size()).first->second;
    const auto ib = fb.emplace(lb, fb.size()).first->second;
    EXPECT_EQ(ia, ib) << "edge-label partition at " << u << "-" << v;
  }
  EXPECT_EQ(bc.num_bcc(), truth.num_bcc);
  (void)seen;
}

TEST(BcLabeling, PaperFigure2Exactly) {
  // Figure 2 (0-indexed): l = [1,1,1,2,1,1,3,3] over vertices 1..8,
  // r = [1,2,6] -> heads {0,1,5}, bridges {(1,4)}, articulation {1,5},
  // BCCs {0,1,2,3,5,6}, {1,4}, {5,7,8}.
  const Graph g = graph::gen::figure2_graph();
  const auto bc = BcLabeling::build(g);

  ASSERT_EQ(bc.num_bcc(), 3u);
  // Same label groups as the paper.
  EXPECT_EQ(bc.label(1), bc.label(2));
  EXPECT_EQ(bc.label(1), bc.label(3));
  EXPECT_EQ(bc.label(1), bc.label(5));
  EXPECT_EQ(bc.label(1), bc.label(6));
  EXPECT_NE(bc.label(1), bc.label(4));
  EXPECT_EQ(bc.label(7), bc.label(8));
  EXPECT_NE(bc.label(7), bc.label(1));
  EXPECT_NE(bc.label(7), bc.label(4));
  // Heads r = [1, 2, 6] in paper numbering = {0, 1, 5}.
  EXPECT_EQ(bc.head(bc.label(1)), 0u);
  EXPECT_EQ(bc.head(bc.label(4)), 1u);
  EXPECT_EQ(bc.head(bc.label(7)), 5u);
  // Bridges: only (2,5) in paper numbering = (1,4).
  int bridges = 0;
  for (const auto& e : g.edge_list()) {
    bridges += bc.is_bridge(g, e.u, e.v);
  }
  EXPECT_EQ(bridges, 1);
  EXPECT_TRUE(bc.is_bridge(g, 1, 4));
  // Articulation points: {2,6} in paper numbering = {1,5}.
  for (vertex_id v = 0; v < 9; ++v) {
    EXPECT_EQ(bc.is_articulation(v), v == 1 || v == 5) << v;
  }
  check_against_ground_truth(g, bc);
}

struct BcFamily {
  const char* name;
  Graph (*make)();
};
Graph b_cactus() { return graph::gen::cactus_chain(5, 6); }
Graph b_barbell() { return graph::gen::barbell(6); }
Graph b_grid() { return graph::gen::grid2d(6, 8); }
Graph b_torus() { return graph::gen::grid2d(5, 7, true); }
Graph b_tree() { return graph::gen::random_tree(60, 3); }
Graph b_path() { return graph::gen::path(30); }
Graph b_cycle() { return graph::gen::cycle(24); }
Graph b_complete() { return graph::gen::complete(9); }
Graph b_disconnected() {
  return graph::gen::disjoint_union(graph::gen::barbell(4),
                                    graph::gen::cycle(5));
}
Graph b_star() { return graph::gen::star(25); }

class BcFamilies : public ::testing::TestWithParam<BcFamily> {};

TEST_P(BcFamilies, MatchesGroundTruth) {
  const Graph g = GetParam().make();
  check_against_ground_truth(g, BcLabeling::build(g));
}

TEST_P(BcFamilies, ParallelCcModeMatchesToo) {
  const Graph g = GetParam().make();
  biconn::BcOptions opt;
  opt.parallel_cc = true;
  opt.beta = 0.25;
  check_against_ground_truth(g, BcLabeling::build(g, opt));
}

INSTANTIATE_TEST_SUITE_P(
    Families, BcFamilies,
    ::testing::Values(BcFamily{"cactus", b_cactus},
                      BcFamily{"barbell", b_barbell},
                      BcFamily{"grid", b_grid}, BcFamily{"torus", b_torus},
                      BcFamily{"tree", b_tree}, BcFamily{"path", b_path},
                      BcFamily{"cycle", b_cycle},
                      BcFamily{"complete", b_complete},
                      BcFamily{"disconnected", b_disconnected},
                      BcFamily{"star", b_star}),
    [](const auto& info) { return std::string(info.param.name); });

// Random multigraph property sweep (parallel edges + self-loops).
class BcRandom : public ::testing::TestWithParam<int> {};

TEST_P(BcRandom, MatchesGroundTruth) {
  parallel::Rng rng(GetParam() * 7 + 1);
  const std::size_t n = 5 + rng.next_int(20);
  const std::size_t m = rng.next_int(3 * n);
  graph::EdgeList edges;
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({vertex_id(rng.next_int(n)), vertex_id(rng.next_int(n))});
  }
  const Graph g = Graph::from_edges(n, edges);
  check_against_ground_truth(g, BcLabeling::build(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcRandom, ::testing::Range(0, 40));

TEST(BcLabeling, OutputIsLinearInVerticesNotEdges) {
  // Lemma 5.1 / Theorem 5.2: O(n + m/omega) writes for construction; the
  // classic output costs Theta(m) more writes.
  const Graph g = graph::gen::erdos_renyi(300, 20000, 3);
  amem::reset();
  const auto bc = BcLabeling::build(g);
  const auto ours = amem::snapshot();
  amem::reset();
  const auto classic = biconn::tarjan_vishkin(g);
  const auto theirs = amem::snapshot();
  EXPECT_GE(theirs.writes, g.num_edges());
  EXPECT_LE(ours.writes, 20 * g.num_vertices());
  EXPECT_LT(ours.writes, theirs.writes / 2);
  (void)bc;
  (void)classic;
}

TEST(BcLabeling, QueriesDoNotWrite) {
  const Graph g = graph::gen::cactus_chain(4, 5);
  const auto bc = BcLabeling::build(g);
  amem::Phase p;
  (void)bc.is_articulation(3);
  (void)bc.is_bridge(g, 0, 1);
  (void)bc.same_bcc(0, 2);
  (void)bc.two_edge_connected(0, 2);
  (void)bc.edge_label(0, 1);
  EXPECT_EQ(p.delta().writes, 0u);
}

TEST(BcLabeling, ClassicOutputMatchesBcLabelingPartition) {
  const Graph g = graph::gen::cactus_chain(3, 4);
  const auto classic = biconn::tarjan_vishkin(g);
  const auto lg = to_local(g);
  const auto truth = primitives::biconnectivity(lg);
  std::map<std::uint32_t, std::uint32_t> fa, fb;
  const auto edges = g.edge_list();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto ia =
        fa.emplace(classic.edge_labels[i], fa.size()).first->second;
    const auto ib = fb.emplace(truth.edge_bcc[i], fb.size()).first->second;
    EXPECT_EQ(ia, ib);
  }
  EXPECT_EQ(classic.num_bcc, truth.num_bcc);
}

TEST(BcLabeling, BlockCutTreeOfBarbell) {
  const Graph g = graph::gen::barbell(5);  // clique-bridge-clique
  const auto bc = BcLabeling::build(g);
  const auto t = bc.block_cut_tree();
  EXPECT_EQ(t.num_blocks, 3u);
  ASSERT_EQ(t.artics.size(), 2u);  // the bridge endpoints
  EXPECT_EQ(t.artics[0], 4u);
  EXPECT_EQ(t.artics[1], 5u);
  // Tree: clique1 - a4 - bridge - a5 - clique2 => 4 edges.
  EXPECT_EQ(t.edges.size(), 4u);
}

TEST(BcLabeling, BlockCutTreeIsAcyclicAndSpans) {
  const Graph g = graph::gen::cactus_chain(6, 4);
  const auto bc = BcLabeling::build(g);
  const auto t = bc.block_cut_tree();
  // #nodes = blocks + artics; acyclic connected per component.
  EXPECT_EQ(t.edges.size() + 1, t.num_blocks + t.artics.size());
}


TEST(BcLabeling, BridgeBlockTreeOfCactusPlusPath) {
  // cactus (no bridges, one 2ec comp... actually chain of cycles = one
  // 2ec component) joined by paths: path edges are bridges.
  Graph g = graph::gen::disjoint_union(graph::gen::cycle(5),
                                       graph::gen::cycle(4));
  graph::EdgeList e = g.edge_list();
  e.push_back({2, 7});  // bridge joining the two cycles
  g = Graph::from_edges(g.num_vertices(), e);
  const auto bc = BcLabeling::build(g);
  const auto t = bc.bridge_block_tree();
  EXPECT_EQ(t.num_components, 2u);
  ASSERT_EQ(t.edges.size(), 1u);
  EXPECT_NE(t.edges[0].first, t.edges[0].second);
  EXPECT_EQ(t.comp_of[0], t.comp_of[4]);
  EXPECT_NE(t.comp_of[0], t.comp_of[7]);
}

TEST(BcLabeling, BridgeBlockTreeIsAForest) {
  const Graph g = graph::gen::disjoint_union(graph::gen::barbell(4),
                                             graph::gen::path(6));
  const auto bc = BcLabeling::build(g);
  const auto t = bc.bridge_block_tree();
  // #edges = #components(tecc) - #connected components.
  std::set<std::uint32_t> ccs;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ccs.insert(bc.tecc_label(v) * 0 + t.comp_of[v]);
  }
  // barbell: 3 tecc comps (clique, clique, none across bridge) joined by 1
  // bridge... cliques are the 2ec comps, bridge is the edge; path of 6: 6
  // singleton comps, 5 bridges. Total comps 2+6 = 8, edges 1+5 = 6,
  // connected components 2: 8 - 2 = 6 ✓ forest.
  EXPECT_EQ(t.edges.size(), t.num_components - 2);
}

TEST(BcLabeling, TeccLabelMatchesTwoEdgeConnected) {
  const Graph g = graph::gen::cactus_chain(3, 5);
  const auto bc = BcLabeling::build(g);
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(bc.tecc_label(u) == bc.tecc_label(v),
                bc.two_edge_connected(u, v));
    }
  }
}

}  // namespace
