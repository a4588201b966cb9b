// Unit + property tests for the Hopcroft–Tarjan engine (the ground-truth
// biconnectivity solver and the §5.3 local-graph workhorse).
#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "primitives/small_biconn.hpp"

namespace {

using namespace wecc;
using primitives::BiconnResult;
using primitives::LocalGraph;

LocalGraph from_graph(const graph::Graph& g) {
  LocalGraph lg(g.num_vertices());
  for (const auto& e : g.edge_list()) lg.add_edge(e.u, e.v);
  lg.build();
  return lg;
}

/// Brute-force articulation check: does removing v increase the number of
/// reachable-pairs components among the remaining vertices of v's comp?
bool brute_is_artic(const LocalGraph& g, std::uint32_t v) {
  const std::size_t n = g.num_vertices();
  auto comps = [&](std::uint32_t skip) {
    std::vector<int> label(n, -1);
    int c = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      if (r == skip || label[r] != -1) continue;
      std::vector<std::uint32_t> st{r};
      label[r] = c;
      while (!st.empty()) {
        const auto u = st.back();
        st.pop_back();
        for (const auto& [w, e] : g.arcs(u)) {
          if (w != skip && label[w] == -1) {
            label[w] = c;
            st.push_back(w);
          }
        }
      }
      ++c;
    }
    return c;
  };
  // Removing v splits its component into `parts` pieces, so the count over
  // the remaining vertices is (c - 1) + parts; v is an articulation point
  // iff parts >= 2, i.e. iff the count strictly exceeds c.
  return comps(v) > comps(~0u);
}

/// Brute-force bridge check: removing edge e disconnects its endpoints.
bool brute_is_bridge(const LocalGraph& g, std::uint32_t eid) {
  const auto [a, b] = g.edges[eid];
  if (a == b) return false;
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<std::uint32_t> st{a};
  seen[a] = 1;
  while (!st.empty()) {
    const auto u = st.back();
    st.pop_back();
    for (const auto& [w, e] : g.arcs(u)) {
      if (e == eid || seen[w]) continue;
      seen[w] = 1;
      st.push_back(w);
    }
  }
  return !seen[b];
}

TEST(SmallBiconn, TriangleIsOneBlockNoArtic) {
  LocalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.num_bcc, 1u);
  for (int v = 0; v < 3; ++v) EXPECT_FALSE(r.is_artic[v]);
  for (int e = 0; e < 3; ++e) EXPECT_FALSE(r.is_bridge[e]);
  EXPECT_EQ(r.edge_bcc[0], r.edge_bcc[1]);
  EXPECT_EQ(r.edge_bcc[1], r.edge_bcc[2]);
}

TEST(SmallBiconn, PathIsAllBridges) {
  LocalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.num_bcc, 3u);
  EXPECT_TRUE(r.is_bridge[0] && r.is_bridge[1] && r.is_bridge[2]);
  EXPECT_FALSE(r.is_artic[0]);
  EXPECT_TRUE(r.is_artic[1] && r.is_artic[2]);
  EXPECT_FALSE(r.is_artic[3]);
  EXPECT_NE(r.edge_bcc[0], r.edge_bcc[1]);
}

TEST(SmallBiconn, ParallelEdgeIsNotABridge) {
  LocalGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_FALSE(r.is_bridge[0]);
  EXPECT_FALSE(r.is_bridge[1]);
  EXPECT_EQ(r.edge_bcc[0], r.edge_bcc[1]);
  EXPECT_EQ(r.num_bcc, 1u);
}

TEST(SmallBiconn, SelfLoopIsIgnored) {
  LocalGraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.edge_bcc[0], BiconnResult::kNone);
  EXPECT_TRUE(r.is_bridge[1]);
  EXPECT_FALSE(r.is_artic[0]);
}

TEST(SmallBiconn, BarbellArticulationAndBridge) {
  const auto g = from_graph(graph::gen::barbell(4));
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.num_bcc, 3u);  // two cliques + the bridge
  int bridges = 0, artics = 0;
  for (std::size_t e = 0; e < g.num_edges(); ++e) bridges += r.is_bridge[e];
  for (std::size_t v = 0; v < g.num_vertices(); ++v) artics += r.is_artic[v];
  EXPECT_EQ(bridges, 1);
  EXPECT_EQ(artics, 2);  // the two clique endpoints of the bridge
}

TEST(SmallBiconn, CactusChainBlocksAreCycles) {
  const auto g = from_graph(graph::gen::cactus_chain(4, 5));
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.num_bcc, 4u);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_FALSE(r.is_bridge[e]);
  }
  int artics = 0;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) artics += r.is_artic[v];
  EXPECT_EQ(artics, 3);  // the shared vertices
}

TEST(SmallBiconn, DisconnectedGraphsHandled) {
  LocalGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.num_cc, 3u);  // {0,1}, {2,3}, {4}
  EXPECT_NE(r.cc_label[0], r.cc_label[2]);
  EXPECT_NE(r.cc_label[2], r.cc_label[4]);
}

TEST(SmallBiconn, TwoEdgeConnectedLabels) {
  const auto g = from_graph(graph::gen::barbell(3));
  const auto r = biconnectivity(g);
  EXPECT_EQ(r.tecc_label[0], r.tecc_label[1]);
  EXPECT_EQ(r.tecc_label[0], r.tecc_label[2]);
  EXPECT_NE(r.tecc_label[2], r.tecc_label[3]);  // across the bridge
  EXPECT_TRUE(r.two_edge_connected(0, 2));
  EXPECT_FALSE(r.two_edge_connected(0, 5));
}

TEST(SmallBiconn, SameBccQueries) {
  // Two triangles sharing vertex 2.
  LocalGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_TRUE(r.same_bcc(g, 0, 1));
  EXPECT_TRUE(r.same_bcc(g, 0, 2));
  EXPECT_TRUE(r.same_bcc(g, 3, 2));
  EXPECT_FALSE(r.same_bcc(g, 0, 3));
  EXPECT_TRUE(r.is_artic[2]);
}

TEST(SmallBiconn, VertexInBlock) {
  LocalGraph g(4);
  const auto e01 = g.add_edge(0, 1);
  const auto e12 = g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.build();
  const auto r = biconnectivity(g);
  EXPECT_TRUE(r.vertex_in_block(g, 0, e01));
  EXPECT_TRUE(r.vertex_in_block(g, 1, e01));
  EXPECT_FALSE(r.vertex_in_block(g, 2, e01));
  EXPECT_TRUE(r.vertex_in_block(g, 1, e12));
}

// Property sweep: articulation points and bridges match brute force on many
// random multigraphs (parallel edges and self-loops included).
class SmallBiconnProperty : public ::testing::TestWithParam<int> {};

TEST_P(SmallBiconnProperty, MatchesBruteForce) {
  parallel::Rng rng(GetParam());
  const std::size_t n = 4 + rng.next_int(12);
  const std::size_t m = rng.next_int(2 * n + 4);
  LocalGraph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    g.add_edge(std::uint32_t(rng.next_int(n)),
               std::uint32_t(rng.next_int(n)));  // self-loops possible
  }
  g.build();
  const auto r = biconnectivity(g);
  for (std::uint32_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(bool(r.is_bridge[e]), brute_is_bridge(g, e))
        << "edge " << e << " seed " << GetParam();
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    EXPECT_EQ(bool(r.is_artic[v]), brute_is_artic(g, v))
        << "vertex " << v << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMultigraphs, SmallBiconnProperty,
                         ::testing::Range(0, 60));

}  // namespace
