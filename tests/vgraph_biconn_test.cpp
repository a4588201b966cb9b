// §6 biconnectivity through the virtualization, tested against the exact
// contract (see vgraph_biconn.hpp):
//   EXACT: bridges, 2-edge-connectivity.
//   ONE-SIDED: pair biconnectivity (false certifies "not biconnected"),
//   articulation (true certifies "is articulation"), and edge labels
//   coarsen but never split the ground-truth block partition.
// Plus a concrete witness that the coarsening is real — i.e. the naive
// "<=>" reading of §6 would be wrong — so the contract is tight.
#include <gtest/gtest.h>

#include <map>

#include "biconn/vgraph_biconn.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "primitives/small_biconn.hpp"

namespace {

using namespace wecc;
using biconn::VGraphBiconnectivity;
using graph::Graph;
using graph::VGraph;
using graph::vertex_id;

primitives::LocalGraph to_local(const Graph& g) {
  primitives::LocalGraph lg(g.num_vertices());
  for (const auto& e : g.edge_list()) lg.add_edge(e.u, e.v);
  lg.build();
  return lg;
}

void check_contract(const Graph& g, std::size_t leaf_width,
                    const std::string& tag) {
  const VGraph vg(g, leaf_width);
  const VGraphBiconnectivity vb(g, vg);
  const auto lg = to_local(g);
  const auto truth = primitives::biconnectivity(lg);
  const std::size_t n = g.num_vertices();

  // One-sided articulation: a positive answer must be true in G.
  for (vertex_id v = 0; v < n; ++v) {
    if (vb.is_articulation(g, v)) {
      ASSERT_TRUE(truth.is_artic[v]) << tag << " artic fp " << v;
    }
  }
  // One-sided pair biconnectivity: negative certifies, positive implies
  // ground truth only in the no-false-negative direction.
  for (vertex_id u = 0; u < n; ++u) {
    for (vertex_id v = u + 1; v < n; ++v) {
      if (truth.same_bcc(lg, u, v)) {
        ASSERT_TRUE(vb.same_bcc(g, u, v))
            << tag << " false negative " << u << "," << v;
      }
      // Exact: 2-edge-connectivity.
      ASSERT_EQ(vb.two_edge_connected(u, v),
                truth.cc_label[u] == truth.cc_label[v] &&
                    truth.two_edge_connected(u, v))
          << tag << " 2ec " << u << "," << v;
    }
  }
  // Exact: bridges. Coarsening: truth-equal edge labels stay equal.
  std::map<std::uint32_t, std::uint32_t> truth_to_image;
  const auto edges = g.edge_list();
  std::map<std::pair<vertex_id, vertex_id>, std::size_t> inst_seen;
  std::uint32_t bridges_truth = 0, bridges_got = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = std::pair(edges[i].u, edges[i].v);
    if (u == v) continue;
    const auto nb = g.neighbors_raw(u);
    const std::size_t base =
        std::lower_bound(nb.begin(), nb.end(), v) - nb.begin();
    const std::size_t pos = base + inst_seen[{u, v}]++;
    bridges_truth += truth.is_bridge[i];
    bridges_got += vb.is_bridge(g, u, pos);
    ASSERT_EQ(vb.is_bridge(g, u, pos), bool(truth.is_bridge[i]))
        << tag << " bridge " << u << "-" << v;
    const auto img = vb.edge_label(u, pos);
    const auto [it, fresh] =
        truth_to_image.emplace(truth.edge_bcc[i], img);
    if (!fresh) {
      ASSERT_EQ(it->second, img)
          << tag << " block split at " << u << "-" << v;
    }
  }
  EXPECT_EQ(bridges_got, bridges_truth) << tag;
}

TEST(VGraphBiconn, StarPlusRing) {
  graph::EdgeList e;
  for (vertex_id i = 1; i <= 20; ++i) e.push_back({0, i});
  for (vertex_id i = 1; i <= 8; ++i) e.push_back({i, vertex_id(i % 8 + 1)});
  check_contract(Graph::from_edges(21, e), 4, "star+ring");
}

TEST(VGraphBiconn, CompleteGraph) {
  check_contract(graph::gen::complete(12), 4, "K12");
}

TEST(VGraphBiconn, TwoHubsBridged) {
  graph::EdgeList e;
  for (vertex_id i = 1; i <= 10; ++i) e.push_back({0, i});
  for (vertex_id i = 12; i <= 21; ++i) e.push_back({11, i});
  e.push_back({0, 11});
  check_contract(Graph::from_edges(22, e), 4, "two-hubs");
}

TEST(VGraphBiconn, ParallelEdgesBetweenHubs) {
  graph::EdgeList e;
  for (vertex_id i = 1; i <= 10; ++i) e.push_back({0, i});
  for (vertex_id i = 12; i <= 21; ++i) e.push_back({11, i});
  e.push_back({0, 11});
  e.push_back({0, 11});
  check_contract(Graph::from_edges(22, e), 4, "parallel-hubs");
}

class VGraphBiconnRandom : public ::testing::TestWithParam<int> {};

TEST_P(VGraphBiconnRandom, PowerLawContractHolds) {
  parallel::Rng rng(GetParam() * 17 + 3);
  const std::size_t n = 10 + rng.next_int(20);
  const Graph g = graph::gen::preferential_attachment(
      n, 1 + rng.next_int(3), rng.next());
  for (const std::size_t width : {2u, 4u}) {
    check_contract(g, width, "pa seed=" + std::to_string(GetParam()) +
                                 " w=" + std::to_string(width));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VGraphBiconnRandom, ::testing::Range(0, 15));

TEST(VGraphBiconn, CoarseningWitness) {
  // Two triangles through hub 0 whose arcs interleave across the hub's
  // leaf boundary (block A touches neighbors {1,3}, block B {2,4}; with
  // leaf width 2 the leaves are (1,2) and (3,4)). Both blocks' lifted
  // cycles then traverse the same virtual tree path between the two
  // leaves, so the image blocks merge — the documented reason pair queries
  // are one-sided. This pins the contract as tight, not pessimistic.
  graph::EdgeList e = {{0, 1}, {1, 3}, {3, 0}, {0, 2}, {2, 4},
                       {4, 0}, {0, 5}, {0, 6}};
  const Graph g = Graph::from_edges(7, e);
  const VGraph vg(g, 2);
  const VGraphBiconnectivity vb(g, vg);
  const auto lg = to_local(g);
  const auto truth = primitives::biconnectivity(lg);
  ASSERT_TRUE(truth.is_artic[0]);
  ASSERT_FALSE(truth.same_bcc(lg, 1, 2));
  // The transform still certifies in the sound directions...
  EXPECT_FALSE(vb.two_edge_connected(1, 5));
  EXPECT_EQ(vb.two_edge_connected(1, 2), truth.two_edge_connected(1, 2));
  // ...and this instance demonstrates the known coarsening (if a future
  // construction fixes it, strengthen the contract and this test).
  EXPECT_TRUE(vb.same_bcc(g, 1, 2))
      << "coarsening disappeared: tighten the §6 contract!";
}

}  // namespace
