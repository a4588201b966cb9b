// Unit tests for BFS, union-find and tree arrays (Euler tour, leaffix,
// rootfix). The LCA / level-ancestor index has its own blocked_lca_test.
#include <gtest/gtest.h>

#include "amem/counters.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "primitives/euler_tour.hpp"
#include "primitives/union_find.hpp"
#include "test_util.hpp"

namespace {

using namespace wecc;
using graph::Graph;
using graph::kNoVertex;
using graph::vertex_id;

TEST(UnionFind, BasicUnionAndFind) {
  primitives::UnionFind uf(5);
  EXPECT_FALSE(uf.connected(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.connected(0, 1));
  uf.unite(2, 3);
  uf.unite(1, 3);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 4));
}

TEST(UnionFind, RootsAreMinimalIds) {
  primitives::UnionFind uf(6);
  uf.unite(5, 3);
  uf.unite(3, 4);
  EXPECT_EQ(uf.find(5), 3u);
  EXPECT_EQ(uf.find(4), 3u);
}

TEST(UnionFind, InitializationChargesNWrites) {
  amem::reset();
  primitives::UnionFind uf(100);
  EXPECT_EQ(amem::snapshot().writes, 100u);
}

TEST(BfsForest, CoversAllVerticesWithValidParents) {
  const Graph g = graph::gen::grid2d(6, 7);
  const auto f = primitives::bfs_forest(g);
  EXPECT_EQ(f.order.size(), g.num_vertices());
  EXPECT_EQ(f.num_roots, 1u);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    const vertex_id p = f.parent.raw()[v];
    ASSERT_NE(p, kNoVertex);
    if (p != v) {
      const auto nb = g.neighbors_raw(v);
      EXPECT_TRUE(std::binary_search(nb.begin(), nb.end(), p));
    }
  }
}

TEST(BfsForest, OneRootPerComponent) {
  const Graph g = graph::gen::disjoint_union(graph::gen::cycle(4),
                                             graph::gen::path(3));
  const auto f = primitives::bfs_forest(g);
  EXPECT_EQ(f.num_roots, 2u);
}

TEST(BfsForest, LexicographicOrderPrefersSmallIds) {
  // Diamond: 0-1, 0-2, 1-3, 2-3. From 0 the BFS must visit 1 before 2 and
  // parent 3 from 1 (the higher-priority equal-length path).
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto f = primitives::bfs_forest(g, 0);
  EXPECT_EQ(f.order[1], 1u);
  EXPECT_EQ(f.order[2], 2u);
  EXPECT_EQ(f.parent.raw()[3], 1u);
}

TEST(BfsForest, WritesLinearInVerticesNotEdges) {
  const Graph g = graph::gen::erdos_renyi(200, 4000, 3);
  amem::reset();
  const auto f = primitives::bfs_forest(g);
  const auto s = amem::snapshot();
  EXPECT_LE(s.writes, 3 * g.num_vertices());
  EXPECT_GE(s.reads, 2 * g.num_edges());
  (void)f;
}

TEST(ParallelBfsTree, ClaimsWholeComponentOnce) {
  const Graph g = graph::gen::grid2d(20, 20);
  amem::asym_array<vertex_id> claimed(g.num_vertices(), kNoVertex);
  const std::size_t got = primitives::parallel_bfs_tree(g, 0, claimed);
  EXPECT_EQ(got, g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NE(claimed.raw()[v], kNoVertex);
  }
}

TEST(ParallelBfsTree, WritesOncePerClaimedVertex) {
  const Graph g = graph::gen::erdos_renyi(300, 3000, 9);
  amem::asym_array<vertex_id> claimed(g.num_vertices(), kNoVertex);
  amem::reset();
  const std::size_t got = primitives::parallel_bfs_tree(g, 0, claimed);
  EXPECT_LE(amem::snapshot().writes, got);
}

TEST(TreeArrays, EulerIntervalsNestCorrectly) {
  // Star of depth 1 plus a path: parent array built by a BFS forest.
  const Graph g = graph::gen::binary_tree(15);
  const auto f = primitives::bfs_forest(g, 0);
  const auto t = primitives::build_tree_arrays(f.parent.raw());
  for (vertex_id v = 0; v < 15; ++v) {
    const vertex_id p = t.parent[v];
    if (p != v) {
      EXPECT_TRUE(t.is_ancestor(p, v));
      EXPECT_FALSE(t.is_ancestor(v, p));
      EXPECT_EQ(t.depth[v], t.depth[p] + 1);
    }
  }
  // Siblings have disjoint intervals.
  EXPECT_FALSE(t.is_ancestor(1, 2));
  EXPECT_FALSE(t.is_ancestor(2, 1));
}

TEST(TreeArrays, PreorderIsConsistentWithFirst) {
  const Graph g = graph::gen::random_tree(40, 5);
  const auto f = primitives::bfs_forest(g);
  const auto t = primitives::build_tree_arrays(f.parent.raw());
  for (std::size_t i = 0; i < t.preorder.size(); ++i) {
    EXPECT_EQ(t.first[t.preorder[i]], i);
  }
}

TEST(Leaffix, ComputesSubtreeSizes) {
  const Graph g = graph::gen::binary_tree(7);
  const auto f = primitives::bfs_forest(g, 0);
  const auto t = primitives::build_tree_arrays(f.parent.raw());
  const auto size = primitives::leaffix<int>(
      t, [](vertex_id) { return 1; }, [](int a, int b) { return a + b; });
  EXPECT_EQ(size[0], 7);
  EXPECT_EQ(size[1], 3);
  EXPECT_EQ(size[2], 3);
  EXPECT_EQ(size[3], 1);
}

TEST(Rootfix, ComputesDepths) {
  const Graph g = graph::gen::binary_tree(15);
  const auto f = primitives::bfs_forest(g, 0);
  const auto t = primitives::build_tree_arrays(f.parent.raw());
  const auto depth = primitives::rootfix<int>(
      t, [](vertex_id) { return 0; },
      [](int pd, vertex_id) { return pd + 1; });
  for (vertex_id v = 0; v < 15; ++v) {
    EXPECT_EQ(depth[v], int(t.depth[v]));
  }
}

}  // namespace
