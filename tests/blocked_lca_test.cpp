// Direct tests for the write-lean blocked LCA / level-ancestor index:
// equivalence with parent-walking reference answers on many random trees,
// the O(n)-write construction bound, and CenterSet (the decomposition's
// stored state) unit + concurrency tests.
#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <utility>

#include "amem/counters.hpp"
#include "decomp/center_set.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "primitives/blocked_lca.hpp"

namespace {

using namespace wecc;
using graph::Graph;
using graph::vertex_id;

primitives::TreeArrays arrays_of(const Graph& g) {
  const auto f = primitives::bfs_forest(g);
  return primitives::build_tree_arrays(f.parent.raw());
}

/// Reference answers by walking parent pointers, O(depth) per query.
struct WalkingLca {
  const primitives::TreeArrays& t;

  [[nodiscard]] vertex_id lca(vertex_id u, vertex_id v) const {
    while (u != v) {
      if (t.depth[u] < t.depth[v]) std::swap(u, v);
      u = t.parent[u];
    }
    return u;
  }
  [[nodiscard]] vertex_id ancestor_at_depth(vertex_id v,
                                            std::uint32_t d) const {
    while (t.depth[v] > d) v = t.parent[v];
    return v;
  }
};

class BlockedLcaRandom : public ::testing::TestWithParam<int> {};

TEST_P(BlockedLcaRandom, MatchesReferenceEverywhere) {
  const Graph g = graph::gen::random_tree(150, GetParam() * 31 + 5);
  const auto t = arrays_of(g);
  const WalkingLca ref{t};
  const primitives::BlockedLca blk(t);
  for (vertex_id u = 0; u < 150; u += 2) {
    for (vertex_id v = 1; v < 150; v += 3) {
      ASSERT_EQ(blk.lca(u, v), ref.lca(u, v)) << u << "," << v;
    }
  }
  for (vertex_id v = 0; v < 150; v += 5) {
    for (std::uint32_t d = 0; d <= t.depth[v]; ++d) {
      ASSERT_EQ(blk.ancestor_at_depth(v, d), ref.ancestor_at_depth(v, d))
          << v << " @ " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockedLcaRandom, ::testing::Range(0, 12));

TEST(BlockedLca, DeepPathAndWideStar) {
  for (const Graph& g : {graph::gen::path(600), graph::gen::star(600)}) {
    const auto t = arrays_of(g);
    const WalkingLca ref{t};
    const primitives::BlockedLca blk(t);
    for (vertex_id u = 0; u < 600; u += 37) {
      for (vertex_id v = 0; v < 600; v += 41) {
        ASSERT_EQ(blk.lca(u, v), ref.lca(u, v));
      }
    }
    ASSERT_EQ(blk.ancestor_at_depth(vertex_id(599), 0), 0u);
  }
}

TEST(BlockedLca, WorksOnForests) {
  const Graph g = graph::gen::disjoint_union(graph::gen::binary_tree(31),
                                             graph::gen::path(20));
  const auto t = arrays_of(g);
  const primitives::BlockedLca blk(t);
  EXPECT_EQ(blk.lca(1, 2), 0u);
  EXPECT_EQ(blk.lca(33, 50), 33u);  // ancestor on a rooted path
  EXPECT_EQ(blk.ancestor_at_depth(50, 3), 34u);
}

TEST(BlockedLca, ConstructionWritesLinearNotNLogN) {
  const Graph g = graph::gen::random_tree(20000, 3);
  const auto t = arrays_of(g);
  amem::reset();
  const primitives::BlockedLca blk(t);
  const auto blocked_writes = amem::snapshot().writes;
  // A sparse table over the Euler tour writes more than n log2 n words.
  const std::size_t n = g.num_vertices();
  const std::size_t n_log_n = n * std::size_t(std::bit_width(n) - 1);
  EXPECT_LE(blocked_writes, 6 * n);
  EXPECT_LT(blocked_writes, n_log_n / 2)
      << "blocked index must beat the n log n sparse table";
  (void)blk;
}

TEST(CenterSet, InsertContainsAndLabels) {
  decomp::CenterSet s(100);
  EXPECT_FALSE(s.contains(5));
  s.insert(5, true);
  s.insert(9, false);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.is_primary(5));
  EXPECT_TRUE(s.contains(9));
  EXPECT_FALSE(s.is_primary(9));
  EXPECT_FALSE(s.contains(6));
  EXPECT_EQ(s.size(), 2u);
}

TEST(CenterSet, InsertIsIdempotent) {
  decomp::CenterSet s(10);
  s.insert(3, true);
  s.insert(3, true);
  s.insert(3, false);  // label bit is fixed by the first insert
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.is_primary(3));
}

TEST(CenterSet, SortedEnumeration) {
  decomp::CenterSet s(50);
  for (const vertex_id v : {41u, 3u, 17u, 8u}) s.insert(v, v % 2 == 0);
  EXPECT_EQ(s.to_sorted_vector(),
            (std::vector<vertex_id>{3, 8, 17, 41}));
}

TEST(CenterSet, InsertChargesOneWriteProbesChargeReads) {
  decomp::CenterSet s(1000);
  amem::Phase p;
  s.insert(123, true);
  EXPECT_EQ(p.delta().writes, 1u);
  amem::Phase q;
  (void)s.contains(123);
  (void)s.contains(777);
  EXPECT_EQ(q.delta().writes, 0u);
  EXPECT_GE(q.delta().reads, 2u);
}

TEST(CenterSet, ConcurrentInsertsAreExact) {
  decomp::CenterSet s(10000);
  constexpr int kThreads = 8, kPer = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&s, t] {
      for (int i = 0; i < kPer; ++i) {
        // Overlapping ranges: every value inserted by two threads.
        s.insert(vertex_id((t / 2) * kPer + i), (t % 3) == 0);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(s.size(), std::size_t(kThreads / 2) * kPer);
  for (vertex_id v = 0; v < vertex_id(kThreads / 2) * kPer; ++v) {
    ASSERT_TRUE(s.contains(v)) << v;
  }
}

}  // namespace
