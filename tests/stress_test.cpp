// Scale and adversarial-input tests: larger instances than the unit suites
// (sampled ground-truth checks keep them fast), degenerate shapes, and
// failure-injection-style inputs that target specific machinery.
#include <gtest/gtest.h>

#include <map>

#include "amem/counters.hpp"
#include "biconn/bc_labeling.hpp"
#include "biconn/biconn_oracle.hpp"
#include "connectivity/cc_oracle.hpp"
#include "connectivity/we_cc.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using namespace wecc;
using graph::Graph;
using graph::vertex_id;

TEST(Stress, ConnectivityAtHundredThousandVertices) {
  // 100k-vertex torus + sampled percolation: the oracle must stay correct
  // and sublinear at a size where constants can no longer hide.
  const Graph g = graph::gen::percolation_grid(320, 320, 0.55, 9);
  const auto truth = testutil::brute_cc(g);
  connectivity::CcOracleOptions opt;
  opt.k = 12;
  amem::reset();
  const auto o = connectivity::ConnectivityOracle<Graph>::build(g, opt);
  const auto cost = amem::snapshot();
  EXPECT_LT(cost.writes, g.num_vertices());
  // Sampled pair checks against brute force.
  for (vertex_id i = 0; i < 4000; ++i) {
    const auto u = vertex_id((i * 2654435761u) % g.num_vertices());
    const auto v = vertex_id((i * 40503u + 17) % g.num_vertices());
    ASSERT_EQ(o.connected(u, v), truth[u] == truth[v]) << u << "," << v;
  }
}

TEST(Stress, BiconnectivityOnLargeCactus) {
  // 4k-vertex cactus: every block is a cycle, articulation points abound.
  const Graph g = graph::gen::cactus_chain(500, 9);
  biconn::BiconnOracleOptions opt;
  opt.k = 9;
  opt.threads = parallel::num_threads();
  const auto o = biconn::BiconnectivityOracle<Graph>::build(g, opt);
  const auto bc = biconn::BcLabeling::build(g);
  for (vertex_id i = 0; i < 1500; ++i) {
    const auto u = vertex_id((i * 2654435761u) % g.num_vertices());
    const auto v = vertex_id((i * 40503u + 29) % g.num_vertices());
    ASSERT_EQ(o.biconnected(u, v), bc.same_bcc(u, v)) << u << "," << v;
    ASSERT_EQ(o.two_edge_connected(u, v), bc.two_edge_connected(u, v));
  }
  for (vertex_id v = 0; v < g.num_vertices(); v += 7) {
    ASSERT_EQ(o.is_articulation(v), bc.is_articulation(v)) << v;
  }
}

TEST(Stress, PathGraphWorstCaseForClusterTrees) {
  // Paths maximize cluster-tree depth: every middle-cluster certificate
  // (up_ok prefix counts + level ancestors) is on the hot path.
  const Graph g = graph::gen::path(5000);
  biconn::BiconnOracleOptions opt;
  opt.k = 10;
  const auto o = biconn::BiconnectivityOracle<Graph>::build(g, opt);
  // On a path: only adjacent endpoints share a (bridge) block, every
  // interior vertex is an articulation point, every edge a bridge.
  EXPECT_FALSE(o.biconnected(0, 4999));
  EXPECT_TRUE(o.biconnected(1200, 1201));  // endpoints of a bridge block
  EXPECT_FALSE(o.biconnected(1200, 1202));
  EXPECT_FALSE(o.two_edge_connected(10, 4000));
  EXPECT_TRUE(o.is_bridge(2500, 2501));
  EXPECT_TRUE(o.is_articulation(2500));
  EXPECT_FALSE(o.is_articulation(0));
  EXPECT_FALSE(o.is_articulation(4999));
}

TEST(Stress, LongCycleIsOneBlock) {
  const Graph g = graph::gen::cycle(5000);
  biconn::BiconnOracleOptions opt;
  opt.k = 10;
  const auto o = biconn::BiconnectivityOracle<Graph>::build(g, opt);
  EXPECT_TRUE(o.biconnected(0, 2500));
  EXPECT_TRUE(o.two_edge_connected(17, 4711));
  EXPECT_FALSE(o.is_articulation(123));
  EXPECT_FALSE(o.is_bridge(0, 1));
  const auto a = o.edge_bcc(0, 1), b = o.edge_bcc(2500, 2501);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(*a == *b);
}

TEST(Stress, ManyTinyComponents) {
  // 1000 disjoint triangles: the virtual-component machinery everywhere.
  graph::EdgeList e;
  for (vertex_id t = 0; t < 1000; ++t) {
    const vertex_id b = t * 3;
    e.push_back({b, vertex_id(b + 1)});
    e.push_back({vertex_id(b + 1), vertex_id(b + 2)});
    e.push_back({vertex_id(b + 2), b});
  }
  const Graph g = Graph::from_edges(3000, e);
  connectivity::CcOracleOptions copt;
  copt.k = 8;
  const auto co = connectivity::ConnectivityOracle<Graph>::build(g, copt);
  biconn::BiconnOracleOptions bopt;
  bopt.k = 8;
  const auto bo = biconn::BiconnectivityOracle<Graph>::build(g, bopt);
  for (vertex_id t = 0; t < 1000; t += 13) {
    const vertex_id b = t * 3;
    EXPECT_TRUE(co.connected(b, vertex_id(b + 2)));
    if (t + 1 < 1000) {
      EXPECT_FALSE(co.connected(b, vertex_id(b + 3)));
    }
    EXPECT_TRUE(bo.biconnected(b, vertex_id(b + 1)));
    EXPECT_FALSE(bo.is_articulation(b));
    EXPECT_FALSE(bo.is_bridge(b, vertex_id(b + 1)));
  }
}

TEST(Stress, AdversarialSeedSweepOnFigure2) {
  // Tiny graph, many decomposition seeds: every center placement gets hit,
  // including centers on articulation points and heads.
  const Graph g = graph::gen::figure2_graph();
  const auto bc = biconn::BcLabeling::build(g);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    biconn::BiconnOracleOptions opt;
    opt.k = 2 + seed % 5;
    opt.seed = seed;
    const auto o = biconn::BiconnectivityOracle<Graph>::build(g, opt);
    for (vertex_id u = 0; u < 9; ++u) {
      ASSERT_EQ(o.is_articulation(u), bc.is_articulation(u))
          << "seed " << seed << " v " << u;
      for (vertex_id v = u + 1; v < 9; ++v) {
        ASSERT_EQ(o.biconnected(u, v), bc.same_bcc(u, v))
            << "seed " << seed << " " << u << "," << v;
      }
    }
  }
}

TEST(Stress, DynamicBatchesAgainstFromScratchOracleRebuild) {
  // Random graph, randomized insert/delete batches; after every epoch the
  // dynamic snapshot must induce the same partition as a ConnectivityOracle
  // built from scratch on the current edge set (the acceptance bar: dynamic
  // paths may never drift from the static oracle).
  const std::size_t n = 3000;
  const graph::Graph g0 = graph::gen::random_regular_ish(n, 3, 21);
  dynamic::DynamicOptions opt;
  opt.oracle.k = 8;
  dynamic::DynamicConnectivity dc(g0, opt);

  testutil::EdgeSetModel model(n, g0.edge_list());
  std::uint64_t rs = 4242;
  auto next = [&rs](std::uint64_t mod) {
    rs = parallel::mix64(rs + 0x9e3779b97f4a7c15ull);
    return rs % mod;
  };
  for (int round = 0; round < 6; ++round) {
    dynamic::UpdateBatch batch;
    // Delete ~8 random existing edges.
    for (int i = 0; i < 8 && !model.edges().empty(); ++i) {
      auto it = model.edges().begin();
      std::advance(it, std::ptrdiff_t(next(model.edges().size())));
      const graph::Edge e{it->first.first, it->first.second};
      batch.deletions.push_back(e);
      model.remove(e);
    }
    // Insert ~8 random edges (dups/self-loops allowed).
    for (int i = 0; i < 8; ++i) {
      const graph::Edge e{vertex_id(next(n)), vertex_id(next(n))};
      batch.insertions.push_back(e);
      model.add(e);
    }
    dc.apply(batch);

    const graph::Graph now = model.materialize();
    connectivity::CcOracleOptions sopt;
    sopt.k = 8;
    const auto fresh =
        connectivity::ConnectivityOracle<graph::Graph>::build(now, sopt);
    const auto snap = dc.snapshot();
    for (vertex_id i = 0; i < 2500; ++i) {
      const auto u = vertex_id((i * 2654435761u) % n);
      const auto v = vertex_id((i * 40503u + round) % n);
      ASSERT_EQ(snap->connected(u, v), fresh.connected(u, v))
          << "round " << round << " pair " << u << "," << v;
    }
  }
}

TEST(Stress, ApplyExceptionGuaranteeUnderRandomizedLoad) {
  // Randomized mixed batches with a small compaction threshold (so all
  // three update paths fire). Before each real apply, the same batch is
  // attempted with a throwing failure hook installed: the structure must
  // come out identical (epoch, labels, edge list), then accept the batch
  // and still agree with a from-scratch oracle.
  const std::size_t n = 600;
  const graph::Graph g0 = graph::gen::random_regular_ish(n, 3, 5);
  dynamic::DynamicOptions opt;
  opt.oracle.k = 6;
  opt.compact_threshold = 96;
  dynamic::DynamicConnectivity dc(g0, opt);
  testutil::EdgeSetModel model(n, g0.edge_list());

  const auto labels_of = [&] {
    std::vector<vertex_id> out;
    const auto snap = dc.snapshot();
    for (vertex_id v = 0; v < n; ++v) out.push_back(snap->component_of(v));
    return out;
  };

  std::uint64_t rs = 2026;
  auto next = [&rs](std::uint64_t mod) {
    rs = parallel::mix64(rs + 0x9e3779b97f4a7c15ull);
    return rs % mod;
  };
  std::size_t compactions = 0;
  for (int round = 0; round < 30; ++round) {
    dynamic::UpdateBatch batch;
    for (int i = 0; i < 6 && !model.edges().empty(); ++i) {
      auto it = model.edges().begin();
      std::advance(it, std::ptrdiff_t(next(model.edges().size())));
      const graph::Edge e{it->first.first, it->first.second};
      batch.deletions.push_back(e);
      model.remove(e);
    }
    for (int i = 0; i < 6; ++i) {
      const graph::Edge e{vertex_id(next(n)), vertex_id(next(n))};
      batch.insertions.push_back(e);
      model.add(e);
    }

    const auto epoch_before = dc.epoch();
    const auto labels_before = labels_of();
    const auto edges_before = testutil::canonical_edges(dc.current_edge_list());
    dc.set_failure_injection_hook(
        [](dynamic::UpdateReport::Path) { throw std::bad_alloc(); });
    EXPECT_THROW(dc.apply(batch), std::bad_alloc);
    dc.set_failure_injection_hook(nullptr);
    ASSERT_EQ(dc.epoch(), epoch_before) << "round " << round;
    ASSERT_EQ(labels_of(), labels_before) << "round " << round;
    ASSERT_EQ(testutil::canonical_edges(dc.current_edge_list()), edges_before)
        << "round " << round;

    const auto report = dc.apply(batch);
    if (report.path == dynamic::UpdateReport::Path::kCompaction) {
      ++compactions;
    }
    const graph::Graph now = model.materialize();
    connectivity::CcOracleOptions sopt;
    sopt.k = 6;
    const auto fresh =
        connectivity::ConnectivityOracle<graph::Graph>::build(now, sopt);
    const auto snap = dc.snapshot();
    for (vertex_id i = 0; i < 1200; ++i) {
      const auto u = vertex_id((i * 2654435761u) % n);
      const auto v = vertex_id((i * 40503u + round) % n);
      ASSERT_EQ(snap->connected(u, v), fresh.connected(u, v))
          << "round " << round << " pair " << u << "," << v;
    }
  }
  EXPECT_GE(compactions, 1u);  // the threshold is small enough to hit
}

TEST(Stress, WeCcOnDenseMultigraph) {
  // Heavy parallel-edge load (ER with replacement at 10x density).
  const Graph g = graph::gen::erdos_renyi(200, 40000, 3);
  const auto truth = testutil::brute_cc(g);
  const auto cc = connectivity::we_cc(g, 0.05, 7);
  EXPECT_TRUE(
      testutil::same_partition(truth, cc.label.raw(), g.num_vertices()));
}

}  // namespace
