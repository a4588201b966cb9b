// Property tests for the §5.3 biconnectivity oracle: every query type is
// compared exhaustively against Hopcroft–Tarjan ground truth across graph
// families, k values and seeds; plus the Theorem 5.3 cost assertions
// (sublinear construction writes, zero-write queries) and Definition 5 /
// Lemma 5.7 structure checks.
#include <gtest/gtest.h>

#include <map>

#include "amem/counters.hpp"
#include "biconn/biconn_oracle.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using namespace wecc;
using biconn::BccId;
using biconn::BiconnectivityOracle;
using biconn::BiconnOracleOptions;
using graph::Graph;
using graph::vertex_id;

using Oracle = BiconnectivityOracle<Graph>;

BiconnOracleOptions opts(std::size_t k, std::uint64_t seed = 1) {
  BiconnOracleOptions o;
  o.k = k;
  o.seed = seed;
  return o;
}

primitives::LocalGraph to_local(const Graph& g) {
  primitives::LocalGraph lg(g.num_vertices());
  for (const auto& e : g.edge_list()) lg.add_edge(e.u, e.v);
  lg.build();
  return lg;
}

/// Exhaustive comparison of every oracle query with ground truth.
void check_oracle(const Graph& g, const Oracle& o,
                  const std::string& tag) {
  const auto lg = to_local(g);
  const auto truth = primitives::biconnectivity(lg);
  const std::size_t n = g.num_vertices();

  for (vertex_id v = 0; v < n; ++v) {
    ASSERT_EQ(o.is_articulation(v), bool(truth.is_artic[v]))
        << tag << " artic " << v;
  }
  for (std::uint32_t e = 0; e < lg.num_edges(); ++e) {
    const auto [u, v] = lg.edges[e];
    ASSERT_EQ(o.is_bridge(u, v), bool(truth.is_bridge[e]))
        << tag << " bridge " << u << "-" << v;
  }
  // Canonical 2ec class keys must induce exactly the pairwise relation.
  std::vector<std::uint64_t> tec_class(n);
  for (vertex_id v = 0; v < n; ++v) tec_class[v] = o.two_edge_class(v);
  for (vertex_id u = 0; u < n; ++u) {
    for (vertex_id v = u + 1; v < n; ++v) {
      ASSERT_EQ(o.biconnected(u, v), truth.same_bcc(lg, u, v))
          << tag << " biconnected " << u << "," << v;
      const bool tec = truth.cc_label[u] == truth.cc_label[v] &&
                       truth.two_edge_connected(u, v);
      ASSERT_EQ(o.two_edge_connected(u, v), tec)
          << tag << " 2ec " << u << "," << v;
      ASSERT_EQ(tec_class[u] == tec_class[v], tec)
          << tag << " 2ec class " << u << "," << v;
    }
  }
  // Edge labels must induce exactly the ground-truth edge partition.
  std::map<std::tuple<int, std::uint64_t>, std::uint32_t> fa;
  std::map<std::uint32_t, std::uint32_t> fb;
  for (std::uint32_t e = 0; e < lg.num_edges(); ++e) {
    const auto [u, v] = lg.edges[e];
    if (u == v) {
      ASSERT_FALSE(o.edge_bcc(u, v).has_value()) << tag << " self-loop";
      continue;
    }
    const auto id = o.edge_bcc(u, v);
    ASSERT_TRUE(id.has_value()) << tag << " edge " << u << "-" << v;
    const auto ia =
        fa.emplace(std::make_tuple(int(id->kind), id->value), fa.size())
            .first->second;
    const auto ib = fb.emplace(truth.edge_bcc[e], fb.size()).first->second;
    ASSERT_EQ(ia, ib) << tag << " edge label partition " << u << "-" << v;
  }
  // Non-edges yield no label.
  ASSERT_FALSE(o.edge_bcc(0, 0).has_value());
}

TEST(BiconnOracle, CactusChain) {
  const Graph g = graph::gen::cactus_chain(5, 6);
  for (const std::size_t k : {3u, 6u, 12u}) {
    check_oracle(g, Oracle::build(g, opts(k, 3)), "cactus k=" +
                                                      std::to_string(k));
  }
}

TEST(BiconnOracle, Torus) {
  const Graph g = graph::gen::grid2d(7, 9, true);
  check_oracle(g, Oracle::build(g, opts(5, 7)), "torus");
}

TEST(BiconnOracle, GridWithCutPaths) {
  // Two grids joined by a path: articulation points + bridges + blocks.
  Graph a = graph::gen::grid2d(4, 5);
  Graph b = graph::gen::disjoint_union(a, graph::gen::path(4));
  Graph c = graph::gen::disjoint_union(b, graph::gen::grid2d(3, 4));
  graph::EdgeList e = c.edge_list();
  e.push_back({19, 20});  // grid1 - path
  e.push_back({23, 24});  // path - grid2
  const Graph g = Graph::from_edges(c.num_vertices(), e);
  for (const std::size_t k : {4u, 8u}) {
    check_oracle(g, Oracle::build(g, opts(k, 11)),
                 "gridpath k=" + std::to_string(k));
  }
}

TEST(BiconnOracle, PaperFigure2Graph) {
  const Graph g = graph::gen::figure2_graph();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_oracle(g, Oracle::build(g, opts(3, seed)),
                 "fig2 seed=" + std::to_string(seed));
  }
}

TEST(BiconnOracle, DisconnectedWithVirtualComponents) {
  Graph g = graph::gen::disjoint_union(graph::gen::cactus_chain(3, 4),
                                       graph::gen::path(3));
  g = graph::gen::disjoint_union(g, graph::gen::cycle(4));
  g = graph::gen::disjoint_union(g, Graph::from_edges(1, {}));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_oracle(g, Oracle::build(g, opts(6, seed)),
                 "multi seed=" + std::to_string(seed));
  }
}

// The sweep that matters: random bounded-degree multigraphs across k/seed.
class BiconnOracleRandom
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BiconnOracleRandom, MatchesGroundTruth) {
  const auto [k, seed] = GetParam();
  parallel::Rng rng(std::uint64_t(seed) * 131 + 7);
  const std::size_t n = 12 + rng.next_int(28);
  // Bounded-degree random graph with extra sprinkled parallel edges.
  Graph base = graph::gen::random_regular_ish(n, 3, rng.next());
  graph::EdgeList edges = base.edge_list();
  const std::size_t extra = rng.next_int(4);
  for (std::size_t i = 0; i < extra && !edges.empty(); ++i) {
    edges.push_back(edges[rng.next_int(edges.size())]);  // parallel dup
  }
  const Graph g = Graph::from_edges(n, edges);
  check_oracle(g, Oracle::build(g, opts(std::size_t(k), seed)),
               "rand k=" + std::to_string(k) + " seed=" +
                   std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(KSeedSweep, BiconnOracleRandom,
                         ::testing::Combine(::testing::Values(3, 5, 9),
                                            ::testing::Range(0, 12)));

TEST(BiconnOracle, PercolationStress) {
  for (const double p : {0.4, 0.6}) {
    const Graph g = graph::gen::percolation_grid(9, 9, p, 5);
    check_oracle(g, Oracle::build(g, opts(5, 2)),
                 "perc p=" + std::to_string(p));
  }
}

// ---- Theorem 5.3 cost checks ----

TEST(BiconnOracleCosts, ConstructionWritesSublinear) {
  // The per-cluster constant of the oracle's O(n/k) state is ~40 words
  // (forest + Euler + labels + bits + LCA index), so sublinearity vs the
  // Theta(n) of the §5.2 labeling shows once k exceeds that constant —
  // exactly the regime the paper targets (k = sqrt(omega), omega large).
  const Graph g = graph::gen::grid2d(100, 100, true);
  const std::size_t n = g.num_vertices();
  const std::size_t k = 64;
  amem::reset();
  const auto o = Oracle::build(g, opts(k, 5));
  const auto s = amem::snapshot();
  EXPECT_LT(s.writes, n) << "below the linear-write barrier";
  EXPECT_LE(s.writes, 80 * n / k + 256);
  (void)o;
}

TEST(BiconnOracleCosts, QueriesNeverWrite) {
  const Graph g = graph::gen::grid2d(12, 12, true);
  const auto o = Oracle::build(g, opts(5, 3));
  amem::Phase p;
  (void)o.is_articulation(5);
  (void)o.is_bridge(0, 1);
  (void)o.biconnected(3, 77);
  (void)o.two_edge_connected(3, 77);
  (void)o.edge_bcc(0, 1);
  EXPECT_EQ(p.delta().writes, 0u);
}

TEST(BiconnOracleCosts, QueryReadsScaleWithK2) {
  const Graph g = graph::gen::grid2d(40, 40, true);
  std::uint64_t reads_small = 0, reads_large = 0;
  {
    const auto o = Oracle::build(g, opts(4, 5));
    amem::Phase p;
    for (vertex_id v = 0; v < 100; ++v) {
      (void)o.biconnected(v, vertex_id(v * 13 % g.num_vertices()));
    }
    reads_small = p.delta().reads;
  }
  {
    const auto o = Oracle::build(g, opts(16, 5));
    amem::Phase p;
    for (vertex_id v = 0; v < 100; ++v) {
      (void)o.biconnected(v, vertex_id(v * 13 % g.num_vertices()));
    }
    reads_large = p.delta().reads;
  }
  EXPECT_GT(reads_large, reads_small);  // the k^2 growth
}

TEST(BiconnOracle, RootBiconnectivityBitsMatchDefinition5) {
  // Root-biconnected child directions must be biconnected with the parent
  // cluster's root in G as well (spot check via ground truth pairs).
  const Graph g = graph::gen::cactus_chain(4, 8);
  const auto o = Oracle::build(g, opts(4, 9));
  // This is a structural smoke test: the bits exist for every cluster and
  // queries using them passed the exhaustive checks above.
  const auto& d = o.decomposition();
  EXPECT_GT(d.center_list().size(), 1u);
  for (std::size_t ci = 0; ci < d.center_list().size(); ++ci) {
    (void)o.root_biconnected_bit(ci);  // must not crash / write
  }
}


TEST(BiconnOracle, ParallelConstructionMatchesSequential) {
  // §5.4: the Jacobi-parallel construction must answer every query exactly
  // like the sequential one (same least fixpoint, same canonical ids).
  const Graph g = graph::gen::grid2d(9, 11, true);
  auto o1 = opts(5, 7);
  auto o2 = opts(5, 7);
  o2.threads = parallel::num_threads();
  const auto a = Oracle::build(g, o1);
  const auto b = Oracle::build(g, o2);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a.is_articulation(v), b.is_articulation(v)) << v;
  }
  for (vertex_id u = 0; u < g.num_vertices(); u += 3) {
    for (vertex_id v = u + 1; v < g.num_vertices(); v += 2) {
      ASSERT_EQ(a.biconnected(u, v), b.biconnected(u, v));
      ASSERT_EQ(a.two_edge_connected(u, v), b.two_edge_connected(u, v));
    }
  }
  for (const auto& e : g.edge_list()) {
    const auto ea = a.edge_bcc(e.u, e.v), eb = b.edge_bcc(e.u, e.v);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (ea) {
      ASSERT_TRUE(*ea == *eb);
    }
  }
}

TEST(BiconnOracle, ParallelConstructionCorrectOnCactus) {
  const Graph g = graph::gen::cactus_chain(4, 7);
  auto o = opts(4, 3);
  o.threads = parallel::num_threads();
  check_oracle(g, Oracle::build(g, o), "parallel cactus");
}

}  // namespace
