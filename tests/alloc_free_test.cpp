// Heap-allocation gate for the biconnectivity oracle's local views.
//
// Its own binary because it replaces the global operator new (operator
// new[] funnels through it) with bench/alloc_count.hpp's counting one, as
// bench_dynamic.cpp and bench_rebuild.cpp do. Two properties:
//
//  * a warm oracle query of every kind (component_of, biconnected,
//    two_edge_connected, is_articulation, and is_bridge and edge_bcc on a
//    present edge), including vertices of a virtual (< k, centerless)
//    component, makes no heap allocation: the local views, the
//    Hopcroft–Tarjan result and the cluster search all reuse per-thread
//    storage;
//  * a selective rebuild stays within kMaxAllocsPerDirtyCluster allocations
//    per dirty cluster: its fixpoint and bit passes build about six local
//    views per dirty cluster, and those views reuse the same storage.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/alloc_count.hpp"
#include "biconn/biconn_oracle.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace wecc {
namespace {

using graph::vertex_id;
using Oracle = biconn::BiconnectivityOracle<graph::Graph>;

/// Allocations per dirty cluster a selective rebuild may make. The boundary
/// cache fill still materializes each dirty cluster's members and boundary
/// instances; everything downstream of it runs on reused storage.
constexpr double kMaxAllocsPerDirtyCluster = 40;

std::uint64_t allocs() {
  return benchalloc::count.load(std::memory_order_relaxed);
}

TEST(AllocFree, WarmOracleQueriesDoNotAllocate) {
  // A percolation grid (many clusters, bridges, articulation points) plus
  // 5-vertex bowties far below k; one that samples no center is a virtual
  // component.
  const graph::Graph bowtie = graph::Graph::from_edges(
      5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  graph::Graph g = graph::gen::percolation_grid(30, 30, 0.55, 7);
  for (int i = 0; i < 6; ++i) g = graph::gen::disjoint_union(g, bowtie);
  biconn::BiconnOracleOptions opt;
  opt.k = 16;
  const Oracle o = Oracle::build(g, opt);
  const std::size_t n = g.num_vertices();

  // Random vertex pairs across clusters, pairs inside virtual components,
  // and every present edge.
  parallel::Rng rng(2026);
  graph::EdgeList pairs;
  for (int i = 0; i < 400; ++i) {
    pairs.push_back({vertex_id(rng.next_int(n)), vertex_id(rng.next_int(n))});
  }
  std::vector<vertex_id> virt;
  for (vertex_id v = 0; v < n; ++v) {
    if (o.decomposition().rho(v).virtual_center) virt.push_back(v);
  }
  ASSERT_GE(virt.size(), 5u) << "some bowtie must be a virtual component";
  for (std::size_t i = 0; i + 2 < virt.size(); ++i) {
    pairs.push_back({virt[i], virt[i + 1]});
    pairs.push_back({virt[i], virt[i + 2]});
  }
  const graph::EdgeList edges = g.edge_list();

  std::uint64_t sink = 0;
  const auto run_all = [&] {
    for (const auto& [u, v] : pairs) {
      sink += o.component_of(u);
      sink += o.biconnected(u, v) ? 1 : 0;
      sink += o.two_edge_connected(u, v) ? 1 : 0;
      sink += o.is_articulation(u) ? 1 : 0;
    }
    for (const auto& [u, v] : edges) {
      sink += o.is_bridge(u, v) ? 1 : 0;
      const auto id = o.edge_bcc(u, v);
      sink += id ? id->value + 1 : 0;
    }
  };
  run_all();  // warm: the per-thread slots grow to the largest view
  const std::uint64_t a0 = allocs();
  run_all();
  const std::uint64_t made = allocs() - a0;
  EXPECT_EQ(made, 0u) << "warm queries allocated " << made << " times over "
                      << 4 * pairs.size() + 2 * edges.size() << " queries";
  EXPECT_NE(sink, 0u);
}

TEST(AllocFree, SelectiveRebuildAllocationsPerDirtyCluster) {
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 16;
  opt.rebuild_threads = 1;  // the rebuild runs on this (warm) thread
  dynamic::DynamicBiconnectivity dbc(
      graph::gen::percolation_grid(60, 60, 0.5, 3), opt);
  const std::size_t n = dbc.num_vertices();

  // Random deletions of present edges plus fresh inserts: the block-merge
  // triage fails, so batches take the selective rebuild.
  parallel::Rng rng(99);
  graph::EdgeList present = dbc.current_edge_list();
  const auto next_batch = [&] {
    dynamic::UpdateBatch batch;
    for (int i = 0; i < 32 && !present.empty(); ++i) {
      const std::size_t at = rng.next_int(present.size());
      batch.deletions.push_back(present[at]);
      present[at] = present.back();
      present.pop_back();
    }
    for (int i = 0; i < 32; ++i) {
      const graph::Edge e{vertex_id(rng.next_int(n)),
                          vertex_id(rng.next_int(n))};
      batch.insertions.push_back(e);
      present.push_back(e);
    }
    return batch;
  };

  using Path = dynamic::UpdateReportBase::Path;
  (void)dbc.apply(next_batch());  // warm the per-thread view storage
  std::uint64_t made = 0;
  std::size_t dirty = 0, rebuilds = 0;
  for (int b = 0; b < 6; ++b) {
    const dynamic::UpdateBatch batch = next_batch();
    const std::uint64_t a0 = allocs();
    const auto report = dbc.apply(batch);
    const std::uint64_t a1 = allocs();
    if (report.path != Path::kSelectiveRebuild) continue;
    made += a1 - a0;
    dirty += report.dirty_clusters;
    ++rebuilds;
  }
  ASSERT_GE(rebuilds, 3u) << "the batches must take the selective rebuild";
  ASSERT_GT(dirty, 0u);
  const double per_cluster = double(made) / double(dirty);
  EXPECT_LE(per_cluster, kMaxAllocsPerDirtyCluster)
      << made << " allocations over " << dirty << " dirty clusters in "
      << rebuilds << " rebuilds";
  RecordProperty("allocs_per_dirty_cluster", std::to_string(per_cluster));
}

}  // namespace
}  // namespace wecc
