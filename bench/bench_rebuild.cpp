// Experiment D3: the rebuild cliff — parallel, cluster-sharded selective
// rebuilds (docs/parallel_rebuild.md).
//
// Every row drives a DynamicBiconnectivity facade over a percolation grid
// with mixed batches: half deletions of random present edges, half random
// inserts. Deleting present grid edges defeats the block-merge triage, so
// every apply pays a selective rebuild (deleting the batch's own earlier
// inserts, LIFO, let the fast paths absorb everything). Each row reports
// the rebuild execution shape the update reports surface:
//   rebuild_ms          — mean wall time per applied batch;
//   dirty_clusters      — mean dirty-cluster count per rebuild;
//   shards / threads    — the partition the rebuild's per-cluster passes
//       actually ran on;
//   speedup_vs_1thread  — this row's amortized batch time divided into the
//       threads=1 row's (same n, B; the 1-thread row registers first);
//   cache_fill_ms / forest_ms / labeling_ms / fixpoints_ms / bits_ms —
//       mean wall time per rebuild of each construction phase (the
//       "biconn_build/*" amem phase buckets);
//   allocs_per_rebuild  — mean heap allocations per selectively rebuilt
//       batch (alloc_count.hpp's counting global operator new);
//   verified            — the final snapshot's whole query surface sampled
//       against a from-scratch static oracle; the row errors on mismatch.
//
// The third Args slot is the facade's rebuild_threads knob: 1 pins the
// serial baseline, 0 resolves to the pool size (hardware concurrency on
// the CI runners unless WECC_THREADS sets it), so one binary run emits
// both sides of the cliff. Published labels are identical either way — the
// sharded passes are deterministic — which `verified` re-checks per row.
//
// Smoke mode (scripts/check.sh): --benchmark_filter='/10000/' keeps only
// the small rows; the CI rebuild leg runs the full n=100000 rows.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "alloc_count.hpp"
#include "biconn/biconn_oracle.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace wecc;
using graph::vertex_id;

constexpr std::size_t kOracleK = 16;  // k = sqrt(omega) for omega = 256

graph::Graph make_grid(std::size_t n) {
  const auto side = std::size_t(std::sqrt(double(n)));
  return graph::gen::percolation_grid(side, side, 0.45, 11);
}

graph::EdgeList random_edges(std::size_t n, std::size_t count,
                             std::uint64_t& rs) {
  graph::EdgeList out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rs = parallel::mix64(rs + 0x9e3779b97f4a7c15ull);
    const auto u = vertex_id(rs % n);
    rs = parallel::mix64(rs);
    out.push_back({u, vertex_id(rs % n)});
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sample-verify the snapshot's whole query surface against a from-scratch
/// static oracle over the facade's current edge set (mirrors
/// bench_dynamic_biconn.cpp's acceptance check).
void verify_against_fresh(benchmark::State& state,
                          const dynamic::DynamicBiconnectivity& dbc) {
  const auto snap = dbc.snapshot();
  const std::size_t n = snap->num_vertices();
  const graph::EdgeList edges = dbc.current_edge_list();
  const graph::Graph flat = graph::Graph::from_edges(n, edges);
  biconn::BiconnOracleOptions opt;
  opt.k = kOracleK;
  const auto fresh =
      biconn::BiconnectivityOracle<graph::Graph>::build(flat, opt);
  for (vertex_id i = 0; i < 500; ++i) {
    const auto u = vertex_id((std::uint64_t(i) * 2654435761u) % n);
    const auto v = vertex_id((std::uint64_t(i) * 40503u + 17) % n);
    if (snap->connected(u, v) !=
        (fresh.component_of(u) == fresh.component_of(v))) {
      state.SkipWithError("snapshot connectivity disagrees with fresh oracle");
      return;
    }
    if (snap->biconnected(u, v) != fresh.biconnected(u, v)) {
      state.SkipWithError(
          "snapshot biconnectivity disagrees with fresh oracle");
      return;
    }
    if (snap->two_edge_connected(u, v) != fresh.two_edge_connected(u, v)) {
      state.SkipWithError("snapshot 2ec disagrees with fresh oracle");
      return;
    }
    if (snap->is_articulation(u) != fresh.is_articulation(u)) {
      state.SkipWithError("snapshot articulation disagrees with fresh oracle");
      return;
    }
  }
  const std::size_t stride = std::max<std::size_t>(1, edges.size() / 500);
  for (std::size_t i = 0; i < edges.size(); i += stride) {
    const auto [u, v] = edges[i];
    if (u == v) continue;
    if (snap->is_bridge(u, v) != fresh.is_bridge(u, v)) {
      state.SkipWithError("snapshot bridge bit disagrees with fresh oracle");
      return;
    }
  }
  state.counters["verified"] = 1;
}

void BM_ChurnRebuild(benchmark::State& state) {
  const auto n_arg = std::size_t(state.range(0));
  const auto batch_size = std::size_t(state.range(1));
  const auto threads_arg = std::size_t(state.range(2));

  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = kOracleK;
  opt.rebuild_threads = threads_arg;
  dynamic::DynamicBiconnectivity dbc(make_grid(n_arg), opt);
  const std::size_t n = dbc.num_vertices();  // grids round n_arg down

  std::uint64_t rs = 777;
  graph::EdgeList present = dbc.current_edge_list();
  std::size_t batches = 0, rebuilds = 0;
  double total_s = 0;
  double dirty_sum = 0, shards_last = 0, threads_last = 0;
  std::uint64_t rebuild_allocs = 0;
  amem::reset_phases();  // the phase buckets below hold this row's rebuilds
  for (auto _ : state) {
    state.PauseTiming();
    dynamic::UpdateBatch batch;
    batch.insertions = random_edges(n, batch_size / 2, rs);
    while (batch.deletions.size() < batch_size / 2 && !present.empty()) {
      rs = parallel::mix64(rs);
      const std::size_t at = rs % present.size();
      batch.deletions.push_back(present[at]);
      present[at] = present.back();
      present.pop_back();
    }
    state.ResumeTiming();
    const auto a0 = benchalloc::count.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = dbc.apply(batch);
    total_s += seconds_since(t0);
    const auto a1 = benchalloc::count.load(std::memory_order_relaxed);
    ++batches;
    state.PauseTiming();
    if (report.path == dynamic::UpdateReportBase::Path::kSelectiveRebuild) {
      rebuild_allocs += a1 - a0;
      ++rebuilds;
    }
    dirty_sum += double(report.dirty_clusters);
    shards_last = double(report.rebuild_shards);
    threads_last = double(report.rebuild_threads);
    for (const auto& e : batch.insertions) present.push_back(e);
    state.ResumeTiming();
  }
  // Read the phase buckets before the fresh oracle below adds its build.
  const double per_rebuild = rebuilds > 0 ? 1.0 / double(rebuilds) : 0;
  for (const char* phase :
       {"cache_fill", "forest", "labeling", "fixpoints", "bits"}) {
    state.counters[std::string(phase) + "_ms"] =
        double(amem::phase_ns(std::string("biconn_build/") + phase)) * 1e-6 *
        per_rebuild;
  }
  state.counters["allocs_per_rebuild"] = double(rebuild_allocs) * per_rebuild;
  verify_against_fresh(state, dbc);

  const double amortized = batches > 0 ? total_s / double(batches) : 0;
  state.counters["rebuild_ms"] = amortized * 1e3;
  state.counters["dirty_clusters"] =
      batches > 0 ? dirty_sum / double(batches) : 0;
  state.counters["shards"] = shards_last;
  state.counters["threads"] = threads_last;
  state.counters["n"] = double(n);
  state.counters["B"] = double(batch_size);

  // The threads=1 variant of each (n, B) registers (hence runs) first and
  // deposits its amortized time here for the auto-threads row to compare
  // against. On a single-core host both rows resolve to one worker and the
  // ratio honestly sits near 1.
  static std::map<std::pair<std::size_t, std::size_t>, double> baseline;
  const auto key = std::make_pair(n_arg, batch_size);
  if (threads_arg == 1) {
    baseline[key] = amortized;
  } else if (const auto it = baseline.find(key);
             it != baseline.end() && amortized > 0) {
    state.counters["speedup_vs_1thread"] = it->second / amortized;
  }
}
// Registration order is execution order: the serial baseline of each
// (n, B) runs before its auto-threads twin.
BENCHMARK(BM_ChurnRebuild)
    ->Unit(benchmark::kMillisecond)
    ->Args({10000, 64, 1})
    ->Args({10000, 64, 0})
    ->Iterations(8);
BENCHMARK(BM_ChurnRebuild)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64, 1})
    ->Args({100000, 64, 0})
    ->Args({100000, 1024, 1})
    ->Args({100000, 1024, 0})
    ->Iterations(8);

}  // namespace

BENCHMARK_MAIN();
