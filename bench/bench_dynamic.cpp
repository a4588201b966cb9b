// Experiment D1: batch-dynamic updates vs full oracle rebuild.
//
// A batch of B <= 1024 insertions on a million-vertex graph runs on the
// fast path (O(B k) operations / O(B) writes; compactions amortized over
// compact_threshold updates) instead of rebuilding the static oracle from
// scratch; the rows measure by how much. Each dynamic row reports:
//   speedup_vs_rebuild — from-scratch ConnectivityOracle::build wall time
//       divided by the *amortized* per-batch wall time measured across the
//       whole loop (compactions included);
//   writes_per_batch   — counted asymmetric writes per batch (model claim);
//   verified           — sampled agreement between the live snapshot and
//       the fresh static oracle; the row errors out on any mismatch.
//
// Deletion workloads come in two shapes on purpose:
//   * percolation (the paper's Swendsen–Wang motivation, sub-critical):
//     components are small, so the selective rebuild relabels only the few
//     dirty components — the regime the dynamic layer is designed for;
//   * connected (random-regular): every deletion dirties the single giant
//     component, so selective rebuild degenerates to a full relabeling and
//     only the decomposition reuse is saved — the honest worst case.
//
// Smoke mode (scripts/check.sh): --benchmark_filter='/100000(/|$)' skips
// the million-vertex rows.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>

#include "bench_common.hpp"
#include "connectivity/cc_oracle.hpp"
#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

// Process-wide heap-allocation counter (replaceable global operator new;
// operator new[] funnels through it). The enumeration row uses it to *prove*
// the overlay neighbor hot path performs zero heap allocations, not just to
// time it.
namespace benchalloc {
inline std::atomic<std::uint64_t> count{0};
}  // namespace benchalloc

// The replaced operator new allocates with std::malloc, so releasing with
// std::free is the matched pair; gcc's -Wmismatched-new-delete heuristic
// cannot see through the replacement and flags it under Release -Werror.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  benchalloc::count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace wecc;
using graph::vertex_id;

constexpr std::size_t kOracleK = 16;  // k = sqrt(omega) for omega = 256

enum class Shape { kConnected, kPercolation };

graph::Graph make_graph(Shape shape, std::size_t n) {
  if (shape == Shape::kPercolation) {
    const auto side = std::size_t(std::sqrt(double(n)));
    return graph::gen::percolation_grid(side, side, 0.45, 11);
  }
  return graph::gen::random_regular_ish(n, 4, 7);
}

dynamic::DynamicConnectivity& dyn(Shape shape, std::size_t n) {
  static std::unordered_map<std::size_t,
                            std::unique_ptr<dynamic::DynamicConnectivity>>
      cache;
  auto& slot = cache[n * 2 + std::size_t(shape)];
  if (!slot) {
    dynamic::DynamicOptions opt;
    opt.oracle.k = kOracleK;
    slot = std::make_unique<dynamic::DynamicConnectivity>(
        make_graph(shape, n), opt);
  }
  return *slot;
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

/// One from-scratch static rebuild on dc's *current* edge set; returns its
/// wall time and sample-verifies the snapshot against it. The edge set must
/// come from the working graph, not the snapshot's frozen oracle graph —
/// after fast-path epochs the frozen graph lacks the inserted edges whose
/// connectivity the snapshot carries in its label patch. (No concurrent
/// writer runs here, so snapshot and working graph are the same epoch.)
double rebuild_and_verify(benchmark::State& state,
                          dynamic::DynamicConnectivity& dc) {
  const auto snap = dc.snapshot();
  const std::size_t n = snap->num_vertices();
  graph::EdgeList edges = dc.current_edge_list();
  const auto t0 = std::chrono::steady_clock::now();
  const graph::Graph flat = graph::Graph::from_edges(n, edges);
  connectivity::CcOracleOptions opt;
  opt.k = kOracleK;
  const auto fresh =
      connectivity::ConnectivityOracle<graph::Graph>::build(flat, opt);
  const double rebuild_s = seconds_since(t0);

  for (vertex_id i = 0; i < 2000; ++i) {
    const auto u = vertex_id((std::uint64_t(i) * 2654435761u) % n);
    const auto v = vertex_id((std::uint64_t(i) * 40503u + 17) % n);
    if (snap->connected(u, v) != fresh.connected(u, v)) {
      state.SkipWithError("snapshot disagrees with fresh static oracle");
      return rebuild_s;
    }
  }
  state.counters["verified"] = 1;
  return rebuild_s;
}

void finish_row(benchmark::State& state, double rebuild_s, double batch_total_s,
                std::size_t batches, const amem::Stats& phase_writes,
                std::size_t n, std::size_t batch_size) {
  if (batches > 0 && batch_total_s > 0) {
    const double amortized = batch_total_s / double(batches);
    state.counters["speedup_vs_rebuild"] = rebuild_s / amortized;
    state.counters["writes_per_batch"] =
        double(phase_writes.writes) / double(batches);
  }
  state.counters["n"] = double(n);
  state.counters["B"] = double(batch_size);
}

void BM_DynamicInsertBatch(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto batch_size = std::size_t(state.range(1));
  auto& dc = dyn(Shape::kConnected, n);
  std::uint64_t rs = 12345;
  amem::reset_phases();
  std::size_t batches = 0;
  double total_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto edges = random_edges(n, batch_size, rs);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    dc.insert_edges(std::move(edges));
    total_s += seconds_since(t0);
    ++batches;
  }
  const double rebuild_s = rebuild_and_verify(state, dc);
  const auto spent = amem::phase_total("dynamic/insert_fastpath") +
                     amem::phase_total("dynamic/compaction");
  finish_row(state, rebuild_s, total_s, batches, spent, n, batch_size);
}
// Fixed iteration counts: auto-calibration can land on a single iteration
// that happens to be the compaction batch, which hides the amortization the
// row is meant to measure. Each row spans enough batches to average at
// least one compaction cycle.
BENCHMARK(BM_DynamicInsertBatch)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Args({1000000, 64})
    ->Iterations(256);
BENCHMARK(BM_DynamicInsertBatch)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 1024})
    ->Args({1000000, 1024})
    ->Iterations(32);

template <Shape shape>
void BM_DynamicMixedBatch(benchmark::State& state) {
  // Half deletions (of previously inserted edges), half insertions: after
  // warm-up every apply takes the selective rebuild path.
  const auto n_arg = std::size_t(state.range(0));
  const auto batch_size = std::size_t(state.range(1));
  auto& dc = dyn(shape, n_arg);
  const std::size_t n = dc.num_vertices();  // percolation grids round n down
  std::uint64_t rs = 777;
  graph::EdgeList pool;
  amem::reset_phases();
  std::size_t batches = 0;
  double total_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dynamic::UpdateBatch batch;
    batch.insertions = random_edges(n, batch_size / 2, rs);
    while (batch.deletions.size() < batch_size / 2 && !pool.empty()) {
      batch.deletions.push_back(pool.back());
      pool.pop_back();
    }
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    dc.apply(batch);
    total_s += seconds_since(t0);
    ++batches;
    state.PauseTiming();
    for (const auto& e : batch.insertions) pool.push_back(e);
    state.ResumeTiming();
  }
  const double rebuild_s = rebuild_and_verify(state, dc);
  const auto spent = amem::phase_total("dynamic/selective_rebuild") +
                     amem::phase_total("dynamic/insert_fastpath") +
                     amem::phase_total("dynamic/compaction");
  finish_row(state, rebuild_s, total_s, batches, spent, n, batch_size);
}
BENCHMARK_TEMPLATE(BM_DynamicMixedBatch, Shape::kPercolation)
    ->Name("BM_DynamicMixedBatch_Percolation")
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Args({100000, 1024})
    ->Args({1000000, 1024})
    ->Iterations(8);
BENCHMARK_TEMPLATE(BM_DynamicMixedBatch, Shape::kConnected)
    ->Name("BM_DynamicMixedBatch_Connected")
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(3);

void BM_FullOracleRebuild(benchmark::State& state) {
  // The baseline the dynamic paths beat: from-scratch static build.
  const auto n = std::size_t(state.range(0));
  static std::unordered_map<std::size_t, std::unique_ptr<graph::Graph>>
      cache;
  auto& g = cache[n];
  if (!g) {
    g = std::make_unique<graph::Graph>(make_graph(Shape::kConnected, n));
  }
  connectivity::CcOracleOptions opt;
  opt.k = kOracleK;
  amem::reset();
  for (auto _ : state) {
    const auto o =
        connectivity::ConnectivityOracle<graph::Graph>::build(*g, opt);
    benchmark::DoNotOptimize(&o);
  }
  benchutil::report(state, amem::snapshot(), kOracleK * kOracleK);
  state.counters["n"] = double(n);
}
BENCHMARK(BM_FullOracleRebuild)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(2);

void BM_SnapshotBatchQueries(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto queries = std::size_t(state.range(1));
  auto& dc = dyn(Shape::kConnected, n);
  std::uint64_t rs = 31337;
  std::vector<dynamic::VertexPair> pairs(queries);
  for (auto& p : pairs) {
    rs = parallel::mix64(rs + 1);
    p.u = vertex_id(rs % n);
    rs = parallel::mix64(rs);
    p.v = vertex_id(rs % n);
  }
  const dynamic::BatchQueryEngine engine(dc.snapshot());
  amem::reset();
  std::size_t rounds = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.connected(pairs));
    ++rounds;
  }
  state.counters["reads_per_query"] =
      double(amem::snapshot().reads) / double(rounds * queries);
  state.counters["n"] = double(n);
  state.SetItemsProcessed(std::int64_t(rounds * queries));
}
BENCHMARK(BM_SnapshotBatchQueries)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 4096})
    ->Args({1000000, 4096});

void BM_OverlayNeighborEnumeration(benchmark::State& state) {
  // Delete-heavy overlay enumeration: every third base edge is removed
  // through the delta layer (so nearly every vertex carries a deletion
  // patch) plus a sprinkle of inserted edges. This is the rho hot path —
  // every decomposition query walks for_neighbors — and the row fails if
  // the steady-state enumeration performs any heap allocation.
  const auto n = std::size_t(state.range(0));
  static std::unordered_map<std::size_t,
                            std::unique_ptr<dynamic::OverlayGraph>>
      cache;
  auto& og = cache[n];
  if (!og) {
    auto base = std::make_shared<const graph::Graph>(
        make_graph(Shape::kConnected, n));
    og = std::make_unique<dynamic::OverlayGraph>(base);
    const auto edges = base->edge_list();
    for (std::size_t i = 0; i < edges.size(); i += 3) {
      og->delete_edge(edges[i].u, edges[i].v);
    }
    std::uint64_t rs = 2024;
    for (const auto& e : random_edges(n, n / 16, rs)) {
      og->insert_edge(e.u, e.v);
    }
  }
  std::uint64_t arcs = 0, allocs = 0;
  std::size_t passes = 0;
  for (auto _ : state) {
    const auto a0 = benchalloc::count.load(std::memory_order_relaxed);
    std::uint64_t sum = 0, cnt = 0;
    for (vertex_id v = 0; v < vertex_id(n); ++v) {
      og->for_neighbors(v, [&](vertex_id w) {
        sum += w;
        ++cnt;
      });
    }
    benchmark::DoNotOptimize(sum);
    allocs += benchalloc::count.load(std::memory_order_relaxed) - a0;
    arcs += cnt;
    ++passes;
  }
  state.counters["allocs_per_pass"] = double(allocs) / double(passes);
  state.counters["n"] = double(n);
  state.SetItemsProcessed(std::int64_t(arcs));
  if (allocs != 0) {
    state.SkipWithError(
        "overlay neighbor enumeration allocated on the hot path");
  }
}
BENCHMARK(BM_OverlayNeighborEnumeration)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100000)
    ->Arg(1000000);

void BM_SnapshotQueriesDeleteHeavy(benchmark::State& state) {
  // Query throughput when the snapshot's frozen overlay carries a large
  // deletion patch (selective rebuilds, no compaction): rho() enumerates
  // patched adjacencies on every query, so this measures the end-to-end
  // effect of the allocation-free merge on reads.
  const auto n = std::size_t(state.range(0));
  const auto queries = std::size_t(state.range(1));
  static std::unordered_map<std::size_t,
                            std::unique_ptr<dynamic::DynamicConnectivity>>
      cache;
  auto& dc = cache[n];
  if (!dc) {
    dynamic::DynamicOptions opt;
    opt.oracle.k = kOracleK;
    dc = std::make_unique<dynamic::DynamicConnectivity>(
        make_graph(Shape::kConnected, n), opt);
    // Delete base edges in batches, staying under the compaction threshold
    // so the deletion patches survive into the published snapshot.
    const auto edges = dc->snapshot()->state()->graph->base().edge_list();
    const std::size_t target = std::min(
        {std::size_t(12000), dc->compact_threshold() / 4, edges.size() / 2});
    graph::EdgeList batch;
    for (std::size_t i = 0; i < target; ++i) {
      batch.push_back(edges[i * 2]);
      if (batch.size() == 1024) {
        dc->delete_edges(std::move(batch));
        batch = {};
      }
    }
    if (!batch.empty()) dc->delete_edges(std::move(batch));
  }
  std::uint64_t rs = 31337;
  std::vector<dynamic::VertexPair> pairs(queries);
  for (auto& p : pairs) {
    rs = parallel::mix64(rs + 1);
    p.u = vertex_id(rs % n);
    rs = parallel::mix64(rs);
    p.v = vertex_id(rs % n);
  }
  const dynamic::BatchQueryEngine engine(dc->snapshot());
  amem::reset();
  std::size_t rounds = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.connected(pairs));
    ++rounds;
  }
  state.counters["reads_per_query"] =
      double(amem::snapshot().reads) / double(rounds * queries);
  state.counters["n"] = double(n);
  state.SetItemsProcessed(std::int64_t(rounds * queries));
}
BENCHMARK(BM_SnapshotQueriesDeleteHeavy)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 4096})
    ->Args({1000000, 4096});

}  // namespace

BENCHMARK_MAIN();
