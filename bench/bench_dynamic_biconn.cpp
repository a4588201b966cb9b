// Experiment D2: batch-dynamic biconnectivity vs full oracle rebuild.
//
// A batch of B <= 1024 absorbable insertions on an n >= 100k graph runs on
// the O(B)-write fast path (compactions amortized over compact_threshold
// updates) instead of rebuilding the static §5.3 biconnectivity oracle
// from scratch; the rows measure by how much. Each dynamic row reports:
//   speedup_vs_rebuild — from-scratch BiconnectivityOracle::build wall
//       time divided by the *amortized* per-batch wall time measured
//       across the whole loop (compactions included);
//   writes_per_batch   — counted asymmetric writes per batch;
//   verified           — sampled agreement (connectivity, biconnectivity,
//       2-edge-connectivity, articulation, bridges) between the live
//       snapshot and the fresh static oracle; the row errors on mismatch.
//
// The insert row streams batches of *absorbable* edges (endpoints
// biconnected + 2-edge-connected at the current epoch — the regime the
// O(B)-write patch absorbs; candidates are filtered untimed, exactly like
// the workload a caller with structural knowledge would submit). The mixed
// row is the honest other half: percolation churn with deletions, where
// every batch pays a selective rebuild of its dirty components.
//
// Smoke mode (scripts/check.sh): --benchmark_filter='/100000(/|$)' skips
// larger rows.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "bench_common.hpp"
#include "biconn/biconn_oracle.hpp"
#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

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

dynamic::DynamicBiconnectivity& dyn(Shape shape, std::size_t n) {
  static std::unordered_map<
      std::size_t, std::unique_ptr<dynamic::DynamicBiconnectivity>>
      cache;
  auto& slot = cache[n * 2 + std::size_t(shape)];
  if (!slot) {
    dynamic::DynamicBiconnOptions opt;
    opt.oracle.k = kOracleK;
    slot = std::make_unique<dynamic::DynamicBiconnectivity>(
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

/// Candidate edges the fast path can absorb at the current epoch:
/// endpoints biconnected and 2-edge-connected. Filtered untimed.
graph::EdgeList absorbable_edges(const dynamic::DynamicBiconnectivity& dbc,
                                 std::size_t count, std::uint64_t& rs) {
  const auto snap = dbc.snapshot();
  const std::size_t n = snap->num_vertices();
  graph::EdgeList out;
  out.reserve(count);
  while (out.size() < count) {
    rs = parallel::mix64(rs + 0x9e3779b97f4a7c15ull);
    const auto u = vertex_id(rs % n);
    rs = parallel::mix64(rs);
    const auto v = vertex_id(rs % n);
    if (u == v) continue;
    if (snap->biconnected(u, v) && snap->two_edge_connected(u, v)) {
      out.push_back({u, v});
    }
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One from-scratch static §5.3 rebuild on dbc's *current* edge set;
/// returns its wall time and sample-verifies the snapshot's whole query
/// surface against it.
double rebuild_and_verify(benchmark::State& state,
                          dynamic::DynamicBiconnectivity& dbc) {
  const auto snap = dbc.snapshot();
  const std::size_t n = snap->num_vertices();
  graph::EdgeList edges = dbc.current_edge_list();
  const auto t0 = std::chrono::steady_clock::now();
  const graph::Graph flat = graph::Graph::from_edges(n, edges);
  biconn::BiconnOracleOptions opt;
  opt.k = kOracleK;
  const auto fresh =
      biconn::BiconnectivityOracle<graph::Graph>::build(flat, opt);
  const double rebuild_s = seconds_since(t0);

  const auto fail = [&](const char* what) {
    state.SkipWithError(what);
    return rebuild_s;
  };
  // Random pairs: connectivity + biconnectivity + 2ec.
  for (vertex_id i = 0; i < 500; ++i) {
    const auto u = vertex_id((std::uint64_t(i) * 2654435761u) % n);
    const auto v = vertex_id((std::uint64_t(i) * 40503u + 17) % n);
    if (snap->connected(u, v) !=
        (fresh.component_of(u) == fresh.component_of(v))) {
      return fail("snapshot connectivity disagrees with fresh oracle");
    }
    if (snap->biconnected(u, v) != fresh.biconnected(u, v)) {
      return fail("snapshot biconnectivity disagrees with fresh oracle");
    }
    if (snap->two_edge_connected(u, v) != fresh.two_edge_connected(u, v)) {
      return fail("snapshot 2ec disagrees with fresh oracle");
    }
  }
  // Random vertices: articulation points.
  for (vertex_id i = 0; i < 500; ++i) {
    const auto v = vertex_id((std::uint64_t(i) * 48271u + 3) % n);
    if (snap->is_articulation(v) != fresh.is_articulation(v)) {
      return fail("snapshot articulation disagrees with fresh oracle");
    }
  }
  // Sampled current edges (adjacent pairs): bridges + biconnectivity of
  // endpoints — the interesting, mostly-true side of the distribution.
  const std::size_t stride = std::max<std::size_t>(1, edges.size() / 500);
  for (std::size_t i = 0; i < edges.size(); i += stride) {
    const auto [u, v] = edges[i];
    if (u == v) continue;
    if (snap->is_bridge(u, v) != fresh.is_bridge(u, v)) {
      return fail("snapshot bridge bit disagrees with fresh oracle");
    }
    if (snap->biconnected(u, v) != fresh.biconnected(u, v)) {
      return fail("snapshot edge biconnectivity disagrees with fresh oracle");
    }
  }
  state.counters["verified"] = 1;
  return rebuild_s;
}

void finish_row(benchmark::State& state, double rebuild_s,
                double batch_total_s, std::size_t batches,
                const amem::Stats& phase_writes, std::size_t n,
                std::size_t batch_size) {
  if (batches > 0 && batch_total_s > 0) {
    const double amortized = batch_total_s / double(batches);
    state.counters["speedup_vs_rebuild"] = rebuild_s / amortized;
    state.counters["writes_per_batch"] =
        double(phase_writes.writes) / double(batches);
  }
  state.counters["n"] = double(n);
  state.counters["B"] = double(batch_size);
}

void BM_DynamicBiconnInsertBatch(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto batch_size = std::size_t(state.range(1));
  auto& dbc = dyn(Shape::kConnected, n);
  std::uint64_t rs = 12345;
  amem::reset_phases();
  std::size_t batches = 0;
  double total_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto edges = absorbable_edges(dbc, batch_size, rs);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    dbc.insert_edges(std::move(edges));
    total_s += seconds_since(t0);
    ++batches;
  }
  const double rebuild_s = rebuild_and_verify(state, dbc);
  const auto spent = amem::phase_total("dynamic_biconn/insert_fastpath") +
                     amem::phase_total("dynamic_biconn/fast_mixed") +
                     amem::phase_total("dynamic_biconn/selective_rebuild") +
                     amem::phase_total("dynamic_biconn/compaction");
  finish_row(state, rebuild_s, total_s, batches, spent, n, batch_size);
}
// Fixed iteration counts: each row spans enough batches to average at
// least one compaction cycle (see bench_dynamic.cpp for the rationale).
BENCHMARK(BM_DynamicBiconnInsertBatch)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(256);
BENCHMARK(BM_DynamicBiconnInsertBatch)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 1024})
    ->Args({1000000, 1024})
    ->Iterations(32);

template <Shape shape>
void BM_DynamicBiconnMixedBatch(benchmark::State& state) {
  // Half deletions (of previously inserted edges), half random
  // insertions. Before the block-merge patch algebra essentially every
  // apply paid a selective rebuild of its dirty components; now the
  // cycle-closing merges and the deletion triage absorb most batches, and
  // absorb_rate records the fraction that stayed on the O(B)-write path.
  const auto n_arg = std::size_t(state.range(0));
  const auto batch_size = std::size_t(state.range(1));
  auto& dbc = dyn(shape, n_arg);
  const std::size_t n = dbc.num_vertices();  // percolation grids round down
  std::uint64_t rs = 777;
  graph::EdgeList pool;
  amem::reset_phases();
  std::size_t batches = 0;
  std::size_t absorbed = 0;
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
    const auto report = dbc.apply(batch);
    total_s += seconds_since(t0);
    ++batches;
    absorbed += report.rebuild_reason == dynamic::RebuildReason::kNone;
    state.PauseTiming();
    for (const auto& e : batch.insertions) pool.push_back(e);
    state.ResumeTiming();
  }
  const double rebuild_s = rebuild_and_verify(state, dbc);
  const auto spent = amem::phase_total("dynamic_biconn/selective_rebuild") +
                     amem::phase_total("dynamic_biconn/insert_fastpath") +
                     amem::phase_total("dynamic_biconn/fast_mixed") +
                     amem::phase_total("dynamic_biconn/compaction");
  finish_row(state, rebuild_s, total_s, batches, spent, n, batch_size);
  if (batches > 0) {
    state.counters["absorb_rate"] = double(absorbed) / double(batches);
  }
}
BENCHMARK_TEMPLATE(BM_DynamicBiconnMixedBatch, Shape::kPercolation)
    ->Name("BM_DynamicBiconnMixedBatch_Percolation")
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Args({100000, 1024})
    ->Iterations(8);

void BM_DynamicBiconnDenseChurn(benchmark::State& state) {
  // Dense churn over the percolation grid: three quarters fresh random
  // insertions plus one quarter LIFO deletions of this workload's own
  // recent insertions — high-turnover edges that exist only in the patch.
  // The deletion triage cancels those copies against the event journal and
  // the cycle merges absorb the rest, so the whole row should stay on the
  // O(B)-write path (absorb_rate ~1) where it previously paid a selective
  // rebuild per batch.
  const auto n_arg = std::size_t(state.range(0));
  const auto batch_size = std::size_t(state.range(1));
  auto& dbc = dyn(Shape::kPercolation, n_arg);
  const std::size_t n = dbc.num_vertices();
  std::uint64_t rs = 4242;
  graph::EdgeList stack;
  amem::reset_phases();
  std::size_t batches = 0;
  std::size_t absorbed = 0;
  double total_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dynamic::UpdateBatch batch;
    batch.insertions = random_edges(n, batch_size - batch_size / 4, rs);
    const std::size_t dels = std::min(batch_size / 4, stack.size());
    for (std::size_t i = 0; i < dels; ++i) {
      batch.deletions.push_back(stack.back());
      stack.pop_back();
    }
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = dbc.apply(batch);
    total_s += seconds_since(t0);
    ++batches;
    absorbed += report.rebuild_reason == dynamic::RebuildReason::kNone;
    state.PauseTiming();
    for (const auto& e : batch.insertions) stack.push_back(e);
    state.ResumeTiming();
  }
  const double rebuild_s = rebuild_and_verify(state, dbc);
  const auto spent = amem::phase_total("dynamic_biconn/selective_rebuild") +
                     amem::phase_total("dynamic_biconn/insert_fastpath") +
                     amem::phase_total("dynamic_biconn/fast_mixed") +
                     amem::phase_total("dynamic_biconn/compaction");
  finish_row(state, rebuild_s, total_s, batches, spent, n, batch_size);
  if (batches > 0) {
    state.counters["absorb_rate"] = double(absorbed) / double(batches);
  }
}
BENCHMARK(BM_DynamicBiconnDenseChurn)
    ->Name("BM_DynamicBiconnDenseChurn_Percolation")
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(64);
BENCHMARK(BM_DynamicBiconnDenseChurn)
    ->Name("BM_DynamicBiconnDenseChurn_Percolation")
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 1024})
    ->Iterations(16);

void BM_FullBiconnOracleRebuild(benchmark::State& state) {
  // The baseline the dynamic paths beat: from-scratch static §5.3 build.
  const auto n = std::size_t(state.range(0));
  static std::unordered_map<std::size_t, std::unique_ptr<graph::Graph>>
      cache;
  auto& g = cache[n];
  if (!g) {
    g = std::make_unique<graph::Graph>(make_graph(Shape::kConnected, n));
  }
  biconn::BiconnOracleOptions opt;
  opt.k = kOracleK;
  amem::reset();
  for (auto _ : state) {
    const auto o =
        biconn::BiconnectivityOracle<graph::Graph>::build(*g, opt);
    benchmark::DoNotOptimize(&o);
  }
  benchutil::report(state, amem::snapshot(), kOracleK * kOracleK);
  state.counters["n"] = double(n);
}
BENCHMARK(BM_FullBiconnOracleRebuild)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100000)
    ->Iterations(2);

void BM_BiconnSnapshotMixedQueries(benchmark::State& state) {
  // Mixed query vector (connectivity + biconnectivity + articulation /
  // bridge probes) against one pinned epoch, on the thread pool.
  const auto n = std::size_t(state.range(0));
  const auto queries = std::size_t(state.range(1));
  auto& dbc = dyn(Shape::kConnected, n);
  std::uint64_t rs = 31337;
  std::vector<dynamic::MixedQuery> mixed(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    auto& q = mixed[i];
    q.kind = dynamic::MixedQuery::Kind(i % 6);
    rs = parallel::mix64(rs + 1);
    q.u = vertex_id(rs % n);
    rs = parallel::mix64(rs);
    q.v = vertex_id(rs % n);
  }
  const dynamic::BiconnBatchQueryEngine engine(dbc.snapshot());
  amem::reset();
  std::size_t rounds = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.answer(mixed));
    ++rounds;
  }
  state.counters["reads_per_query"] =
      double(amem::snapshot().reads) / double(rounds * queries);
  state.counters["n"] = double(n);
  state.SetItemsProcessed(std::int64_t(rounds * queries));
}
BENCHMARK(BM_BiconnSnapshotMixedQueries)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 4096});

}  // namespace

BENCHMARK_MAIN();
