// Experiment P1: the durability subsystem's real I/O costs next to the
// asymmetric-memory model counters.
//
// The persistence layer is the repo's one *actual* byte-to-storage channel,
// so each row reports amem::StorageStats (bytes_to_storage, appends,
// fsyncs) measured across the timed loop alongside the modeled read/write
// counters the rest of the suite uses:
//   * SnapshotWrite / SnapshotLoad — checkpoint serialization throughput
//     and zero-copy (mmap + validate) open cost;
//   * WalAppend — per-batch durable bytes (the WAL's point: a B-edge batch
//     costs ~28 + 8B bytes vs rewriting a full snapshot);
//   * Recovery — newest-snapshot load + WAL tail replay into a live facade;
//   * TimeTravel — historical queries off the durable directory. The row
//     self-verifies: a sampled epoch's answer is recomputed with the
//     sequential from-scratch oracle and the row errors out on mismatch
//     (counters["verified"] = 1 records the check ran).
//
// Smoke mode (scripts/check.sh): every row registers Args({100000, 64}) so
// both the broad `/100000(/|$)` and narrowed `/100000/64(/|$)` filters
// match.
#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "parallel/rng.hpp"
#include "persist/history.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "primitives/small_biconn.hpp"

namespace {

using namespace wecc;
using graph::vertex_id;
using persist::SnapshotKind;

/// mkdtemp under the working directory, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    char buf[] = "wecc-bench-persist-XXXXXX";
    const char* p = ::mkdtemp(buf);
    path_ = p ? p : "wecc-bench-persist-failed";
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

graph::EdgeList make_edges(std::size_t n, std::size_t m, std::uint64_t seed) {
  parallel::Rng rng(seed);
  graph::EdgeList edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({vertex_id(rng.next() % n), vertex_id(rng.next() % n)});
  }
  return edges;
}

void report_storage(benchmark::State& state, const amem::StorageStats& s0) {
  const amem::StorageStats s1 = amem::storage_snapshot();
  state.counters["bytes_to_storage"] =
      double(s1.bytes_written - s0.bytes_written);
  state.counters["storage_appends"] = double(s1.appends - s0.appends);
  state.counters["storage_fsyncs"] = double(s1.fsyncs - s0.fsyncs);
}

void BM_SnapshotWrite(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const graph::EdgeList edges = make_edges(n, 2 * n, 42);
  ScratchDir dir;
  amem::reset();
  const amem::StorageStats s0 = amem::storage_snapshot();
  std::uint64_t epoch = 0;
  std::size_t file_bytes = 0;
  for (auto _ : state) {
    const std::string path = persist::SnapshotWriter::write(
        dir.path(), SnapshotKind::kBiconnectivity, epoch++, n, edges);
    file_bytes = std::filesystem::file_size(path);
    benchmark::DoNotOptimize(path);
  }
  state.SetBytesProcessed(std::int64_t(file_bytes) *
                          std::int64_t(state.iterations()));
  report_storage(state, s0);
  benchutil::report(state, amem::snapshot(), 64);
  state.counters["snapshot_bytes"] = double(file_bytes);
  state.counters["n"] = double(n);
  state.counters["B"] = double(state.range(1));
}
BENCHMARK(BM_SnapshotWrite)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(8);

void BM_SnapshotLoad(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  ScratchDir dir;
  const std::string path = persist::SnapshotWriter::write(
      dir.path(), SnapshotKind::kBiconnectivity, 1, n,
      make_edges(n, 2 * n, 42));
  amem::reset();
  for (auto _ : state) {
    const auto reader = persist::SnapshotReader::open(path);
    // Touch the surface so the map is really usable, not just validated.
    benchmark::DoNotOptimize(reader.view().connected(0, vertex_id(n - 1)));
    benchmark::DoNotOptimize(reader.view().biconnected(1, 2));
  }
  state.SetBytesProcessed(std::int64_t(std::filesystem::file_size(path)) *
                          std::int64_t(state.iterations()));
  benchutil::report(state, amem::snapshot(), 64);
  state.counters["snapshot_bytes"] =
      double(std::filesystem::file_size(path));
  state.counters["n"] = double(n);
  state.counters["B"] = double(state.range(1));
}
BENCHMARK(BM_SnapshotLoad)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(64);

void BM_WalAppend(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto batch = std::size_t(state.range(1));
  ScratchDir dir;
  auto wal = persist::Wal::open(dir.path());
  parallel::Rng rng(7);
  std::uint64_t epoch = 0;
  const amem::StorageStats s0 = amem::storage_snapshot();
  for (auto _ : state) {
    state.PauseTiming();
    dynamic::UpdateBatch b;
    for (std::size_t i = 0; i < batch; ++i) {
      b.insertions.push_back(
          {vertex_id(rng.next() % n), vertex_id(rng.next() % n)});
    }
    state.ResumeTiming();
    wal->log_batch(++epoch, b);
  }
  const amem::StorageStats s1 = amem::storage_snapshot();
  report_storage(state, s0);
  state.counters["wal_bytes_per_batch"] =
      double(s1.bytes_written - s0.bytes_written) /
      double(state.iterations());
  state.counters["n"] = double(n);
  state.counters["B"] = double(batch);
}
BENCHMARK(BM_WalAppend)
    ->Unit(benchmark::kMicrosecond)
    ->Args({100000, 64})
    ->Iterations(256);

// Recovery measures the connectivity kind: the replay protocol (newest
// valid snapshot -> facade build -> WAL tail) is the same code for both
// facades, and the biconnectivity oracle build alone costs ~a minute at
// n = 100k — that would time a construction cost the other suites already
// track, not recovery. The biconn replay path is covered by the recovery
// tests and the TimeTravel row below.
void BM_Recovery(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto batch = std::size_t(state.range(1));
  dynamic::DynamicOptions opt;
  opt.oracle.k = 16;  // k = sqrt(omega) for omega = 256
  ScratchDir dir;
  {
    dynamic::DynamicConnectivity facade(
        graph::Graph::from_edges(n, make_edges(n, 2 * n, 42)), opt);
    persist::checkpoint(dir.path(), facade);
    facade.set_durability_log(persist::Wal::open(dir.path()));
    parallel::Rng rng(9);
    for (int e = 0; e < 8; ++e) {
      facade.insert_edges(make_edges(n, batch, rng.next()));
    }
  }
  persist::RecoveryStats stats;
  for (auto _ : state) {
    const auto rec =
        persist::RecoveryManager(dir.path()).recover_connectivity(opt);
    stats = rec.stats;
    benchmark::DoNotOptimize(rec.facade->epoch());
  }
  state.counters["replayed_batches"] = double(stats.replayed_batches);
  state.counters["recovered_epoch"] = double(stats.recovered_epoch);
  state.counters["n"] = double(n);
  state.counters["B"] = double(batch);
}
BENCHMARK(BM_Recovery)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(4);

void BM_TimeTravel(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto batch = std::size_t(state.range(1));
  constexpr std::uint64_t kEpochs = 8;
  // Build the durable directory directly (snapshot files + WAL records) —
  // EpochHistory reads only the files, so no live facade is needed and the
  // setup skips the biconnectivity oracle build entirely.
  ScratchDir dir;
  std::vector<graph::EdgeList> edges_at;
  {
    edges_at.push_back(make_edges(n, 2 * n, 42));
    persist::SnapshotWriter::write(dir.path(),
                                   SnapshotKind::kBiconnectivity, 0, n,
                                   edges_at[0]);
    auto wal = persist::Wal::open(dir.path());
    parallel::Rng rng(3);
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      const dynamic::UpdateBatch b =
          dynamic::UpdateBatch::inserting(make_edges(n, batch, rng.next()));
      wal->log_batch(e, b);
      edges_at.push_back(edges_at.back());
      edges_at.back().insert(edges_at.back().end(), b.insertions.begin(),
                             b.insertions.end());
      if (e == kEpochs / 2) {
        persist::SnapshotWriter::write(dir.path(),
                                       SnapshotKind::kBiconnectivity, e, n,
                                       edges_at.back());
      }
    }
  }
  const persist::EpochHistory history(dir.path());

  // Self-verification: recompute one sampled historical row with the
  // sequential from-scratch oracle and refuse to report on mismatch.
  {
    const std::uint64_t e = kEpochs / 2 + 1;  // rebuilt, not mmap-served
    primitives::LocalGraph g(n);
    for (const graph::Edge& ed : edges_at[e]) g.add_edge(ed.u, ed.v);
    g.build();
    const primitives::BiconnResult want = primitives::biconnectivity(g);
    for (vertex_id u = 0; u < 64; ++u) {
      const vertex_id v = vertex_id((u * 2654435761u) % n);
      const bool got = history.answer_at(
          dynamic::MixedQuery::Kind::kTwoEdgeConnected, u, v, e);
      if (got != (u == v || want.tecc_label[u] == want.tecc_label[v])) {
        state.SkipWithError("time-travel answer disagrees with oracle");
        return;
      }
    }
    state.counters["verified"] = 1;
  }

  parallel::Rng rng(17);
  std::vector<dynamic::TimeTravelQuery> queries(256);
  for (auto& q : queries) {
    q.kind = dynamic::MixedQuery::Kind(rng.next() % 5);
    q.u = vertex_id(rng.next() % n);
    q.v = vertex_id(rng.next() % n);
    q.epoch = rng.next() % (kEpochs + 1);
  }
  amem::reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic::answer_time_travel(history, queries));
  }
  state.SetItemsProcessed(std::int64_t(queries.size()) *
                          std::int64_t(state.iterations()));
  benchutil::report(state, amem::snapshot(), 64);
  state.counters["n"] = double(n);
  state.counters["B"] = double(batch);
}
BENCHMARK(BM_TimeTravel)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 64})
    ->Iterations(16);

}  // namespace

BENCHMARK_MAIN();
