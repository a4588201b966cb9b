// Parallel selective-rebuild suite (docs/parallel_rebuild.md):
//
//  * shard.hpp unit coverage — shard_count shape, sharded_for completeness,
//    order-independence and exception propagation (the property the dynamic
//    facades' strong exception guarantee rides on);
//  * the determinism contract — rebuild_threads in {0 (auto), 1, 2, pool}
//    publish identical labels, bridges and articulation sets across a
//    batch sequence where every apply pays a selective rebuild, on both
//    facades, and each report echoes the worker count it resolved;
//  * a TSan race hunt — a writer whose sharded rebuild passes run on the
//    pool while reader threads pin snapshots and re-query them. Assertions
//    are within-snapshot only; ThreadSanitizer adds the real ones when the
//    CI sanitize-thread leg raises WECC_RACE_HUNT_MS.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "primitives/union_find.hpp"
#include "parallel/rng.hpp"
#include "parallel/shard.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace wecc {
namespace {

// Force a real worker pool before its first use, so the sharded passes
// exercise cross-thread scheduling even on single-core CI runners.
const bool g_force_pool = [] {
  parallel::set_num_threads(4);
  return true;
}();

using graph::vertex_id;

std::chrono::milliseconds race_hunt_budget() {
  if (const char* env = std::getenv("WECC_RACE_HUNT_MS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return std::chrono::milliseconds(v);
  }
  return std::chrono::milliseconds(1500);  // smoke-level churn by default
}

// ---------------------------------------------------------------------------
// shard.hpp
// ---------------------------------------------------------------------------

TEST(Shard, ShardCountShape) {
  EXPECT_EQ(parallel::shard_count(0, 8), 0u);
  EXPECT_EQ(parallel::shard_count(1, 8), 1u);
  EXPECT_EQ(parallel::shard_count(100, 0), 1u);
  EXPECT_EQ(parallel::shard_count(100, 1), 1u);
  EXPECT_EQ(parallel::shard_count(100, 2), 16u);  // 8 shards per worker
  EXPECT_EQ(parallel::shard_count(5, 4), 5u);     // never more than items
}

TEST(Shard, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {0u, 1u, 2u, 4u, 7u}) {
    for (const std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel::sharded_for(n, threads, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads
                                     << " i=" << i;
      }
    }
  }
}

TEST(Shard, DisjointSlotsMakeResultsThreadCountIndependent) {
  const std::size_t n = 500;
  std::vector<std::uint64_t> serial(n), parallel_out(n);
  const auto body = [](std::size_t i) {
    return std::uint64_t(i) * 2654435761u + 17;
  };
  parallel::sharded_for(n, 1, [&](std::size_t i) { serial[i] = body(i); });
  parallel::sharded_for(n, 4,
                        [&](std::size_t i) { parallel_out[i] = body(i); });
  EXPECT_EQ(serial, parallel_out);
}

TEST(Shard, ExceptionPropagatesToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallel::sharded_for(100, threads,
                              [&](std::size_t i) {
                                ran.fetch_add(1);
                                if (i == 37) {
                                  throw std::runtime_error("shard 37");
                                }
                              }),
        std::runtime_error)
        << "threads=" << threads;
    EXPECT_GE(ran.load(), 1);
  }
}

// ---------------------------------------------------------------------------
// Determinism: identical published state for any rebuild_threads value.
// ---------------------------------------------------------------------------

/// The worker count a facade reports for a rebuild_threads setting:
/// 0 resolves to the pool size.
std::size_t resolved(std::size_t rebuild_threads) {
  return rebuild_threads >= 1 ? rebuild_threads : parallel::num_threads();
}

/// Mixed half-delete / half-insert batches generated independently of any
/// facade (deletions always come from earlier insertions), so the same
/// sequence can drive several facades identically.
std::vector<dynamic::UpdateBatch> make_batches(std::size_t n,
                                               std::size_t batches,
                                               std::size_t batch_size) {
  parallel::Rng rng(20260807);
  graph::EdgeList pool;
  std::vector<dynamic::UpdateBatch> out;
  for (std::size_t b = 0; b < batches; ++b) {
    dynamic::UpdateBatch batch;
    for (std::size_t i = 0; i < batch_size / 2; ++i) {
      batch.insertions.push_back({vertex_id(rng.next_int(n)),
                                  vertex_id(rng.next_int(n))});
    }
    while (batch.deletions.size() < batch_size / 2 && !pool.empty()) {
      batch.deletions.push_back(pool.back());
      pool.pop_back();
    }
    for (const auto& e : batch.insertions) pool.push_back(e);
    out.push_back(std::move(batch));
  }
  return out;
}

/// `count` vertex cuts of `base`: each deletes every base edge at one
/// vertex of base degree 4, the vertices taken in id order and pairwise
/// non-adjacent so no two cuts delete the same edge. A stripped vertex
/// keeps only the edges inserted at it since; unless two of those are
/// frozen by an earlier rebuild, the certificate for its last base edge
/// finds no two disjoint replacement paths, and the batch takes a
/// selective rebuild.
std::vector<graph::EdgeList> vertex_cuts(const graph::Graph& base,
                                         std::size_t count) {
  const std::size_t n = base.num_vertices();
  const graph::EdgeList edges = base.edge_list();
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  std::vector<bool> blocked(n, false);  // a cut vertex or its neighbor
  std::vector<graph::EdgeList> cuts;
  for (vertex_id x = 0; x < n && cuts.size() < count; ++x) {
    if (degree[x] != 4 || blocked[x]) continue;
    graph::EdgeList cut;
    for (const auto& e : edges) {
      if (e.u == x || e.v == x) cut.push_back(e);
    }
    for (const auto& [u, v] : cut) blocked[u] = blocked[v] = true;
    cuts.push_back(std::move(cut));
  }
  return cuts;
}

TEST(ParallelRebuildDeterminism, BiconnFacadeAgreesAcrossThreadCounts) {
  const graph::Graph base = graph::gen::percolation_grid(40, 40, 0.45, 11);
  const std::size_t n = base.num_vertices();
  auto batches = make_batches(n, 6, 64);
  // A vertex cut in every batch keeps the selective rebuild in play: the
  // block-merge algebra absorbs the LIFO churn on its own.
  const auto cuts = vertex_cuts(base, batches.size());
  ASSERT_EQ(cuts.size(), batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const auto& e : cuts[b]) batches[b].deletions.push_back(e);
  }

  // One facade per thread count; all must publish the same full query
  // surface after every epoch, and that surface must match the reference.
  const std::vector<std::size_t> thread_options = {0, 1, 2,
                                                   parallel::num_threads()};
  std::vector<std::unique_ptr<dynamic::DynamicBiconnectivity>> facades;
  for (const std::size_t t : thread_options) {
    dynamic::DynamicBiconnOptions opt;
    opt.oracle.k = 4;
    opt.rebuild_threads = t;
    facades.push_back(std::make_unique<dynamic::DynamicBiconnectivity>(
        graph::Graph(base), opt));
  }
  const std::size_t nfacades = thread_options.size();
  testutil::EdgeSetModel model(n, base.edge_list());

  std::size_t selective_seen = 0;
  for (const auto& batch : batches) {
    std::vector<dynamic::BiconnUpdateReport::Path> paths;
    for (std::size_t f = 0; f < nfacades; ++f) {
      const auto report = facades[f]->apply(batch);
      paths.push_back(report.path);
      if (report.path ==
          dynamic::BiconnUpdateReport::Path::kSelectiveRebuild) {
        ++selective_seen;
        EXPECT_EQ(report.rebuild_threads, resolved(thread_options[f]));
      }
    }
    for (const auto& e : batch.deletions) model.remove(e);
    for (const auto& e : batch.insertions) model.add(e);
    // The chosen update path is thread-count independent.
    for (std::size_t f = 1; f < nfacades; ++f) {
      ASSERT_EQ(paths[f], paths[0]) << "facade " << f;
    }
    // Every facade's full surface matches the reference — every vertex,
    // every present edge, and a sample of random pairs — and labels and
    // block ids (patch-union winners included) are bit-identical across
    // thread counts.
    const testutil::BruteSurface truth(model.materialize());
    const auto s0 = facades[0]->snapshot();
    const graph::EdgeList edges = facades[0]->current_edge_list();
    std::vector<graph::Edge> pairs = edges;
    for (vertex_id v = 0; v < n; ++v) {
      pairs.push_back({v, vertex_id((std::uint64_t(v) * 2654435761u) % n)});
    }
    for (std::size_t f = 0; f < nfacades; ++f) {
      const auto sf = facades[f]->snapshot();
      const std::string where = "facade " + std::to_string(f);
      testutil::expect_full_surface_eq(*sf, truth, pairs, where.c_str());
      if (f == 0) continue;
      for (vertex_id v = 0; v < n; ++v) {
        ASSERT_EQ(s0->component_of(v), sf->component_of(v)) << "v=" << v;
      }
      ASSERT_EQ(edges, facades[f]->current_edge_list());
      for (const auto& [u, v] : edges) {
        ASSERT_EQ(s0->edge_block_id(u, v), sf->edge_block_id(u, v))
            << u << "," << v;
      }
    }
  }
  // Every batch carries a vertex cut, so each facade took the selective
  // path at least once.
  EXPECT_GE(selective_seen, nfacades);
}

TEST(ParallelRebuildDeterminism, ConnFacadeAgreesAcrossThreadCounts) {
  const graph::Graph base = graph::gen::percolation_grid(40, 40, 0.45, 7);
  const std::size_t n = base.num_vertices();
  const auto batches = make_batches(n, 6, 64);

  const std::vector<std::size_t> thread_options = {0, 1, 2,
                                                   parallel::num_threads()};
  std::vector<std::unique_ptr<dynamic::DynamicConnectivity>> facades;
  for (const std::size_t t : thread_options) {
    dynamic::DynamicOptions opt;
    opt.oracle.k = 4;
    opt.rebuild_threads = t;
    facades.push_back(std::make_unique<dynamic::DynamicConnectivity>(
        graph::Graph(base), opt));
  }

  std::size_t selective_seen = 0;
  for (const auto& batch : batches) {
    for (std::size_t f = 0; f < facades.size(); ++f) {
      const auto report = facades[f]->apply(batch);
      if (report.path == dynamic::UpdateReport::Path::kSelectiveRebuild) {
        ++selective_seen;
        EXPECT_EQ(report.rebuild_threads, resolved(thread_options[f]));
        EXPECT_GE(report.rebuild_shards, 1u);
      }
    }
    const auto s0 = facades[0]->snapshot();
    for (std::size_t f = 1; f < facades.size(); ++f) {
      const auto sf = facades[f]->snapshot();
      for (vertex_id v = 0; v < n; ++v) {
        ASSERT_EQ(s0->component_of(v), sf->component_of(v)) << "v=" << v;
      }
    }
  }
  EXPECT_GE(selective_seen, facades.size());
}

// ---------------------------------------------------------------------------
// Golden trace: both facades' update paths, write counts and published
// surfaces pinned epoch by epoch, so a refactor of the shared writer core
// cannot silently move a batch to another path or change what it charges.
// ---------------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of each value.
struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

std::uint64_t surface_digest(const dynamic::DynamicConnectivity& dc) {
  Digest d;
  const auto snap = dc.snapshot();
  for (vertex_id v = 0; v < dc.num_vertices(); ++v) {
    d.add(snap->component_of(v));
  }
  return d.h;
}

std::uint64_t surface_digest(const dynamic::DynamicBiconnectivity& dbc) {
  Digest d;
  const auto snap = dbc.snapshot();
  for (vertex_id v = 0; v < dbc.num_vertices(); ++v) {
    d.add(snap->component_of(v));
    d.add(snap->is_articulation(v) ? 1 : 0);
  }
  for (const auto& [u, v] : dbc.current_edge_list()) {
    if (u == v) continue;
    d.add(snap->is_bridge(u, v) ? 1 : 0);
    d.add(snap->biconnected(u, v) ? 1 : 0);
    d.add(snap->two_edge_connected(u, v) ? 1 : 0);
    d.add(snap->edge_block_id(u, v));
  }
  return d.h;
}

struct GoldenEpoch {
  dynamic::UpdateReportBase::Path path;
  dynamic::RebuildReason reason;
  std::uint64_t writes;
  std::uint64_t reads;
  std::uint64_t digest;
};

/// Epoch 0 (no report: path kInitialBuild, zero counts), then one row per
/// apply(), then the closing compact().
template <typename Facade>
std::vector<GoldenEpoch> run_golden_trace(
    Facade& facade, const std::vector<dynamic::UpdateBatch>& trace) {
  std::vector<GoldenEpoch> out;
  out.push_back({dynamic::UpdateReportBase::Path::kInitialBuild,
                 dynamic::RebuildReason::kNone, 0, 0,
                 surface_digest(facade)});
  const auto record = [&](const auto& report) {
    dynamic::RebuildReason reason = dynamic::RebuildReason::kNone;
    if constexpr (requires { report.rebuild_reason; }) {
      reason = report.rebuild_reason;
    }
    out.push_back({report.path, reason, report.writes, report.reads,
                   surface_digest(facade)});
  };
  for (const auto& batch : trace) record(facade.apply(batch));
  record(facade.compact());
  return out;
}

TEST(FacadeGoldenTrace, PathsWritesAndSurfacesPinned) {
  using Path = dynamic::UpdateReportBase::Path;
  const graph::Graph base = graph::gen::percolation_grid(40, 40, 0.45, 11);
  const std::size_t n = base.num_vertices();
  // The trace: eight insertions that each join two base components (bridges
  // every facade absorbs), a batch deleting half of them (absorbed by
  // journal cancellation), make_batches' mixed batches each followed by 32
  // random insertions, and finally four vertex cuts, each deleting every
  // base edge at one vertex (no certificate survives it, so every facade
  // rebuilds).
  std::vector<dynamic::UpdateBatch> trace;
  parallel::Rng rng(20261017);
  const auto random_edge = [&] {
    return graph::Edge{vertex_id(rng.next_int(n)), vertex_id(rng.next_int(n))};
  };
  {
    primitives::UnionFind uf(n);
    for (const auto& [u, v] : base.edge_list()) uf.unite(u, v);
    dynamic::UpdateBatch bridges;
    while (bridges.insertions.size() < 8) {
      const graph::Edge e = random_edge();
      if (uf.unite(e.u, e.v)) bridges.insertions.push_back(e);
    }
    trace.push_back(bridges);
    trace.push_back(dynamic::UpdateBatch::deleting(
        {bridges.insertions.begin(), bridges.insertions.begin() + 4}));
  }
  for (auto& mixed : make_batches(n, 6, 64)) {
    trace.push_back(std::move(mixed));
    dynamic::UpdateBatch ins;
    for (int i = 0; i < 32; ++i) ins.insertions.push_back(random_edge());
    trace.push_back(std::move(ins));
  }
  for (auto& cut : vertex_cuts(base, 4)) {
    ASSERT_EQ(cut.size(), 4u);
    trace.push_back(dynamic::UpdateBatch::deleting(std::move(cut)));
  }

  // Per facade: epoch 0, then one row per trace batch, then compact().
  // Reads are pinned at one rebuild thread only, and not on compaction
  // rows (0 there): the from-scratch build's pool passes move them by a
  // few counts from run to run.
  using enum dynamic::UpdateReportBase::Path;
  using enum dynamic::RebuildReason;
  using Rows = std::vector<GoldenEpoch>;
  const Rows conn_rows = {
      {kInitialBuild, kNone, 0, 0, 0xa4e5d4d973bb2d19ULL},
      {kFastInsert, kNone, 24, 302, 0xbb5a08bf6f7dbfddULL},
      {kSelectiveRebuild, kNone, 1976, 22702, 0x8330f5aa9f75094bULL},
      {kFastInsert, kNone, 92, 967, 0x312293f9c2102588ULL},
      {kFastInsert, kNone, 89, 1086, 0xf6c27bf8a8f0e105ULL},
      {kSelectiveRebuild, kNone, 2350, 45768, 0x64ff8aff3ff89941ULL},
      {kFastInsert, kNone, 77, 988, 0x9fe37c34afad4cdbULL},
      {kSelectiveRebuild, kNone, 2331, 46754, 0x59659cb0e76d69efULL},
      {kFastInsert, kNone, 77, 1046, 0x6d52a941900b796cULL},
      {kSelectiveRebuild, kNone, 2354, 50100, 0x20b32e9d026e2fc2ULL},
      {kFastInsert, kNone, 76, 962, 0x5a9d2c08cbdbabc7ULL},
      {kSelectiveRebuild, kNone, 2362, 51421, 0xef764a67c761d7aULL},
      {kFastInsert, kNone, 74, 991, 0x3dd187161db78d34ULL},
      {kSelectiveRebuild, kNone, 2369, 52883, 0xf40b971298ecb948ULL},
      {kFastInsert, kNone, 82, 1011, 0x1222668955f443b3ULL},
      {kSelectiveRebuild, kNone, 2258, 53118, 0xb853fbf0fcf7cc65ULL},
      {kSelectiveRebuild, kNone, 2246, 52286, 0xbdf6c633a39ec9bULL},
      {kSelectiveRebuild, kNone, 2245, 52157, 0x195d8c9eb14eb709ULL},
      {kSelectiveRebuild, kNone, 2243, 51878, 0xa91aaad2ba6e0448ULL},
      {kCompaction, kNone, 1803, 0, 0x6684ce8208c177a1ULL},
  };
  const Rows merge_rows = {
      {kInitialBuild, kNone, 0, 0, 0xd854ada1a4850a87ULL},
      {kFastInsert, kNone, 83, 361, 0x6bc618596a7a22ffULL},
      {kFastMixed, kNone, 47, 273, 0xe977c8b661d1cdd1ULL},
      {kFastInsert, kNone, 642, 38604, 0xa209b083865f27c6ULL},
      {kFastInsert, kNone, 680, 45485, 0xa68ce5f3166193fcULL},
      {kFastMixed, kNone, 1385, 54253, 0xfc190347762f495bULL},
      {kFastInsert, kNone, 1238, 113449, 0xbab34adc88f6b4bdULL},
      {kFastMixed, kNone, 2933, 150600, 0x4a85f082eb94f81ULL},
      {kFastInsert, kNone, 849, 89294, 0x566eacf800eac8ddULL},
      {kFastMixed, kNone, 3576, 180066, 0x46f6267d062bc40bULL},
      {kFastInsert, kNone, 600, 71632, 0x6a92d2e413f36a06ULL},
      {kFastMixed, kNone, 4215, 213390, 0x8a72a72c9929d70ULL},
      {kFastInsert, kNone, 550, 59670, 0x3c42ebcaeda3ace8ULL},
      {kFastMixed, kNone, 4706, 239569, 0xa9ae82500080dbaeULL},
      {kFastInsert, kNone, 463, 48209, 0x77dfa518b738640eULL},
      {kSelectiveRebuild, kTriageFailed, 20827, 122411, 0x3268c2f72466b076ULL},
      {kSelectiveRebuild, kTriageFailed, 20707, 116877, 0xd6cdc9ce51d7fdd5ULL},
      {kSelectiveRebuild, kTriageFailed, 20683, 116558, 0xf3c83c2c82904290ULL},
      {kSelectiveRebuild, kTriageFailed, 20684, 116118, 0x941d750113d761ceULL},
      {kCompaction, kForced, 22558, 0, 0x7ffbc9cc15c8d36eULL},
  };

  // Facade order: connectivity, then biconnectivity.
  const std::vector<Rows> golden = {conn_rows, merge_rows};
  const std::vector<std::set<Path>> every_path = {
      {kInitialBuild, kFastInsert, kSelectiveRebuild, kCompaction},
      {kInitialBuild, kFastInsert, kFastMixed, kSelectiveRebuild, kCompaction},
  };

  // Paths, writes and surfaces are thread-count independent.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    std::vector<Rows> got;
    {
      dynamic::DynamicOptions opt;
      opt.oracle.k = 4;
      opt.rebuild_threads = threads;
      dynamic::DynamicConnectivity dc(graph::Graph(base), opt);
      got.push_back(run_golden_trace(dc, trace));
    }
    {
      dynamic::DynamicBiconnOptions opt;
      opt.oracle.k = 4;
      opt.rebuild_threads = threads;
      dynamic::DynamicBiconnectivity dbc(graph::Graph(base), opt);
      got.push_back(run_golden_trace(dbc, trace));
    }
    for (std::size_t f = 0; f < got.size(); ++f) {
      std::set<Path> seen;
      for (std::size_t e = 0; e < got[f].size(); ++e) {
        const GoldenEpoch& g = got[f][e];
        seen.insert(g.path);
        ASSERT_LT(e, golden[f].size());
        const GoldenEpoch& want = golden[f][e];
        const std::string at = "threads " + std::to_string(threads) +
                               " facade " + std::to_string(f) + " epoch " +
                               std::to_string(e);
        EXPECT_EQ(g.path, want.path) << at;
        EXPECT_EQ(g.reason, want.reason) << at;
        EXPECT_EQ(g.writes, want.writes) << at;
        if (threads == 1 && g.path != kCompaction) {
          EXPECT_EQ(g.reads, want.reads) << at;
        }
        EXPECT_EQ(g.digest, want.digest) << at;
      }
      EXPECT_EQ(got[f].size(), golden[f].size());
      EXPECT_EQ(seen, every_path[f]) << "facade " << f;
    }
  }
}

// ---------------------------------------------------------------------------
// TSan race hunt: sharded rebuild passes vs pinned-snapshot readers.
// ---------------------------------------------------------------------------

TEST(ParallelRebuildRaceHunt, ShardedWriterVsPinnedReaders) {
  const graph::Graph base = graph::gen::percolation_grid(30, 30, 0.45, 3);
  dynamic::DynamicBiconnOptions opt;
  opt.oracle.k = 4;
  opt.rebuild_threads = 2;  // sharded passes share the pool with readers
  dynamic::DynamicBiconnectivity dbc(graph::Graph(base), opt);
  const std::size_t n = dbc.num_vertices();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> applied{0};

  std::thread writer([&] {
    parallel::Rng rng(99);
    graph::EdgeList pool;
    while (!stop.load(std::memory_order_acquire)) {
      dynamic::UpdateBatch batch;
      for (std::size_t i = 0; i < 16; ++i) {
        batch.insertions.push_back({vertex_id(rng.next_int(n)),
                                    vertex_id(rng.next_int(n))});
      }
      while (batch.deletions.size() < 16 && !pool.empty()) {
        batch.deletions.push_back(pool.back());
        pool.pop_back();
      }
      for (const auto& e : batch.insertions) pool.push_back(e);
      dbc.apply(batch);  // deletions present: selective rebuild every time
      applied.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      parallel::Rng rng(1000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = dbc.snapshot();
        // Within-snapshot invariant: a pinned epoch is immutable, so the
        // same query asked twice must agree with itself.
        const auto u = vertex_id(rng.next_int(n));
        const auto v = vertex_id(rng.next_int(n));
        const bool c1 = snap->connected(u, v);
        const bool b1 = snap->biconnected(u, v);
        ASSERT_EQ(c1, snap->connected(u, v));
        ASSERT_EQ(b1, snap->biconnected(u, v));
        if (b1) {
          ASSERT_TRUE(c1);
        }
        ASSERT_EQ(snap->is_articulation(u), snap->is_articulation(u));
      }
    });
  }

  std::this_thread::sleep_for(race_hunt_budget());
  stop.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(applied.load(), 1u);
}

}  // namespace
}  // namespace wecc
