// Concurrency suite: deterministic multi-threaded unit tests for the
// snapshot ring, plus the TSan race-hunt harness — one serialized writer
// applying insert/delete/compaction batches against a dynamic facade while
// reader threads pin epochs, run parallel batch-query vectors, and churn
// SnapshotStore::at_epoch/stats against eviction.
//
// The harness asserts only *within-snapshot* invariants (a pinned epoch is
// immutable, so repeated queries must agree and the surfaces must be
// mutually consistent); cross-epoch answers race with the writer by design.
// Its real assertions are the ones ThreadSanitizer adds: the CI
// sanitize-thread leg runs this binary with WECC_RACE_HUNT_MS raised so the
// writer/reader churn exceeds 30 seconds. Locally:
//
//   WECC_SANITIZE=thread scripts/check.sh build-tsan
//   WECC_RACE_HUNT_MS=20000 build-tsan/tests/concurrency_test
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "dynamic/snapshot_store.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace wecc {
namespace {

// Force a real worker pool before its first use, so the parallel query
// engines exercise cross-thread scheduling even on single-core CI runners
// (and under WECC_THREADS=1, which other suites use for determinism).
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

std::uint64_t pack(vertex_id u, vertex_id v) {
  if (u > v) std::swap(u, v);
  return (std::uint64_t(u) << 32) | v;
}

graph::EdgeList unique_random_edges(std::size_t n, std::size_t m,
                                    std::uint64_t seed,
                                    std::set<std::uint64_t>& keys) {
  parallel::Rng rng(seed);
  graph::EdgeList edges;
  while (edges.size() < m) {
    const auto u = vertex_id(rng.next_int(n));
    const auto v = vertex_id(rng.next_int(n));
    if (u == v) continue;
    if (!keys.insert(pack(u, v)).second) continue;
    edges.push_back({std::min(u, v), std::max(u, v)});
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Deterministic multi-threaded ring tests. No timing dependence: thread
// interleavings are fixed by latches (PinAcrossEviction) or bounded by
// publish counts (PublishVsAtEpoch), so every run checks the same thing —
// under plain builds and all three sanitizer legs.
// ---------------------------------------------------------------------------

struct FakeSnap {
  std::uint64_t e;
  [[nodiscard]] std::uint64_t epoch() const noexcept { return e; }
};

TEST(SnapshotStoreMT, PublishVsAtEpochBinarySearch) {
  constexpr std::uint64_t kEpochs = 4000;
  constexpr std::size_t kReaders = 3;
  dynamic::SnapshotStoreT<FakeSnap> store(16);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{0}));

  std::latch start(kReaders + 1);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      parallel::Rng rng(17 * (r + 1));
      start.arrive_and_wait();
      std::uint64_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto cur = store.current();
        if (cur == nullptr || cur->epoch() < last_seen) {
          ++failures;  // current() must never regress for one reader
          continue;
        }
        last_seen = cur->epoch();
        // Probe around the frontier: hits must echo the exact epoch,
        // misses (evicted or not yet published) must be null.
        const std::uint64_t probe = rng.next_int(last_seen + 32);
        const auto hit = store.at_epoch(probe);
        if (hit != nullptr && hit->epoch() != probe) ++failures;
        const auto epochs = store.epochs();
        if (!std::is_sorted(epochs.begin(), epochs.end())) ++failures;
      }
    });
  }

  start.arrive_and_wait();
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    store.publish(std::make_shared<FakeSnap>(FakeSnap{e}));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.published, kEpochs + 1);
  EXPECT_EQ(stats.evicted, kEpochs + 1 - stats.size);
  EXPECT_LE(stats.pinned_evicted, stats.evicted);
}

TEST(SnapshotStoreMT, PinAcrossEvictionExactBooks) {
  dynamic::SnapshotStoreT<FakeSnap> store(2);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{1}));
  store.publish(std::make_shared<FakeSnap>(FakeSnap{2}));

  std::latch pinned(1), evicted(1), released(1);
  std::thread reader([&] {
    auto pin = store.at_epoch(2);
    ASSERT_NE(pin, nullptr);
    pinned.count_down();
    evicted.wait();
    // The ring dropped epoch 2 while we hold it: the pin must stay valid
    // and keep answering identically.
    EXPECT_EQ(store.at_epoch(2), nullptr);
    EXPECT_EQ(pin->epoch(), 2u);
    pin.reset();
    released.count_down();
  });

  pinned.wait();
  EXPECT_EQ(store.stats().pins_outstanding, 1u);
  store.publish(std::make_shared<FakeSnap>(FakeSnap{3}));  // evicts 1, free
  store.publish(std::make_shared<FakeSnap>(FakeSnap{4}));  // evicts 2, pinned
  {
    const auto stats = store.stats();
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.pinned_evicted, 1u);
    EXPECT_EQ(stats.pins_outstanding, 0u);  // the pin left the ring with 2
  }
  evicted.count_down();
  released.wait();
  store.publish(std::make_shared<FakeSnap>(FakeSnap{5}));  // evicts 3, free
  EXPECT_EQ(store.stats().pinned_evicted, 1u);  // unchanged: 3 was unpinned
  reader.join();
}

// ---------------------------------------------------------------------------
// Race-hunt harness.
// ---------------------------------------------------------------------------

/// Writer-side edge bookkeeping so every generated deletion batch is valid.
class EdgeBook {
 public:
  EdgeBook(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed) {}

  [[nodiscard]] graph::EdgeList make_insertions(std::size_t want) {
    graph::EdgeList out;
    for (std::size_t attempts = 0; out.size() < want && attempts < 8 * want;
         ++attempts) {
      const auto u = vertex_id(rng_.next_int(n_));
      const auto v = vertex_id(rng_.next_int(n_));
      if (u == v || !keys_.insert(pack(u, v)).second) continue;
      out.push_back({std::min(u, v), std::max(u, v)});
    }
    return out;
  }

  [[nodiscard]] graph::EdgeList make_deletions(std::size_t want) {
    graph::EdgeList out;
    while (out.size() < want && !keys_.empty()) {
      auto it = keys_.begin();
      std::advance(it, std::ptrdiff_t(rng_.next_int(keys_.size())));
      out.push_back({vertex_id(*it >> 32), vertex_id(*it & 0xffffffffu)});
      keys_.erase(it);
    }
    return out;
  }

  [[nodiscard]] vertex_id random_vertex() {
    return vertex_id(rng_.next_int(n_));
  }
  std::set<std::uint64_t>& keys() { return keys_; }

 private:
  std::size_t n_;
  parallel::Rng rng_;
  std::set<std::uint64_t> keys_;
};

/// Shared harness scaffolding: runs `writer` against `reader(tid)` threads
/// until the budget expires, then reports iteration counts so a stuck
/// thread fails loudly instead of silently under-testing.
template <typename WriterFn, typename ReaderFn>
void run_churn(std::size_t num_readers, WriterFn&& writer, ReaderFn&& reader) {
  const auto budget = race_hunt_budget();
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> writer_iters{0};
  std::atomic<std::uint64_t> reader_iters{0};

  std::vector<std::thread> threads;
  threads.reserve(num_readers + 1);
  threads.emplace_back([&] {
    while (std::chrono::steady_clock::now() < deadline) {
      writer();
      writer_iters.fetch_add(1, std::memory_order_relaxed);
    }
    done.store(true, std::memory_order_release);
  });
  for (std::size_t t = 0; t < num_readers; ++t) {
    threads.emplace_back([&, t] {
      while (!done.load(std::memory_order_acquire)) {
        reader(t);
        reader_iters.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(writer_iters.load(), 0u);
  EXPECT_GT(reader_iters.load(), 0u);
}

TEST(RaceHunt, ConnectivityWriterVsReaders) {
  constexpr std::size_t kN = 512;
  constexpr std::size_t kReaders = 3;
  EdgeBook book(kN, 99);
  const graph::EdgeList base = unique_random_edges(kN, 700, 7, book.keys());

  dynamic::DynamicOptions opt;
  opt.snapshot_capacity = 4;
  opt.compact_threshold = 4096;  // small enough that churn crosses it
  opt.oracle.parallel = true;
  opt.oracle.parallel_children = true;
  dynamic::DynamicConnectivity dc(graph::Graph::from_edges(kN, base), opt);

  std::uint64_t step = 0;
  const auto writer = [&] {
    ++step;
    if (step % 64 == 0) {
      dc.compact();
    } else if (step % 4 == 0) {
      dynamic::UpdateBatch batch;
      batch.deletions = book.make_deletions(12);
      batch.insertions = book.make_insertions(12);
      if (!batch.empty()) dc.apply(batch);
    } else {
      const graph::EdgeList ins = book.make_insertions(24);
      if (!ins.empty()) dc.insert_edges(ins);
    }
  };

  const auto reader = [&](std::size_t tid) {
    parallel::Rng rng(1000 + tid);
    // Pin the latest epoch and interrogate it through the batch engine.
    const auto snap = dc.snapshot();
    ASSERT_NE(snap, nullptr);
    dynamic::BatchQueryEngine engine(snap);
    std::vector<dynamic::VertexPair> pairs(128);
    std::vector<vertex_id> verts(128);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      pairs[i] = {vertex_id(rng.next_int(kN)), vertex_id(rng.next_int(kN))};
      verts[i] = pairs[i].u;
    }
    const auto answers = engine.connected(pairs, /*grain=*/16);
    const auto labels = engine.components(verts, /*grain=*/16);
    // Within one pinned epoch the surfaces must agree with each other and
    // with a re-ask (immutability is the whole point of the snapshot).
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const bool again = snap->connected(pairs[i].u, pairs[i].v);
      ASSERT_EQ(answers[i] != 0, again);
      ASSERT_EQ(labels[i], snap->component_of(pairs[i].u));
      ASSERT_EQ(answers[i] != 0, snap->component_of(pairs[i].u) ==
                                     snap->component_of(pairs[i].v));
    }
    // Churn at_epoch/stats against concurrent publishes and evictions.
    const std::uint64_t frontier = dc.epoch();
    const std::uint64_t probe =
        frontier - std::min<std::uint64_t>(frontier, rng.next_int(8));
    if (const auto old = dc.store().at_epoch(probe)) {
      ASSERT_EQ(old->epoch(), probe);
      ASSERT_TRUE(old->connected(0, 0));
    }
    const auto stats = dc.store().stats();
    ASSERT_LE(stats.size, stats.capacity);
    ASSERT_LE(stats.pinned_evicted, stats.evicted);
  };

  run_churn(kReaders, writer, reader);
}

TEST(RaceHunt, BiconnectivityWriterVsReaders) {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kReaders = 3;
  EdgeBook book(kN, 4242);
  const graph::EdgeList base = unique_random_edges(kN, 380, 11, book.keys());

  dynamic::DynamicBiconnOptions opt;
  opt.snapshot_capacity = 4;
  opt.compact_threshold = 4096;
  dynamic::DynamicBiconnectivity db(graph::Graph::from_edges(kN, base), opt);

  std::uint64_t step = 0;
  const auto writer = [&] {
    ++step;
    if (step % 5 == 0) {
      dynamic::UpdateBatch batch;
      batch.deletions = book.make_deletions(8);
      batch.insertions = book.make_insertions(8);
      if (!batch.empty()) db.apply(batch);
    } else {
      const graph::EdgeList ins = book.make_insertions(16);
      if (!ins.empty()) db.apply(dynamic::UpdateBatch::inserting(ins));
    }
  };

  // Readers additionally hold a previous pin across writer epochs (the
  // pin-across-eviction pattern the ring's books must survive).
  std::vector<std::shared_ptr<const dynamic::BiconnSnapshot>> held(kReaders);
  const auto reader = [&](std::size_t tid) {
    parallel::Rng rng(9000 + tid);
    const auto snap = db.snapshot();
    ASSERT_NE(snap, nullptr);
    dynamic::BiconnBatchQueryEngine engine(snap);
    std::vector<dynamic::MixedQuery> queries(96);
    for (auto& q : queries) {
      q.kind = dynamic::MixedQuery::Kind(rng.next_int(6));
      q.u = vertex_id(rng.next_int(kN));
      q.v = vertex_id(rng.next_int(kN));
    }
    const auto answers = engine.answer(queries, /*grain=*/8);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto& q = queries[i];
      const bool got = answers[i] != 0;
      switch (q.kind) {
        case dynamic::MixedQuery::Kind::kConnected:
          ASSERT_EQ(got, snap->connected(q.u, q.v));
          break;
        case dynamic::MixedQuery::Kind::kBiconnected:
          ASSERT_EQ(got, snap->biconnected(q.u, q.v));
          if (got) {
            ASSERT_TRUE(snap->connected(q.u, q.v));
          }
          break;
        case dynamic::MixedQuery::Kind::kTwoEdgeConnected:
          ASSERT_EQ(got, snap->two_edge_connected(q.u, q.v));
          if (got) {
            ASSERT_TRUE(snap->connected(q.u, q.v));
          }
          break;
        case dynamic::MixedQuery::Kind::kArticulation:
          ASSERT_EQ(got, snap->is_articulation(q.u));
          break;
        case dynamic::MixedQuery::Kind::kBridge:
          ASSERT_EQ(got, snap->is_bridge(q.u, q.v));
          if (got && q.u != q.v) {
            ASSERT_TRUE(snap->connected(q.u, q.v));
          }
          break;
        case dynamic::MixedQuery::Kind::kEdgeBcc:
          ASSERT_EQ(got, snap->edge_block_id(q.u, q.v) != 0);
          if (got) {
            ASSERT_TRUE(snap->biconnected(q.u, q.v));
          }
          break;
      }
    }
    // Rotate the long-held pin: re-verify the old epoch still answers,
    // then swap in the current one. held[tid] is only touched by thread
    // tid; the ring sees the pin/unpin traffic.
    if (held[tid] != nullptr) {
      ASSERT_TRUE(held[tid]->connected(0, 0));
      ASSERT_LE(held[tid]->epoch(), snap->epoch());
    }
    held[tid] = snap;
    const auto stats = db.store().stats();
    ASSERT_LE(stats.size, stats.capacity);
    ASSERT_LE(stats.pinned_evicted, stats.evicted);
  };

  run_churn(kReaders, writer, reader);
}

}  // namespace
}  // namespace wecc
