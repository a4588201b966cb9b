// BatchQueryEngine: answer vectors of connectivity queries in parallel
// against one pinned snapshot. BiconnBatchQueryEngine: the same discipline
// for a pinned biconnectivity snapshot, over *mixed* query vectors
// (connectivity + biconnectivity + articulation/bridge probes).
//
// Oracle queries are read-only (rho and the local views run in symmetric
// scratch that is per-thread and reused across calls, released back to
// primitives::kScratchRetainEntries entries after each; their SymScratch
// claims are what a per-call allocation would hold; the center set and
// label array are written only at build), so a blocked parallel_for over
// the query vector is race-free.
// Each query stays at the static oracle's cost — O(k) expected reads for
// connectivity, O(k^2) expected operations for biconnectivity — and the
// engines add no writes beyond the output vector (one per query).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dynamic/biconn_snapshot.hpp"
#include "dynamic/snapshot_store.hpp"
#include "parallel/parallel_for.hpp"

namespace wecc::dynamic {

/// One (u, v) connectivity query.
struct VertexPair {
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
};

namespace detail {
/// The engines' shared discipline: map fn over [0, count) on the thread
/// pool, one counted write per produced answer.
template <typename T, typename F>
std::vector<T> parallel_map(std::size_t count, std::size_t grain, F&& fn) {
  std::vector<T> out(count);
  parallel::parallel_for(
      0, count,
      [&](std::size_t i) {
        out[i] = fn(i);
        amem::count_write();
      },
      grain);
  return out;
}
}  // namespace detail

/// One probe of a mixed biconnectivity batch: what to ask and of whom.
/// `v` is ignored by kArticulation.
struct MixedQuery {
  enum class Kind : std::uint8_t {
    kConnected,
    kBiconnected,
    kTwoEdgeConnected,
    kArticulation,
    kBridge,
    /// Block (BCC) membership of edge (u, v): boolean answer "edge (u, v)
    /// exists and belongs to a block"; the engine's block_ids() companion
    /// returns the id itself (patch-aware — patch-inserted edges answer
    /// through their merged block class; 0 = absent edge / self-loop).
    kEdgeBcc,
  };
  Kind kind = Kind::kConnected;
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
};

/// The boolean answer to one mixed query, against any surface with the
/// five query methods plus has_edge(u, v) — a BiconnSnapshot, a
/// persist::QueryView, or a brute-force reference. kEdgeBcc answers edge
/// presence: every present non-self-loop edge belongs to a block.
template <typename Surface>
[[nodiscard]] bool answer(const Surface& s, const MixedQuery& q) {
  switch (q.kind) {
    case MixedQuery::Kind::kConnected: return s.connected(q.u, q.v);
    case MixedQuery::Kind::kBiconnected: return s.biconnected(q.u, q.v);
    case MixedQuery::Kind::kTwoEdgeConnected:
      return s.two_edge_connected(q.u, q.v);
    case MixedQuery::Kind::kArticulation: return s.is_articulation(q.u);
    case MixedQuery::Kind::kBridge: return s.is_bridge(q.u, q.v);
    case MixedQuery::Kind::kEdgeBcc: return s.has_edge(q.u, q.v);
  }
  return false;
}

class BatchQueryEngine {
 public:
  /// Pins `snap` for the engine's lifetime: answers stay consistent with
  /// that epoch no matter how many batches are published meanwhile.
  explicit BatchQueryEngine(std::shared_ptr<const Snapshot> snap)
      : snap_(std::move(snap)) {}

  [[nodiscard]] const Snapshot& snapshot() const noexcept { return *snap_; }

  /// connected(u, v) per pair. Grain is small because each query already
  /// costs O(k) expected operations.
  [[nodiscard]] std::vector<std::uint8_t> connected(
      std::span<const VertexPair> queries, std::size_t grain = 64) const {
    return detail::parallel_map<std::uint8_t>(
        queries.size(), grain, [&](std::size_t i) {
          return snap_->connected(queries[i].u, queries[i].v) ? 1 : 0;
        });
  }

  /// component_of(v) per vertex.
  [[nodiscard]] std::vector<graph::vertex_id> components(
      std::span<const graph::vertex_id> vertices,
      std::size_t grain = 64) const {
    return detail::parallel_map<graph::vertex_id>(
        vertices.size(), grain,
        [&](std::size_t i) { return snap_->component_of(vertices[i]); });
  }

 private:
  std::shared_ptr<const Snapshot> snap_;
};

/// Mixed-surface batch queries against one pinned biconnectivity epoch.
class BiconnBatchQueryEngine {
 public:
  /// Pins `snap` for the engine's lifetime: answers stay consistent with
  /// that epoch no matter how many batches are published meanwhile.
  explicit BiconnBatchQueryEngine(std::shared_ptr<const BiconnSnapshot> snap)
      : snap_(std::move(snap)) {}

  [[nodiscard]] const BiconnSnapshot& snapshot() const noexcept {
    return *snap_;
  }

  /// Answer a mixed query vector in parallel; out[i] is query i's boolean.
  /// Grain defaults lower than the connectivity engine's because each
  /// biconnectivity probe already costs O(k^2) expected operations.
  [[nodiscard]] std::vector<std::uint8_t> answer(
      std::span<const MixedQuery> queries, std::size_t grain = 16) const {
    return detail::parallel_map<std::uint8_t>(
        queries.size(), grain, [&](std::size_t i) {
          return dynamic::answer(*snap_, queries[i]) ? 1 : 0;
        });
  }

  /// component_of(v) per vertex (patched labels).
  [[nodiscard]] std::vector<graph::vertex_id> components(
      std::span<const graph::vertex_id> vertices,
      std::size_t grain = 64) const {
    return detail::parallel_map<graph::vertex_id>(
        vertices.size(), grain,
        [&](std::size_t i) { return snap_->component_of(vertices[i]); });
  }

  /// Block ids for the kEdgeBcc queries of a mixed vector, in query order
  /// (non-kEdgeBcc entries are skipped).
  [[nodiscard]] std::vector<std::uint64_t> block_ids(
      std::span<const MixedQuery> queries, std::size_t grain = 16) const {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].kind == MixedQuery::Kind::kEdgeBcc) idx.push_back(i);
    }
    return detail::parallel_map<std::uint64_t>(
        idx.size(), grain, [&](std::size_t i) {
          const MixedQuery& q = queries[idx[i]];
          return snap_->edge_block_id(q.u, q.v);
        });
  }

  /// answer() and block_ids() from one pass, as the service answers a
  /// request: each kEdgeBcc id is computed once and its boolean is
  /// id != 0. Charges one write per answer and one per id.
  struct AnswersWithIds {
    std::vector<std::uint8_t> answers;
    std::vector<std::uint64_t> block_ids;
  };
  [[nodiscard]] AnswersWithIds answer_with_block_ids(
      std::span<const MixedQuery> queries, std::size_t grain = 16) const {
    const auto is_id = [&](std::size_t i) {
      return queries[i].kind == MixedQuery::Kind::kEdgeBcc;
    };
    const std::vector<std::uint64_t> raw = detail::parallel_map<std::uint64_t>(
        queries.size(), grain, [&](std::size_t i) -> std::uint64_t {
          const MixedQuery& q = queries[i];
          if (is_id(i)) return snap_->edge_block_id(q.u, q.v);
          return dynamic::answer(*snap_, q) ? 1 : 0;
        });
    AnswersWithIds out;
    out.answers.resize(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      out.answers[i] = raw[i] != 0 ? 1 : 0;
      if (is_id(i)) out.block_ids.push_back(raw[i]);
    }
    amem::count_write(out.block_ids.size());
    return out;
  }

 private:
  std::shared_ptr<const BiconnSnapshot> snap_;
};

/// One time-travel probe: a MixedQuery pinned to a historical epoch.
/// Answered against on-disk epoch history (persist::EpochHistory), not a
/// pinned in-memory snapshot — the epoch may long predate every snapshot
/// the store still holds.
struct TimeTravelQuery {
  MixedQuery::Kind kind = MixedQuery::Kind::kConnected;
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
  std::uint64_t epoch = 0;
};

/// Answer a time-travel query vector in parallel. `History` is anything
/// with a thread-safe `answer_at(kind, u, v, epoch)` — persist::
/// EpochHistory in production (templated here so the dynamic layer does
/// not depend on the persistence layer). Grain defaults low: the first
/// probe of a cold epoch pays that epoch's reconstruction.
template <typename History>
[[nodiscard]] std::vector<std::uint8_t> answer_time_travel(
    const History& history, std::span<const TimeTravelQuery> queries,
    std::size_t grain = 4) {
  return detail::parallel_map<std::uint8_t>(
      queries.size(), grain, [&](std::size_t i) {
        const TimeTravelQuery& q = queries[i];
        return history.answer_at(q.kind, q.u, q.v, q.epoch) ? 1 : 0;
      });
}

}  // namespace wecc::dynamic
