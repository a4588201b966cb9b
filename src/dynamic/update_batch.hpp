// UpdateBatch: one epoch's worth of edge insertions and deletions, applied
// atomically — readers either see the whole batch (the new snapshot) or none
// of it (any pinned older snapshot). Also home to UpdateReport, the shared
// what-did-apply-do vocabulary of the dynamic facades.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "amem/counters.hpp"
#include "graph/graph.hpp"

namespace wecc::dynamic {

/// The fields every epoch-advancing operation reports, whichever facade ran
/// it: which update path, what it cost in the asymmetric-memory model, and
/// how long it took on the wall clock. UpdateReport (connectivity) and
/// BiconnUpdateReport (biconnectivity) extend this base with their
/// path-specific work counters; the service layer's ApplyResult folds the
/// base across both facades so one wire shape serves either.
struct UpdateReportBase {
  enum class Path : std::uint8_t {
    kInitialBuild,  // epoch-0 publish from the constructor
    kFastInsert,
    kSelectiveRebuild,
    kCompaction,
    kFastMixed,  // biconn block-merge path: deletions absorbed too
  };
  std::uint64_t epoch = 0;
  Path path = Path::kFastInsert;
  /// Counted asymmetric reads/writes the operation charged — the same
  /// delta accumulated into the facade's "dynamic*/..." phase bucket, so
  /// the process-wide caveat applies: concurrent instrumented readers land
  /// in a running update's numbers too.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Wall-clock duration of the operation, microseconds.
  std::uint64_t micros = 0;
  /// How the rebuild executed: the resolved worker count and the shard
  /// partition of its per-cluster passes. 0 on paths that run no sharded
  /// rebuild work (fast inserts; the connectivity facade's compaction,
  /// whose from-scratch build has its own internal parallelism).
  std::size_t rebuild_threads = 0;
  std::size_t rebuild_shards = 0;
};

/// Human-readable name of an update path (shared by the example service,
/// the server log, and the load generator — one spelling, not one per
/// binary).
[[nodiscard]] constexpr const char* path_name(
    UpdateReportBase::Path p) noexcept {
  switch (p) {
    case UpdateReportBase::Path::kInitialBuild: return "initial-build";
    case UpdateReportBase::Path::kFastInsert: return "fast-insert";
    case UpdateReportBase::Path::kSelectiveRebuild: return "selective";
    case UpdateReportBase::Path::kCompaction: return "compaction";
    case UpdateReportBase::Path::kFastMixed: return "fast-mixed";
  }
  return "?";
}

/// Why a biconnectivity batch fell off the O(B)-write fast path (kNone when
/// it did not). Carried on BiconnUpdateReport and over the wire, so the
/// server's shutdown stats can say *which* absorbability condition failed,
/// not just that a rebuild happened.
enum class RebuildReason : std::uint8_t {
  kNone,              // batch absorbed (or initial build)
  kCrossBlock,        // an insertion no block merge could express
  kTriageFailed,      // a deletion failed the 2-connectivity certificate
  kDeletionOverflow,  // deletions present but the patch is too large to replay
  kCompactionDue,     // overlay delta crossed compact_threshold
  kForced,            // explicit compact()
};

/// Number of RebuildReason values — sizes histograms (server stats).
inline constexpr std::size_t kNumRebuildReasons =
    std::size_t(RebuildReason::kForced) + 1;

[[nodiscard]] constexpr const char* rebuild_reason_name(
    RebuildReason r) noexcept {
  switch (r) {
    case RebuildReason::kNone: return "none";
    case RebuildReason::kCrossBlock: return "cross-block";
    case RebuildReason::kTriageFailed: return "triage-failed";
    case RebuildReason::kDeletionOverflow: return "deletion-overflow";
    case RebuildReason::kCompactionDue: return "compaction";
    case RebuildReason::kForced: return "forced";
  }
  return "?";
}

/// Fill a report's cost fields from the measured phase delta and the
/// operation's start time — the one spelling both facades stamp reports
/// with (called after publish, so the duration covers the whole operation).
inline void stamp_report(UpdateReportBase& r, const amem::Stats& delta,
                         std::chrono::steady_clock::time_point start) {
  r.reads = delta.reads;
  r.writes = delta.writes;
  r.micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// What one DynamicConnectivity::apply() did — the shared base plus the
/// connectivity-specific work counters.
struct UpdateReport : UpdateReportBase {
  std::size_t dirty_clusters = 0;    // selective rebuild only
  std::size_t dirty_labels = 0;      // selective rebuild only
  std::size_t relabeled_centers = 0; // selective rebuild only
};

struct UpdateBatch {
  graph::EdgeList insertions;
  graph::EdgeList deletions;

  [[nodiscard]] bool empty() const noexcept {
    return insertions.empty() && deletions.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return insertions.size() + deletions.size();
  }

  static UpdateBatch inserting(graph::EdgeList edges) {
    return UpdateBatch{std::move(edges), {}};
  }
  static UpdateBatch deleting(graph::EdgeList edges) {
    return UpdateBatch{{}, std::move(edges)};
  }

  /// Reject endpoints outside the fixed vertex set [0, n) up front, so a
  /// malformed batch cannot corrupt the working overlay (edge existence for
  /// deletions is checked against the overlay by the caller).
  void validate(std::size_t n) const {
    auto check = [n](const graph::EdgeList& edges, const char* what) {
      for (const graph::Edge& e : edges) {
        if (e.u >= n || e.v >= n) {
          throw std::out_of_range(
              std::string(what) + " (" + std::to_string(e.u) + ", " +
              std::to_string(e.v) + ") out of range for n=" +
              std::to_string(n));
        }
      }
    };
    check(insertions, "inserted edge");
    check(deletions, "deleted edge");
  }
};

}  // namespace wecc::dynamic
