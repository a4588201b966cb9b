// EpochHistory: time-travel queries answered from the durable directory.
//
// The on-disk epoch history is (snapshot files) + (WAL records); any epoch
// between the oldest valid snapshot and the newest logged record can be
// reconstructed:
//
//   * an epoch with its own valid snapshot file is served zero-copy off the
//     mmap'd sections;
//   * any other epoch is rebuilt by taking the newest valid snapshot at or
//     below it and replaying the WAL batches up to it through the same
//     DerivedState engine the writer used — so a rebuilt epoch's answers
//     are bit-compatible with what a checkpoint of that epoch would have
//     served.
//
// Reconstructed views are cached (shared_ptr, so a view handed out stays
// valid however the cache evolves) and all query entry points are
// thread-safe — answer_time_travel fans a query vector over the pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dynamic/batch_query.hpp"
#include "dynamic/update_batch.hpp"
#include "persist/derived.hpp"
#include "persist/snapshot.hpp"

namespace wecc::persist {

/// One epoch's full query surface, sourced from disk. Immutable; safe to
/// share across threads.
class HistoricView {
 public:
  explicit HistoricView(SnapshotReader mapped)
      : epoch_(mapped.epoch()), mapped_(std::move(mapped)) {}
  HistoricView(std::uint64_t epoch, DerivedState derived)
      : epoch_(epoch), derived_(std::move(derived)) {}

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool mmap_backed() const noexcept {
    return mapped_.has_value();
  }
  [[nodiscard]] const QueryView& view() const noexcept {
    // Exactly one of mapped_/derived_ is engaged (see the two
    // constructors) — a class invariant the optional checker cannot see.
    // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
    return mapped_ ? mapped_->view() : derived_->view();
  }

 private:
  std::uint64_t epoch_;
  std::optional<SnapshotReader> mapped_;
  std::optional<DerivedState> derived_;
};

class EpochHistory {
 public:
  /// Index the durable directory: snapshot files of `kind` plus every
  /// replayable WAL record. Throws std::runtime_error when no valid
  /// snapshot exists (there is no epoch to anchor history at).
  explicit EpochHistory(const std::string& dir,
                        SnapshotKind kind = SnapshotKind::kBiconnectivity);

  /// Oldest / newest reconstructible epoch.
  [[nodiscard]] std::uint64_t min_epoch() const noexcept {
    return min_epoch_;
  }
  [[nodiscard]] std::uint64_t max_epoch() const noexcept {
    return max_epoch_;
  }
  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }

  /// The view at `epoch` (cached). Throws std::out_of_range outside
  /// [min_epoch, max_epoch] and std::runtime_error when every snapshot at
  /// or below `epoch` is corrupt.
  [[nodiscard]] std::shared_ptr<const HistoricView> at(
      std::uint64_t epoch) const;

  /// "Was this true at epoch e?" — one probe, any surface kind. kEdgeBcc
  /// answers edge presence only: block ids are epoch-internal names of the
  /// live snapshot, meaningless across reconstructions.
  [[nodiscard]] bool answer_at(dynamic::MixedQuery::Kind kind,
                               graph::vertex_id u, graph::vertex_id v,
                               std::uint64_t epoch) const {
    return dynamic::answer(at(epoch)->view(), {kind, u, v});
  }

  /// Epoch diff: the bridges present at `e2` that were not bridges at
  /// `e1` (canonical orientation, sorted). Sorted-key set difference —
  /// O(bridges(e1) + bridges(e2)) once both views exist.
  [[nodiscard]] graph::EdgeList bridges_appeared(std::uint64_t e1,
                                                 std::uint64_t e2) const;

 private:
  std::string dir_;
  SnapshotKind kind_;
  std::size_t n_ = 0;
  std::uint64_t min_epoch_ = 0;
  std::uint64_t max_epoch_ = 0;
  std::map<std::uint64_t, std::string> snapshots_;  // epoch -> path
  std::map<std::uint64_t, dynamic::UpdateBatch> batches_;  // epoch -> batch
  mutable std::mutex mu_;
  mutable std::map<std::uint64_t, std::shared_ptr<const HistoricView>>
      cache_;
};

}  // namespace wecc::persist
