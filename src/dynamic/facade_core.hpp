// FacadeCore: the writer core both batch-dynamic facades share.
// DynamicConnectivity and DynamicBiconnectivity derive from it (CRTP) and
// supply only their own decisions — how to absorb a batch into the pending
// patch, how to rebuild selectively, how to build from scratch. Everything
// around those decisions lives here once: the options every facade has,
// the writer lock and epoch, the working overlay, the snapshot ring, the
// durability log, the failure hook, and one apply()/compact() skeleton:
//
//   validate → plan an absorb (the engine consults fits_fast_path first)
//     → absorbed: commit in place under an undo log (insert-only) or
//       through a staged overlay (mixed)
//     → refused: stage the batch into a scratch overlay and rebuild —
//       compaction when the staged delta reaches compact_threshold, else
//       the engine's selective rebuild
//   → failure hook → phase accounting → log → publish → noexcept commit
//   → stamp the report.
//
// Exception safety: apply()/compact() give the *strong* guarantee, by two
// mechanisms matched to each path's cost budget. The staged paths (fast
// mixed, selective rebuild, compaction) run against a scratch copy of the
// working overlay and a fresh pending patch, and swap the members (base_,
// working_, state_, pending_) in with noexcept moves only after the new
// epoch's snapshot has been fully constructed and published. The O(B)
// insert fast path instead mutates the working overlay in place under a
// nothrow undo log (OverlayGraph::insert_edge_logged), so it never pays an
// O(delta) copy; a throw unwinds the log. Either way, any exception —
// pre-validation (std::out_of_range / std::invalid_argument), a bad_alloc
// mid-rebuild, a throwing durability log, or a throw from user code
// reached during the build — leaves the structure exactly at the previous
// epoch.
//
// Concurrency: apply()/compact() are serialized internally; readers never
// block — they pin an immutable snapshot from the store (or hand it to a
// batch query engine) and keep querying that epoch while the next version
// builds (apply_async runs the writer off-thread).
//
// Phase-counter caveat: the "dynamic*/..." buckets are measured with the
// process-wide amem counters, so counted traffic from *concurrent* readers
// lands in the running update's bucket too. Treat the buckets as exact only
// when updates run without concurrent instrumented readers (as the
// benchmarks do); under live mixed load they are an overestimate.
//
// What an Engine (the derived facade) provides:
//   static constexpr const char* kPhasePrefix;   // "dynamic/", ...
//   bool plan_absorb(const UpdateBatch&, Pending& out, Report&);
//   std::shared_ptr<const State> build_selective(
//       std::shared_ptr<const OverlayGraph> frozen, const UpdateBatch&,
//       Report&) const;
//   std::shared_ptr<const State> build_full(
//       std::shared_ptr<const OverlayGraph> frozen, Report&) const;
// and, where the defaults below do not fit, snapshot_of(),
// on_staged_commit() and account().
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "amem/counters.hpp"
#include "dynamic/durability.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/snapshot_store.hpp"
#include "dynamic/update_batch.hpp"
#include "parallel/thread_pool.hpp"

namespace wecc::dynamic {

/// The options every dynamic facade has; each facade's options add its
/// oracle's (and any knobs of its own).
struct FacadeOptions {
  /// Snapshots retained by the store (older pinned ones stay valid).
  std::size_t snapshot_capacity = 4;
  /// Overlay delta (arcs added + deleted) that triggers compaction;
  /// 0 = auto: max(32768, n / k) — large enough that a full rebuild is
  /// amortized over many thousands of updates even on small graphs.
  std::size_t compact_threshold = 0;
  /// Epoch number the initial build publishes as. Recovery sets this to the
  /// loaded snapshot's epoch so replayed WAL records line up; 0 otherwise.
  std::uint64_t first_epoch = 0;
  /// Worker count for the rebuilds' sharded passes (connectivity: the
  /// selective relabel's boundary prefill; biconnectivity: every rebuild
  /// path). 0 = auto: the global pool size, parallel::num_threads().
  /// Any value publishes identical state; the count only moves wall time.
  std::size_t rebuild_threads = 0;
};

template <typename Engine, typename Options, typename Report, typename Snap,
          typename State, typename Pending>
class FacadeCore {
 public:
  /// Facade vocabulary the service layer templates over: the report type
  /// apply()/compact() return and the snapshot type readers pin.
  using report_type = Report;
  using snapshot_type = Snap;
  using Path = UpdateReportBase::Path;

  /// Fixed at construction (only edges are dynamic), so this is safe to
  /// call from reader threads without the writer lock.
  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  /// Latest published epoch; wait-free (reader-safe during rebuilds).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Writer-side diagnostic: takes the writer lock, so it can stall behind
  /// an in-flight rebuild. Readers wanting a non-blocking signal should use
  /// epoch() / snapshot() instead.
  [[nodiscard]] std::size_t overlay_delta_size() const {
    const std::lock_guard<std::mutex> lock(write_mu_);
    return working_.delta_size();
  }
  [[nodiscard]] std::size_t compact_threshold() const noexcept {
    return opt_.compact_threshold;
  }

  /// The latest immutable snapshot (pin it; it never changes under you).
  [[nodiscard]] std::shared_ptr<const Snap> snapshot() const {
    return store_.current();
  }
  /// Pin the snapshot at an exact epoch; null if it was never published or
  /// has been evicted from the ring.
  [[nodiscard]] std::shared_ptr<const Snap> snapshot_at(
      std::uint64_t epoch) const {
    return store_.at_epoch(epoch);
  }

  /// The current logical edge set (base + all applied batches), canonical
  /// orientation — what a from-scratch rebuild of the latest epoch would
  /// consume. Note this is the *working* graph: after fast-path epochs it
  /// is ahead of the latest snapshot's frozen oracle graph (the snapshot
  /// closes that gap with its patch).
  [[nodiscard]] graph::EdgeList current_edge_list() const {
    const std::lock_guard<std::mutex> lock(write_mu_);
    return working_.edge_list();
  }
  /// The published epoch together with its logical edge set, read as one
  /// consistent pair under the writer lock — what persist::checkpoint
  /// serializes.
  [[nodiscard]] EpochEdgeList epoch_edge_list() const {
    const std::lock_guard<std::mutex> lock(write_mu_);
    return {epoch_.load(std::memory_order_acquire), working_.edge_list()};
  }
  [[nodiscard]] const SnapshotStoreT<Snap>& store() const noexcept {
    return store_;
  }

  /// Attach (or detach, with nullptr) a durability log. Every subsequent
  /// epoch-advancing operation logs its batch before publishing; see
  /// DurabilityLog for the redo contract. The initial build is not logged —
  /// it is the checkpoint's job to make epoch first_epoch durable.
  void set_durability_log(std::shared_ptr<DurabilityLog> log) {
    const std::lock_guard<std::mutex> lock(write_mu_);
    log_ = std::move(log);
  }

  /// Convenience single queries against the current snapshot.
  [[nodiscard]] bool connected(graph::vertex_id u, graph::vertex_id v) const {
    return snapshot()->connected(u, v);
  }
  [[nodiscard]] graph::vertex_id component_of(graph::vertex_id v) const {
    return snapshot()->component_of(v);
  }

  /// Apply one batch atomically and publish the next epoch, with the strong
  /// exception guarantee. Throws std::out_of_range for endpoints outside
  /// [0, n) and std::invalid_argument for deleting edges that are not
  /// present; in every failure case the working graph, pending patch and
  /// published epoch are left exactly as they were before the call.
  Report apply(const UpdateBatch& batch) {
    const std::lock_guard<std::mutex> lock(write_mu_);
    batch.validate(num_vertices());
    validate_deletions_exist(working_, batch.deletions);
    const auto start = std::chrono::steady_clock::now();
    const amem::Phase measure;
    Report report;
    report.epoch = epoch() + 1;

    Pending pending;
    if (self().plan_absorb(batch, pending, report)) {
      if (batch.deletions.empty()) {
        report.path = Path::kFastInsert;
        commit_in_place(batch, std::move(pending), report, measure);
      } else {
        // Deletions have no undo log: stage a scratch overlay copy (like
        // the rebuild paths) and keep the current oracle version.
        report.path = Path::kFastMixed;
        Staged next{base_, stage_overlay(batch), state_, std::move(pending)};
        commit_staged(batch, std::move(next), report, measure);
      }
      self().account(report, Outcome::kAbsorbed);
      stamp_report(report, measure.delta(), start);
      return report;
    }

    // Rebuild paths: stage the batch into a scratch overlay (O(delta)
    // copy, the same bound as the frozen-overlay copy every rebuild epoch
    // already pays); working_ stays untouched until the commit.
    OverlayGraph staged = stage_overlay(batch);
    Staged next = [&] {
      if (staged.delta_size() >= opt_.compact_threshold) {
        report.path = Path::kCompaction;
        return stage_compaction(staged, report);
      }
      report.path = Path::kSelectiveRebuild;
      auto frozen = std::make_shared<const OverlayGraph>(staged);
      auto state = self().build_selective(std::move(frozen), batch, report);
      return Staged{base_, std::move(staged), std::move(state), Pending{}};
    }();
    const amem::Stats delta =
        commit_staged(batch, std::move(next), report, measure);
    self().account(report, Outcome::kRebuilt);
    stamp_report(report, delta, start);
    return report;
  }

  Report insert_edges(graph::EdgeList edges) {
    return apply(UpdateBatch::inserting(std::move(edges)));
  }
  Report delete_edges(graph::EdgeList edges) {
    return apply(UpdateBatch::deleting(std::move(edges)));
  }

  /// Run apply() on a separate thread; readers keep querying pinned
  /// snapshots while the next version builds.
  [[nodiscard]] std::future<Report> apply_async(UpdateBatch batch) {
    return std::async(std::launch::async,
                      [this, b = std::move(batch)] { return apply(b); });
  }

  /// Force a compaction (flatten the overlay, rebuild from scratch) now.
  /// Same strong exception guarantee as apply().
  Report compact() {
    const std::lock_guard<std::mutex> lock(write_mu_);
    const auto start = std::chrono::steady_clock::now();
    const amem::Phase measure;
    Report report;
    report.epoch = epoch() + 1;
    report.path = Path::kCompaction;
    Staged next = stage_compaction(working_, report);
    // Compaction advances the epoch without changing the edge set; log an
    // empty batch so the durable epoch sequence stays contiguous.
    const amem::Stats delta =
        commit_staged(UpdateBatch{}, std::move(next), report, measure);
    self().account(report, Outcome::kForced);
    stamp_report(report, delta, start);
    return report;
  }

  /// Test-only failure injection: invoked (under the writer lock) after the
  /// new epoch has been fully staged — staged paths: scratch state built;
  /// fast insert: in-place inserts applied under the undo log — but before
  /// anything is logged, published or committed. A throwing hook stands in
  /// for an allocation or generator failure anywhere in the update
  /// pipeline — apply()/compact() propagate it and must leave the structure
  /// at the previous epoch.
  void set_failure_injection_hook(std::function<void(Path)> hook) {
    const std::lock_guard<std::mutex> lock(write_mu_);
    failure_hook_ = std::move(hook);
  }

 protected:
  /// What an epoch-advancing operation turned out to be, for account().
  enum class Outcome : std::uint8_t { kAbsorbed, kRebuilt, kForced };

  /// Build and publish epoch first_epoch (unlogged, no phase bucket).
  void publish_initial() {
    Report report;
    publish_and_commit(stage_full_build(base_, report), opt_.first_epoch);
  }

  /// The fast path's gate: the exact projected overlay delta (a dry run)
  /// stays under the compaction threshold, so absorbing the batch cannot
  /// be what should have compacted.
  [[nodiscard]] bool fits_fast_path(const UpdateBatch& batch) const {
    return working_.delta_after_inserting(batch.insertions) <
           opt_.compact_threshold;
  }

  // Engine hooks with a default.
  static std::shared_ptr<const Snap> snapshot_of(
      std::uint64_t epoch, std::shared_ptr<const State> state,
      const Pending& pending) {
    return std::make_shared<Snap>(epoch, std::move(state), pending);
  }
  void on_staged_commit() noexcept {}
  void account(Report& /*report*/, Outcome /*outcome*/) noexcept {}

  Options opt_;
  /// The latest oracle version, and what the fast paths absorbed since.
  std::shared_ptr<const State> state_;
  Pending pending_;

 private:
  // Only the engine itself derives from (and so constructs) its core.
  friend Engine;

  /// Sets up the empty working overlay over `base`; the engine's
  /// constructor then calls publish_initial() once its own members exist.
  FacadeCore(graph::Graph base, const Options& opt)
      : opt_(opt),
        base_(std::make_shared<const graph::Graph>(std::move(base))),
        n_(base_->num_vertices()),
        working_(base_),
        store_(opt.snapshot_capacity) {
    if (opt_.compact_threshold == 0) {
      opt_.compact_threshold = std::max<std::size_t>(
          32768, n_ / std::max<std::size_t>(1, opt_.oracle.k));
    }
  }

  /// A fully built next epoch, not yet visible to anyone. Everything a
  /// commit swaps in travels together so the swap can be all-or-nothing.
  struct Staged {
    std::shared_ptr<const graph::Graph> base;
    OverlayGraph working;
    std::shared_ptr<const State> state;
    Pending pending;
  };

  /// The worker count a rebuild runs its sharded passes on.
  [[nodiscard]] std::size_t resolved_rebuild_threads() const {
    return opt_.rebuild_threads >= 1 ? opt_.rebuild_threads
                                     : parallel::num_threads();
  }

  Engine& self() noexcept { return static_cast<Engine&>(*this); }
  const Engine& self() const noexcept {
    return static_cast<const Engine&>(*this);
  }

  /// The "dynamic*/..." amem phase bucket an update path charges.
  static std::string phase_name(Path path) {
    const std::string prefix = Engine::kPhasePrefix;
    switch (path) {
      case Path::kFastInsert: return prefix + "insert_fastpath";
      case Path::kFastMixed: return prefix + "fast_mixed";
      case Path::kSelectiveRebuild: return prefix + "selective_rebuild";
      default: return prefix + "compaction";
    }
  }

  /// A scratch copy of working_ with the batch applied.
  [[nodiscard]] OverlayGraph stage_overlay(const UpdateBatch& batch) const {
    OverlayGraph staged = working_;
    for (const graph::Edge& e : batch.deletions) {
      staged.delete_edge(e.u, e.v);
    }
    for (const graph::Edge& e : batch.insertions) {
      staged.insert_edge(e.u, e.v);
    }
    return staged;
  }

  Staged stage_full_build(std::shared_ptr<const graph::Graph> base,
                          Report& report) const {
    OverlayGraph working(base);
    auto frozen = std::make_shared<const OverlayGraph>(working);
    auto state = self().build_full(std::move(frozen), report);
    return Staged{std::move(base), std::move(working), std::move(state),
                  Pending{}};
  }

  /// Flatten the staged overlay into a fresh CSR base and rebuild from
  /// scratch (the staged overlay's deltas are absorbed into the new base,
  /// so the new working overlay starts empty).
  Staged stage_compaction(const OverlayGraph& staged, Report& report) const {
    return stage_full_build(
        std::make_shared<const graph::Graph>(
            graph::Graph::from_edges(num_vertices(), staged.edge_list())),
        report);
  }

  /// Log the batch (may throw — nothing is published yet), then publish;
  /// if the publish throws after the append, retract the record.
  template <typename Publish>
  void log_and_publish(const UpdateBatch& batch, std::uint64_t epoch,
                       Publish&& publish) {
    if (log_) log_->log_batch(epoch, batch);
    try {
      publish();
    } catch (...) {
      if (log_) log_->discard_tail(epoch);
      throw;
    }
  }

  /// Insert-only absorb: mutate working_ in place under a nothrow undo log
  /// instead of paying the O(delta) staged copy. Any throw — mid-insert
  /// bad_alloc, the failure hook, phase accounting, the log, snapshot
  /// allocation, or the ring push — unwinds the log and leaves the
  /// previous epoch intact; the commits after publish are all noexcept.
  void commit_in_place(const UpdateBatch& batch, Pending&& pending,
                       const Report& report, const amem::Phase& measure) {
    const graph::EdgeList& insertions = batch.insertions;
    OverlayGraph::UndoLog undo;
    try {
      for (const graph::Edge& e : insertions) {
        working_.insert_edge_logged(e.u, e.v, undo);
      }
      if (failure_hook_) failure_hook_(report.path);
      amem::accumulate_phase(phase_name(report.path), measure.delta());
      log_and_publish(batch, report.epoch, [&] {
        store_.publish(self().snapshot_of(report.epoch, state_, pending));
      });
    } catch (...) {
      working_.undo_inserts(undo);
      working_.sweep_empty_patches(insertions);
      throw;
    }
    working_.sweep_empty_patches(insertions);
    pending_ = std::move(pending);
    epoch_.store(report.epoch, std::memory_order_release);
  }

  /// Failure hook → phase accounting → log → publish → commit for a fully
  /// staged epoch. Returns the counted delta measured before the log.
  amem::Stats commit_staged(const UpdateBatch& batch, Staged&& next,
                            const Report& report, const amem::Phase& measure) {
    if (failure_hook_) failure_hook_(report.path);
    // Phase accounting happens before the commit point: accumulate_phase
    // allocates (bucket lookup), and nothing after it may throw once the
    // epoch publishes. publish_and_commit performs no counted accesses, so
    // the measured delta is still complete.
    const amem::Stats delta = measure.delta();
    amem::accumulate_phase(phase_name(report.path), delta);
    log_and_publish(batch, report.epoch, [&] {
      publish_and_commit(std::move(next), report.epoch);
    });
    return delta;
  }

  /// Publish the staged epoch's snapshot, then swap the staged members in.
  /// The snapshot construction and ring push may throw (bad_alloc); every
  /// member mutation below them is a noexcept move, so a throw anywhere in
  /// this function — or anywhere before it — leaves the previous epoch
  /// fully intact. Copying the patch into the snapshot is O(B + |patch|)
  /// per publish, with |patch| bounded by compact_threshold — the same
  /// knob that already bounds the frozen-overlay copies.
  void publish_and_commit(Staged&& next, std::uint64_t epoch) {
    static_assert(std::is_nothrow_move_assignable_v<OverlayGraph> &&
                      std::is_nothrow_move_assignable_v<Pending>,
                  "commit must not be able to throw halfway through");
    store_.publish(self().snapshot_of(epoch, next.state, next.pending));
    base_ = std::move(next.base);
    working_ = std::move(next.working);
    state_ = std::move(next.state);
    pending_ = std::move(next.pending);
    self().on_staged_commit();
    epoch_.store(epoch, std::memory_order_release);
  }

  mutable std::mutex write_mu_;
  std::atomic<std::uint64_t> epoch_{0};
  std::shared_ptr<const graph::Graph> base_;
  /// Fixed vertex count (reader-safe).
  std::size_t n_ = 0;
  /// The current logical graph (base_ + deltas).
  OverlayGraph working_;
  SnapshotStoreT<Snap> store_;
  /// Optional; see set_durability_log.
  std::shared_ptr<DurabilityLog> log_;
  /// Test-only; see set_failure_injection_hook.
  std::function<void(Path)> failure_hook_;
};

}  // namespace wecc::dynamic
