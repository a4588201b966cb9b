// FacadeService: the in-process implementation of the unified service API
// over either batch-dynamic facade. Templating works because the satellite
// refactor gave both facades one surface: report_type/snapshot_type,
// num_vertices/epoch/store, snapshot()/snapshot_at(), apply()/compact().
// Queries pin a snapshot and run on the pool via the existing batch query
// engines; updates go straight through the facade's serialized writer (and
// through its durability hook, if one is attached).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dynamic/batch_query.hpp"
#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "service/api.hpp"

namespace wecc::service {

namespace detail {

/// Which query kinds a facade's snapshot can answer: the connectivity
/// snapshot only kConnected, the biconnectivity snapshot all six
/// (kEdgeBcc included — its block ids ride on QueryResponse::block_ids).
[[nodiscard]] inline bool supports(const dynamic::Snapshot&,
                                   dynamic::MixedQuery::Kind kind) noexcept {
  return kind == dynamic::MixedQuery::Kind::kConnected;
}
[[nodiscard]] inline bool supports(const dynamic::BiconnSnapshot&,
                                   dynamic::MixedQuery::Kind) noexcept {
  return true;
}

/// Answer a request's queries into `out` in one engine pass: a boolean per
/// query, plus the block ids of the kEdgeBcc queries (only the
/// biconnectivity snapshot has them; supports() already rejected kEdgeBcc
/// on the other).
inline void answer_all(std::shared_ptr<const dynamic::Snapshot> snap,
                       std::span<const dynamic::MixedQuery> queries,
                       QueryResponse& out) {
  std::vector<dynamic::VertexPair> pairs;
  pairs.reserve(queries.size());
  for (const dynamic::MixedQuery& q : queries) pairs.push_back({q.u, q.v});
  out.answers = dynamic::BatchQueryEngine(std::move(snap)).connected(pairs);
}
inline void answer_all(std::shared_ptr<const dynamic::BiconnSnapshot> snap,
                       std::span<const dynamic::MixedQuery> queries,
                       QueryResponse& out) {
  auto both = dynamic::BiconnBatchQueryEngine(std::move(snap))
                  .answer_with_block_ids(queries);
  out.answers = std::move(both.answers);
  out.block_ids = std::move(both.block_ids);
}

template <typename Facade>
struct FacadeTraits;
template <>
struct FacadeTraits<dynamic::DynamicConnectivity> {
  static constexpr FacadeKind kKind = FacadeKind::kConnectivity;
};
template <>
struct FacadeTraits<dynamic::DynamicBiconnectivity> {
  static constexpr FacadeKind kKind = FacadeKind::kBiconnectivity;
};

/// Fold either facade's report into the one ApplyResult shape (fields for
/// the other facade stay zero).
inline ApplyResult to_apply_result(const dynamic::UpdateReport& r) {
  ApplyResult out;
  out.report = r;  // slice down to the shared base
  out.dirty_clusters = r.dirty_clusters;
  out.dirty_labels = r.dirty_labels;
  out.relabeled_centers = r.relabeled_centers;
  return out;
}
inline ApplyResult to_apply_result(const dynamic::BiconnUpdateReport& r) {
  ApplyResult out;
  out.report = r;
  out.absorbed_edges = r.absorbed_edges;
  out.patched_bridges = r.patched_bridges;
  out.dirty_components = r.dirty_components;
  out.merged_blocks = r.merged_blocks;
  out.absorbed_deletions = r.absorbed_deletions;
  out.rebuild_reason = static_cast<std::uint8_t>(r.rebuild_reason);
  out.absorb_rate_ppm = static_cast<std::uint64_t>(r.absorb_rate * 1e6);
  return out;
}

}  // namespace detail

/// The unified API over one facade the caller owns (and must keep alive
/// for the service's lifetime). Thread-safe to the same degree as the
/// facade: query() from any number of threads, apply() serialized by the
/// facade's writer lock.
template <typename Facade>
class FacadeService final : public ServiceHandler {
 public:
  explicit FacadeService(Facade& facade) : facade_(facade) {}

  [[nodiscard]] ServiceInfo info() const override {
    ServiceInfo out;
    out.facade = detail::FacadeTraits<Facade>::kKind;
    out.num_vertices = facade_.num_vertices();
    out.epoch = facade_.epoch();
    out.snapshot_capacity = facade_.store().capacity();
    return out;
  }

  [[nodiscard]] QueryResponse query(const QueryRequest& req) const override {
    const std::size_t n = facade_.num_vertices();
    for (const dynamic::MixedQuery& q : req.queries) {
      // kArticulation probes only u; v is ignored and may be anything.
      const bool v_used = q.kind != dynamic::MixedQuery::Kind::kArticulation;
      if (q.u >= n || (v_used && q.v >= n)) {
        return QueryResponse{Status::kBadRequest, 0, {}, {}};
      }
    }
    auto snap = req.pin_epoch == kLatestEpoch
                    ? facade_.snapshot()
                    : facade_.snapshot_at(req.pin_epoch);
    if (!snap) return QueryResponse{Status::kEpochGone, 0, {}, {}};
    for (const dynamic::MixedQuery& q : req.queries) {
      if (!detail::supports(*snap, q.kind)) {
        return QueryResponse{Status::kUnsupported, 0, {}, {}};
      }
    }
    QueryResponse out;
    out.epoch = snap->epoch();
    detail::answer_all(std::move(snap), req.queries, out);
    return out;
  }

  ApplyResult apply(const ApplyRequest& req) override {
    if (req.compact) {
      if (!req.batch.empty()) {
        throw std::invalid_argument("compact request must carry no batch");
      }
      return detail::to_apply_result(facade_.compact());
    }
    return detail::to_apply_result(facade_.apply(req.batch));
  }

 private:
  Facade& facade_;
};

}  // namespace wecc::service
