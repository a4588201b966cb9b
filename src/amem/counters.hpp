// Asymmetric-memory cost accounting (Asymmetric RAM / Asymmetric NP models).
//
// The models of Blelloch et al. [13] and Ben-David et al. [9] charge
// `omega >> 1` per word written to the large asymmetric memory and unit cost
// per read or other operation; a small per-task symmetric memory is free
// apart from its size bound. This header provides the process-wide counters
// every wecc algorithm reports against:
//
//   * count_read / count_write   — charge accesses to asymmetric memory
//   * Stats / snapshot / reset   — read the counters
//   * Stats::work(omega)         — reads + omega * writes (model work)
//   * Phase                      — RAII scope measuring a stage's delta
//
// Counters are sharded per thread slot to keep parallel instrumentation off
// the critical path; totals are exact (relaxed atomics summed at snapshot).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wecc::amem {

inline constexpr std::size_t kCounterShards = 64;

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
};

namespace detail {
extern CounterShard g_shards[kCounterShards];
inline constexpr std::size_t kNoShard = ~std::size_t{0};
// This thread's shard slot, read inline by every charge; kNoShard until
// the thread's first charge assigns it (round-robin, out of line).
constinit inline thread_local std::size_t t_shard = kNoShard;
std::size_t assign_shard() noexcept;
inline std::size_t shard_index() noexcept {
  const std::size_t slot = t_shard;
  return slot != kNoShard ? slot : assign_shard();
}
}  // namespace detail

/// Charge `n` reads of asymmetric memory.
inline void count_read(std::uint64_t n = 1) noexcept {
  detail::g_shards[detail::shard_index()].reads.fetch_add(
      n, std::memory_order_relaxed);
}

/// Charge `n` writes to asymmetric memory.
inline void count_write(std::uint64_t n = 1) noexcept {
  detail::g_shards[detail::shard_index()].writes.fetch_add(
      n, std::memory_order_relaxed);
}

/// A snapshot of the counters (or a delta between two snapshots).
struct Stats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  /// Model work: unit-cost reads/operations plus omega-cost writes.
  [[nodiscard]] std::uint64_t work(std::uint64_t omega) const noexcept {
    return reads + omega * writes;
  }
  Stats operator-(const Stats& o) const noexcept {
    return Stats{reads - o.reads, writes - o.writes};
  }
  Stats operator+(const Stats& o) const noexcept {
    return Stats{reads + o.reads, writes + o.writes};
  }
  bool operator==(const Stats& o) const noexcept = default;
};

/// Sum all shards.
Stats snapshot() noexcept;

/// Zero all shards. Only call when no instrumented code is running.
void reset() noexcept;

/// RAII scope: measures the read/write delta of a stage.
class Phase {
 public:
  Phase() : start_(snapshot()) {}
  /// Reads/writes performed since construction.
  [[nodiscard]] Stats delta() const noexcept { return snapshot() - start_; }

 private:
  Stats start_;
};

/// Pretty one-line rendering ("reads=... writes=... work(w=8)=...").
std::string to_string(const Stats& s, std::uint64_t omega);

// ---------------------------------------------------------------------------
// Named phase accounting (multi-stage pipelines, e.g. the dynamic layer's
// update phases: insert fast path / selective rebuild / compaction).
// ---------------------------------------------------------------------------

/// Fold a measured delta, and the wall-clock nanoseconds it took, into the
/// named bucket. Thread-safe; intended for one call per completed phase,
/// not per memory access.
void accumulate_phase(std::string_view name, const Stats& delta,
                      std::uint64_t ns = 0);

/// Totals per bucket, sorted by name.
std::vector<std::pair<std::string, Stats>> phase_totals();

/// Total for one bucket (zero Stats if never accumulated).
Stats phase_total(std::string_view name);

/// Wall-clock nanoseconds accumulated into one bucket (0 if none).
std::uint64_t phase_ns(std::string_view name);

/// Zero all buckets. Only call when no instrumented code is running.
void reset_phases();

/// RAII: accumulate this scope's read/write delta and its wall-clock time
/// into a named bucket on destruction. The delta is process-wide (same
/// caveat as Phase): scope concurrent instrumented work accordingly.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name) : name_(name) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    accumulate_phase(name_, phase_.delta(), std::uint64_t(ns.count()));
  }

 private:
  std::string name_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// ---------------------------------------------------------------------------
// Real bytes-to-storage accounting. The counters above *model* the cost of
// writes to asymmetric memory; this channel measures what the persistence
// layer (src/persist/) actually pushes to durable storage — snapshot files
// and WAL appends — so benchmarks can report modeled writes and measured
// bytes side by side instead of conflating the two.
// ---------------------------------------------------------------------------

/// A snapshot of the storage channel (or a delta between two snapshots).
struct StorageStats {
  std::uint64_t bytes_written = 0;  // payload bytes handed to durable files
  std::uint64_t appends = 0;        // WAL records + snapshot files written
  std::uint64_t fsyncs = 0;         // explicit durability barriers issued

  StorageStats operator-(const StorageStats& o) const noexcept {
    return StorageStats{bytes_written - o.bytes_written, appends - o.appends,
                        fsyncs - o.fsyncs};
  }
  StorageStats operator+(const StorageStats& o) const noexcept {
    return StorageStats{bytes_written + o.bytes_written, appends + o.appends,
                        fsyncs + o.fsyncs};
  }
  bool operator==(const StorageStats& o) const noexcept = default;
};

/// Charge one durable append of `bytes` payload bytes.
void count_storage_write(std::uint64_t bytes) noexcept;

/// Charge one fsync (or equivalent durability barrier).
void count_storage_fsync() noexcept;

/// Sum the storage channel.
StorageStats storage_snapshot() noexcept;

/// Zero the storage channel. Only call when no persistence code is running.
void reset_storage() noexcept;

/// Pretty one-line rendering ("storage_bytes=... appends=... fsyncs=...").
std::string to_string(const StorageStats& s);

}  // namespace wecc::amem
