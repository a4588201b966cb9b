#include "amem/counters.hpp"

#include <map>
#include <mutex>
#include <sstream>

namespace wecc::amem {

namespace detail {

CounterShard g_shards[kCounterShards];

namespace {
std::atomic<std::size_t> g_next_slot{0};
}  // namespace

std::size_t assign_shard() noexcept {
  t_shard = g_next_slot.fetch_add(1, std::memory_order_relaxed) %
            kCounterShards;
  return t_shard;
}

}  // namespace detail

Stats snapshot() noexcept {
  Stats s;
  for (const auto& shard : detail::g_shards) {
    s.reads += shard.reads.load(std::memory_order_relaxed);
    s.writes += shard.writes.load(std::memory_order_relaxed);
  }
  return s;
}

void reset() noexcept {
  for (auto& shard : detail::g_shards) {
    shard.reads.store(0, std::memory_order_relaxed);
    shard.writes.store(0, std::memory_order_relaxed);
  }
}

std::string to_string(const Stats& s, std::uint64_t omega) {
  std::ostringstream os;
  os << "reads=" << s.reads << " writes=" << s.writes << " work(w=" << omega
     << ")=" << s.work(omega);
  return os.str();
}

namespace {
std::mutex g_phase_mu;
std::map<std::string, Stats, std::less<>>& phase_map() {
  static std::map<std::string, Stats, std::less<>> m;
  return m;
}
}  // namespace

void accumulate_phase(std::string_view name, const Stats& delta) {
  const std::lock_guard<std::mutex> lock(g_phase_mu);
  auto& m = phase_map();
  const auto it = m.find(name);
  if (it == m.end()) {
    m.emplace(std::string(name), delta);
  } else {
    it->second = it->second + delta;
  }
}

std::vector<std::pair<std::string, Stats>> phase_totals() {
  const std::lock_guard<std::mutex> lock(g_phase_mu);
  const auto& m = phase_map();
  return {m.begin(), m.end()};
}

Stats phase_total(std::string_view name) {
  const std::lock_guard<std::mutex> lock(g_phase_mu);
  const auto& m = phase_map();
  const auto it = m.find(name);
  return it == m.end() ? Stats{} : it->second;
}

void reset_phases() {
  const std::lock_guard<std::mutex> lock(g_phase_mu);
  phase_map().clear();
}

namespace {
// Storage operations are coarse (one call per file write / WAL append), so
// plain shared atomics are cheap enough — no per-thread sharding needed.
std::atomic<std::uint64_t> g_storage_bytes{0};
std::atomic<std::uint64_t> g_storage_appends{0};
std::atomic<std::uint64_t> g_storage_fsyncs{0};
}  // namespace

void count_storage_write(std::uint64_t bytes) noexcept {
  g_storage_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_storage_appends.fetch_add(1, std::memory_order_relaxed);
}

void count_storage_fsync() noexcept {
  g_storage_fsyncs.fetch_add(1, std::memory_order_relaxed);
}

StorageStats storage_snapshot() noexcept {
  return StorageStats{g_storage_bytes.load(std::memory_order_relaxed),
                      g_storage_appends.load(std::memory_order_relaxed),
                      g_storage_fsyncs.load(std::memory_order_relaxed)};
}

void reset_storage() noexcept {
  g_storage_bytes.store(0, std::memory_order_relaxed);
  g_storage_appends.store(0, std::memory_order_relaxed);
  g_storage_fsyncs.store(0, std::memory_order_relaxed);
}

std::string to_string(const StorageStats& s) {
  std::ostringstream os;
  os << "storage_bytes=" << s.bytes_written << " appends=" << s.appends
     << " fsyncs=" << s.fsyncs;
  return os.str();
}

}  // namespace wecc::amem
