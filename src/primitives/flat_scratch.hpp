// Reusable symmetric scratch: a flat open-addressing hash map and the
// per-thread reuse discipline built on it.
//
// FlatMap maps integer keys to 32-bit values by linear probing over a
// power-of-two slot array kept at most half full. A generation stamp marks
// the live slots, so clear() is O(1) and one instance serves many small
// searches without touching the allocator. The decomposition kernel's
// visited sets (rho, cluster searches, boundary enumeration), the
// biconnectivity oracle's local views (graph, member index, Hopcroft–Tarjan
// result; two slots per thread, biconn_oracle.hpp's HeldView), their
// construction tables and the rebuild passes' per-cluster scratch all live
// in per-thread instances, each taken for one use through ScratchUse, which
// trims it back to kScratchRetainEntries after.
//
// Nothing here charges asymmetric reads or writes; callers claim the words
// they hold through amem::SymScratch, exactly as they did for the per-call
// node-based maps these replace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace wecc::primitives {

/// Entries a reused per-thread scratch structure may keep between uses.
/// Anything grown past it is released when its use ends, so one large
/// search (say the build's promotion pass over a big primary-free
/// component) does not pin memory in every thread that ran one. At k <= 64
/// the kernel's searches stay far below it.
inline constexpr std::size_t kScratchRetainEntries = 1024;

template <typename Key>
class FlatMap {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= 8);

 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Insert key -> value unless key is present. Returns the stored value
  /// (the old one when present) and whether the key was inserted.
  std::pair<std::uint32_t*, bool> try_emplace(Key key, std::uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * (size_ + 1));
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.stamp != stamp_) {
        s = Slot{key, value, stamp_};
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  /// Set use: true iff key was absent.
  bool insert(Key key) { return try_emplace(key, 0).second; }

  /// The value stored for key, or kAbsent.
  [[nodiscard]] std::uint32_t find(Key key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.stamp != stamp_) return kAbsent;
      if (s.key == key) return s.value;
    }
  }

  [[nodiscard]] bool contains(Key key) const { return find(key) != kAbsent; }

  /// The value stored for key; throws std::out_of_range when absent.
  [[nodiscard]] std::uint32_t at(Key key) const {
    const std::uint32_t v = find(key);
    if (v == kAbsent) throw std::out_of_range("FlatMap::at: absent key");
    return v;
  }

  /// Size the slot array for `n` entries up front (no rehash below that).
  void reserve(std::size_t n) {
    if (2 * n > slots_.size()) rehash(2 * n);
  }

  /// Forget every entry in O(1).
  void clear() noexcept {
    size_ = 0;
    if (++stamp_ == 0) {  // stamps wrapped: wipe them once, start over
      for (Slot& s : slots_) s.stamp = 0;
      stamp_ = 1;
    }
  }

  /// clear(), and release the slot array if it grew past
  /// kScratchRetainEntries entries.
  void clear_and_trim() {
    if (slots_.size() > 2 * kScratchRetainEntries) {
      slots_ = {};
      mask_ = 0;
      shift_ = 64;
      size_ = 0;
      stamp_ = 1;
      return;
    }
    clear();
  }

 private:
  struct Slot {
    Key key;
    std::uint32_t value;
    std::uint32_t stamp;  // live iff == stamp_
  };

  [[nodiscard]] std::size_t home(Key key) const noexcept {
    // Fibonacci hashing: the top bits of the product spread consecutive
    // vertex ids (grids, paths) evenly over the table.
    return std::size_t((std::uint64_t(key) * 0x9E3779B97F4A7C15ULL) >>
                       shift_);
  }

  /// Grow to the smallest power of two >= max(16, want) and reinsert.
  void rehash(std::size_t want) {
    std::size_t cap = 16;
    int bits = 4;
    while (cap < want) {
      cap <<= 1;
      ++bits;
    }
    std::vector<Slot> old(cap, Slot{Key{}, 0, 0});
    old.swap(slots_);
    const std::uint32_t old_stamp = stamp_;
    mask_ = cap - 1;
    shift_ = 64 - bits;
    stamp_ = 1;
    for (const Slot& s : old) {
      if (s.stamp != old_stamp) continue;
      std::size_t i = home(s.key);
      while (slots_[i].stamp == stamp_) i = (i + 1) & mask_;
      slots_[i] = Slot{s.key, s.value, stamp_};
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
  std::uint32_t stamp_ = 1;
};

/// Release a reused buffer that grew past kScratchRetainEntries.
template <typename T>
void trim_scratch(std::vector<T>& v) {
  if (v.capacity() > kScratchRetainEntries) std::vector<T>().swap(v);
}

/// One use of a per-thread scratch object `S`, which provides `bool busy`
/// and `void trim()` (release what grew past kScratchRetainEntries). Using
/// an instance the thread is already using throws std::logic_error: the
/// searches that nest each own a separate instance.
template <typename S>
class ScratchUse {
 public:
  explicit ScratchUse(S& s) : s_(s) {
    if (s_.busy) throw std::logic_error("per-thread scratch re-entered");
    s_.busy = true;
  }
  ~ScratchUse() {
    s_.trim();
    s_.busy = false;
  }
  ScratchUse(const ScratchUse&) = delete;
  ScratchUse& operator=(const ScratchUse&) = delete;

  [[nodiscard]] S& scratch() const noexcept { return s_; }

 private:
  S& s_;
};

}  // namespace wecc::primitives
