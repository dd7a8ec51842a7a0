#pragma once

// Per-rank memory ledger: tagged byte accounting with current/peak per
// subsystem. The ledger is the memory analogue of MetricsRegistry — tags
// are interned by name at setup time, the add/sub hot path is lock-free,
// and per-rank ledgers merge by name for a cluster-wide view.
//
// Two client-facing handles exist:
//   MemTag            — cheap copyable handle a subsystem charges against.
//   CountingAllocator — an STL-compatible allocator wrapping
//                       std::allocator that charges a MemTag for every
//                       allocate/deallocate. A default-constructed
//                       (untagged) allocator is a pure pass-through, which
//                       lets container types adopt the allocator globally
//                       while only the engine-owned instances are tagged.
//
// Thread-safety contract mirrors MetricsRegistry: tag registration
// (intern) happens at setup time from one thread; add/sub are safe from
// any number of threads (relaxed atomics + CAS-max peak — NeighborList
// rebuilds run inside pool workers).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dnnd::telemetry {

/// Index of an interned tag inside one MemoryLedger.
using MemTagId = std::size_t;

class MemoryLedger {
 public:
  /// Interns `name`, returning the existing id if already present.
  /// Setup-time only (may relocate storage).
  MemTagId tag(std::string_view name) {
    const auto it = index_.find(std::string(name));
    if (it != index_.end()) return it->second;
    const MemTagId id = entries_.size();
    entries_.emplace_back(std::string(name));
    index_.emplace(entries_.back().name, id);
    return id;
  }

  /// Charges `bytes` (may be negative) against `id`. Lock-free; safe from
  /// pool workers. Peak is maintained with a CAS-max loop so concurrent
  /// charges can never lose a high-water observation.
  void add(MemTagId id, std::int64_t bytes) noexcept {
    Entry& e = entries_[id];
    const std::int64_t now =
        e.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (bytes <= 0) return;
    std::int64_t seen = e.peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !e.peak.compare_exchange_weak(seen, now,
                                         std::memory_order_relaxed)) {
    }
  }

  void sub(MemTagId id, std::int64_t bytes) noexcept { add(id, -bytes); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] std::int64_t current_bytes(std::string_view name) const {
    const Entry* e = find(name);
    return e ? e->current.load(std::memory_order_relaxed) : 0;
  }

  [[nodiscard]] std::int64_t peak_bytes(std::string_view name) const {
    const Entry* e = find(name);
    return e ? e->peak.load(std::memory_order_relaxed) : 0;
  }

  /// Visits every tag in registration order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.name, e.current.load(std::memory_order_relaxed),
         e.peak.load(std::memory_order_relaxed));
    }
  }

  /// Folds `other` in by name: both current and peak SUM. Summing peaks
  /// makes the merge associative and commutative (required so any merge
  /// tree yields the same cluster view); the summed peak is an upper
  /// bound on the true simultaneous global peak, which is the safe
  /// direction for capacity planning.
  void merge(const MemoryLedger& other) {
    other.for_each([&](const std::string& name, std::int64_t cur,
                       std::int64_t peak) {
      const MemTagId id = tag(name);
      Entry& e = entries_[id];
      e.current.fetch_add(cur, std::memory_order_relaxed);
      e.peak.fetch_add(peak, std::memory_order_relaxed);
    });
  }

  void reset() noexcept {
    for (Entry& e : entries_) {
      e.current.store(0, std::memory_order_relaxed);
      e.peak.store(0, std::memory_order_relaxed);
    }
  }

 private:
  /// One tag's state. `current` may transiently dip negative if a charge
  /// outlives the ledger view that sums it; `peak` is monotone.
  struct Entry {
    explicit Entry(std::string n) : name(std::move(n)) {}
    // Copy relaxes through the atomics so vector growth at setup time
    // compiles; concurrent charges during growth are excluded by the
    // registration contract above.
    Entry(const Entry& o)
        : name(o.name),
          current(o.current.load(std::memory_order_relaxed)),
          peak(o.peak.load(std::memory_order_relaxed)) {}
    Entry& operator=(const Entry&) = delete;

    std::string name;
    std::atomic<std::int64_t> current{0};
    std::atomic<std::int64_t> peak{0};
  };

  [[nodiscard]] const Entry* find(std::string_view name) const {
    const auto it = index_.find(std::string(name));
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  std::vector<Entry> entries_;
  std::unordered_map<std::string, MemTagId> index_;
};

/// Handle a subsystem charges bytes against. Copyable and cheap; a
/// default-constructed tag (no ledger) ignores every charge.
class MemTag {
 public:
  MemTag() = default;
  MemTag(MemoryLedger* ledger, MemTagId id) noexcept
      : ledger_(ledger), id_(id) {}

  void add(std::int64_t bytes) const noexcept {
    if (ledger_ != nullptr) ledger_->add(id_, bytes);
  }
  void sub(std::int64_t bytes) const noexcept { add(-bytes); }
  [[nodiscard]] bool attached() const noexcept { return ledger_ != nullptr; }

 private:
  MemoryLedger* ledger_ = nullptr;
  MemTagId id_ = 0;
};

/// STL-compatible allocator charging a MemTag. Propagates on move and
/// swap so storage travels with the allocator that charged it (never
/// double-counted); copy *assignment* keeps the destination's allocator,
/// so copying a container into tagged storage charges the destination's
/// tag — which is what retag() below relies on.
template <typename T>
class CountingAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::true_type;

  CountingAllocator() = default;
  explicit CountingAllocator(MemTag tag) noexcept : tag_(tag) {}
  template <typename U>
  CountingAllocator(const CountingAllocator<U>& other) noexcept
      : tag_(other.mem_tag()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    T* p = std::allocator<T>{}.allocate(n);
    tag_.add(static_cast<std::int64_t>(n * sizeof(T)));
    return p;
  }

  void deallocate(T* p, std::size_t n) noexcept {
    tag_.sub(static_cast<std::int64_t>(n * sizeof(T)));
    std::allocator<T>{}.deallocate(p, n);
  }

  [[nodiscard]] MemTag mem_tag() const noexcept { return tag_; }

  // All instances share std::allocator storage, so any instance may free
  // any other's memory (charges go to the freeing instance's tag, which
  // the propagate-on-everything traits keep paired with the storage).
  friend bool operator==(const CountingAllocator&,
                         const CountingAllocator&) noexcept {
    return true;
  }

 private:
  MemTag tag_;
};

/// Replaces `container`'s allocator with one charging `tag`, preserving
/// contents. Existing elements are copied once into freshly tagged
/// storage — call at setup time (the engine tags its stores while they
/// are still empty, making this free).
template <typename Container>
void retag(Container& container, MemTag tag) {
  Container replacement{typename Container::allocator_type(tag)};
  replacement = container;  // copies elements into tagged storage
  container = std::move(replacement);
}

/// Process-level ground truth from /proc/self/status (zeros when the
/// platform does not expose it). Peak RSS is the kernel's high-water
/// mark for the whole process — the number the tagged ledger must
/// account for.
struct ProcessMemory {
  std::int64_t rss_bytes = 0;
  std::int64_t peak_rss_bytes = 0;
};

[[nodiscard]] ProcessMemory read_process_memory();

}  // namespace dnnd::telemetry
