// Bounded k-nearest-neighbor list.
//
// Implements the Update() primitive from Algorithm 1: a capacity-K
// max-heap keyed on distance whose root is the current farthest neighbor.
// `update(id, d, flag)` inserts iff the id is absent and d improves on the
// farthest entry, popping the farthest to make room — returning 1/0 so the
// caller can accumulate the convergence counter `c`.
//
// Membership is checked by linear scan: K is small (10–100 in the paper)
// and the entries sit in one cache line run, so a side hash set would cost
// more than it saves.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "telemetry/memory.hpp"

namespace dnnd::core {

class NeighborList {
 public:
  NeighborList() = default;
  explicit NeighborList(std::size_t capacity) { heap_.reserve(capacity); capacity_ = capacity; }
  /// Tagged flavour: the row's heap storage is charged against `tag`
  /// (the engine passes its graph tag; reserve here may run inside pool
  /// workers during repair, which the ledger's atomics permit).
  NeighborList(std::size_t capacity, telemetry::MemTag tag)
      : heap_(telemetry::CountingAllocator<Neighbor>(tag)) {
    heap_.reserve(capacity);
    capacity_ = capacity;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool full() const noexcept { return heap_.size() == capacity_; }
  /// Drops every entry, keeping the reserved storage.
  void clear() noexcept { heap_.clear(); }

  /// Distance of the farthest stored neighbor; +inf while not full, so any
  /// candidate is accepted during warm-up.
  [[nodiscard]] Dist furthest_distance() const noexcept {
    return full() ? heap_.front().distance : kInfiniteDistance;
  }

  [[nodiscard]] bool contains(VertexId id) const noexcept {
    return std::any_of(heap_.begin(), heap_.end(),
                       [id](const Neighbor& n) { return n.id == id; });
  }

  /// Algorithm 1's Update(). Returns 1 if the neighbor was inserted.
  int update(VertexId id, Dist distance, bool is_new) {
    if (distance >= furthest_distance()) return 0;
    if (contains(id)) return 0;
    if (full()) pop_farthest();
    push(Neighbor{id, distance, is_new});
    return 1;
  }

  /// Entries in heap order (not sorted). Mutable access is exposed for the
  /// sampling step, which flips is_new flags in place.
  [[nodiscard]] std::span<const Neighbor> entries() const noexcept {
    return heap_;
  }
  [[nodiscard]] std::span<Neighbor> entries() noexcept { return heap_; }

  /// Entries sorted ascending by distance (closest first): the final
  /// output order of a k-NNG row.
  [[nodiscard]] std::vector<Neighbor> sorted() const {
    std::vector<Neighbor> out(heap_.begin(), heap_.end());
    std::sort(out.begin(), out.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.id < b.id);
              });
    return out;
  }

 private:
  void push(const Neighbor& n) {
    heap_.push_back(n);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].distance >= heap_[i].distance) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void pop_farthest() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      std::size_t largest = i;
      if (l < n && heap_[l].distance > heap_[largest].distance) largest = l;
      if (r < n && heap_[r].distance > heap_[largest].distance) largest = r;
      if (largest == i) break;
      std::swap(heap_[i], heap_[largest]);
      i = largest;
    }
  }

  std::vector<Neighbor, telemetry::CountingAllocator<Neighbor>> heap_;
  std::size_t capacity_ = 0;
};

}  // namespace dnnd::core
