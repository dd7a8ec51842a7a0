// Feature-vector storage.
//
// Two uses:
//   * a whole dataset in one process (brute force, HNSW baseline, query
//     program) — ids are dense 0..N-1;
//   * the per-rank shard of a distributed run — ids are the global ids of
//     the points hashed to this rank, stored sparsely.
//
// Storage is CSR-style (values + offsets) so variable-length points
// (sparse Jaccard sets) cost nothing extra; dense datasets simply have
// uniform row lengths. It is the only feature layout: the SIMD kernels
// load row tails with unaligned and masked loads, so rows need neither
// alignment nor padding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "telemetry/memory.hpp"

namespace dnnd::core {

template <typename T>
class FeatureStore {
 public:
  using value_type = T;

  FeatureStore() = default;

  /// Dense constructor: `n` rows of `dim` values, row-major. `n == 0`
  /// yields a valid empty store (offsets primed so add() keeps working).
  FeatureStore(std::size_t n, std::size_t dim, std::vector<T> values)
      : values_(values.begin(), values.end()) {
    if (values_.size() != n * dim) {
      throw std::invalid_argument("FeatureStore: values size != n*dim");
    }
    offsets_.reserve(n + 1);
    ids_.reserve(n);
    index_.reserve(n);
    offsets_.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
      offsets_.push_back((i + 1) * dim);
      ids_.push_back(static_cast<VertexId>(i));
      index_.emplace(static_cast<VertexId>(i), i);
    }
  }

  /// Appends one point. Rows may have different lengths (sparse metrics).
  void add(VertexId id, std::span<const T> feature) {
    if (index_.contains(id)) {
      throw std::invalid_argument("FeatureStore: duplicate id");
    }
    if (offsets_.empty()) offsets_.push_back(0);
    index_.emplace(id, ids_.size());
    ids_.push_back(id);
    values_.insert(values_.end(), feature.begin(), feature.end());
    offsets_.push_back(values_.size());
  }

  [[nodiscard]] bool contains(VertexId id) const { return index_.contains(id); }

  /// Local (insertion) index of a stored id; throws on an unknown id.
  [[nodiscard]] std::size_t row_of(VertexId id) const {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      throw std::out_of_range("FeatureStore: unknown id");
    }
    return it->second;
  }

  [[nodiscard]] std::span<const T> operator[](VertexId id) const {
    return row(row_of(id));
  }

  /// Row by local (insertion) index; useful for iteration.
  [[nodiscard]] std::span<const T> row(std::size_t local_index) const {
    const std::size_t begin = offsets_[local_index];
    const std::size_t end = offsets_[local_index + 1];
    return {values_.data() + begin, end - begin};
  }

  /// Bounds-checked raw row pointer, for gathering candidate rows into
  /// the batched distance kernels.
  [[nodiscard]] const T* row_ptr(std::size_t local_index) const {
    if (local_index >= ids_.size()) {
      throw std::out_of_range("FeatureStore: row index out of range");
    }
    return values_.data() + offsets_[local_index];
  }

  [[nodiscard]] VertexId id_at(std::size_t local_index) const {
    return ids_[local_index];
  }

  [[nodiscard]] const std::vector<VertexId>& ids() const noexcept {
    return ids_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }

  /// Dimension of row 0 (dense datasets); 0 when empty.
  [[nodiscard]] std::size_t dim() const noexcept {
    return offsets_.size() > 1 ? offsets_[1] - offsets_[0] : 0;
  }

  void reserve(std::size_t rows, std::size_t values_per_row) {
    ids_.reserve(rows);
    offsets_.reserve(rows + 1);
    values_.reserve(rows * values_per_row);
    index_.reserve(rows);
  }

  /// Charges this store's feature payload (values, offsets, id index)
  /// against a memory-ledger tag. Existing contents are copied once into
  /// tagged storage, so tag while empty (the engine does) or at setup.
  void set_mem_tag(telemetry::MemTag tag) {
    telemetry::retag(values_, tag);
    telemetry::retag(offsets_, tag);
    telemetry::retag(index_, tag);
  }

  /// Removes a batch of points, compacting storage (one O(total) rebuild
  /// regardless of batch size). Unknown ids are ignored. Returns the
  /// compaction: element i is the old local index of the row now at i,
  /// so a caller keeping row-indexed state can compact it the same way.
  std::vector<std::size_t> remove_batch(std::span<const VertexId> removed) {
    std::vector<bool> drop(ids_.size(), false);
    for (const VertexId id : removed) {
      const auto it = index_.find(id);
      if (it != index_.end()) drop[it->second] = true;
    }
    std::vector<std::size_t> kept;
    kept.reserve(ids_.size());
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (!drop[i]) kept.push_back(i);
    }
    if (kept.size() == ids_.size()) return kept;
    // Rebuild into vectors sharing the members' (possibly tagged)
    // allocators so the compacted storage stays on the same ledger tag.
    decltype(values_) values(values_.get_allocator());
    decltype(offsets_) offsets(offsets_.get_allocator());
    std::vector<VertexId> ids;
    values.reserve(values_.size());
    offsets.reserve(offsets_.size());
    ids.reserve(kept.size());
    index_.clear();
    offsets.push_back(0);
    for (const std::size_t i : kept) {
      const auto r = row(i);
      values.insert(values.end(), r.begin(), r.end());
      offsets.push_back(values.size());
      index_.emplace(ids_[i], ids.size());
      ids.push_back(ids_[i]);
    }
    values_ = std::move(values);
    offsets_ = std::move(offsets);
    ids_ = std::move(ids);
    return kept;
  }

 private:
  // The big owners (feature payload, row offsets, id index) allocate
  // through CountingAllocator so set_mem_tag() can attribute them to the
  // memory ledger; a default-constructed allocator is a pass-through, so
  // untagged stores behave exactly as before. ids_ (8 bytes/point) stays
  // a plain vector because ids() exposes it by reference.
  std::vector<T, telemetry::CountingAllocator<T>> values_;
  /// size() + 1 entries when non-empty
  std::vector<std::size_t, telemetry::CountingAllocator<std::size_t>> offsets_;
  std::vector<VertexId> ids_;
  std::unordered_map<
      VertexId, std::size_t, std::hash<VertexId>, std::equal_to<VertexId>,
      telemetry::CountingAllocator<std::pair<const VertexId, std::size_t>>>
      index_;
};

}  // namespace dnnd::core
