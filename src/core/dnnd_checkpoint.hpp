// Build checkpoint/restore through the persistent datastore.
//
// The paper adopts Metall precisely so that "the ability to store the
// constructed graph data in some form of persistent storage" (§4.6) and
// §7's incremental-update vision work; this module closes the loop: an
// in-progress or finished DNND build can be checkpointed per rank and
// resumed later — in a new process — with resume_build(), refine(), or
// optimize().
//
// A checkpoint captures a *consistent cut* of the build: it is taken at an
// iteration barrier (transport quiescent, update counters consumed by the
// allreduce, per-iteration cursors reset), and records everything the cut
// does not make implicit — the neighbor rows with their new/old sampling
// flags, each engine's RNG stream state, and the runner's iteration
// bookkeeping. That is sufficient for a resumed build to replay the
// remaining iterations bit-identically to an uninterrupted run.
//
// Layout inside the datastore: double-buffered A/B slots under a
// caller-chosen prefix, with a head record naming the live slot:
//
//   <prefix>/head            CheckpointHead {active_slot, saves}
//   <prefix>/s<A|B>/meta     CheckpointMeta (ranks, k, counts, progress)
//   <prefix>/s<A|B>/rng/<r>  CheckpointRngState — rank r's engine stream
//   <prefix>/s<A|B>/updates  per-iteration global update counts
//   <prefix>/s<A|B>/points/<r>  PersistentFeatures<T> — the rank's shard
//   <prefix>/s<A|B>/rows/<r>    CSR of (id, neighbors-with-flags) rows
//
// save_checkpoint always writes the *inactive* slot, flushes it durable,
// and only then flips head.active_slot (and flushes again): a crash at any
// point mid-save leaves the previous checkpoint intact and loadable. (The
// old single-slot layout overwrote the only copy in place — a crash
// mid-save corrupted it.) For whole-file crash consistency across torn
// datastore writes, wrap saves in a CheckpointStore generation
// (write_checkpoint_generation below), which adds CRC validation and
// atomic manifest publication on top.
//
// A generation file is written once: after save_checkpoint it is sealed
// (pmem::Manager::seal) so the file holds exactly the arena bytes the
// checkpoint used — header capacity == bump == file size — and the
// commit-time CRC covers only those bytes, never the unused tail of the
// reservation. The reservation itself is derived from the runner's state
// (generation_capacity_bytes), so no build outgrows a fixed arena size.
//
// Restore requires a runner with the same rank count and k; the element
// type is checked via the pmem type hashes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/checkpoint_store.hpp"
#include "core/dnnd_runner.hpp"
#include "core/persistent_graph.hpp"
#include "pmem/manager.hpp"
#include "pmem/vector.hpp"

namespace dnnd::core {

/// Double-buffer head: which slot holds the live checkpoint. saves == 0
/// means no complete checkpoint exists yet.
struct CheckpointHead {
  std::uint32_t active_slot = 0;  ///< 0 = "A", 1 = "B"
  std::uint64_t saves = 0;        ///< completed save_checkpoint calls
};

struct CheckpointMeta {
  std::uint32_t num_ranks = 0;
  std::uint32_t k = 0;
  std::uint64_t global_count = 0;
  std::uint64_t id_bound = 0;
  // -- build progress at the checkpointed cut --------------------------
  std::uint64_t completed_iterations = 0;
  std::uint64_t total_updates = 0;
  std::uint64_t seed = 0;  ///< config seed, to catch resume-with-wrong-seed
  bool converged = false;
};

/// One engine's xoshiro256** state (the only build-path randomness).
struct CheckpointRngState {
  std::uint64_t s[4] = {};
};

/// Per-rank neighbor rows in persistent CSR form.
struct CheckpointRows {
  explicit CheckpointRows(pmem::allocator<std::byte> alloc)
      : ids(pmem::allocator<VertexId>(alloc.header())),
        row_offsets(pmem::allocator<std::uint64_t>(alloc.header())),
        entries(pmem::allocator<Neighbor>(alloc.header())) {}

  pmem::vector<VertexId> ids;
  pmem::vector<std::uint64_t> row_offsets;  ///< ids.size() + 1
  pmem::vector<Neighbor> entries;
};

/// Per-iteration global update counts (DnndRunner::updates_history).
struct CheckpointUpdates {
  explicit CheckpointUpdates(pmem::allocator<std::byte> alloc)
      : counts(pmem::allocator<std::uint64_t>(alloc.header())) {}

  pmem::vector<std::uint64_t> counts;
};

namespace detail {
inline std::string slot_prefix(std::string_view prefix, std::uint32_t slot) {
  return std::string(prefix) + (slot == 0 ? "/sA" : "/sB");
}
inline std::string ckpt_name(std::string_view prefix, const char* what,
                             int rank) {
  return std::string(prefix) + "/" + what + "/" + std::to_string(rank);
}
}  // namespace detail

/// Writes the runner's full mid-build state (points, neighbor lists with
/// new/old flags, RNG streams, iteration bookkeeping) into the datastore's
/// inactive slot, then atomically flips the head. The previous checkpoint
/// stays intact until the new one is fully durable.
template <typename T, typename DistanceFn>
void save_checkpoint(pmem::Manager& manager,
                     DnndRunner<T, DistanceFn>& runner,
                     std::string_view prefix) {
  auto* head = manager.find_or_construct<CheckpointHead>(
      std::string(prefix) + "/head");
  if (head == nullptr) throw pmem::ArenaExhausted();
  const std::uint32_t slot = head->saves == 0 ? 0 : 1 - head->active_slot;
  const std::string sp = detail::slot_prefix(prefix, slot);

  const int ranks = runner.environment().num_ranks();
  auto* meta = manager.find_or_construct<CheckpointMeta>(sp + "/meta");
  if (meta == nullptr) throw pmem::ArenaExhausted();
  meta->num_ranks = static_cast<std::uint32_t>(ranks);
  meta->global_count = runner.global_count();
  meta->id_bound = runner.id_bound();
  meta->completed_iterations = runner.completed_iterations();
  meta->converged = runner.converged();
  meta->seed = runner.config().seed;
  meta->total_updates = 0;

  auto* updates = manager.find_or_construct<CheckpointUpdates>(
      sp + "/updates", manager.get_allocator<std::byte>());
  if (updates == nullptr) throw pmem::ArenaExhausted();
  updates->counts.clear();
  for (const std::uint64_t c : runner.updates_history()) {
    updates->counts.push_back(c);
    meta->total_updates += c;
  }

  for (int r = 0; r < ranks; ++r) {
    auto& engine = runner.engine(r);
    meta->k = static_cast<std::uint32_t>(engine.list_capacity());
    store_features(manager, engine.local_points(),
                   detail::ckpt_name(sp, "points", r));

    auto* rng = manager.find_or_construct<CheckpointRngState>(
        detail::ckpt_name(sp, "rng", r));
    if (rng == nullptr) throw pmem::ArenaExhausted();
    const auto state = engine.rng_state();
    for (int i = 0; i < 4; ++i) rng->s[i] = state[static_cast<std::size_t>(i)];

    auto* rows = manager.find_or_construct<CheckpointRows>(
        detail::ckpt_name(sp, "rows", r), manager.get_allocator<std::byte>());
    if (rows == nullptr) throw pmem::ArenaExhausted();
    rows->ids.clear();
    rows->row_offsets.clear();
    rows->entries.clear();
    rows->row_offsets.push_back(0);
    for (auto& [v, row] : engine.shard_rows()) {
      rows->ids.push_back(v);
      for (const Neighbor& n : row) rows->entries.push_back(n);
      rows->row_offsets.push_back(rows->entries.size());
    }
  }
  // Slot durable first, head flip durable second: the flip is the commit
  // point, and it only ever points at a completely written slot.
  manager.flush();
  head->active_slot = slot;
  ++head->saves;
  manager.flush();
}

/// Loads the active checkpoint slot into a *fresh* runner (no
/// distribute()/build() yet) created with the same rank count and k.
/// Restores engine rows, RNG streams, and runner progress, so
/// resume_build() continues exactly where the checkpoint was cut. Throws
/// std::runtime_error on a missing checkpoint or mismatched topology.
template <typename T, typename DistanceFn>
void load_checkpoint(pmem::Manager& manager,
                     DnndRunner<T, DistanceFn>& runner,
                     std::string_view prefix) {
  auto* head = manager.find<CheckpointHead>(std::string(prefix) + "/head");
  if (head == nullptr || head->saves == 0) {
    throw std::runtime_error("load_checkpoint: no checkpoint at prefix '" +
                             std::string(prefix) + "'");
  }
  const std::string sp = detail::slot_prefix(prefix, head->active_slot);
  auto* meta = manager.find<CheckpointMeta>(sp + "/meta");
  if (meta == nullptr) {
    throw std::runtime_error("load_checkpoint: head points at missing slot");
  }
  const int ranks = runner.environment().num_ranks();
  if (meta->num_ranks != static_cast<std::uint32_t>(ranks)) {
    throw std::runtime_error(
        "load_checkpoint: rank count mismatch (checkpoint " +
        std::to_string(meta->num_ranks) + ", runner " + std::to_string(ranks) +
        ")");
  }
  if (meta->seed != runner.config().seed) {
    throw std::runtime_error(
        "load_checkpoint: seed mismatch (checkpoint " +
        std::to_string(meta->seed) + ", runner " +
        std::to_string(runner.config().seed) +
        ") — a resumed build must use the original seed");
  }

  for (int r = 0; r < ranks; ++r) {
    auto& engine = runner.engine(r);
    if (meta->k != static_cast<std::uint32_t>(engine.list_capacity())) {
      throw std::runtime_error("load_checkpoint: k mismatch");
    }
    const auto points =
        load_features<T>(manager, detail::ckpt_name(sp, "points", r));
    for (std::size_t i = 0; i < points.size(); ++i) {
      engine.add_local_point(points.id_at(i), points.row(i));
    }
    auto* rng =
        manager.find<CheckpointRngState>(detail::ckpt_name(sp, "rng", r));
    if (rng == nullptr) {
      throw std::runtime_error("load_checkpoint: missing RNG state for rank " +
                               std::to_string(r));
    }
    engine.set_rng_state({rng->s[0], rng->s[1], rng->s[2], rng->s[3]});
    auto* rows = manager.find<CheckpointRows>(detail::ckpt_name(sp, "rows", r));
    if (rows == nullptr) {
      throw std::runtime_error("load_checkpoint: missing rows for rank " +
                               std::to_string(r));
    }
    std::vector<std::pair<VertexId, std::vector<Neighbor>>> imported;
    imported.reserve(rows->ids.size());
    for (std::size_t i = 0; i < rows->ids.size(); ++i) {
      const auto begin = rows->row_offsets[i];
      const auto end = rows->row_offsets[i + 1];
      imported.emplace_back(
          rows->ids[i],
          std::vector<Neighbor>(rows->entries.data() + begin,
                                rows->entries.data() + end));
    }
    engine.import_rows(imported);
  }
  std::vector<std::uint64_t> history;
  if (auto* updates = manager.find<CheckpointUpdates>(sp + "/updates")) {
    history.assign(updates->counts.data(),
                   updates->counts.data() + updates->counts.size());
  }
  runner.restore_progress(meta->completed_iterations, std::move(history),
                          meta->converged);
  runner.adopt_loaded_shards(meta->id_bound);
}

// ---- generation-store glue (crash consistency across torn file writes) ----

/// Arena capacity that always holds one generation of `runner`'s state.
/// The payload save_checkpoint writes is each rank's feature CSR (values,
/// offsets, ids) plus its neighbor-row CSR (k entries, an offset and an id
/// per point). A pmem::vector grown by doubling leaves freed blocks that
/// sum to under its final block, and size classes round each block up to
/// a power of two, so a vector's arena footprint stays below 8x its
/// payload; 1 MiB more covers the directory and fixed-size records.
/// Reserving generously is cheap: the file is sparse until written, and
/// write_checkpoint_generation seals it to the bytes actually used.
template <typename T, typename DistanceFn>
std::size_t generation_capacity_bytes(DnndRunner<T, DistanceFn>& runner) {
  constexpr std::size_t kPerPointBytes =
      sizeof(std::uint64_t) + sizeof(VertexId);  // a CSR offset and an id
  std::size_t payload = 0;
  for (int r = 0; r < runner.environment().num_ranks(); ++r) {
    auto& engine = runner.engine(r);
    const auto& points = engine.local_points();
    for (std::size_t i = 0; i < points.size(); ++i) {
      payload += points.row(i).size() * sizeof(T);
    }
    payload += points.size() *
               (2 * kPerPointBytes + engine.list_capacity() * sizeof(Neighbor));
  }
  return 8 * payload + (std::size_t{1} << 20);
}

/// Stages a fresh generation datastore in `store`, saves the runner's
/// checkpoint into it, seals the file at the arena bytes it used, and
/// commits it (CRC + atomic manifest publication). Returns the committed
/// generation record; its `bytes` is the sealed file size, not
/// `capacity_bytes`.
template <typename T, typename DistanceFn>
GenerationInfo write_checkpoint_generation(CheckpointStore& store,
                                           DnndRunner<T, DistanceFn>& runner,
                                           std::size_t capacity_bytes,
                                           std::string_view prefix = "ckpt") {
  const std::uint64_t gen = store.next_generation();
  {
    auto manager = pmem::Manager::create(store.generation_path(gen),
                                         capacity_bytes);
    save_checkpoint(manager, runner, prefix);
    manager.seal();
    manager.close();
  }
  return store.commit(gen, runner.completed_iterations(), runner.converged());
}

/// Opens the newest CRC-valid generation (rolling back past torn ones) and
/// loads it into `runner`. Returns the generation record, or nullopt when
/// the store holds no valid checkpoint.
template <typename T, typename DistanceFn>
std::optional<GenerationInfo> load_latest_generation(
    CheckpointStore& store, DnndRunner<T, DistanceFn>& runner,
    std::string_view prefix = "ckpt") {
  const auto info = store.open_latest();
  if (!info.has_value()) return std::nullopt;
  auto manager = pmem::Manager::open(store.directory() + "/" + info->file);
  load_checkpoint(manager, runner, prefix);
  return info;
}

}  // namespace dnnd::core
