// DNND engine: the per-rank half of distributed NN-Descent (paper §4).
//
// One engine instance lives on each simulated rank and owns that rank's
// shard of the dataset and of the k-NN graph (points and their neighbor
// lists are co-located by hashing the vertex id, §4). All cross-rank work
// happens through fire-and-forget handlers registered with the
// communicator; the DnndRunner sequences the phases and the barriers.
//
// Message protocol (labels appear in MessageStats and feed Figure 4):
//
//   init_req / init_rep   k-NNG random initialization (§4.1's example:
//                         v ships its feature to owner(u), which computes
//                         θ(v,u) and replies with the distance)
//   rev_sample            reversed old/new matrix entries (§4.2)
//   type1                 bundle per (center v, u1): v's owner sends
//                         owner(u1) every u2 of u1's check row
//                                                              [optimized]
//   type2plus             bundle per (u1, rank): u1's feature and
//                         farthest-neighbor bound, once, plus the sorted
//                         u2s that rank owns (§4.3.1 one-sided + §4.3.3
//                         bound)                               [optimized]
//   type3                 the bundle's (u2, d) pairs under the bound,
//                         returned to owner(u1); none if empty [optimized]
//   type1_unopt           per pair: check request to *both* endpoints
//   type2_unopt           per pair: full feature exchange, both directions
//   rev_edge              §4.5 reverse-edge merge for graph optimization
//
// Each optimized bundle carries one of the paper's per-pair messages for
// every candidate pair in it. The engine counts those logical messages
// (the ones that cross ranks) in engine.logical_msgs.{type1,type2plus,
// type3}, so Figure 4a still compares the paper's message counts while
// the wire counters show what the bundles cost.
//
// The optimized checks run as two supersteps per §4.4 chunk. In the
// Type-1 round owner(u1) applies §4.3.2 against u1's list and appends the
// survivors to u1's row bucket; only Type-1 messages are in flight, so no
// list changes during that round. In the Type-2+ round each rank walks
// the buckets in ascending u1, sorts and dedups each one (a pair reached
// from two centers is checked once), sends one bundle per (u1,
// owner(u2)), and owner(u2) evaluates each bundle with one batched kernel
// call.
//
// Per-vertex state is indexed by the vertex's FeatureStore row, not by its
// global id: the neighbor lists and the per-iteration samples are arrays
// parallel to the feature rows. A handler turns each id it receives into
// a row once (FeatureStore::row_of); a deletion compacts every array the
// way FeatureStore::remove_batch compacted the features.
//
// Correctness note on §4.3.3 pruning: the bound on a Type-2+ bundle is
// u1's farthest-neighbor distance when the bundle is sent. Farthest
// distances only decrease, so a pair left out of the Type-3 reply because
// d >= bound could never have been accepted by u1 later — pruning is
// lossless. A property test asserts this by comparing optimized and
// unoptimized runs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/distance_kernels.hpp"
#include "core/dnnd_config.hpp"
#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "core/partition.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

/// DistanceFn: Dist(std::span<const T>, std::span<const T>).
template <typename T, typename DistanceFn>
class DnndEngine {
 public:
  DnndEngine(comm::Communicator& comm, DnndConfig config, DistanceFn distance,
             Partition partition)
      : comm_(&comm),
        config_(config),
        distance_(std::move(distance)),
        partition_(std::move(partition)),
        rng_(util::Xoshiro256(config.seed).fork(
            static_cast<std::uint64_t>(comm.rank()))),
        pool_(resolve_threads(config.threads_per_rank)) {
    c_distance_evals_ = comm_->telemetry().counter("engine.distance_evals");
    c_updates_ = comm_->telemetry().counter("engine.updates");
    c_logical_type1_ = comm_->telemetry().counter("engine.logical_msgs.type1");
    c_logical_type2plus_ =
        comm_->telemetry().counter("engine.logical_msgs.type2plus");
    c_logical_type3_ = comm_->telemetry().counter("engine.logical_msgs.type3");
    // Pool tasks dispatched by this rank's staged phases. The task
    // decomposition is a pure function of the work shape (size + grain),
    // so the count is bit-identical across thread counts; each task
    // increments from its executing thread (the relaxed-atomic counter
    // hot path). Excluded from the metrics-regression diff as a
    // schedule-shape counter — the parity tests assert it directly.
    c_tasks_ = comm_->telemetry().counter("engine.tasks",
                                          telemetry::MetricUnit::kSchedule);
    pool_.set_telemetry(&comm_->telemetry(), c_tasks_);
    // Memory-ledger tags for the two big per-rank owners: the feature
    // shard (CSR payload + id index) and the k-NN graph rows (the lists_
    // array plus every row's bounded heap). Both stores are empty here,
    // so retagging is free.
    t_features_ = comm_->telemetry().mem_tag("mem.engine.features");
    t_graph_ = comm_->telemetry().mem_tag("mem.engine.graph");
    points_.set_mem_tag(t_features_);
    telemetry::retag(lists_, t_graph_);
    register_handlers();
  }

  DnndEngine(const DnndEngine&) = delete;
  DnndEngine& operator=(const DnndEngine&) = delete;

  [[nodiscard]] int rank() const noexcept { return comm_->rank(); }

  // ---- setup ------------------------------------------------------------

  /// Adds a point this rank owns. Pre: owner_rank(id, size) == rank().
  void add_local_point(VertexId id, std::span<const T> feature) {
    assert(partition_.owner(id) == comm_->rank());
    append_point(id, feature);
  }

  /// Global dataset size; must be set on every rank before begin_init().
  /// Vertex ids are assumed dense in [0, n).
  void set_global_count(std::uint64_t n) { global_n_ = n; }

  [[nodiscard]] const FeatureStore<T>& local_points() const noexcept {
    return points_;
  }

  // ---- phase: random initialization (Alg. 1 lines 2–5) -------------------

  void start_init() {
    for (NeighborList& list : lists_) list.clear();
    init_cursor_ = 0;
    init_targets_.clear();
  }

  /// Emits up to `quota` init requests; returns true when this rank has
  /// emitted all of its requests (§4.4 batching: the runner interleaves
  /// chunks with barriers).
  bool emit_init_chunk(std::uint64_t quota) {
    std::uint64_t emitted = 0;
    while (init_cursor_ < points_.size()) {
      const VertexId v = points_.id_at(init_cursor_);
      if (init_targets_.empty()) generate_init_targets(v);
      while (init_emitted_ < init_targets_.size()) {
        if (emitted >= quota) return false;
        const VertexId u = init_targets_[init_emitted_++];
        comm_->async(partition_.owner(u), h_init_req_, u, v,
                     points_.row(init_cursor_));
        ++emitted;
      }
      init_targets_.clear();
      init_emitted_ = 0;
      ++init_cursor_;
    }
    return true;
  }

  // ---- dynamic updates (paper §7: add/delete + short refinement) ----------

  /// Adds a point after the initial build. Its neighbor list starts empty
  /// and is seeded by emit_pending_init_chunk() + refinement iterations.
  void add_pending_point(VertexId id, std::span<const T> feature) {
    assert(partition_.owner(id) == comm_->rank());
    append_point(id, feature);
    pending_init_.push_back(id);
  }

  /// Per-rank live point counts, used to sample init targets when vertex
  /// ids are no longer dense (after deletions). Must be set on every rank
  /// before emit_pending_init_chunk().
  void set_rank_weights(std::vector<std::uint64_t> counts) {
    rank_weights_ = std::move(counts);
    total_weight_ = 0;
    for (const auto w : rank_weights_) total_weight_ += w;
  }

  [[nodiscard]] std::uint64_t local_point_count() const noexcept {
    return points_.size();
  }

  /// Configured k (neighbor-list capacity); checkpoints validate it.
  [[nodiscard]] std::size_t list_capacity() const noexcept {
    return config_.k;
  }

  /// The engine's RNG stream state. This stream is the *only* randomness
  /// on the build path, so checkpointing it (and the neighbor rows) at an
  /// iteration boundary is sufficient for a resumed build to replay the
  /// remaining iterations bit-identically.
  [[nodiscard]] std::array<std::uint64_t, 4> rng_state() const noexcept {
    return rng_.state();
  }
  void set_rng_state(const std::array<std::uint64_t, 4>& s) noexcept {
    rng_.set_state(s);
  }

  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }

  /// Emits init requests for points added since the last build/refine.
  /// Targets are sampled by weighted rank + random-local-point (the
  /// dense-id assumption does not survive deletions). Returns true when
  /// this rank has drained its pending list.
  bool emit_pending_init_chunk(std::uint64_t quota) {
    std::uint64_t emitted = 0;
    while (!pending_init_.empty()) {
      const VertexId v = pending_init_.back();
      const std::span<const T> feature = points_[v];
      while (pending_emitted_ < config_.k) {
        if (emitted >= quota) return false;
        const int dest = weighted_random_rank();
        comm_->async(dest, h_init_sample_, v, feature);
        ++pending_emitted_;
        ++emitted;
      }
      pending_init_.pop_back();
      pending_emitted_ = 0;
    }
    return true;
  }

  /// Deletes local points and their neighbor lists. The caller must then
  /// run repair_after_removal() on *every* rank with the full removed set.
  void remove_local_points(std::span<const VertexId> ids) {
    const std::vector<std::size_t> kept = points_.remove_batch(ids);
    keep_rows(lists_, kept);
    keep_rows(row_scratch_, kept);
  }

  /// Drops dangling references to removed vertices from every local list.
  /// Rows that lost neighbors are re-flagged as new so the next
  /// refinement iterations re-explore around them. Each vertex's rebuild
  /// touches only its own list, so the loop parallelizes as vertex
  /// blocks with no cross-task state at all.
  void repair_after_removal(const std::vector<VertexId>& removed_sorted) {
    auto is_removed = [&](VertexId id) {
      return std::binary_search(removed_sorted.begin(), removed_sorted.end(),
                                id);
    };
    pool_.for_blocks(
        lists_.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            auto& list = lists_[i];
            bool lost = false;
            NeighborList rebuilt(config_.k, t_graph_);
            for (const Neighbor& n : list.entries()) {
              if (is_removed(n.id)) {
                lost = true;
              } else {
                rebuilt.update(n.id, n.distance, n.is_new);
              }
            }
            if (lost) {
              for (Neighbor& n : rebuilt.entries()) n.is_new = true;
              list = std::move(rebuilt);
            }
          }
        },
        "repair");
  }

  // ---- phase: sampling + reversed matrices (Alg. 1 lines 8–16, §4.2) -----

  /// Splits every local list into old/new, flips sampled flags, and sends
  /// reversed entries to the owners of the referenced vertices. The
  /// destination order is shuffled (§4.2) to avoid all ranks draining
  /// toward the same destination at once.
  ///
  /// Entries are visited in canonical (distance, id) order, not internal
  /// heap order: heap layout depends on insertion order, which varies with
  /// message-delivery schedule (threaded driver, fault injection). Pinning
  /// the visit order makes the sampled subset — and hence the whole build —
  /// a function of list *content* only, so any two schedules that deliver
  /// the same messages produce the same graph.
  /// Staged for intra-rank threading: stage 1 (parallel over rows)
  /// computes each list's canonical split — pure reads of list content
  /// plus a private sort; stage 2 (sequential, row order) owns everything
  /// schedule-sensitive: the rng stream, the is_new flag flips, and the
  /// emission order. The rng consumption and the outbound byte stream are
  /// identical to the fused serial loop for any thread count.
  void sample_and_emit_reverse() {
    const std::size_t sample_k = scaled_sample_k();
    const std::size_t n = lists_.size();
    // Stage 1 leaves each row's old ids in old_ids and the entry *indices*
    // of its fresh entries in new_ids, both in canonical order; stage 2
    // shuffles the indices and rewrites the sampled ones as ids.
    pool_.for_blocks(
        n, kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          std::vector<std::size_t> order;
          for (std::size_t i = begin; i < end; ++i) {
            const auto entries = std::as_const(lists_[i]).entries();
            order.resize(entries.size());
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return entries[a].distance < entries[b].distance ||
                               (entries[a].distance == entries[b].distance &&
                                entries[a].id < entries[b].id);
                      });
            RowScratch& row = row_scratch_[i];
            row.old_ids.clear();
            row.new_ids.clear();
            for (const std::size_t e : order) {
              if (entries[e].is_new) {
                row.new_ids.push_back(static_cast<VertexId>(e));
              } else {
                row.old_ids.push_back(entries[e].id);
              }
            }
          }
        },
        "sample_split");

    struct RevEntry {
      VertexId target;
      VertexId source;
      std::uint8_t is_new;
    };
    std::vector<RevEntry> outbound;
    for (std::size_t i = 0; i < n; ++i) {
      const VertexId v = points_.id_at(i);
      auto entries = lists_[i].entries();
      RowScratch& row = row_scratch_[i];
      util::shuffle(row.new_ids.begin(), row.new_ids.end(), rng_);
      row.new_ids.resize(std::min(sample_k, row.new_ids.size()));
      for (VertexId& fresh : row.new_ids) {
        entries[fresh].is_new = false;
        fresh = entries[fresh].id;
      }
      for (const VertexId u : row.old_ids) outbound.push_back({u, v, 0});
      for (const VertexId u : row.new_ids) outbound.push_back({u, v, 1});
    }

    util::shuffle(outbound.begin(), outbound.end(), rng_);
    for (const RevEntry& e : outbound) {
      comm_->async(partition_.owner(e.target), h_rev_sample_,
                   e.target, e.source, e.is_new);
    }
  }

  /// After the reverse exchange quiesces: merge a ρK-sample of the
  /// reversed lists into old/new (Alg. 1 lines 15–16) and arm the
  /// neighbor-check cursor.
  void merge_reverse_and_prepare_checks() {
    const std::size_t sample_k = scaled_sample_k();
    // Stage 1 (parallel over rows): the canonical pre-sort — the
    // schedule-independence sort merge_presorted requires — of each row's
    // reversed lists, in place. Stage 2 (sequential) owns the rng stream.
    pool_.for_blocks(
        row_scratch_.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::sort(row_scratch_[i].rev_old.begin(),
                      row_scratch_[i].rev_old.end());
            std::sort(row_scratch_[i].rev_new.begin(),
                      row_scratch_[i].rev_new.end());
          }
        },
        "rev_sort");
    for (RowScratch& row : row_scratch_) {
      merge_presorted(row.old_ids, row.rev_old, sample_k);
      merge_presorted(row.new_ids, row.rev_new, sample_k);
      row.rev_old.clear();
      row.rev_new.clear();
    }
    check_vertex_ = 0;
    check_i_ = 0;
  }

  // ---- phase: neighbor checks (Alg. 1 lines 17–22, §4.3) ------------------

  /// Type-1 round: emits check rows worth up to `quota` candidate pairs
  /// (§4.4; the quota counts pairs, so batch_size keeps its meaning) and
  /// stops at a row boundary. Returns true when exhausted. With
  /// optimized checks a row is one Type-1 bundle; unoptimized, it is the
  /// Figure-1a per-pair messages.
  bool emit_check_chunk(std::uint64_t quota) {
    std::uint64_t emitted = 0;
    while (check_vertex_ < row_scratch_.size()) {
      const auto& nu = row_scratch_[check_vertex_].new_ids;
      const auto& ol = row_scratch_[check_vertex_].old_ids;
      // Row i of center v pairs nu[i] with the tail of the new list
      // (new-new pairs are unordered: j > i) and then the old list.
      while (check_i_ < nu.size()) {
        const VertexId u1 = nu[check_i_];
        check_row_.clear();
        for (std::size_t j = check_i_ + 1; j < nu.size(); ++j) {
          if (nu[j] != u1) check_row_.push_back(nu[j]);
        }
        for (const VertexId u2 : ol) {
          if (u2 != u1) check_row_.push_back(u2);
        }
        if (!check_row_.empty()) {
          if (emitted >= quota) return false;
          emit_check_row(u1);
          emitted += check_row_.size();
        }
        ++check_i_;
      }
      ++check_vertex_;
      check_i_ = 0;
    }
    return true;
  }

  /// Type-2+ round, after the Type-1 round quiesced: walks the u1 rows
  /// whose filter kept pairs in ascending u1 id; sorts and dedups each
  /// row's bucket, then sends one bundle per (u1, owner(u2)). Every
  /// destination thus gets its bundles in ascending u1, each with its u2s
  /// ascending, whatever order the Type-1 bundles arrived in.
  void emit_type2plus_bundles() {
    std::sort(forward_rows_.begin(), forward_rows_.end(),
              [&](std::size_t a, std::size_t b) {
                return points_.id_at(a) < points_.id_at(b);
              });
    for (const std::size_t row : forward_rows_) {
      auto& keys = row_scratch_[row].forward;
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      const VertexId u1 = points_.id_at(row);
      const Dist bound = config_.distance_pruning
                             ? lists_[row].furthest_distance()
                             : kInfiniteDistance;
      for (std::size_t b = 0; b < keys.size();) {
        const int dest = forward_dest(keys[b]);
        check_row_.clear();
        for (; b < keys.size() && forward_dest(keys[b]) == dest; ++b) {
          check_row_.push_back(static_cast<VertexId>(keys[b]));
        }
        if (dest != rank()) {
          comm_->telemetry().add(c_logical_type2plus_, check_row_.size());
        }
        comm_->async(dest, h_type2plus_, u1, bound, points_.row(row),
                     std::span<const VertexId>(check_row_));
      }
      keys.clear();
    }
    forward_rows_.clear();
  }

  /// Successful Update() count since the last call (the counter `c`).
  std::uint64_t take_update_count() noexcept {
    const std::uint64_t c = updates_;
    comm_->telemetry().add(c_updates_, c);
    updates_ = 0;
    return c;
  }

  // ---- phase: graph optimization (§4.5) -----------------------------------

  /// Sends every edge's reverse to the target's owner. Staged: the
  /// reverse-edge tuples are constructed in parallel (slot = row, pure
  /// reads of the lists), then emitted sequentially in row order — the
  /// byte stream on the wire is identical to the fused serial loop.
  void emit_reverse_edges() {
    const auto& ids = points_.ids();
    struct RevEdge {
      VertexId target;
      Dist distance;
    };
    std::vector<std::vector<RevEdge>> slots(ids.size());
    pool_.for_blocks(
        ids.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            for (const Neighbor& n : std::as_const(lists_[i]).entries()) {
              slots[i].push_back({n.id, n.distance});
            }
          }
        },
        "rev_edge_build");
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (const RevEdge& e : slots[i]) {
        comm_->async(partition_.owner(e.target), h_rev_edge_, e.target,
                     ids[i], e.distance);
      }
    }
  }

  /// Merges received reverse edges, dedups, prunes to k·m (closest
  /// first). Each output row is a pure function of one row's list and
  /// received reverse edges, so the rows build in parallel slots and are
  /// committed in row order.
  void finalize_optimization() {
    const auto max_degree = static_cast<std::size_t>(
        static_cast<double>(config_.k) * config_.prune_factor_m);
    const auto& ids = points_.ids();
    std::vector<std::vector<Neighbor>> rows(ids.size());
    pool_.for_blocks(
        ids.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::vector<Neighbor> row = lists_[i].sorted();
            const auto& extra = row_scratch_[i].extra_edges;
            row.insert(row.end(), extra.begin(), extra.end());
            std::sort(row.begin(), row.end(),
                      [](const Neighbor& a, const Neighbor& b) {
                        return a.distance < b.distance ||
                               (a.distance == b.distance && a.id < b.id);
                      });
            row.erase(std::unique(row.begin(), row.end(),
                                  [](const Neighbor& a, const Neighbor& b) {
                                    return a.id == b.id;
                                  }),
                      row.end());
            if (row.size() > max_degree) row.resize(max_degree);
            rows[i] = std::move(row);
          }
        },
        "optimize_rows");
    optimized_rows_.clear();
    optimized_rows_.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      optimized_rows_.emplace_back(ids[i], std::move(rows[i]));
      row_scratch_[i].extra_edges.clear();
    }
  }

  // ---- results ------------------------------------------------------------

  /// Raw (unoptimized) shard rows, sorted by distance, in row order.
  [[nodiscard]] std::vector<std::pair<VertexId, std::vector<Neighbor>>>
  shard_rows() const {
    std::vector<std::pair<VertexId, std::vector<Neighbor>>> rows;
    rows.reserve(lists_.size());
    for (std::size_t i = 0; i < lists_.size(); ++i) {
      rows.emplace_back(points_.id_at(i), lists_[i].sorted());
    }
    return rows;
  }

  /// Replaces this rank's neighbor lists from checkpointed rows (flags
  /// included). Points must already be loaded; every row id must be local.
  void import_rows(
      const std::vector<std::pair<VertexId, std::vector<Neighbor>>>& rows) {
    for (NeighborList& list : lists_) list.clear();
    for (const auto& [v, entries] : rows) {
      NeighborList& list = lists_[points_.row_of(v)];
      for (const Neighbor& n : entries) {
        list.update(n.id, n.distance, n.is_new);
      }
    }
  }

  /// Rows after finalize_optimization(); empty until then.
  [[nodiscard]] const std::vector<std::pair<VertexId, std::vector<Neighbor>>>&
  optimized_rows() const noexcept {
    return optimized_rows_;
  }

  [[nodiscard]] std::uint64_t distance_evals() const noexcept {
    return distance_evals_;
  }

 private:
  /// Grain for staged vertex-block stages. A fixed constant (never a
  /// function of the thread count) so the task decomposition — and the
  /// engine.tasks counter — is bit-identical for any threads_per_rank.
  static constexpr std::size_t kVertexGrain = 256;

  std::size_t scaled_sample_k() const noexcept {
    return static_cast<std::size_t>(config_.rho *
                                    static_cast<double>(config_.k));
  }

  /// Appends a point with an empty list and empty per-iteration state:
  /// every row-indexed array grows with the feature store.
  void append_point(VertexId id, std::span<const T> feature) {
    points_.add(id, feature);
    lists_.emplace_back(config_.k, t_graph_);
    row_scratch_.emplace_back();
  }

  /// Applies a FeatureStore::remove_batch compaction to a row-indexed
  /// array: row i takes the entry of old row kept[i] (kept ascends, so
  /// kept[i] >= i and no live entry is overwritten before it moves). A
  /// row that stays put is skipped: a vector moved onto itself empties.
  template <typename Rows>
  static void keep_rows(Rows& rows, std::span<const std::size_t> kept) {
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (kept[i] != i) rows[i] = std::move(rows[kept[i]]);
    }
    rows.resize(kept.size());
  }

  /// A Type-1 survivor as one sort key: owner(u2) in the high half, u2 in
  /// the low half, so sorting a row's bucket groups it by destination
  /// with each group's u2s ascending.
  static std::uint64_t forward_key(int dest, VertexId u2) noexcept {
    static_assert(sizeof(VertexId) == 4);
    return (static_cast<std::uint64_t>(dest) << 32) | u2;
  }
  static int forward_dest(std::uint64_t key) noexcept {
    return static_cast<int>(key >> 32);
  }

  void generate_init_targets(VertexId v) {
    init_targets_.clear();
    init_emitted_ = 0;
    const std::uint64_t want =
        std::min<std::uint64_t>(config_.k, global_n_ > 0 ? global_n_ - 1 : 0);
    while (init_targets_.size() < want) {
      const auto u = static_cast<VertexId>(rng_.uniform_below(global_n_));
      if (u == v) continue;
      if (std::find(init_targets_.begin(), init_targets_.end(), u) !=
          init_targets_.end()) {
        continue;
      }
      init_targets_.push_back(u);
    }
  }

  /// Rank index ~ P(rank) ∝ live point count; falls back to uniform when
  /// weights were not provided.
  int weighted_random_rank() {
    if (total_weight_ == 0) {
      return static_cast<int>(rng_.uniform_below(
          static_cast<std::uint64_t>(comm_->size())));
    }
    std::uint64_t pick = rng_.uniform_below(total_weight_);
    for (std::size_t r = 0; r < rank_weights_.size(); ++r) {
      if (pick < rank_weights_[r]) return static_cast<int>(r);
      pick -= rank_weights_[r];
    }
    return comm_->size() - 1;
  }

  void merge_presorted(std::vector<VertexId>& dst, std::vector<VertexId>& rev,
                       std::size_t sample_k) {
    // Reversed entries accumulate in arrival order, which is a property of
    // the delivery schedule, not of the algorithm. The caller sorts before
    // sampling (in parallel, see merge_reverse_and_prepare_checks) so the
    // rng draw is applied to a canonical order and the merge result is
    // schedule-independent (entries are distinct: each center emits one
    // reverse entry per neighbor).
    util::shuffle(rev.begin(), rev.end(), rng_);
    const std::size_t take = std::min(sample_k, rev.size());
    for (std::size_t i = 0; i < take; ++i) {
      const VertexId u = rev[i];
      if (std::find(dst.begin(), dst.end(), u) == dst.end()) dst.push_back(u);
    }
  }

  /// Sends the check row (u1, check_row_).
  void emit_check_row(VertexId u1) {
    if (config_.optimized_checks) {
      // §4.3.1 one-sided: only owner(u1) is contacted; it forwards.
      const int dest = partition_.owner(u1);
      if (dest != rank()) {
        comm_->telemetry().add(c_logical_type1_, check_row_.size());
      }
      comm_->async(dest, h_type1_, u1, std::span<const VertexId>(check_row_));
    } else {
      // Figure 1a: both endpoints get a check request and exchange
      // features in both directions.
      for (const VertexId u2 : check_row_) {
        comm_->async(partition_.owner(u1), h_type1_unopt_, u1, u2);
        comm_->async(partition_.owner(u2), h_type1_unopt_, u2, u1);
      }
    }
  }

  /// One θ evaluation for the per-pair paths (initialization and the
  /// Figure-1a baseline).
  Dist eval(std::span<const T> a, std::span<const T> b) {
    ++distance_evals_;
    comm_->telemetry().add(c_distance_evals_);
    return distance_(a, b);
  }

  /// Owner(u2)'s half of a Type-2+ bundle: u1's feature is in
  /// scratch_feature_ and the bundle's u2s in scratch_ids_.
  void check_bundle(VertexId u1, Dist bound) {
    // §4.3.2: drop each u2 whose list already holds u1.
    bundle_ids_.clear();
    bundle_rows_.clear();
    for (const VertexId u2 : scratch_ids_) {
      const std::size_t row = points_.row_of(u2);
      if (config_.redundant_check_reduction && lists_[row].contains(u1)) {
        continue;
      }
      bundle_ids_.push_back(u2);
      bundle_rows_.push_back(row);
    }
    const std::size_t n = bundle_ids_.size();
    if (n == 0) return;
    bundle_dists_.resize(n);
    distance_evals_ += n;
    comm_->telemetry().add(c_distance_evals_, n);
    evaluate_rows(
        distance_, scratch_feature_, n,
        [&](std::size_t i) { return points_.row(bundle_rows_[i]); },
        bundle_dists_.data(), bundle_ptrs_);
    replies_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const Dist d = bundle_dists_[i];
      updates_ += static_cast<std::uint64_t>(
          lists_[bundle_rows_[i]].update(u1, d, /*is_new=*/true));
      // §4.3.3: reply only with the pairs u1 could still accept.
      if (d < bound) replies_.push_back({bundle_ids_[i], d});
    }
    if (replies_.empty()) return;
    const int dest = partition_.owner(u1);
    if (dest != rank()) {
      comm_->telemetry().add(c_logical_type3_, replies_.size());
    }
    comm_->async(dest, h_type3_, u1, std::span<const CheckReply>(replies_));
  }

  void register_handlers() {
    // Registration order is part of the wire protocol: every rank
    // constructs its engine the same way, so ids line up.
    h_init_req_ = comm_->register_handler(
        "init_req", [this](int, serial::InArchive& ar) {
          const auto u = ar.read<VertexId>();
          const auto v = ar.read<VertexId>();
          ar.read_into(scratch_feature_);
          const Dist d = eval(points_[u], scratch_feature_);
          comm_->async(partition_.owner(v), h_init_rep_, v, u, d);
        });
    h_init_rep_ = comm_->register_handler(
        "init_rep", [this](int, serial::InArchive& ar) {
          const std::size_t row = points_.row_of(ar.read<VertexId>());
          const auto u = ar.read<VertexId>();
          const auto d = ar.read<Dist>();
          updates_ += static_cast<std::uint64_t>(
              lists_[row].update(u, d, /*is_new=*/true));
        });
    h_rev_sample_ = comm_->register_handler(
        "rev_sample", [this](int, serial::InArchive& ar) {
          RowScratch& row = row_scratch_[points_.row_of(ar.read<VertexId>())];
          const auto source = ar.read<VertexId>();
          const auto is_new = ar.read<std::uint8_t>();
          (is_new != 0 ? row.rev_new : row.rev_old).push_back(source);
        });
    h_type1_ = comm_->register_handler(
        "type1", [this](int, serial::InArchive& ar) {
          const std::size_t row = points_.row_of(ar.read<VertexId>());
          ar.read_into(scratch_ids_);
          const NeighborList& l1 = lists_[row];
          auto& bucket = row_scratch_[row].forward;
          const bool was_empty = bucket.empty();
          for (const VertexId u2 : scratch_ids_) {
            // §4.3.2: if u2 is already a neighbor the check is redundant
            // — its distance is known on this side and the other side
            // either has it or rejected it before.
            if (config_.redundant_check_reduction && l1.contains(u2)) continue;
            bucket.push_back(forward_key(partition_.owner(u2), u2));
          }
          if (was_empty && !bucket.empty()) forward_rows_.push_back(row);
        });
    h_type2plus_ = comm_->register_handler(
        "type2plus", [this](int, serial::InArchive& ar) {
          const auto u1 = ar.read<VertexId>();
          const auto bound = ar.read<Dist>();
          ar.read_into(scratch_feature_);
          ar.read_into(scratch_ids_);
          check_bundle(u1, bound);
        });
    h_type3_ = comm_->register_handler(
        "type3", [this](int, serial::InArchive& ar) {
          const std::size_t row = points_.row_of(ar.read<VertexId>());
          ar.read_into(replies_);
          NeighborList& l1 = lists_[row];
          for (const CheckReply& r : replies_) {
            updates_ += static_cast<std::uint64_t>(
                l1.update(r.id, r.distance, /*is_new=*/true));
          }
        });
    h_type1_unopt_ = comm_->register_handler(
        "type1_unopt", [this](int, serial::InArchive& ar) {
          const auto u1 = ar.read<VertexId>();
          const auto u2 = ar.read<VertexId>();
          comm_->async(partition_.owner(u2), h_type2_unopt_, u2, u1,
                       points_[u1]);
        });
    h_type2_unopt_ = comm_->register_handler(
        "type2_unopt", [this](int, serial::InArchive& ar) {
          const std::size_t row = points_.row_of(ar.read<VertexId>());
          const auto u1 = ar.read<VertexId>();
          ar.read_into(scratch_feature_);
          const Dist d = eval(points_.row(row), scratch_feature_);
          updates_ +=
              static_cast<std::uint64_t>(lists_[row].update(u1, d, true));
        });
    h_init_sample_ = comm_->register_handler(
        "init_sample", [this](int, serial::InArchive& ar) {
          // Dynamic-insert seeding: pick a random local point as the
          // candidate neighbor for the new vertex v (weighted-rank
          // sampling made this rank proportionally likely).
          const auto v = ar.read<VertexId>();
          ar.read_into(scratch_feature_);
          if (points_.empty()) return;
          const std::size_t local =
              rng_.uniform_below(points_.size());
          const VertexId u = points_.id_at(local);
          if (u == v) return;  // rare self-collision: drop this sample
          const Dist d = eval(points_.row(local), scratch_feature_);
          comm_->async(partition_.owner(v), h_init_rep_, v, u, d);
        });
    h_rev_edge_ = comm_->register_handler(
        "rev_edge", [this](int, serial::InArchive& ar) {
          RowScratch& row = row_scratch_[points_.row_of(ar.read<VertexId>())];
          const auto source = ar.read<VertexId>();
          const auto d = ar.read<Dist>();
          row.extra_edges.push_back(Neighbor{source, d, false});
        });
  }

  comm::Communicator* comm_;
  DnndConfig config_;
  DistanceFn distance_;
  Partition partition_;
  util::Xoshiro256 rng_;
  ThreadPool pool_;

  FeatureStore<T> points_;
  std::uint64_t global_n_ = 0;
  // Row-indexed state: entry i of lists_ and row_scratch_ belongs to
  // points_.id_at(i). The graph rows allocate through the ledger: the
  // lists_ array and every row's heap are charged to mem.engine.graph.
  // row_scratch_ is deliberately untagged — transient per-iteration
  // state, documented in DESIGN.md's memory-accounting row.
  std::vector<NeighborList, telemetry::CountingAllocator<NeighborList>> lists_;

  /// One row's per-iteration state. Each vector is cleared, never freed,
  /// between uses, so it keeps its capacity across iterations.
  struct RowScratch {
    std::vector<VertexId> old_ids;  ///< sampled old neighbors (+ reversed)
    std::vector<VertexId> new_ids;  ///< sampled new neighbors (+ reversed)
    std::vector<VertexId> rev_old;  ///< reversed entries received (§4.2)
    std::vector<VertexId> rev_new;
    /// Type-1 survivors with this row as u1, as forward_key()s; empty at
    /// every iteration barrier.
    std::vector<std::uint64_t> forward;
    std::vector<Neighbor> extra_edges;  ///< §4.5 reverse edges received
  };
  std::vector<RowScratch> row_scratch_;

  // Resumable cursors (§4.4 batching).
  std::size_t init_cursor_ = 0;
  std::vector<VertexId> init_targets_;
  std::size_t init_emitted_ = 0;
  std::size_t check_vertex_ = 0;
  std::size_t check_i_ = 0;

  // Neighbor-check state: the rows whose forward bucket the Type-1 round
  // filled, in arrival order; the Type-2+ round empties it.
  std::vector<std::size_t> forward_rows_;
  std::vector<VertexId> check_row_;
  /// One (u2, d) pair of a Type-3 reply; 8 bytes on the wire, no padding.
  struct CheckReply {
    VertexId id;
    Dist distance;
  };
  static_assert(sizeof(CheckReply) == sizeof(VertexId) + sizeof(Dist));
  /// The Type-3 pairs check_bundle builds, or the type3 handler decodes.
  std::vector<CheckReply> replies_;
  // check_bundle's reused buffers.
  std::vector<VertexId> bundle_ids_;
  std::vector<std::size_t> bundle_rows_;
  std::vector<const T*> bundle_ptrs_;
  std::vector<Dist> bundle_dists_;

  std::vector<std::pair<VertexId, std::vector<Neighbor>>> optimized_rows_;

  std::uint64_t updates_ = 0;
  std::uint64_t distance_evals_ = 0;
  /// Deserialization scratch: features and id lists arrive at arbitrary
  /// byte offsets inside packed datagrams, so multi-byte element types
  /// must be copied out before use (alignment); the buffers are reused
  /// across messages.
  std::vector<T> scratch_feature_;
  std::vector<VertexId> scratch_ids_;

  // Dynamic-update state.
  std::vector<VertexId> pending_init_;
  std::size_t pending_emitted_ = 0;
  std::vector<std::uint64_t> rank_weights_;
  std::uint64_t total_weight_ = 0;

  comm::HandlerId h_init_req_ = 0, h_init_rep_ = 0, h_rev_sample_ = 0;
  comm::HandlerId h_type1_ = 0, h_type2plus_ = 0, h_type3_ = 0;
  comm::HandlerId h_type1_unopt_ = 0, h_type2_unopt_ = 0, h_rev_edge_ = 0;
  comm::HandlerId h_init_sample_ = 0;

  telemetry::MetricId c_distance_evals_ = 0;
  telemetry::MetricId c_updates_ = 0;
  telemetry::MetricId c_logical_type1_ = 0;
  telemetry::MetricId c_logical_type2plus_ = 0;
  telemetry::MetricId c_logical_type3_ = 0;
  telemetry::MetricId c_tasks_ = 0;
  telemetry::MemTag t_features_;
  telemetry::MemTag t_graph_;
};

}  // namespace dnnd::core
