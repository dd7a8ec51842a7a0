// DnndRunner: front-end that sequences DNND's distributed phases.
//
// Owns one DnndEngine per simulated rank and drives the build loop:
//
//   distribute → init (batched) → [ sample/reverse → merge →
//   neighbor checks (batched; a Type-1 and a Type-2+ round per chunk) →
//   convergence test ]* → optimize → gather
//
// Barriers between phases are Environment::execute_phase quiescence
// points; the §4.4 batching shows up as the inner chunk loops that
// re-enter a phase until every rank reports its cursor exhausted.
//
// Besides wall time, the runner accumulates a *simulated parallel time*:
// for every barrier-delimited superstep it takes the maximum per-rank work
// delta (distance evaluations weighted by feature length + bytes sent
// weighted by a fixed per-byte cost). The sequential driver runs one rank at
// a time, so its wall time cannot shrink as ranks are added; this is the
// quantity that scales the way the paper's Figure 3 does — see DESIGN.md
// §2 and EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/environment.hpp"
#include "core/dnnd_engine.hpp"
#include "core/partition.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace dnnd::core {

/// Cost model for simulated parallel time (arbitrary units; only ratios
/// across rank counts matter for the scaling study): DnndRunner::work_of
/// charges a rank one unit per feature element of a θ() evaluation and a
/// quarter unit per serialized byte it sends.
inline constexpr double kWorkPerFeatureElement = 1.0;
inline constexpr double kWorkPerSentByte = 0.25;

/// Cost of one named phase accumulated across a run (§7: profiling).
struct PhaseCost {
  double simulated_parallel_units = 0.0;
  double wall_seconds = 0.0;
  std::size_t barriers = 0;  ///< quiescence points attributed to the phase
};

struct DnndBuildStats {
  std::size_t iterations = 0;
  std::vector<std::uint64_t> updates_per_iteration;
  std::uint64_t total_updates = 0;
  std::uint64_t distance_evals = 0;
  double wall_seconds = 0.0;
  double simulated_parallel_units = 0.0;
};

template <typename T, typename DistanceFn>
class DnndRunner {
 public:
  /// `partition` defaults to the paper's hash scheme; pass
  /// Partition::even_ranges + an RP-reordered dataset for locality-aware
  /// placement (core/partition.hpp).
  DnndRunner(comm::Environment& env, DnndConfig config, DistanceFn distance,
             std::optional<Partition> partition = std::nullopt)
      : env_(&env),
        config_(config),
        partition_(partition.has_value() ? std::move(*partition)
                                         : Partition::hash(env.num_ranks())) {
    if (partition_.num_ranks() != env.num_ranks()) {
      throw std::invalid_argument("DnndRunner: partition rank count differs");
    }
    engines_.reserve(static_cast<std::size_t>(env.num_ranks()));
    collectives_.reserve(static_cast<std::size_t>(env.num_ranks()));
    // Registration order is part of the wire protocol: collectives first,
    // then the engine, identically on every rank.
    for (int r = 0; r < env.num_ranks(); ++r) {
      collectives_.push_back(std::make_unique<comm::Collectives>(env.comm(r)));
      engines_.push_back(std::make_unique<DnndEngine<T, DistanceFn>>(
          env.comm(r), config_, distance, partition_));
    }
    // Global (not per-rank) quantities are recorded on rank 0 only, so
    // the cross-rank merge does not multiply them by the rank count.
    c_iterations_ = env.telemetry(0).counter("engine.iterations");
    h_updates_per_iter_ =
        env.telemetry(0).histogram("engine.updates_per_iteration");
    // Global point count as a gauge: the denominator for the memory
    // report's bytes-per-point and capacity projection.
    g_global_points_ = env.telemetry(0).gauge("engine.global_points");
  }

  /// Hash-partitions a dataset with dense ids 0..N-1 onto the ranks.
  /// (On a real cluster this is parallel file ingestion + all-to-all; the
  /// partitioning function is the same.)
  void distribute(const FeatureStore<T>& dataset) {
    const std::size_t n = dataset.size();
    for (std::size_t i = 0; i < n; ++i) {
      const VertexId id = dataset.id_at(i);
      const int owner = partition_.owner(id);
      engines_[static_cast<std::size_t>(owner)]->add_local_point(id,
                                                                 dataset.row(i));
    }
    for (auto& engine : engines_) engine->set_global_count(n);
    global_n_ = n;
    env_->telemetry(0).set(g_global_points_,
                           static_cast<std::int64_t>(global_n_));
    max_id_bound_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
      max_id_bound_ =
          std::max<std::size_t>(max_id_bound_, dataset.id_at(i) + 1);
    }
    // build()'s random initialization samples ids uniformly in [0, N), so
    // the initial dataset must have dense ids. (Dynamic add/remove after
    // the build may make the id space sparse; that path samples by rank
    // weight instead.)
    if (max_id_bound_ != n) {
      throw std::invalid_argument(
          "DnndRunner::distribute: initial dataset ids must be dense 0..N-1");
    }
  }

  /// Runs NN-Descent to convergence (Algorithm 1 on top of §4's phases).
  DnndBuildStats build() {
    if (global_n_ == 0) throw std::logic_error("DnndRunner: distribute() first");
    DnndBuildStats stats;
    util::Timer timer;
    const std::uint64_t quota = per_rank_quota();

    timed_phase(stats, "init", [&](int r) { engines_[at(r)]->start_init(); });
    run_batched(stats, "init", [&](int r) {
      return engines_[at(r)]->emit_init_chunk(quota);
    });
    // Initialization inserts count toward warm-up, not convergence.
    for (auto& engine : engines_) engine->take_update_count();

    run_descent_loop(stats, config_.max_iterations);

    stats.wall_seconds = timer.elapsed_s();
    stats.distance_evals = total_distance_evals();
    last_build_stats_ = stats;
    return stats;
  }

  // ---- dynamic updates (paper §7 future work) -----------------------------

  /// Inserts new points after a build. Their ids may be arbitrary (not
  /// already present); neighbor lists are seeded from k random existing
  /// points and improved by the next refine() call.
  void add_points(const FeatureStore<T>& new_points) {
    DnndBuildStats scratch;
    for (std::size_t i = 0; i < new_points.size(); ++i) {
      const VertexId id = new_points.id_at(i);
      const int owner = partition_.owner(id);
      engines_[at(owner)]->add_pending_point(id, new_points.row(i));
      max_id_bound_ = std::max<std::size_t>(max_id_bound_, id + 1);
    }
    refresh_counts();
    const std::uint64_t quota = per_rank_quota();
    run_batched(scratch, "mutate", [&](int r) {
      return engines_[at(r)]->emit_pending_init_chunk(quota);
    });
    for (auto& engine : engines_) engine->take_update_count();
    optimized_ = false;  // rows changed; a previous optimize() is stale
  }

  /// Deletes points. Every rank drops its local points and then repairs
  /// dangling references; affected rows are re-flagged for exploration so
  /// the next refine() backfills them.
  void remove_points(std::span<const VertexId> ids) {
    std::vector<VertexId> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    DnndBuildStats scratch;
    timed_phase(scratch, "mutate", [&](int r) {
      std::vector<VertexId> mine;
      for (const VertexId id : sorted) {
        if (partition_.owner(id) == r) mine.push_back(id);
      }
      engines_[at(r)]->remove_local_points(mine);
    });
    timed_phase(scratch, "mutate", [&](int r) {
      engines_[at(r)]->repair_after_removal(sorted);
    });
    refresh_counts();
    optimized_ = false;  // rows changed; a previous optimize() is stale
  }

  /// Runs NN-Descent iterations over the current (mutated) shards until
  /// convergence — the paper's "short graph refinement phase". Returns
  /// iteration statistics like build().
  DnndBuildStats refine(std::size_t max_iterations = 0) {
    DnndBuildStats stats;
    util::Timer timer;
    run_descent_loop(
        stats, max_iterations > 0 ? max_iterations : config_.max_iterations);
    stats.wall_seconds = timer.elapsed_s();
    stats.distance_evals = total_distance_evals();
    optimized_ = false;  // rows changed; a previous optimize() is stale
    last_build_stats_ = stats;
    return stats;
  }

  /// §4.5 graph optimization (reverse-edge merge + k·m prune).
  void optimize() {
    DnndBuildStats scratch;
    timed_phase(scratch, "optimize",
                [&](int r) { engines_[at(r)]->emit_reverse_edges(); });
    timed_phase(scratch, "optimize",
                [&](int r) { engines_[at(r)]->finalize_optimization(); });
    last_build_stats_.simulated_parallel_units +=
        scratch.simulated_parallel_units;
    optimized_ = true;
  }

  /// Merges all shards into a dense global graph (the artifact the
  /// shared-memory query program consumes). Rows of deleted vertices are
  /// empty; the id space is [0, max id ever assigned).
  [[nodiscard]] KnnGraph gather() const {
    KnnGraph graph(max_id_bound_);
    for (const auto& engine : engines_) {
      if (optimized_) {
        for (const auto& [v, row] : engine->optimized_rows()) {
          graph.set_neighbors(v, row);
        }
      } else {
        for (auto& [v, row] : engine->shard_rows()) {
          graph.set_neighbors(v, std::move(row));
        }
      }
    }
    return graph;
  }

  [[nodiscard]] DnndEngine<T, DistanceFn>& engine(int rank) {
    return *engines_[at(rank)];
  }
  [[nodiscard]] std::size_t global_count() const noexcept { return global_n_; }
  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] std::size_t id_bound() const noexcept { return max_id_bound_; }

  /// Restores bookkeeping after loading shard state from a checkpoint
  /// (dnnd_checkpoint.hpp); recomputes live counts and rank weights.
  void adopt_loaded_shards(std::size_t id_bound) {
    max_id_bound_ = id_bound;
    refresh_counts();
  }

  // ---- crash-stop fault tolerance (checkpoint / resume) -------------------

  /// Arms per-iteration checkpointing: `hook(completed_iterations,
  /// converged)` runs at the iteration barrier every `every` completed
  /// iterations, plus once at the final iteration regardless of alignment.
  /// `every == 0` disarms (zero overhead: one integer compare per
  /// iteration). The hook must only *read* runner/engine state — it runs
  /// at a quiescent cut and must not disturb it.
  void set_checkpoint_hook(
      std::size_t every,
      std::function<void(std::size_t, bool)> hook = {}) {
    checkpoint_every_ = every;
    checkpoint_hook_ = std::move(hook);
  }

  /// Restores iteration bookkeeping saved by a checkpoint. Call after
  /// load_checkpoint and before resume_build.
  void restore_progress(std::size_t completed_iterations,
                        std::vector<std::uint64_t> updates_history,
                        bool converged) {
    completed_iterations_ = completed_iterations;
    updates_history_ = std::move(updates_history);
    converged_ = converged;
  }

  /// Continues an interrupted build from restored checkpoint state: runs
  /// the remaining NN-Descent iterations (none if the checkpoint was taken
  /// at convergence). With engine rows + RNG streams restored from an
  /// iteration-boundary cut, the resumed build is bit-identical to the
  /// uninterrupted one.
  DnndBuildStats resume_build() {
    if (global_n_ == 0) {
      throw std::logic_error("DnndRunner: load a checkpoint first");
    }
    DnndBuildStats stats;
    util::Timer timer;
    if (!converged_ && completed_iterations_ < config_.max_iterations) {
      run_descent_loop(stats, config_.max_iterations - completed_iterations_);
    }
    stats.wall_seconds = timer.elapsed_s();
    stats.distance_evals = total_distance_evals();
    last_build_stats_ = stats;
    return stats;
  }

  [[nodiscard]] std::size_t completed_iterations() const noexcept {
    return completed_iterations_;
  }
  [[nodiscard]] bool converged() const noexcept { return converged_; }
  /// Per-iteration global update counts since construction (across
  /// build + refine calls); checkpointed so resumed stats stay exact.
  [[nodiscard]] const std::vector<std::uint64_t>& updates_history()
      const noexcept {
    return updates_history_;
  }
  [[nodiscard]] comm::Environment& environment() noexcept { return *env_; }
  [[nodiscard]] const DnndConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DnndBuildStats& last_build_stats() const noexcept {
    return last_build_stats_;
  }

  /// Accumulated per-phase costs over this runner's lifetime (§7
  /// profiling view: where the supersteps spend their work).
  [[nodiscard]] const std::map<std::string, PhaseCost>& phase_profile()
      const noexcept {
    return phase_profile_;
  }

 private:
  static std::size_t at(int r) { return static_cast<std::size_t>(r); }

  /// Core Algorithm-1 iteration loop, shared by build() and refine().
  void run_descent_loop(DnndBuildStats& stats, std::size_t max_iterations) {
    const std::uint64_t quota = per_rank_quota();
    const auto threshold = static_cast<std::uint64_t>(
        config_.delta * static_cast<double>(config_.k) *
        static_cast<double>(global_n_));
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      ++stats.iterations;
      timed_phase(stats, "sample", [&](int r) {
        engines_[at(r)]->sample_and_emit_reverse();
      });
      timed_phase(stats, "merge", [&](int r) {
        engines_[at(r)]->merge_reverse_and_prepare_checks();
      });
      // §4.3 neighbor checks: two supersteps per §4.4 chunk, both under
      // "checks". The Type-1 round only filters and buffers, so no list
      // changes while it runs; the Type-2+ round sends the bundles and
      // their Type-3 replies.
      bool checks_done = false;
      while (!checks_done) {
        checks_done = chunk_round(stats, "checks", [&](int r) {
          return engines_[at(r)]->emit_check_chunk(quota);
        });
        timed_phase(stats, "checks", [&](int r) {
          engines_[at(r)]->emit_type2plus_bundles();
        });
      }

      // Allreduce of the convergence counter c (Alg. 1 line 23) through
      // the transport, as an MPI implementation would.
      timed_phase(stats, "allreduce", [&](int r) {
        collectives_[at(r)]->contribute_sum(
            engines_[at(r)]->take_update_count());
      });
      const std::uint64_t c = collectives_.front()->sum();
      stats.updates_per_iteration.push_back(c);
      stats.total_updates += c;
      ++completed_iterations_;
      updates_history_.push_back(c);
      env_->telemetry(0).add(c_iterations_);
      env_->telemetry(0).record(h_updates_per_iter_, c);
      // One time-series snapshot per NN-Descent iteration: the per-rank
      // counter deltas between snapshots are what the stats tool plots.
      env_->sample_timeseries("iteration");
      const bool converged_now = c < threshold || c == 0;
      if (converged_now) converged_ = true;
      const bool stop = converged_now || iter + 1 == max_iterations;
      // The per-iteration barrier just completed is a consistent cut: the
      // transport is quiescent, update counters were consumed by the
      // allreduce, and all per-iteration cursors are reset. Checkpointing
      // here (and on the final iteration, so a resume of a finished build
      // is a no-op) is what makes exact resume possible.
      if (checkpoint_every_ != 0 && checkpoint_hook_ &&
          (completed_iterations_ % checkpoint_every_ == 0 || stop)) {
        checkpoint_hook_(completed_iterations_, converged_);
      }
      if (converged_now) break;
    }
  }

  [[nodiscard]] std::uint64_t total_distance_evals() const {
    std::uint64_t total = 0;
    for (const auto& engine : engines_) total += engine->distance_evals();
    return total;
  }

  /// Re-derives global_n_ (live points) and per-rank weights after a
  /// mutation: one allgather of local counts, then every rank derives the
  /// total and its sampling weights from the gathered vector.
  void refresh_counts() {
    env_->execute_phase([&](int r) {
      collectives_[at(r)]->contribute_gather(
          engines_[at(r)]->local_point_count());
    });
    env_->execute_phase([&](int r) {
      const auto& counts = collectives_[at(r)]->gathered();
      std::uint64_t live = 0;
      for (const auto count : counts) live += count;
      engines_[at(r)]->set_global_count(live);
      engines_[at(r)]->set_rank_weights(counts);
    });
    global_n_ = 0;
    for (const auto count : collectives_.front()->gathered()) {
      global_n_ += count;
    }
    env_->telemetry(0).set(g_global_points_,
                           static_cast<std::int64_t>(global_n_));
  }

  [[nodiscard]] std::uint64_t per_rank_quota() const {
    const auto ranks = static_cast<std::uint64_t>(env_->num_ranks());
    return std::max<std::uint64_t>(1, config_.batch_size / ranks);
  }

  /// Work consumed so far by rank r under the cost model.
  [[nodiscard]] double work_of(int r) const {
    const auto& engine = *engines_[at(r)];
    const auto& stats = env_->comm(r).stats();
    double bytes = 0;
    for (const auto& h : stats.handlers()) {
      bytes += static_cast<double>(h.remote_bytes);
    }
    const double dim =
        static_cast<double>(std::max<std::size_t>(1, engine.local_points().dim()));
    return static_cast<double>(engine.distance_evals()) * dim *
               kWorkPerFeatureElement +
           bytes * kWorkPerSentByte;
  }

  /// Runs one superstep and charges max-over-ranks work to the simulated
  /// parallel clock. The label attributes the cost to a named phase in
  /// phase_profile().
  template <typename Fn>
  void timed_phase(DnndBuildStats& stats, const char* label, Fn&& fn) {
    std::vector<double> before(static_cast<std::size_t>(env_->num_ranks()));
    for (int r = 0; r < env_->num_ranks(); ++r) before[at(r)] = work_of(r);
    util::Timer timer;
    try {
      env_->execute_phase([&](int r) {
        // Per-rank, phase-scoped trace span: every barrier-delimited
        // superstep shows up in trace.json under its phase label.
        const auto span = env_->telemetry(r).span(label, "phase");
        fn(r);
      });
    } catch (const comm::TransportError& e) {
      // Retry exhaustion in the fault-injected transport: surface it with
      // the phase it interrupted so callers can tell a failed barrier from
      // an algorithmic error. The build is not resumable past this point
      // within this environment (a recovery harness reopens a checkpoint
      // in a fresh one). RankFailureError deliberately passes through
      // untouched — its rank/epoch context is what the harness needs.
      throw comm::TransportError(
          std::string("DNND phase '") + label + "' aborted: " + e.what(),
          e.source(), e.dest(), e.seq(), e.attempts(), e.epoch());
    }
    const double wall = timer.elapsed_s();
    double max_delta = 0;
    for (int r = 0; r < env_->num_ranks(); ++r) {
      max_delta = std::max(max_delta, work_of(r) - before[at(r)]);
    }
    stats.simulated_parallel_units += max_delta;
    auto& cost = phase_profile_[label];
    cost.simulated_parallel_units += max_delta;
    cost.wall_seconds += wall;
    ++cost.barriers;
  }

  /// One §4.4 round: runs `chunk` (which returns a per-rank done flag) as
  /// one superstep; returns true when every rank is done.
  template <typename Fn>
  bool chunk_round(DnndBuildStats& stats, const char* label, Fn&& chunk) {
    std::vector<std::uint8_t> done(static_cast<std::size_t>(env_->num_ranks()));
    timed_phase(stats, label, [&](int r) {
      done[at(r)] = chunk(r) ? std::uint8_t{1} : std::uint8_t{0};
    });
    bool all = true;
    for (const auto flag : done) all = all && (flag != 0);
    return all;
  }

  /// §4.4: re-enters `chunk` with a quiescence barrier after every round,
  /// until all ranks are done.
  template <typename Fn>
  void run_batched(DnndBuildStats& stats, const char* label, Fn&& chunk) {
    while (!chunk_round(stats, label, chunk)) {
    }
  }

  comm::Environment* env_;
  DnndConfig config_;
  Partition partition_ = Partition::hash(1);
  std::vector<std::unique_ptr<DnndEngine<T, DistanceFn>>> engines_;
  std::vector<std::unique_ptr<comm::Collectives>> collectives_;
  std::size_t global_n_ = 0;
  std::size_t max_id_bound_ = 0;
  bool optimized_ = false;
  std::size_t completed_iterations_ = 0;
  bool converged_ = false;
  std::vector<std::uint64_t> updates_history_;
  std::size_t checkpoint_every_ = 0;
  std::function<void(std::size_t, bool)> checkpoint_hook_;
  DnndBuildStats last_build_stats_;
  std::map<std::string, PhaseCost> phase_profile_;
  telemetry::MetricId c_iterations_ = 0;
  telemetry::MetricId h_updates_per_iter_ = 0;
  telemetry::MetricId g_global_points_ = 0;
};

}  // namespace dnnd::core
