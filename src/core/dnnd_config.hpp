// Configuration for distributed NN-Descent.
#pragma once

#include <cstdint>

namespace dnnd::core {

struct DnndConfig {
  // -- Algorithm 1 parameters (paper §5.1.3 defaults) --------------------
  std::size_t k = 10;      ///< neighbors per vertex in the constructed graph
  double rho = 0.8;        ///< sample rate ρ
  double delta = 0.001;    ///< termination threshold δ (stop when c < δ·K·N)
  std::size_t max_iterations = 64;  ///< safety bound

  // -- §4.4 batched communication ----------------------------------------
  /// Global budget of candidate pairs checked between application-level
  /// barriers (the paper's async-request budget: one request per pair).
  /// The paper uses 2^25–2^29 at billion scale; defaults here suit the
  /// simulator's scale. Each rank gets batch_size / num_ranks pairs per
  /// chunk and ends a chunk at a check-row boundary; init chunks count
  /// init requests.
  std::uint64_t batch_size = std::uint64_t{1} << 20;

  // -- §4.3 communication-saving techniques (independently togglable for
  //    the ablation bench; the paper evaluates all-on vs all-off) ---------
  /// Master switch: false reproduces the unoptimized Figure-1a pattern
  /// (Type 1 to both endpoints, full feature exchange both ways).
  bool optimized_checks = true;
  /// §4.3.2 redundant neighbor check reduction (skip when already known).
  bool redundant_check_reduction = true;
  /// §4.3.3 pruning of long-distance Type-3 replies via the piggybacked
  /// farthest-neighbor bound on Type-2+ messages.
  bool distance_pruning = true;

  // -- §4.5 graph optimization --------------------------------------------
  /// Neighborhood-size limit factor m: degrees are pruned to k·m after the
  /// reverse-edge merge (paper default 1.5).
  double prune_factor_m = 1.5;

  // -- intra-rank parallelism --------------------------------------------
  /// Worker threads per simulated rank for the hot per-rank loops
  /// (core/thread_pool.hpp). 0 = auto: DNND_THREADS_PER_RANK from the
  /// environment, else 1 (today's serial path, no threads spawned). The
  /// deterministic-reduction design makes the built graph, the
  /// convergence counter, and every metrics counter bit-identical for
  /// any value, so this is purely a throughput knob — it is deliberately
  /// NOT checkpointed, and a run may resume under a different count.
  std::size_t threads_per_rank = 0;

  std::uint64_t seed = 7;
};

}  // namespace dnnd::core
