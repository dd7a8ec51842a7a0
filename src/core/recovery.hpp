// Crash-stop recovery driver: supervises a checkpointed DNND build.
//
// The failure model (DESIGN.md §2): a rank may die permanently at an
// arbitrary point (mpi::CrashFault, or a real process loss). The layers
// below turn that into a structured comm::RankFailureError — the heartbeat
// detector when a surviving rank times out a silent peer, or the
// Environment's post-barrier liveness check when the crash stranded no
// messages. This harness closes the loop the way an HPC job script would
// (resubmit from the last checkpoint):
//
//   attempt 0:  fresh build, checkpointing every N iterations into a
//               CheckpointStore generation (CRC + atomic manifest) whose
//               arena is sized from the runner's state
//   on RankFailureError:  tear the environment down, make a fresh one
//               (all ranks healthy — the simulated equivalent of the
//               scheduler giving the job a replacement node), reopen the
//               newest valid generation, and resume from its iteration
//   no checkpoint yet:  deterministic full restart from scratch
//
// Because checkpoints are iteration-boundary consistent cuts that include
// each engine's RNG stream, the recovered build is bit-identical to an
// uninterrupted one — the recovery chaos test asserts exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/environment.hpp"
#include "core/checkpoint_store.hpp"
#include "core/dnnd_checkpoint.hpp"
#include "core/dnnd_runner.hpp"
#include "util/timer.hpp"

namespace dnnd::core {

struct RecoveryOptions {
  /// Checkpoint every N completed iterations (plus the final one).
  /// 0 disables checkpointing entirely — a failure then degrades to a
  /// full restart, and the build path carries zero checkpoint overhead.
  std::size_t checkpoint_every = 0;
  /// Give up (rethrow the failure) after this many failed attempts.
  std::size_t max_attempts = 8;
  /// Resume from an existing store on the *first* attempt too (the CLI's
  /// --resume: pick up a build interrupted in a previous process).
  bool resume = false;
  /// Object-name prefix inside each generation datastore.
  std::string prefix = "ckpt";
};

struct RecoveryReport {
  std::size_t attempts = 1;           ///< total build attempts (>= 1)
  std::size_t failures_detected = 0;  ///< RankFailureErrors absorbed
  std::vector<int> failed_ranks;      ///< one entry per absorbed failure
  /// Iteration each resumed attempt continued from (empty: never resumed).
  std::vector<std::uint64_t> resumed_from;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;   ///< committed generation bytes
  double checkpoint_seconds = 0.0;      ///< wall time spent saving
  DnndBuildStats stats;                 ///< the successful attempt's stats
};

/// The surviving environment/runner pair of the successful attempt, plus
/// what it took to get there. `env` must outlive `runner` (declaration
/// order handles destruction; keep it when moving members out).
template <typename T, typename DistanceFn>
struct RecoveryResult {
  RecoveryReport report;
  std::unique_ptr<comm::Environment> env;
  std::unique_ptr<DnndRunner<T, DistanceFn>> runner;
};

/// Runs a DNND build under crash-stop supervision (see file comment).
///
/// `make_env(attempt)` builds the environment for each attempt — attempt 0
/// may carry a fault plan with scheduled crashes; recovery attempts should
/// return a healthy one. `make_runner(env)` constructs the runner (same
/// config every attempt). `distribute(runner)` loads the dataset; it runs
/// only for from-scratch attempts (a resumed runner gets its shards from
/// the checkpoint).
template <typename T, typename DistanceFn>
RecoveryResult<T, DistanceFn> run_build_with_recovery(
    CheckpointStore& store,
    const std::function<std::unique_ptr<comm::Environment>(std::size_t)>&
        make_env,
    const std::function<std::unique_ptr<DnndRunner<T, DistanceFn>>(
        comm::Environment&)>& make_runner,
    const std::function<void(DnndRunner<T, DistanceFn>&)>& distribute,
    RecoveryOptions options = {}) {
  RecoveryReport report;
  for (std::size_t attempt = 0;; ++attempt) {
    auto env = make_env(attempt);
    auto runner = make_runner(*env);
    // Charge the store's CRC staging buffer against this attempt's ledger.
    // The caller's store outlives every attempt's environment (and, on
    // success, possibly the returned one), so the tag must be dropped on
    // every exit from this scope while the ledger is still alive — the
    // guard discharges current bytes; the ledger keeps the recorded peak.
    // Declared after env/runner: it runs before their destructors.
    store.set_mem_tag(env->telemetry(0).mem_tag("mem.ckpt.staging"));
    struct StagingTagGuard {
      CheckpointStore& store;
      ~StagingTagGuard() { store.set_mem_tag(telemetry::MemTag{}); }
    } staging_tag_guard{store};
    if (options.checkpoint_every != 0) {
      DnndRunner<T, DistanceFn>* rp = runner.get();
      runner->set_checkpoint_hook(
          options.checkpoint_every, [&store, &report, &options, rp](
                                        std::size_t, bool) {
            util::Timer timer;
            const GenerationInfo info = write_checkpoint_generation(
                store, *rp, generation_capacity_bytes(*rp), options.prefix);
            ++report.checkpoints_written;
            report.checkpoint_bytes += info.bytes;
            report.checkpoint_seconds += timer.elapsed_s();
          });
    }
    try {
      bool resumed = false;
      if (attempt > 0 || options.resume) {
        if (load_latest_generation(store, *runner, options.prefix)
                .has_value()) {
          resumed = true;
          report.resumed_from.push_back(runner->completed_iterations());
        }
      }
      if (resumed) {
        report.stats = runner->resume_build();
      } else {
        distribute(*runner);
        report.stats = runner->build();
      }
      report.attempts = attempt + 1;
      // Fold harness-lifetime totals into the surviving environment's
      // registry so metrics.json carries them (earlier attempts' sinks
      // died with their environments).
      auto& tel = env->telemetry(0);
      tel.add(tel.counter("ckpt.checkpoints_written"),
              report.checkpoints_written);
      tel.add(tel.counter("ckpt.bytes_written"), report.checkpoint_bytes);
      tel.add(tel.counter("ckpt.write_us", telemetry::MetricUnit::kTimeUs),
              static_cast<std::uint64_t>(report.checkpoint_seconds * 1e6));
      tel.add(tel.counter("recovery.events"), report.failures_detected);
      tel.add(tel.counter("recovery.resumes"), report.resumed_from.size());
      return RecoveryResult<T, DistanceFn>{std::move(report), std::move(env),
                                           std::move(runner)};
    } catch (const comm::RankFailureError& failure) {
      ++report.failures_detected;
      report.failed_ranks.push_back(failure.failed_rank());
      if (attempt + 1 >= options.max_attempts) throw;
      // Loop: fresh environment, resume from the newest valid generation
      // (or restart from scratch if the crash predated every checkpoint).
    }
  }
}

}  // namespace dnnd::core
