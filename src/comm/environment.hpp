// Environment: owns the simulated world, one Communicator per rank, and a
// phase driver.
//
// SPMD programs built on this runtime are structured as *phases*: a phase
// runs a function once per rank (issuing async calls), then the driver
// processes messages until global quiescence — the equivalent of
// ygm::comm::barrier(). Two drivers are provided:
//
//   * kSequential — ranks execute in order on the calling thread and
//     inbound messages are delivered round-robin. Fully deterministic for
//     a fixed seed; the default for tests and benches.
//   * kThreaded — one std::thread per rank with a counting-based
//     termination-detecting barrier; validates that engine code has no
//     hidden shared-memory dependencies between ranks.
//
// Reductions are messages, not driver calls: a phase body contributes its
// value through comm::Collectives (comm/collectives.hpp), and after the
// phase's barrier every rank reads the same result — so engine code stays
// free of blocking calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <iosfwd>
#include <string>

#include "comm/communicator.hpp"
#include "mpi/fault_injector.hpp"
#include "mpi/world.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"

namespace dnnd::comm {

enum class DriverKind { kSequential, kThreaded };

/// Default failure-detector timeout when Config::failure_timeout_ticks is
/// auto (0) and the plan schedules crashes. Far above any honest silence
/// the protocol produces (max retransmit backoff is 128 ticks) and far
/// below retry exhaustion (~3700 ticks), so detection is both
/// false-positive-free and much faster than the TransportError backstop.
inline constexpr std::uint64_t kAutoFailureTimeoutTicks = 256;

/// Wall-clock floor on a peer's silence before the threaded driver's
/// detector accuses it (FailureDetectorConfig::min_silence_us): far longer
/// than a loaded host keeps a live rank's thread off the CPU.
inline constexpr std::uint64_t kThreadedMinSilenceUs = 200'000;

/// Sentinel for Config::failure_timeout_ticks: never detect.
inline constexpr std::uint64_t kFailureDetectionOff = ~std::uint64_t{0};

struct Config {
  int num_ranks = 1;
  DriverKind driver = DriverKind::kSequential;
  /// Per-destination send-buffer threshold in bytes (YGM-style internal
  /// buffering). 0 = unbuffered.
  std::size_t send_buffer_bytes = 64 * 1024;
  /// Fault schedule for the transport. The default (empty) plan installs
  /// nothing: the transport stays perfectly reliable and the communicators
  /// skip the retry/dedup protocol entirely.
  mpi::FaultPlan fault_plan{};
  /// Retry/dedup protocol knobs; only consulted when fault_plan is active.
  RetryConfig retry{};
  /// Crash-detection timeout in ticks. 0 = auto: detection turns on (at
  /// kAutoFailureTimeoutTicks) iff the fault plan schedules crash-stop
  /// faults. Auto keeps crash-free plans bit-identical to PR 1 — heartbeat
  /// traffic consumes injector randomness, so enabling detection changes a
  /// plan's fault schedule. Set to kFailureDetectionOff to force detection
  /// off even with crashes scheduled (retransmit exhaustion then surfaces
  /// the failure as TransportError instead).
  std::uint64_t failure_timeout_ticks = 0;
  /// Heartbeat period in ticks while detection is on.
  std::uint32_t heartbeat_period_ticks = 8;
  /// Causal-tracing sample period: every Nth root message starts a traced
  /// chain (flow events + handler child spans in trace.json). 0 disables
  /// tracing — zero trace bytes on the wire.
  std::uint64_t trace_sample_period = 0;
};

class Environment {
 public:
  explicit Environment(Config config);
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  [[nodiscard]] int num_ranks() const noexcept { return config_.num_ranks; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] mpi::World& world() noexcept { return *world_; }
  [[nodiscard]] Communicator& comm(int rank) {
    return *comms_.at(static_cast<std::size_t>(rank));
  }

  /// Runs `fn(rank)` on every rank, then processes messages to global
  /// quiescence (the barrier).
  void execute_phase(const std::function<void(int)>& fn);

  /// Processes outstanding messages to quiescence without a phase body.
  void quiesce();

  /// Send-side message statistics merged over all ranks.
  [[nodiscard]] MessageStats aggregate_stats() const;

  /// Retry/dedup protocol counters merged over all ranks (all zero when
  /// the fault plan is empty).
  [[nodiscard]] TransportCounters aggregate_transport_counters() const;

  /// Injector event counts; zeros when no fault plan is installed.
  [[nodiscard]] mpi::FaultStats fault_stats() const;

  /// Per-rank telemetry sink (shorthand for comm(rank).telemetry()).
  [[nodiscard]] telemetry::Telemetry& telemetry(int rank) {
    return comm(rank).telemetry();
  }

  /// Metrics registries of all ranks merged by name (counters sum,
  /// gauges max, histograms bucket-wise sum).
  [[nodiscard]] telemetry::MetricsRegistry aggregate_metrics() const;

  /// Time-series sampler attached to every rank's registry. Callers (the
  /// NN-Descent runner) take snapshots via sample_timeseries().
  [[nodiscard]] telemetry::Sampler& sampler() noexcept { return sampler_; }

  /// Takes one labelled snapshot of every rank's counters/gauges now.
  void sample_timeseries(const std::string& label) {
    sync_memory_gauges();
    sampler_.sample(label);
  }

  /// Publishes every rank's memory ledger into its registry as mem.*
  /// byte gauges (value = current, peak = ledger high-water) and refreshes
  /// rank 0's process-wide RSS gauges from /proc/self/status. Called at
  /// phase boundaries, before every time-series snapshot, and before the
  /// metrics exporters, so exported gauges are never stale. Const because
  /// exporters are const (the registries live behind unique_ptrs).
  void sync_memory_gauges() const;

  /// Writes the captured snapshots as a dnnd.timeseries.v1 document,
  /// timestamps relative to this run's epoch.
  void write_timeseries_json(std::ostream& os) const;

  /// Writes the merged machine-readable metrics document:
  ///   {"schema":"dnnd.metrics.v1","ranks":N,
  ///    "handlers":[per-label send counters],"transport":{...},
  ///    "metrics":{merged registry},"per_rank":[...]}
  void write_metrics_json(std::ostream& os) const;

  /// Writes all ranks' trace buffers as one Chrome trace (catapult JSON;
  /// load in chrome://tracing or Perfetto). pid = rank, tid = driver
  /// thread within the rank. Timestamps are relative to this run's epoch
  /// (the Environment's construction time on the shared monotonic clock),
  /// so t=0 is run start on every rank.
  void write_chrome_trace(std::ostream& os) const;

  /// Convenience file form of the exporters above. An empty
  /// timeseries_path skips the time-series document.
  void export_telemetry(const std::string& metrics_path,
                        const std::string& trace_path,
                        const std::string& timeseries_path = {}) const;

  /// Resets every rank's message counters (between experiment sections).
  void reset_stats();

  /// Phase counter since construction (the "epoch" stamped onto transport
  /// and rank-failure errors): how many execute_phase barriers completed.
  [[nodiscard]] std::uint64_t phase_epoch() const noexcept {
    return phase_epoch_;
  }

 private:
  void run_sequential(const std::function<void(int)>& fn);
  void run_threaded(const std::function<void(int)>& fn);

  /// Ground-truth liveness check after a barrier: quiescence with a dead
  /// rank means the crash stranded no messages (nothing was owed to it),
  /// which the timeout detector alone cannot distinguish from a clean
  /// finish. Without this check such a phase would silently complete with
  /// the dead rank's work missing.
  void ensure_all_alive() const;

  /// Records one barrier drain into rank `r`'s telemetry (histogram +
  /// trace event).
  void record_barrier_wait(int rank, double seconds);

  Config config_;
  std::unique_ptr<mpi::World> world_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  std::uint64_t phase_epoch_ = 0;
  std::vector<telemetry::MetricId> h_barrier_wait_;  ///< per-rank histogram id
  /// Process ground-truth gauges (rank 0 only — RSS is per-process, and
  /// simulated ranks share one process): current and peak resident set.
  telemetry::MetricId g_rss_ = 0;
  telemetry::MetricId g_peak_rss_ = 0;
  telemetry::Sampler sampler_;
  /// Run epoch on the shared monotonic clock; exporters subtract it so all
  /// artifacts (trace, timeseries) start at t=0 for this run.
  std::uint64_t epoch_us_ = 0;
};

}  // namespace dnnd::comm
