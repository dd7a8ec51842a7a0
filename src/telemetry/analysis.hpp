// Offline run analysis — the read side of the telemetry pipeline.
//
// Everything here operates on the parsed JSON artifacts a run leaves
// behind (metrics.json, trace.json, timeseries.json), never on live
// Environment state, so `dnnd_cli stats` can inspect a run from another
// process, another build configuration, or last week. Three jobs:
//
//   * analyze_load  — per-rank work accounting from the Chrome trace:
//     handler vs. phase time, barrier-wait share, traced-message queue
//     latency percentiles, and straggler flagging (rank work more than
//     `straggler_factor` × the mean).
//   * diff_metrics  — tolerance-based regression diff of two metrics.json
//     documents over the deterministic counters (handler send rows,
//     transport counters, registry counters). Metrics are classified by
//     the document's `units` map: wall-clock (`time_us`), schedule-shape
//     (`schedule`) and environment-observed (`observed`) values are
//     skipped — not reproducible across machines; byte-valued gauges
//     (the memory ledger's mem.* peaks) are compared at a separate,
//     looser tolerance. Legacy documents without a units map fall back
//     to name-suffix heuristics (`_us` / `_seconds` / `.tasks`).
//   * analyze_memory — the memory-ledger report: per-rank/per-subsystem
//     byte peaks from the per_rank registries, skew, bytes-per-point,
//     attribution against ground-truth peak RSS, and a capacity
//     projection (largest N fitting a per-rank byte budget).
//   * summarize_timeseries — snapshot count / label census so the CLI can
//     confirm the sampler actually ran.
//
// All functions throw std::runtime_error on documents that do not match
// the dnnd.metrics.v1 / dnnd.timeseries.v1 / Chrome-trace shapes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace dnnd::telemetry {

/// Work distilled from one rank's spans in trace.json.
struct RankLoad {
  int rank = 0;
  std::uint64_t handler_us = 0;  ///< Σ dur of category "handler" spans
  std::uint64_t phase_us = 0;    ///< Σ dur of category "phase" spans
  std::uint64_t barrier_us = 0;  ///< Σ dur of "barrier_wait" events
  std::uint64_t spans = 0;       ///< number of 'X' events

  /// Work a rank actively did (excludes barrier waits).
  [[nodiscard]] std::uint64_t work_us() const noexcept {
    return handler_us + phase_us;
  }
};

struct LoadReport {
  std::vector<RankLoad> ranks;     ///< sorted by rank id
  double mean_work_us = 0.0;
  std::uint64_t max_work_us = 0;
  double max_over_mean = 0.0;      ///< load-skew factor (1.0 = balanced)
  std::vector<int> stragglers;     ///< ranks with work > factor × mean
  double barrier_share = 0.0;      ///< Σ barrier / Σ (work + barrier)
  // Traced-message queue latency (submit → handler start), exact
  // percentiles over the per-span samples recorded in recv span args.
  std::uint64_t queue_samples = 0;
  std::uint64_t queue_p50_us = 0;
  std::uint64_t queue_p99_us = 0;
  // Causal-flow accounting: matched = flow ids seen with both a start
  // ('s') and a finish ('f') — i.e. arrows chrome://tracing can draw.
  std::uint64_t flows_started = 0;
  std::uint64_t flows_finished = 0;
  std::uint64_t flows_matched = 0;
};

/// Analyzes a parsed Chrome-trace document (trace.json).
[[nodiscard]] LoadReport analyze_load(const util::json::Value& trace_doc,
                                      double straggler_factor = 1.25);

/// One compared value in a regression diff.
struct MetricDelta {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  ///< (current-baseline)/baseline; ±inf if base 0
  bool violated = false;
};

struct DiffReport {
  std::vector<MetricDelta> deltas;  ///< violations first, then by name
  /// Non-zero counters present on only one side (also violations: a
  /// vanished or brand-new message class is a behaviour change).
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;
  std::uint64_t compared = 0;
  std::uint64_t violations = 0;
  [[nodiscard]] bool within_tolerance() const noexcept {
    return violations == 0 && only_in_baseline.empty() &&
           only_in_current.empty();
  }
};

/// Diffs two dnnd.metrics.v1 documents. `tolerance_pct` is the allowed
/// relative drift in percent (0 = exact match required). It covers the
/// handler/transport message stats and the deterministic registry
/// counters.
///
/// Byte-valued gauges (the memory ledger's mem.* peaks, per the units
/// map) are compared at `mem_tolerance_pct` instead: byte footprints are
/// deterministic in *shape* but ride on container growth policies, so
/// they get a looser leash than message counts. A negative
/// mem_tolerance_pct (the default) reuses `tolerance_pct`.
[[nodiscard]] DiffReport diff_metrics(const util::json::Value& baseline,
                                      const util::json::Value& current,
                                      double tolerance_pct,
                                      double mem_tolerance_pct = -1.0);

/// One memory-ledger subsystem (a mem.* byte gauge) on one rank, or the
/// cross-rank sum of one in MemoryReport::subsystems.
struct SubsystemMemory {
  std::string name;           ///< gauge name, e.g. "mem.engine.graph"
  std::int64_t current = 0;   ///< bytes charged at export time
  std::int64_t peak = 0;      ///< ledger high-water bytes
};

/// One rank's tagged-memory footprint from its per_rank registry.
struct RankMemory {
  int rank = 0;
  std::vector<SubsystemMemory> subsystems;  ///< sorted by name
  /// Σ subsystem peaks — an upper bound on the rank's simultaneous
  /// tagged footprint (subsystem peaks need not coincide in time).
  std::int64_t tagged_peak = 0;
};

/// The memory-ledger analysis of one dnnd.metrics.v1 document.
struct MemoryReport {
  std::vector<RankMemory> ranks;  ///< sorted by rank id
  std::vector<SubsystemMemory> subsystems;  ///< summed across ranks, by name
  std::int64_t total_tagged_peak = 0;  ///< Σ over ranks of tagged_peak
  std::int64_t max_rank_tagged_peak = 0;
  double skew = 0.0;  ///< max/mean rank tagged peak (1.0 = balanced)
  // Ground truth (rank 0's process-wide gauges; the simulated ranks share
  // one process, so this is the whole run's RSS).
  std::int64_t process_rss = 0;
  std::int64_t process_peak_rss = 0;
  /// total_tagged_peak / process_peak_rss — how much of the measured peak
  /// the ledger explains (> 1.0 possible: subsystem peaks are summed and
  /// freed memory may be returned to the allocator, not the OS).
  double attribution = 0.0;
  // Scale context from the engine.global_points gauge.
  std::uint64_t global_points = 0;
  double bytes_per_point = 0.0;  ///< total_tagged_peak / global_points
  // Capacity projection: largest N whose *worst rank* tagged footprint
  // fits budget_bytes, extrapolating linearly from this run's N.
  std::int64_t budget_bytes = 0;
  std::uint64_t projected_points = 0;
};

/// Analyzes the memory ledger exported in a dnnd.metrics.v1 document.
/// `budget_gb` sizes the capacity projection (per-rank budget in GiB;
/// <= 0 disables the projection).
[[nodiscard]] MemoryReport analyze_memory(const util::json::Value& metrics_doc,
                                          double budget_gb);

struct TimeseriesSummary {
  std::uint64_t snapshots = 0;
  std::uint64_t iteration_snapshots = 0;  ///< label == "iteration"
  std::uint64_t span_us = 0;              ///< last t_us − first t_us
};

[[nodiscard]] TimeseriesSummary summarize_timeseries(
    const util::json::Value& timeseries_doc);

/// Human-readable renderings used by `dnnd_cli stats`.
void print_load_report(std::ostream& os, const LoadReport& report,
                       double straggler_factor);
void print_diff_report(std::ostream& os, const DiffReport& report,
                       double tolerance_pct);
void print_memory_report(std::ostream& os, const MemoryReport& report);
void print_timeseries_summary(std::ostream& os,
                              const TimeseriesSummary& summary);

/// Reads and parses a JSON file; std::nullopt when the file cannot be
/// read (missing artifact — callers degrade gracefully), throws on a file
/// that reads but does not parse (a corrupt artifact should be loud).
[[nodiscard]] std::optional<util::json::Value> load_json_file(
    const std::string& path);

}  // namespace dnnd::telemetry
