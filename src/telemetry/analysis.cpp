#include "telemetry/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace dnnd::telemetry {
namespace {

using util::json::Value;

std::uint64_t percentile_of(std::vector<std::uint64_t>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

/// True for metric names whose value is a wall-clock quantity — excluded
/// from regression diffs because they vary run to run and machine to
/// machine, unlike message/update counts.
bool is_time_valued(const std::string& name) {
  return name.ends_with("_us") || name.ends_with("_seconds") ||
         name.ends_with("_ticks");
}

/// True for counters that describe the parallel schedule's *shape*
/// (thread-pool tasks dispatched), not algorithmic work. They are a pure
/// function of the work size and are asserted bit-identical across
/// thread counts by the determinism tests — but baselines recorded
/// before a loop was staged (or with a different grain) would diff
/// against them spuriously, so the regression gate skips them the same
/// way it skips wall-clock values.
bool is_schedule_shape(const std::string& name) {
  return name.ends_with(".tasks");
}

/// The registry's units map ({"name":"time_us"|"bytes"|...}, only
/// non-count metrics listed); empty for legacy documents without one.
std::map<std::string, std::string> units_of(const Value& doc) {
  std::map<std::string, std::string> out;
  if (!doc.contains("metrics") || !doc.at("metrics").contains("units")) {
    return out;
  }
  for (const auto& [name, unit] : doc.at("metrics").at("units").as_object()) {
    out.emplace(name, unit.as_string());
  }
  return out;
}

/// Excluded from exact regression diffs by *kind*: wall-clock values,
/// schedule shape, and environment observations (RSS) are not
/// reproducible run to run; byte gauges are diffed separately at the
/// memory tolerance. Documents without a units map (pre-units baselines)
/// fall back to the name-suffix heuristics.
bool skip_exact_diff(const std::string& name,
                     const std::map<std::string, std::string>& units) {
  const auto it = units.find(name);
  if (it != units.end()) {
    return it->second == "time_us" || it->second == "schedule" ||
           it->second == "observed" || it->second == "bytes";
  }
  return is_time_valued(name) || is_schedule_shape(name);
}

/// Flattens the deterministic counters of a dnnd.metrics.v1 document into
/// a single name → value map with namespaced keys: handler/transport
/// message stats and the registry counters.
std::map<std::string, double> flatten_counters(const Value& doc) {
  std::map<std::string, double> out;
  for (const auto& h : doc.at("handlers").as_array()) {
    const std::string label = h.at("label").as_string();
    for (const char* field : {"remote_messages", "remote_bytes",
                              "local_messages", "local_bytes"}) {
      out["handler." + label + "." + field] = h.at(field).as_number();
    }
  }
  for (const auto& [key, value] : doc.at("transport").as_object()) {
    out["transport." + key] = value.as_number();
  }
  const auto units = units_of(doc);
  for (const auto& [name, value] :
       doc.at("metrics").at("counters").as_object()) {
    if (skip_exact_diff(name, units)) continue;
    out["counter." + name] = value.as_number();
  }
  return out;
}

/// Peaks of the byte-valued gauges (the memory ledger's exported mem.*
/// entries) from the merged registry, keyed "gauge_peak.<name>". Byte
/// gauges are only identifiable through the units map, so legacy
/// documents yield an empty map (nothing to diff — correct for baselines
/// recorded before the ledger existed).
std::map<std::string, double> flatten_byte_gauge_peaks(const Value& doc) {
  std::map<std::string, double> out;
  const auto units = units_of(doc);
  if (units.empty()) return out;
  const auto& gauges = doc.at("metrics").at("gauges").as_object();
  for (const auto& [name, gauge] : gauges) {
    const auto it = units.find(name);
    if (it == units.end() || it->second != "bytes") continue;
    out["gauge_peak." + name] = gauge.at("peak").as_number();
  }
  return out;
}

/// Shared per-name compare step of diff_metrics: baseline value vs the
/// matching current value at a relative tolerance, recording violations
/// and one-sided non-zero names.
void diff_maps(const std::map<std::string, double>& base,
               const std::map<std::string, double>& cur, double tol,
               DiffReport& report) {
  for (const auto& [name, base_value] : base) {
    const auto it = cur.find(name);
    if (it == cur.end()) {
      // A zero that vanished is not a behaviour change; a non-zero one is.
      if (base_value != 0.0) report.only_in_baseline.push_back(name);
      continue;
    }
    MetricDelta delta;
    delta.name = name;
    delta.baseline = base_value;
    delta.current = it->second;
    if (base_value == 0.0) {
      delta.rel_change = it->second == 0.0
                             ? 0.0
                             : std::numeric_limits<double>::infinity();
      delta.violated = it->second != 0.0;
    } else {
      delta.rel_change = (it->second - base_value) / base_value;
      delta.violated = std::abs(delta.rel_change) > tol;
    }
    ++report.compared;
    if (delta.violated) ++report.violations;
    report.deltas.push_back(std::move(delta));
  }
  for (const auto& [name, value] : cur) {
    if (!base.contains(name) && value != 0.0) {
      report.only_in_current.push_back(name);
    }
  }
}

}  // namespace

LoadReport analyze_load(const Value& trace_doc, double straggler_factor) {
  const auto& events = trace_doc.at("traceEvents").as_array();
  std::map<int, RankLoad> per_rank;
  std::vector<std::uint64_t> queue_samples;
  std::set<std::uint64_t> started, finished;

  for (const auto& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "s" || ph == "f") {
      // Flow ids are hex strings shared between the send ('s') and the
      // receive ('f') side; parse for matching.
      const std::uint64_t id =
          std::stoull(e.at("id").as_string(), nullptr, 16);
      (ph == "s" ? started : finished).insert(id);
      continue;
    }
    if (ph != "X") continue;
    const int pid = static_cast<int>(e.at("pid").as_number());
    auto& load = per_rank[pid];
    load.rank = pid;
    ++load.spans;
    const auto dur = static_cast<std::uint64_t>(e.at("dur").as_number());
    const std::string& cat = e.at("cat").as_string();
    if (e.at("name").as_string() == "barrier_wait") {
      load.barrier_us += dur;
    } else if (cat == "handler") {
      load.handler_us += dur;
      if (e.contains("args") && e.at("args").contains("queue_us")) {
        queue_samples.push_back(
            static_cast<std::uint64_t>(e.at("args").at("queue_us").as_number()));
      }
    } else if (cat == "phase") {
      load.phase_us += dur;
    }
  }

  LoadReport report;
  std::uint64_t total_work = 0, total_barrier = 0;
  for (auto& [rank, load] : per_rank) {
    total_work += load.work_us();
    total_barrier += load.barrier_us;
    report.max_work_us = std::max(report.max_work_us, load.work_us());
    report.ranks.push_back(load);
  }
  if (!report.ranks.empty()) {
    report.mean_work_us = static_cast<double>(total_work) /
                          static_cast<double>(report.ranks.size());
  }
  if (report.mean_work_us > 0.0) {
    report.max_over_mean =
        static_cast<double>(report.max_work_us) / report.mean_work_us;
    for (const auto& load : report.ranks) {
      if (static_cast<double>(load.work_us()) >
          straggler_factor * report.mean_work_us) {
        report.stragglers.push_back(load.rank);
      }
    }
  }
  if (total_work + total_barrier > 0) {
    report.barrier_share = static_cast<double>(total_barrier) /
                           static_cast<double>(total_work + total_barrier);
  }
  report.queue_samples = queue_samples.size();
  report.queue_p50_us = percentile_of(queue_samples, 0.50);
  report.queue_p99_us = percentile_of(queue_samples, 0.99);
  report.flows_started = started.size();
  report.flows_finished = finished.size();
  for (const std::uint64_t id : started) {
    if (finished.contains(id)) ++report.flows_matched;
  }
  return report;
}

DiffReport diff_metrics(const Value& baseline, const Value& current,
                        double tolerance_pct, double mem_tolerance_pct) {
  if (mem_tolerance_pct < 0.0) mem_tolerance_pct = tolerance_pct;
  DiffReport report;
  diff_maps(flatten_counters(baseline), flatten_counters(current),
            tolerance_pct / 100.0, report);
  diff_maps(flatten_byte_gauge_peaks(baseline),
            flatten_byte_gauge_peaks(current), mem_tolerance_pct / 100.0,
            report);
  // Violations first so a truncated terminal still shows what failed.
  std::stable_sort(report.deltas.begin(), report.deltas.end(),
                   [](const MetricDelta& a, const MetricDelta& b) {
                     return a.violated > b.violated;
                   });
  return report;
}

namespace {

/// Budget-relevant tagged memory is anonymous heap the ledger accounts
/// for. The pmem arena (mem.pmem.*) is file-backed mapping — reported in
/// the subsystem table but excluded from per-rank DRAM budgets, skew and
/// RSS attribution.
bool counts_against_budget(const std::string& name) {
  return !name.starts_with("mem.pmem.");
}

/// Byte gauges (per the registry's units map) of one registry object,
/// sorted by name. The process RSS gauges carry the `observed` unit, so
/// the bytes filter naturally keeps them out of the subsystem list.
std::vector<SubsystemMemory> byte_gauges_of(const Value& registry) {
  std::vector<SubsystemMemory> out;
  if (!registry.contains("units") || !registry.contains("gauges")) return out;
  const auto& units = registry.at("units").as_object();
  for (const auto& [name, gauge] : registry.at("gauges").as_object()) {
    const auto it = units.find(name);
    if (it == units.end() || it->second.as_string() != "bytes") continue;
    SubsystemMemory s;
    s.name = name;
    s.current = static_cast<std::int64_t>(gauge.at("value").as_number());
    s.peak = static_cast<std::int64_t>(gauge.at("peak").as_number());
    out.push_back(std::move(s));
  }
  return out;  // object iteration is already name-ordered (std::map)
}

std::int64_t gauge_value_or_zero(const Value& registry,
                                 const std::string& name) {
  if (!registry.contains("gauges")) return 0;
  const auto& gauges = registry.at("gauges").as_object();
  const auto it = gauges.find(name);
  if (it == gauges.end()) return 0;
  return static_cast<std::int64_t>(it->second.at("value").as_number());
}

}  // namespace

MemoryReport analyze_memory(const Value& metrics_doc, double budget_gb) {
  MemoryReport report;
  if (!metrics_doc.contains("per_rank")) return report;

  std::map<std::string, SubsystemMemory> totals;
  for (const auto& entry : metrics_doc.at("per_rank").as_array()) {
    RankMemory rank;
    rank.rank = static_cast<int>(entry.at("rank").as_number());
    rank.subsystems = byte_gauges_of(entry.at("metrics"));
    for (const auto& s : rank.subsystems) {
      if (counts_against_budget(s.name)) rank.tagged_peak += s.peak;
      auto& total = totals[s.name];
      total.name = s.name;
      total.current += s.current;
      total.peak += s.peak;
    }
    report.ranks.push_back(std::move(rank));
  }
  std::sort(report.ranks.begin(), report.ranks.end(),
            [](const RankMemory& a, const RankMemory& b) {
              return a.rank < b.rank;
            });
  for (auto& [name, total] : totals) {
    report.subsystems.push_back(std::move(total));
  }
  for (const auto& rank : report.ranks) {
    report.total_tagged_peak += rank.tagged_peak;
    report.max_rank_tagged_peak =
        std::max(report.max_rank_tagged_peak, rank.tagged_peak);
  }
  if (!report.ranks.empty() && report.total_tagged_peak > 0) {
    const double mean = static_cast<double>(report.total_tagged_peak) /
                        static_cast<double>(report.ranks.size());
    report.skew = static_cast<double>(report.max_rank_tagged_peak) / mean;
  }

  const auto& merged = metrics_doc.at("metrics");
  report.process_rss = gauge_value_or_zero(merged, "mem.process.rss_bytes");
  report.process_peak_rss =
      gauge_value_or_zero(merged, "mem.process.peak_rss_bytes");
  if (report.process_peak_rss > 0) {
    report.attribution = static_cast<double>(report.total_tagged_peak) /
                         static_cast<double>(report.process_peak_rss);
  }
  report.global_points = static_cast<std::uint64_t>(
      gauge_value_or_zero(merged, "engine.global_points"));
  if (report.global_points > 0) {
    report.bytes_per_point = static_cast<double>(report.total_tagged_peak) /
                             static_cast<double>(report.global_points);
  }
  if (budget_gb > 0.0) {
    report.budget_bytes =
        static_cast<std::int64_t>(budget_gb * 1024.0 * 1024.0 * 1024.0);
    if (report.max_rank_tagged_peak > 0 && report.global_points > 0) {
      // Linear extrapolation from this run: the worst rank's footprint
      // scales ~N/ranks, so N_max = budget * N_now / worst_rank_peak.
      report.projected_points = static_cast<std::uint64_t>(
          static_cast<double>(report.budget_bytes) *
          static_cast<double>(report.global_points) /
          static_cast<double>(report.max_rank_tagged_peak));
    }
  }
  return report;
}

TimeseriesSummary summarize_timeseries(const Value& timeseries_doc) {
  TimeseriesSummary summary;
  const auto& snapshots = timeseries_doc.at("snapshots").as_array();
  summary.snapshots = snapshots.size();
  for (const auto& s : snapshots) {
    if (s.at("label").as_string() == "iteration") {
      ++summary.iteration_snapshots;
    }
  }
  if (!snapshots.empty()) {
    const auto first =
        static_cast<std::uint64_t>(snapshots.front().at("t_us").as_number());
    const auto last =
        static_cast<std::uint64_t>(snapshots.back().at("t_us").as_number());
    summary.span_us = last >= first ? last - first : 0;
  }
  return summary;
}

void print_load_report(std::ostream& os, const LoadReport& report,
                       double straggler_factor) {
  os << "per-rank load (" << report.ranks.size() << " ranks)\n";
  for (const auto& load : report.ranks) {
    os << "  rank " << load.rank << ": work " << load.work_us()
       << " us (handler " << load.handler_us << ", phase " << load.phase_us
       << "), barrier " << load.barrier_us << " us, " << load.spans
       << " spans\n";
  }
  std::ostringstream skew;
  skew.precision(2);
  skew << std::fixed << report.max_over_mean;
  os << "load skew: max/mean = " << skew.str() << " (mean "
     << static_cast<std::uint64_t>(report.mean_work_us) << " us, max "
     << report.max_work_us << " us)\n";
  if (report.stragglers.empty()) {
    os << "stragglers (> " << straggler_factor << "x mean): none\n";
  } else {
    os << "stragglers (> " << straggler_factor << "x mean):";
    for (const int r : report.stragglers) os << " rank " << r;
    os << '\n';
  }
  std::ostringstream share;
  share.precision(1);
  share << std::fixed << report.barrier_share * 100.0;
  os << "barrier-wait share: " << share.str() << "%\n";
  os << "traced queue latency: p50 " << report.queue_p50_us << " us, p99 "
     << report.queue_p99_us << " us (" << report.queue_samples
     << " samples)\n";
  os << "causal flows: " << report.flows_matched << " matched ("
     << report.flows_started << " started, " << report.flows_finished
     << " finished)\n";
}

void print_diff_report(std::ostream& os, const DiffReport& report,
                       double tolerance_pct) {
  os << "compared " << report.compared << " counters at " << tolerance_pct
     << "% tolerance: " << report.violations << " out of tolerance\n";
  for (const auto& delta : report.deltas) {
    if (!delta.violated) continue;
    std::ostringstream pct;
    pct.precision(1);
    pct << std::fixed << delta.rel_change * 100.0;
    os << "  VIOLATION " << delta.name << ": " << delta.baseline << " -> "
       << delta.current << " (" << pct.str() << "%)\n";
  }
  for (const auto& name : report.only_in_baseline) {
    os << "  VIOLATION " << name << ": present only in baseline\n";
  }
  for (const auto& name : report.only_in_current) {
    os << "  VIOLATION " << name << ": present only in current\n";
  }
  os << (report.within_tolerance() ? "PASS" : "FAIL") << '\n';
}

namespace {

/// "12345 B (12.1 KiB)"-style rendering; raw bytes stay machine-greppable.
std::string human_bytes(std::int64_t bytes) {
  std::ostringstream out;
  out << bytes << " B";
  const double b = static_cast<double>(bytes);
  out.precision(1);
  out << std::fixed;
  if (bytes >= (std::int64_t{1} << 30)) {
    out << " (" << b / static_cast<double>(1ull << 30) << " GiB)";
  } else if (bytes >= (std::int64_t{1} << 20)) {
    out << " (" << b / static_cast<double>(1ull << 20) << " MiB)";
  } else if (bytes >= 1024) {
    out << " (" << b / 1024.0 << " KiB)";
  }
  return out.str();
}

}  // namespace

void print_memory_report(std::ostream& os, const MemoryReport& report) {
  os << "memory ledger (" << report.ranks.size() << " ranks)\n";
  os << "  subsystem peaks (summed across ranks):\n";
  for (const auto& s : report.subsystems) {
    os << "    " << s.name << ": peak " << human_bytes(s.peak) << ", current "
       << human_bytes(s.current)
       << (counts_against_budget(s.name) ? "" : " [file-backed, not budgeted]")
       << '\n';
  }
  os << "  per-rank tagged peak:\n";
  for (const auto& rank : report.ranks) {
    os << "    rank " << rank.rank << ": " << human_bytes(rank.tagged_peak)
       << '\n';
  }
  {
    std::ostringstream skew;
    skew.precision(2);
    skew << std::fixed << report.skew;
    os << "  tagged peak: total " << human_bytes(report.total_tagged_peak)
       << ", worst rank " << human_bytes(report.max_rank_tagged_peak)
       << ", skew max/mean = " << skew.str() << '\n';
  }
  os << "  process RSS: current " << human_bytes(report.process_rss)
     << ", peak " << human_bytes(report.process_peak_rss) << '\n';
  if (report.process_peak_rss > 0) {
    std::ostringstream pct;
    pct.precision(1);
    pct << std::fixed << report.attribution * 100.0;
    os << "  attribution: tagged peaks explain " << pct.str()
       << "% of peak RSS (remainder: untagged scratch, allocator slack, "
          "code+runtime)\n";
  }
  if (report.global_points > 0) {
    std::ostringstream bpp;
    bpp.precision(1);
    bpp << std::fixed << report.bytes_per_point;
    os << "  bytes per point: " << bpp.str() << " (over "
       << report.global_points << " points)\n";
  }
  if (report.budget_bytes > 0) {
    if (report.projected_points > 0) {
      os << "  capacity projection: with "
         << human_bytes(report.budget_bytes)
         << " per rank, largest N ~= " << report.projected_points
         << " points at this rank count\n";
    } else {
      os << "  capacity projection: unavailable (no tagged bytes or no "
            "engine.global_points gauge)\n";
    }
  }
}

void print_timeseries_summary(std::ostream& os,
                              const TimeseriesSummary& summary) {
  os << "timeseries: " << summary.snapshots << " snapshots ("
     << summary.iteration_snapshots << " per-iteration) over "
     << summary.span_us << " us\n";
}

std::optional<util::json::Value> load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  const std::string text = buffer.str();
  if (text.empty()) return std::nullopt;
  return util::json::parse(text);
}

}  // namespace dnnd::telemetry
