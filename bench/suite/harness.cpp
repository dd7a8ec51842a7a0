#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/recall.hpp"
#include "serial/archive.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace dnnd::suite {

namespace {

/// Chrome-trace process id of the benchmark's own spans; the program's
/// spans keep pid = rank.
constexpr int kBenchPid = 1000;

volatile double g_sink = 0.0;

}  // namespace

void consume(double value) { g_sink = g_sink + value; }

// ---- Report ----------------------------------------------------------------

void Report::set(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Entry{value, unit};
}

void Report::fail(const std::string& what) {
  constexpr std::size_t kKeptFailures = 20;
  if (failures_.size() < kKeptFailures) failures_.push_back(what);
  ++failure_count_;
}

void Report::print(std::FILE* out, const Options& options) const {
  std::fprintf(out, "\n%-36s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, entry] : metrics_) {
    std::fprintf(out, "%-36s %18.6g  %s\n", name.c_str(), entry.value,
                 entry.unit.c_str());
  }
  for (const std::string& failure : failures_) {
    std::fprintf(out, "CHECK FAILED: %s\n", failure.c_str());
  }
  if (failure_count_ > failures_.size()) {
    std::fprintf(out, "... %zu failed checks in all\n", failure_count_);
  }
  std::fprintf(out, "%s seed %llu: %llu ops, %llu failed, %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(ops_),
               static_cast<unsigned long long>(ops_failed_),
               correct() ? "all checks passed" : "CHECKS FAILED");

  // Machine-readable result: always the last line of stdout.
  std::fprintf(out,
               "{\"workload\":\"%s\",\"seed\":%llu,\"ops\":%llu,"
               "\"ops_failed\":%llu,\"correct\":%s,\"metrics\":{",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(ops_),
               static_cast<unsigned long long>(ops_failed_),
               correct() ? "true" : "false");
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    std::fprintf(out, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 first ? "" : ",", name.c_str(), entry.value,
                 entry.unit.c_str());
    first = false;
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

// ---- Tracer ----------------------------------------------------------------

void Tracer::enable() {
  enabled_ = true;
  origin_us_ = telemetry::now_us();
}

Tracer::Span Tracer::span(const char* name, const char* layer,
                          std::int64_t request) {
  if (!enabled_) return {};
  const std::size_t parent = open_.empty() ? 0 : open_.back() + 1;
  records_.push_back(
      Record{name, layer, telemetry::now_us(), 0, parent, request});
  open_.push_back(records_.size() - 1);
  return Span(this, records_.size() - 1);
}

void Tracer::end(std::size_t index) {
  records_[index].end_us = telemetry::now_us();
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<std::uint64_t> child_us(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent != 0) child_us[r.parent - 1] += r.end_us - r.start_us;
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    SelfTime& row = by_name[r.name];
    row.name = r.name;
    row.layer = r.layer;
    ++row.count;
    const auto dur = static_cast<double>(r.end_us - r.start_us);
    row.total_s += dur * 1e-6;
    row.self_s += (dur - static_cast<double>(std::min(
                             child_us[i], r.end_us - r.start_us))) *
                  1e-6;
  }
  std::vector<SelfTime> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const SelfTime& a, const SelfTime& b) {
              return a.self_s > b.self_s;
            });
  return rows;
}

void Tracer::write_chrome_trace(const std::string& path,
                                comm::Environment& program) const {
  using util::json::write_string;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  const auto rel = [this](std::uint64_t ts) {
    return ts >= origin_us_ ? ts - origin_us_ : 0;
  };
  os << "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
     << kBenchPid << ",\"tid\":0,\"args\":{\"name\":\"dnnd_suite\"}}";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << ",\n{\"name\":";
    write_string(os, r.name);
    os << ",\"cat\":";
    write_string(os, r.layer);
    os << ",\"ph\":\"X\",\"ts\":" << rel(r.start_us)
       << ",\"dur\":" << r.end_us - r.start_us << ",\"pid\":" << kBenchPid
       << ",\"tid\":0,\"args\":{\"id\":" << i + 1 << ",\"parent\":" << r.parent
       << ",\"request\":" << r.request << "}}";
  }
  for (int rank = 0; rank < program.num_ranks(); ++rank) {
    os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rank
       << ",\"tid\":0,\"args\":{\"name\":\"rank " << rank << "\"}}";
    for (const telemetry::TraceEvent& e :
         program.telemetry(rank).trace().events()) {
      os << ",\n{\"name\":";
      write_string(os, e.name);
      os << ",\"cat\":";
      write_string(os, e.category);
      os << ",\"ph\":\"" << e.ph << "\",\"ts\":" << rel(e.ts_us);
      if (e.ph == 'X') os << ",\"dur\":" << e.dur_us;
      os << ",\"pid\":" << rank << ",\"tid\":" << e.tid;
      if (e.ph == 's' || e.ph == 'f') {
        os << ",\"id\":\"" << telemetry::hex_id(e.flow_id) << '"';
        if (e.ph == 'f') os << ",\"bp\":\"e\"";
      }
      if (!e.args.empty()) os << ",\"args\":" << e.args;
      os << '}';
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  if (!os.flush()) throw std::runtime_error("write failed: " + path);
}

void write_trace_outputs(const std::string& dir, const Tracer& tracer,
                         comm::Environment& program) {
  std::filesystem::create_directories(dir);
  tracer.write_chrome_trace(dir + "/trace.json", program);
  program.export_telemetry(dir + "/program.metrics.json",
                           dir + "/program.trace.json",
                           dir + "/program.timeseries.json");
  std::printf("\n%-24s %-10s %9s %12s %12s\n", "span", "layer", "count",
              "total[s]", "self[s]");
  for (const auto& row : tracer.self_times()) {
    std::printf("%-24s %-10s %9zu %12.4f %12.4f\n", row.name.c_str(),
                row.layer.c_str(), row.count, row.total_s, row.self_s);
  }
  std::printf("trace written to %s/trace.json\n", dir.c_str());
}

std::uint64_t total_messages(const comm::MessageStats& stats) {
  std::uint64_t n = 0;
  for (const auto& h : stats.handlers()) n += h.total_messages();
  return n;
}

std::uint64_t total_bytes(const comm::MessageStats& stats) {
  std::uint64_t n = 0;
  for (const auto& h : stats.handlers()) n += h.total_bytes();
  return n;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tail_latency(const std::vector<double>& samples) {
  constexpr std::size_t kTailSamples = 1000;
  return samples.size() >= kTailSamples ? quantile(samples, 0.99)
                                        : median(samples);
}

// ---- output checks ---------------------------------------------------------

std::uint64_t graph_fingerprint(const core::KnnGraph& graph) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const core::Neighbor& n : graph.neighbors(v)) {
      mix(n.id);
      mix(std::bit_cast<std::uint32_t>(n.distance));
    }
  }
  return h;
}

std::string audit_graph(const core::KnnGraph& graph, std::size_t n,
                        std::size_t max_row) {
  if (graph.num_vertices() != n) {
    return "graph has " + std::to_string(graph.num_vertices()) +
           " vertices, expected " + std::to_string(n);
  }
  std::vector<core::VertexId> ids;
  for (core::VertexId v = 0; v < n; ++v) {
    const auto row = graph.neighbors(v);
    const std::string at = " in row " + std::to_string(v);
    if (row.empty()) return "empty row" + at;
    if (row.size() > max_row) return "row longer than k*m" + at;
    ids.clear();
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].id == v) return "self-loop" + at;
      if (row[i].id >= n) return "out-of-range id" + at;
      if (!std::isfinite(row[i].distance)) return "non-finite distance" + at;
      if (i > 0 && row[i].distance < row[i - 1].distance) {
        return "distances not ascending" + at;
      }
      ids.push_back(row[i].id);
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      return "duplicate id" + at;
    }
  }
  return {};
}

std::string audit_result(const core::SearchResult& result, std::size_t l,
                         std::size_t n) {
  if (result.coverage != 1.0 || result.degraded) return "degraded answer";
  const auto& nb = result.neighbors;
  if (nb.size() != l) {
    return std::to_string(nb.size()) + " results, expected " +
           std::to_string(l);
  }
  std::vector<core::VertexId> ids;
  ids.reserve(nb.size());
  for (std::size_t i = 0; i < nb.size(); ++i) {
    if (nb[i].id >= n) return "out-of-range id";
    if (i > 0 && nb[i].distance < nb[i - 1].distance) return "not sorted";
    ids.push_back(nb[i].id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate id";
  }
  return {};
}

double sampled_graph_recall(
    const core::KnnGraph& graph, const std::vector<core::VertexId>& sample,
    const std::vector<std::vector<core::VertexId>>& truth, std::size_t k) {
  double sum = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sum += core::query_recall(graph.neighbors(sample[i]), truth[i], k);
  }
  return sample.empty() ? 0.0 : sum / static_cast<double>(sample.size());
}

// ---- transport probe -------------------------------------------------------

TransportProbe probe_transport(Tracer& tracer, bool smoke) {
  constexpr std::size_t kPayloadFloats = 96;  // one DEEP row: 384 bytes
  constexpr double kPayloadBytes = kPayloadFloats * sizeof(float);
  const std::uint64_t per_rank = smoke ? 100'000 : 1'000'000;
  // Sent in chunks so the sequential driver never buffers more than a few
  // tens of MB of undelivered datagrams.
  constexpr std::uint64_t kChunks = 32;
  const std::uint64_t per_chunk = per_rank / kChunks;
  const double messages = static_cast<double>(kRanks * per_chunk * kChunks);
  const std::vector<float> payload(kPayloadFloats, 1.0f);

  TransportProbe out;
  std::vector<std::vector<float>> scratch(kRanks);
  comm::Environment env(rank_config());
  std::vector<comm::HandlerId> h_empty(kRanks);
  std::vector<comm::HandlerId> h_payload(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    h_empty[ri] = env.comm(r).register_handler(
        "probe_empty", [](int, serial::InArchive&) {});
    h_payload[ri] = env.comm(r).register_handler(
        "probe_payload", [&scratch, ri](int, serial::InArchive& ar) {
          ar.read_into(scratch[ri]);
        });
  }
  const auto send_all = [&](bool with_payload) {
    util::Timer timer;
    for (std::uint64_t c = 0; c < kChunks; ++c) {
      env.execute_phase([&](int r) {
        const auto ri = static_cast<std::size_t>(r);
        auto& comm = env.comm(r);
        const int dest = (r + 1) % kRanks;
        for (std::uint64_t i = 0; i < per_chunk; ++i) {
          if (with_payload) {
            comm.async(dest, h_payload[ri], payload);
          } else {
            comm.async(dest, h_empty[ri]);
          }
        }
      });
    }
    return timer.elapsed_s();
  };
  double empty_s = 0.0;
  double payload_s = 0.0;
  {
    const auto span = tracer.span("probe.messages", "comm");
    empty_s = send_all(false);
  }
  {
    const auto span = tracer.span("probe.payload", "comm");
    payload_s = send_all(true);
  }
  out.ns_per_msg = empty_s / messages * 1e9;
  out.ns_per_byte = (payload_s - empty_s) / (messages * kPayloadBytes) * 1e9;

  {
    const auto span = tracer.span("probe.barrier", "comm");
    const int phases = smoke ? 100 : 1000;
    util::Timer timer;
    for (int i = 0; i < phases; ++i) env.execute_phase([](int) {});
    out.barrier_us = timer.elapsed_s() / phases * 1e6;
  }

  {
    const auto span = tracer.span("probe.serial", "serial");
    const std::size_t records = smoke ? (1u << 12) : (1u << 16);
    std::vector<double> ns_per_byte;
    std::vector<float> sink;
    for (int rep = 0; rep < 5; ++rep) {
      serial::OutArchive ar;
      ar.reserve(records * (static_cast<std::size_t>(kPayloadBytes) + 8));
      util::Timer timer;
      for (std::size_t i = 0; i < records; ++i) serial::pack(ar, payload);
      serial::InArchive in(ar.bytes());
      for (std::size_t i = 0; i < records; ++i) in.read_into(sink);
      ns_per_byte.push_back(timer.elapsed_s() /
                            (static_cast<double>(records) * kPayloadBytes) *
                            1e9);
      consume(static_cast<double>(sink.back()));
    }
    out.serial_ns_per_byte = median(ns_per_byte);
  }
  return out;
}

double peak_rss_mib() {
  return static_cast<double>(telemetry::read_process_memory().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

void restart_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS to the current RSS
  if (!clear_refs.flush()) {
    throw std::runtime_error("cannot reset the peak RSS");
  }
}

}  // namespace dnnd::suite
