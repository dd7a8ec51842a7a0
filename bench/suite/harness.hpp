// Benchmark-side plumbing for dnnd_suite: options, the metric report,
// the span tracer, output checks, and the probes that need no template.
//
// Everything here measures the program from outside: it times calls into
// the library's public functions and reads counters the program already
// exports. Nothing in src/ is instrumented for the benchmark.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "comm/environment.hpp"
#include "core/knn_graph.hpp"
#include "core/knn_query.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace dnnd::suite {

static_assert(telemetry::kEnabled,
              "dnnd_suite reads the program's telemetry counters; build the "
              "library with DNND_TELEMETRY=ON");

inline constexpr int kRanks = 4;

/// Every environment of the benchmark: 4 ranks, the sequential driver (one
/// rank runs at a time), no causal-trace sampling.
inline comm::Config rank_config() {
  comm::Config config;
  config.num_ranks = kRanks;
  return config;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;      ///< length of one measurement window
  std::string trace_dir;      ///< empty = untraced run
  std::string tmp_dir = ".";  ///< parent of the per-process scratch directory
  bool smoke = false;         ///< tiny inputs, minimum operation counts

  [[nodiscard]] bool traced() const { return !trace_dir.empty(); }
};

/// Metrics, operation counts and check failures of one run. Printed as a
/// human-readable table followed by one JSON line (always the last line).
class Report {
 public:
  void set(const std::string& name, double value, const char* unit);

  /// Counts `attempted` operations of which `failed` failed a check.
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    ops_ += attempted;
    ops_failed_ += failed;
  }
  /// Records a failed check that is not tied to one operation (set-up,
  /// persistence round trip, determinism across builds).
  void fail(const std::string& what);

  [[nodiscard]] bool correct() const {
    return failure_count_ == 0 && ops_failed_ == 0;
  }

  void print(std::FILE* out, const Options& options) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> failures_;  ///< the first few, for the printout
  std::size_t failure_count_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t ops_failed_ = 0;
};

/// Benchmark-side spans around every call into a layer. Kept in memory and
/// written at exit as a Chrome trace, merged with the program's own phase
/// spans on the same clock. Disabled spans never read the clock.
class Tracer {
 public:
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& other) noexcept
        : tracer_(std::exchange(other.tracer_, nullptr)),
          index_(other.index_) {}
    Span& operator=(Span&&) = delete;
    ~Span() { end(); }

    /// Ends the span now instead of at scope exit.
    void end() {
      if (tracer_ != nullptr) std::exchange(tracer_, nullptr)->end(index_);
    }

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Starts a span; `name` and `layer` must be string literals. `request`
  /// ties the spans of one query together (-1 = none).
  [[nodiscard]] Span span(const char* name, const char* layer,
                          std::int64_t request = -1);

  /// Turns span recording on; the time origin of the written trace.
  void enable();

  /// Wall seconds of every span, by name, and their self time (duration
  /// minus the part covered by child spans).
  struct SelfTime {
    std::string name;
    std::string layer;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes the spans plus `program`'s per-rank trace buffers as one
  /// Chrome trace with a shared time origin.
  void write_chrome_trace(const std::string& path,
                          comm::Environment& program) const;

 private:
  struct Record {
    const char* name;
    const char* layer;
    std::uint64_t start_us;
    std::uint64_t end_us;
    std::size_t parent;  ///< index + 1 of the enclosing span, 0 = root
    std::int64_t request;
  };
  void end(std::size_t index);

  bool enabled_ = false;
  std::uint64_t origin_us_ = 0;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

// ---- statistics ----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile (q in (0, 1]); with fewer than 1/(1-q) samples
/// this is the maximum.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// What latency_p99_ms reports: the nearest-rank p99 when at least 1000
/// samples put ten or more beyond it. A build window holds about ten
/// builds, too few for any tail percentile (their maximum varied by 20%
/// between runs), so builds report the median there.
[[nodiscard]] double tail_latency(const std::vector<double>& samples);

// ---- run structure ---------------------------------------------------------

/// Runs `make()` `times` times and reports the median wall time as
/// setup_s; returns the last result. The previous result is released
/// before each repetition so repetitions do not stack memory.
template <typename Make>
auto repeated_setup(std::size_t times, Report& report, Make&& make) {
  decltype(make()) state;
  std::vector<double> seconds;
  for (std::size_t i = 0; i < times; ++i) {
    state = {};
    util::Timer timer;
    state = make();
    seconds.push_back(timer.elapsed_s());
  }
  report.set("setup_s", median(seconds), "s");
  return state;
}

/// A closed loop: calls `op(i)` until at least `min_ops` ran and `seconds`
/// elapsed. Smoke runs stop at `min_ops`.
template <typename Op>
void closed_loop(double seconds, std::size_t min_ops, bool smoke, Op&& op) {
  util::Timer timer;
  for (std::size_t i = 0;
       i < min_ops || (!smoke && timer.elapsed_s() < seconds); ++i) {
    op(i);
  }
}

// ---- output checks -------------------------------------------------------

/// FNV-1a over every row's (id, distance bits), as bench_scaling uses.
[[nodiscard]] std::uint64_t graph_fingerprint(const core::KnnGraph& graph);

/// Empty when `graph` is a well-formed k-NN graph over n vertices: every
/// row non-empty with at most `max_row` entries, no self-loops, no
/// duplicate or out-of-range ids, distances ascending. Else the first
/// violation.
[[nodiscard]] std::string audit_graph(const core::KnnGraph& graph,
                                      std::size_t n, std::size_t max_row);

/// Empty when one query's answer is complete: full coverage, not degraded,
/// exactly `l` unique in-range ids in ascending distance. Else the reason.
[[nodiscard]] std::string audit_result(const core::SearchResult& result,
                                       std::size_t l, std::size_t n);

/// Mean recall@k of `graph` rows against exact neighbors of `sample`.
[[nodiscard]] double sampled_graph_recall(
    const core::KnnGraph& graph, const std::vector<core::VertexId>& sample,
    const std::vector<std::vector<core::VertexId>>& truth, std::size_t k);

// ---- probes that need no element type ------------------------------------

struct TransportProbe {
  double ns_per_msg = 0.0;          ///< async + flush + deliver, empty payload
  double ns_per_byte = 0.0;         ///< extra cost per payload byte
  double serial_ns_per_byte = 0.0;  ///< OutArchive pack + InArchive unpack
  double barrier_us = 0.0;          ///< one empty 4-rank phase
};
[[nodiscard]] TransportProbe probe_transport(Tracer& tracer, bool smoke);

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Starts the interval that peak_rss_mib() reports: returns freed heap to
/// the system (glibc malloc_trim), then resets VmHWM to the current RSS
/// (/proc/self/clear_refs). The peak then covers what ran since, not
/// set-up or earlier operations: without the reset the peak of one
/// build-kosarak process swung between 91 and 118 MiB with what earlier
/// builds left in the heap.
void restart_peak_rss();

/// Keeps a probe's results observable so the timed work is not elided.
void consume(double value);

/// Messages and serialized bytes over all handlers, local and remote.
[[nodiscard]] std::uint64_t total_messages(const comm::MessageStats& stats);
[[nodiscard]] std::uint64_t total_bytes(const comm::MessageStats& stats);

/// Traced run output: `<dir>/trace.json` (benchmark spans merged with the
/// program's phase spans), the program's own `program.{metrics,trace,
/// timeseries}.json` from `program`, and the span table on stdout.
void write_trace_outputs(const std::string& dir, const Tracer& tracer,
                         comm::Environment& program);

}  // namespace dnnd::suite
