#include "comm/environment.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "mpi/threaded_driver.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace dnnd::comm {

Environment::Environment(Config config)
    : config_(config),
      epoch_us_(telemetry::now_us()) {
  if (config_.num_ranks < 1) {
    throw std::invalid_argument("Environment: num_ranks < 1");
  }
  world_ = std::make_unique<mpi::World>(config_.num_ranks);
  if (!config_.fault_plan.empty()) {
    world_->install_fault_injector(std::make_unique<mpi::FaultInjector>(
        config_.fault_plan, config_.num_ranks));
  }
  FailureDetectorConfig detector;
  detector.heartbeat_period_ticks =
      std::max<std::uint32_t>(1, config_.heartbeat_period_ticks);
  std::uint64_t timeout = config_.failure_timeout_ticks;
  if (timeout == 0) {
    timeout =
        config_.fault_plan.crashes.empty() ? 0 : kAutoFailureTimeoutTicks;
  }
  if (timeout == kFailureDetectionOff) timeout = 0;
  detector.failure_timeout_ticks = timeout;
  if (config_.driver == DriverKind::kThreaded) {
    detector.min_silence_us = kThreadedMinSilenceUs;
  }
  comms_.reserve(static_cast<std::size_t>(config_.num_ranks));
  h_barrier_wait_.reserve(static_cast<std::size_t>(config_.num_ranks));
  for (int r = 0; r < config_.num_ranks; ++r) {
    comms_.push_back(std::make_unique<Communicator>(
        *world_, r, config_.send_buffer_bytes, config_.retry,
        config_.trace_sample_period, detector));
    h_barrier_wait_.push_back(comms_.back()->telemetry().histogram(
        "comm.barrier_wait_us", telemetry::MetricUnit::kTimeUs));
    sampler_.attach(r, &comms_.back()->telemetry().metrics());
  }
  // Process-wide ground truth lives on rank 0: every simulated rank shares
  // this process, so attributing RSS to all of them would count it N times.
  // kObserved: an environment measurement, never diffed against baselines.
  auto& tel0 = comms_.front()->telemetry();
  g_rss_ = tel0.gauge("mem.process.rss_bytes", telemetry::MetricUnit::kObserved);
  g_peak_rss_ =
      tel0.gauge("mem.process.peak_rss_bytes", telemetry::MetricUnit::kObserved);
}

Environment::~Environment() = default;

void Environment::execute_phase(const std::function<void(int)>& fn) {
  ++phase_epoch_;
  for (auto& comm : comms_) comm->set_epoch(phase_epoch_);
  if (config_.driver == DriverKind::kSequential) {
    run_sequential(fn);
  } else {
    run_threaded(fn);
  }
  ensure_all_alive();
  sync_memory_gauges();
}

void Environment::sync_memory_gauges() const {
  for (const auto& comm : comms_) comm->telemetry().sync_memory();
  const telemetry::ProcessMemory proc = telemetry::read_process_memory();
  auto& tel0 = comms_.front()->telemetry();
  tel0.set(g_rss_, static_cast<std::int64_t>(proc.rss_bytes));
  tel0.set_with_peak(g_peak_rss_,
                     static_cast<std::int64_t>(proc.peak_rss_bytes),
                     static_cast<std::int64_t>(proc.peak_rss_bytes));
}

void Environment::quiesce() {
  execute_phase([](int) {});
}

void Environment::run_sequential(const std::function<void(int)>& fn) {
  // A crashed rank stops executing phase bodies — its thread of control
  // died with it. Crashes mid-phase (during the drain below) are modelled
  // by the injector's tick clock instead.
  for (int r = 0; r < config_.num_ranks; ++r) {
    if (world_->alive(r)) fn(r);
  }
  // Round-robin delivery: bounded datagram bursts per rank per turn keep
  // the schedule fair (and deterministic), mimicking ranks making
  // interleaved progress.
  constexpr std::size_t kBurst = 16;
  util::Timer drain_timer;
  while (!world_->quiescent()) {
    for (auto& comm : comms_) {
      if (world_->alive(comm->rank())) comm->flush();
    }
    for (auto& comm : comms_) comm->process_available(kBurst);
    // Surviving ranks watch for silent peers each round; a crash that
    // strands messages keeps this loop alive until a detector fires.
    for (auto& comm : comms_) comm->check_failures();
  }
  // The sequential driver drains all ranks on one thread, so each rank is
  // attributed the shared drain time (the cooperative-schedule equivalent
  // of every rank sitting in the barrier together).
  const double seconds = drain_timer.elapsed_s();
  for (int r = 0; r < config_.num_ranks; ++r) {
    record_barrier_wait(r, seconds);
  }
}

void Environment::run_threaded(const std::function<void(int)>& fn) {
  mpi::run_threaded_phase(
      *world_, static_cast<int>(comms_.size()),
      [&](int rank) {
        if (world_->alive(rank)) fn(rank);
      },
      [&](int rank) {
        if (world_->alive(rank)) {
          comms_[static_cast<std::size_t>(rank)]->flush();
        }
      },
      [&](int rank) {
        auto& comm = *comms_[static_cast<std::size_t>(rank)];
        const std::size_t handled = comm.process_available(16);
        // Throwing here trips the driver's failed flag, so every thread
        // (including a would-be-hung one) leaves its drain loop and the
        // RankFailureError is rethrown on the calling thread.
        comm.check_failures();
        return handled;
      },
      [&](int rank, double seconds) { record_barrier_wait(rank, seconds); });
}

void Environment::ensure_all_alive() const {
  const int dead = world_->first_dead();
  if (dead < 0) return;
  throw RankFailureError(
      "Environment: rank " + std::to_string(dead) +
          " crashed (phase barrier completed over a dead rank, epoch " +
          std::to_string(phase_epoch_) + ')',
      dead, /*detected_by=*/-1, phase_epoch_,
      /*last_heard_tick=*/0, /*silent_ticks=*/0);
}

void Environment::record_barrier_wait(int rank, double seconds) {
  const auto r = static_cast<std::size_t>(rank);
  const double us = seconds * 1e6;
  comms_[r]->telemetry().record_clamped(h_barrier_wait_[r], us);
  const std::uint64_t end = telemetry::now_us();
  const auto dur = static_cast<std::uint64_t>(us);
  telemetry::TraceEvent e;
  e.name = "barrier_wait";
  e.category = "comm";
  e.ts_us = end > dur ? end - dur : 0;
  e.dur_us = dur;
  comms_[r]->telemetry().add_trace_event(std::move(e));
}

MessageStats Environment::aggregate_stats() const {
  MessageStats merged;
  for (const auto& comm : comms_) merged.merge(comm->stats());
  return merged;
}

void Environment::reset_stats() {
  for (auto& comm : comms_) comm->stats().reset();
}

TransportCounters Environment::aggregate_transport_counters() const {
  TransportCounters merged;
  for (const auto& comm : comms_) merged.merge(comm->transport_counters());
  return merged;
}

mpi::FaultStats Environment::fault_stats() const {
  const auto* injector = world_->fault_injector();
  return injector != nullptr ? injector->stats() : mpi::FaultStats{};
}

telemetry::MetricsRegistry Environment::aggregate_metrics() const {
  sync_memory_gauges();
  telemetry::MetricsRegistry merged;
  for (const auto& comm : comms_) {
    merged.merge(comm->telemetry().metrics());
  }
  return merged;
}

void Environment::write_metrics_json(std::ostream& os) const {
  const MessageStats stats = aggregate_stats();
  const TransportCounters transport = aggregate_transport_counters();
  os << "{\"schema\":\"dnnd.metrics.v1\",\"ranks\":" << config_.num_ranks
     << ",\"handlers\":[";
  bool first = true;
  for (const auto& h : stats.handlers()) {
    if (!first) os << ',';
    first = false;
    os << "{\"label\":";
    util::json::write_string(os, h.label);
    os << ",\"remote_messages\":" << h.remote_messages
       << ",\"remote_bytes\":" << h.remote_bytes
       << ",\"local_messages\":" << h.local_messages
       << ",\"local_bytes\":" << h.local_bytes << '}';
  }
  os << "],\"transport\":{\"retransmits\":" << transport.retransmits
     << ",\"duplicates_suppressed\":" << transport.duplicates_suppressed
     << ",\"acks_sent\":" << transport.acks_sent
     << ",\"acks_received\":" << transport.acks_received
     << ",\"heartbeats_sent\":" << transport.heartbeats_sent
     << ",\"heartbeats_missed\":" << transport.heartbeats_missed << '}'
     << ",\"metrics\":";
  aggregate_metrics().write_json(os);
  // Per-rank registries drive the load-skew analysis (`dnnd_cli stats`):
  // the merged view above cannot distinguish a balanced run from one
  // straggler doing all the work.
  os << ",\"per_rank\":[";
  for (int r = 0; r < config_.num_ranks; ++r) {
    if (r != 0) os << ',';
    os << "{\"rank\":" << r << ",\"metrics\":";
    comms_[static_cast<std::size_t>(r)]->telemetry().metrics().write_json(os);
    os << '}';
  }
  os << "]}";
}

void Environment::write_chrome_trace(std::ostream& os) const {
  std::vector<telemetry::RankTrace> ranks;
  ranks.reserve(comms_.size());
  for (int r = 0; r < config_.num_ranks; ++r) {
    ranks.push_back(telemetry::RankTrace{
        r, &comms_[static_cast<std::size_t>(r)]->telemetry().trace()});
  }
  telemetry::write_chrome_trace(os, ranks, epoch_us_);
}

void Environment::write_timeseries_json(std::ostream& os) const {
  sampler_.write_json(os, epoch_us_);
}

void Environment::export_telemetry(const std::string& metrics_path,
                                   const std::string& trace_path,
                                   const std::string& timeseries_path) const {
  std::ofstream metrics(metrics_path);
  if (!metrics) {
    throw std::runtime_error("Environment: cannot open " + metrics_path);
  }
  write_metrics_json(metrics);
  metrics << '\n';
  std::ofstream trace(trace_path);
  if (!trace) {
    throw std::runtime_error("Environment: cannot open " + trace_path);
  }
  write_chrome_trace(trace);
  trace << '\n';
  if (!timeseries_path.empty()) {
    std::ofstream timeseries(timeseries_path);
    if (!timeseries) {
      throw std::runtime_error("Environment: cannot open " + timeseries_path);
    }
    write_timeseries_json(timeseries);
    timeseries << '\n';
  }
}

}  // namespace dnnd::comm
