#include "layers.hpp"

namespace dnnd::suite {

void report_layers(Report& report, const std::vector<BuildResult>& builds,
                   const Probes& probes) {
  const BuildResult& last = builds.back();
  const auto median_of = [&builds](auto field) {
    std::vector<double> values;
    values.reserve(builds.size());
    for (const BuildResult& b : builds) values.push_back(field(b));
    return median(values);
  };
  const double build_s =
      median_of([](const BuildResult& b) { return b.total_s; });

  // core/dnnd_runner: the timed calls and phase_profile().
  report.set("runner.distribute_s",
             median_of([](const BuildResult& b) { return b.distribute_s; }),
             "s");
  report.set("runner.build_s",
             median_of([](const BuildResult& b) { return b.build_s; }), "s");
  report.set("runner.optimize_s",
             median_of([](const BuildResult& b) { return b.optimize_s; }),
             "s");
  for (const char* phase :
       {"init", "sample", "merge", "checks", "allreduce", "optimize"}) {
    report.set(std::string("runner.phase.") + phase + "_s",
               median_of([phase](const BuildResult& b) {
                 const auto it = b.phase_s.find(phase);
                 return it == b.phase_s.end() ? 0.0 : it->second;
               }),
               "s");
  }
  report.set("runner.barriers", static_cast<double>(last.barriers), "count");
  report.set("runner.iterations", static_cast<double>(last.iterations),
             "count");

  // core/dnnd_engine: work done and useful work per attempt.
  report.set("engine.distance_evals", static_cast<double>(last.distance_evals),
             "count");
  report.set("engine.updates", static_cast<double>(last.updates), "count");
  report.set("engine.updates_per_eval",
             static_cast<double>(last.updates) /
                 static_cast<double>(last.distance_evals),
             "ratio");
  report.set("engine.tasks", static_cast<double>(last.tasks), "count");

  // core/distance_kernels.
  report.set("kernels.ns_per_eval", probes.kernel_ns_per_eval, "ns");

  // comm + serial + mpi: the program's send counters and the probes.
  std::uint64_t local_msgs = 0;
  for (const auto& h : last.messages.handlers()) local_msgs += h.local_messages;
  report.set("comm.remote_msgs",
             static_cast<double>(last.messages.total_remote_messages()),
             "count");
  report.set("comm.remote_bytes",
             static_cast<double>(last.messages.total_remote_bytes()), "bytes");
  report.set("comm.local_msgs", static_cast<double>(local_msgs), "count");
  for (const char* label : {"type1", "type2plus", "type3", "rev_sample"}) {
    const comm::HandlerCounters c = last.messages.by_label(label);
    report.set(std::string("comm.msgs.") + label,
               static_cast<double>(c.total_messages()), "count");
    report.set(std::string("comm.bytes.") + label,
               static_cast<double>(c.total_bytes()), "bytes");
  }
  report.set("comm.ns_per_msg", probes.transport.ns_per_msg, "ns");
  report.set("comm.ns_per_byte", probes.transport.ns_per_byte, "ns");
  report.set("serial.ns_per_byte", probes.transport.serial_ns_per_byte, "ns");
  report.set("comm.barrier_us", probes.transport.barrier_us, "us");
  report.set("comm.barrier_wait_us.p50",
             median_of([](const BuildResult& b) {
               return b.barrier_wait_p50_us;
             }),
             "us");
  report.set("comm.barrier_wait_us.max",
             median_of([](const BuildResult& b) {
               return b.barrier_wait_max_us;
             }),
             "us");

  // core/checkpoint_store + pmem: the build's own hook calls when it
  // checkpoints, else one generation written by the probe.
  const double ckpt_s =
      median_of([](const BuildResult& b) { return b.ckpt_s; });
  const double generations = static_cast<double>(last.ckpt_generations);
  report.set("ckpt.generations", generations, "count");
  report.set("ckpt.bytes", static_cast<double>(last.ckpt_bytes), "bytes");
  report.set("ckpt.write_s",
             generations > 0 ? ckpt_s / generations
                             : probes.checkpoint.write_s,
             "s");
  report.set("ckpt.bytes_per_generation",
             generations > 0
                 ? static_cast<double>(last.ckpt_bytes) / generations
                 : static_cast<double>(probes.checkpoint.bytes),
             "bytes");

  // core/distributed_query.
  const QueryServiceProbe& dq = probes.dquery;
  report.set("dquery.ctor_s", dq.ctor_s, "s");
  report.set("dquery.us_per_query.c1", dq.us_per_query_c1, "us");
  report.set("dquery.us_per_query.c16", dq.us_per_query_c16, "us");
  report.set("dquery.us_per_query.c256", dq.us_per_query_c256, "us");
  report.set("dquery.msgs_per_query", dq.msgs_per_query, "count");
  report.set("dquery.bytes_per_query", dq.bytes_per_query, "bytes");
  report.set("dquery.evals_per_query", dq.evals_per_query, "count");
  report.set("dquery.pops_per_query", dq.pops_per_query, "count");

  // core/knn_query.
  report.set("search.evals_per_query", probes.search.evals_per_query, "count");
  report.set("search.visited_per_query", probes.search.visited_per_query,
             "count");
  report.set("search.qps_1t", probes.search.qps_1t, "1/s");
  report.set("search.inmem_qps", probes.search.inmem_qps, "1/s");

  // Reference: the plain single-threaded build of the same points.
  report.set("ref.nn_descent_s", probes.reference_s, "s");
  report.set("ref.overhead_x", build_s / probes.reference_s, "x");

  // telemetry/memory: ledger peaks summed over ranks.
  report.set("mem.peak.graph", static_cast<double>(last.mem_graph), "bytes");
  report.set("mem.peak.features", static_cast<double>(last.mem_features),
             "bytes");
  report.set("mem.peak.mailbox", static_cast<double>(last.mem_mailbox),
             "bytes");
  report.set("mem.peak.ckpt_staging",
             static_cast<double>(last.mem_ckpt_staging), "bytes");

  // Computed shares of the build's wall time: unit cost from a probe times
  // the build's own count. The residual is what no layer here explains.
  const double kernels = static_cast<double>(last.distance_evals) *
                         probes.kernel_ns_per_eval * 1e-9 / build_s;
  const double comm =
      (static_cast<double>(total_messages(last.messages)) *
           probes.transport.ns_per_msg +
       static_cast<double>(total_bytes(last.messages)) *
           probes.transport.ns_per_byte) *
      1e-9 / build_s;
  const double barrier = static_cast<double>(last.barriers) *
                         probes.transport.barrier_us * 1e-6 / build_s;
  const double ckpt = ckpt_s / build_s;
  report.set("kernels.share", kernels, "fraction");
  report.set("comm.share", comm, "fraction");
  report.set("barrier.share", barrier, "fraction");
  report.set("ckpt.share", ckpt, "fraction");
  report.set("unexplained.share", 1.0 - kernels - comm - barrier - ckpt,
             "fraction");
}

void report_trace_overhead(Report& report, double untraced_p50_ms,
                           double traced_p50_ms, double untraced_throughput,
                           double traced_throughput) {
  report.set("trace.overhead_p50_ms", traced_p50_ms - untraced_p50_ms, "ms");
  report.set("trace.overhead_throughput",
             traced_throughput - untraced_throughput, "1/s");
}

}  // namespace dnnd::suite
