// Distributed-scaling example: how rank count, driver, and the §4.3/§4.4
// communication knobs interact — a tour of the runtime's observability
// APIs (per-handler message statistics, simulated parallel time).
//
// Usage: distributed_scaling [num-points]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "comm/environment.hpp"
#include "core/distance.hpp"
#include "core/dnnd_runner.hpp"
#include "data/synthetic.hpp"

namespace {

struct L2 {
  float operator()(std::span<const float> a, std::span<const float> b) const {
    return dnnd::core::l2(a, b);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnd;
  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 3000;

  data::MixtureSpec spec;
  spec.dim = 48;
  spec.num_clusters = 24;
  spec.center_range = 3.0f;
  const auto points = data::GaussianMixture(spec).sample(n, 1);

  std::printf("%zu points, dim %zu\n\n", points.size(), points.dim());
  std::printf("%6s %10s %14s %12s %14s\n", "ranks", "driver", "sim-units",
              "remote msgs", "remote bytes");

  for (const int ranks : {1, 2, 4, 8, 16}) {
    for (const auto driver :
         {comm::DriverKind::kSequential, comm::DriverKind::kThreaded}) {
      // The threaded driver exists to validate thread-safety of engine
      // code, not to add speed: the sim-units columns are the scaling
      // result. Run it only once.
      if (driver == comm::DriverKind::kThreaded && ranks != 8) continue;

      comm::Environment env(comm::Config{.num_ranks = ranks, .driver = driver});
      core::DnndConfig config;
      config.k = 10;
      config.batch_size = std::uint64_t{1} << 18;  // §4.4 batching
      core::DnndRunner<float, L2> runner(env, config, L2{});
      runner.distribute(points);
      const auto stats = runner.build();

      const auto comm_stats = env.aggregate_stats();
      std::printf("%6d %10s %14.3e %12" PRIu64 " %14" PRIu64 "\n", ranks,
                  driver == comm::DriverKind::kSequential ? "seq" : "thread",
                  stats.simulated_parallel_units,
                  comm_stats.total_remote_messages(),
                  comm_stats.total_remote_bytes());
    }
  }

  // Per-message-type breakdown for one configuration (the Figure-4 view).
  std::printf("\nper-handler traffic at 8 ranks (optimized checks):\n");
  comm::Environment env(comm::Config{.num_ranks = 8});
  core::DnndConfig config;
  config.k = 10;
  core::DnndRunner<float, L2> runner(env, config, L2{});
  runner.distribute(points);
  runner.build();
  const auto aggregated = env.aggregate_stats();
  for (const auto& h : aggregated.handlers()) {
    if (h.total_messages() == 0) continue;
    std::printf("  %-12s %10" PRIu64 " msgs %14" PRIu64 " bytes\n",
                h.label.c_str(), h.remote_messages, h.remote_bytes);
  }
  return 0;
}
