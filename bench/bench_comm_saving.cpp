// Figure 4 — effectiveness of the §4.3 communication-saving techniques.
//
// Paper setup: k = 10, 16 nodes, both billion-scale datasets; counts the
// messages sent during neighbor checks and their total size, comparing the
// unoptimized pattern (Type 1 + Type 2) against the optimized one (Type 1
// + Type 2+ + Type 3). Reported outcome: ~50% reduction in both message
// count and volume.
//
// Here: identical message taxonomy on the DEEP1B / BigANN stand-ins with
// k = 10 and 16 simulated ranks. "Off-node" messages are those whose
// destination rank differs from the source.
//
// The optimized checks travel in bundles (one Type-1 per (center, u1),
// one Type-2+ per (u1, rank), at most one Type-3 per Type-2+), so Figure
// 4a is printed from the engine's logical counts: one per candidate pair
// whose per-pair message would have crossed ranks (engine.logical_msgs.*).
// The unoptimized Figure-1a pattern is still per pair, so its wire counts
// are its logical counts. The wire rows below Figure 4a go beyond the
// paper: what the check labels actually sent, messages and bytes.
#include <cinttypes>
#include <string>

#include "common.hpp"

using namespace dnnd;  // NOLINT

namespace {

struct CommTotals {
  // Figure 4a: the paper's per-pair check messages sent off-node.
  std::uint64_t type1 = 0, type2 = 0, type2plus = 0, type3 = 0;
  // Off-node wire traffic of every check label.
  std::uint64_t wire_messages = 0, wire_bytes = 0;

  [[nodiscard]] std::uint64_t messages() const {
    return type1 + type2 + type2plus + type3;
  }
};

template <typename T, typename Fn>
CommTotals run(const core::FeatureStore<T>& base, Fn fn, bool optimized) {
  comm::Environment env(comm::Config{.num_ranks = 16});
  core::DnndConfig cfg;
  cfg.k = 10;
  cfg.optimized_checks = optimized;
  core::DnndRunner<T, Fn> runner(env, cfg, fn);
  runner.distribute(base);
  runner.build();
  const auto stats = env.aggregate_stats();
  CommTotals totals;
  for (const char* label :
       {"type1", "type2plus", "type3", "type1_unopt", "type2_unopt"}) {
    const auto c = stats.by_label(label);
    totals.wire_messages += c.remote_messages;
    totals.wire_bytes += c.remote_bytes;
  }
  if (optimized) {
    const auto metrics = env.aggregate_metrics();
    const auto logical = [&](const char* type) {
      return metrics.counter_value(std::string("engine.logical_msgs.") +
                                   type);
    };
    totals.type1 = logical("type1");
    totals.type2plus = logical("type2plus");
    totals.type3 = logical("type3");
  } else {
    totals.type1 = stats.by_label("type1_unopt").remote_messages;
    totals.type2 = stats.by_label("type2_unopt").remote_messages;
  }
  return totals;
}

double percent(std::uint64_t part, std::uint64_t whole) {
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

void report(const char* dataset, const CommTotals& unopt,
            const CommTotals& opt) {
  std::printf("\n-- %s (k=10, 16 ranks) --\n", dataset);
  std::printf("%-22s %14s %14s\n", "", "unoptimized", "optimized");
  std::printf("%-22s %14" PRIu64 " %14" PRIu64 "\n", "Type 1 messages",
              unopt.type1, opt.type1);
  std::printf("%-22s %14" PRIu64 " %14s\n", "Type 2 messages", unopt.type2,
              "-");
  std::printf("%-22s %14s %14" PRIu64 "\n", "Type 2+ messages", "-",
              opt.type2plus);
  std::printf("%-22s %14s %14" PRIu64 "\n", "Type 3 messages", "-",
              opt.type3);
  std::printf("%-22s %14" PRIu64 " %14" PRIu64 "  (%.1f%% of unoptimized)\n",
              "Total messages (4a)", unopt.messages(), opt.messages(),
              percent(opt.messages(), unopt.messages()));
  std::printf("beyond the paper, what the wire carried (optimized = bundles):\n");
  std::printf("%-22s %14" PRIu64 " %14" PRIu64 "  (%.1f%% of unoptimized)\n",
              "Wire messages", unopt.wire_messages, opt.wire_messages,
              percent(opt.wire_messages, unopt.wire_messages));
  std::printf("%-22s %14" PRIu64 " %14" PRIu64 "  (%.1f%% of unoptimized)\n",
              "Wire bytes", unopt.wire_bytes, opt.wire_bytes,
              percent(opt.wire_bytes, unopt.wire_bytes));
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 4: neighbor-check communication, unoptimized vs optimized "
      "(paper: ~50% reduction in count and volume)");

  const double scale = bench::bench_scale();
  const auto n = static_cast<std::size_t>(8000.0 * scale);

  {
    const auto base =
        data::GaussianMixture(bench::billion_standin_spec(96, 107))
            .sample(n, 1);
    report("Yandex DEEP 1B stand-in (96-d float32)",
           run(base, bench::L2Fn{}, false), run(base, bench::L2Fn{}, true));
  }
  {
    const auto base =
        data::GaussianMixture(bench::billion_standin_spec(128, 108))
            .sample_u8(n, 1);
    report("BigANN stand-in (128-d uint8)", run(base, bench::L2U8Fn{}, false),
           run(base, bench::L2U8Fn{}, true));
  }

  std::printf(
      "\nNote: BigANN rows carry uint8 features, so its feature bytes are "
      "~4x smaller\nthan DEEP's at equal dimension count — the Figure 4b "
      "asymmetry in the paper.\n");
  return 0;
}
