// Microbenchmarks (google-benchmark) for the hot kernels under the
// experiment harness: distance metrics, neighbor-list updates, message
// serialization, the comm layer round trip, and pmem allocation.
//
// These are not paper experiments; they exist so regressions in the
// substrate are visible independently of the end-to-end benches.
//
// After the google-benchmark suite, main() runs the distance-kernel sweep
// (metric × element type × dim × batch × dispatch) and writes the rows —
// evals/s, effective GB/s, and SIMD speedup over the pinned scalar
// reference — to BENCH_micro.json (schema dnnd.bench.v1, see
// bench/common.hpp). The committed snapshot of that file is the measured
// evidence for the kernel-layer speedup claims in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "comm/environment.hpp"
#include "common.hpp"
#include "core/distance.hpp"
#include "core/distance_kernels.hpp"
#include "core/feature_store.hpp"
#include "core/neighbor_list.hpp"
#include "pmem/allocator.hpp"
#include "pmem/arena.hpp"
#include "serial/archive.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace dnnd;  // NOLINT

std::vector<float> random_vector(std::size_t dim, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.uniform_float(-1, 1);
  return v;
}

void BM_SquaredL2(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(dim, 1), b = random_vector(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::squared_l2(std::span<const float>(a), std::span<const float>(b)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_SquaredL2)->Arg(25)->Arg(96)->Arg(128)->Arg(784);

void BM_Cosine(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(dim, 1), b = random_vector(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::cosine(std::span<const float>(a), std::span<const float>(b)));
  }
}
BENCHMARK(BM_Cosine)->Arg(25)->Arg(96)->Arg(256);

void BM_JaccardSorted(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(3);
  std::vector<std::uint32_t> a, b;
  for (std::uint32_t i = 0; a.size() < size; ++i) {
    if (rng.bernoulli(0.5)) a.push_back(i);
  }
  for (std::uint32_t i = 0; b.size() < size; ++i) {
    if (rng.bernoulli(0.5)) b.push_back(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::jaccard_sorted(
        std::span<const std::uint32_t>(a), std::span<const std::uint32_t>(b)));
  }
}
BENCHMARK(BM_JaccardSorted)->Arg(16)->Arg(64)->Arg(256);

void BM_NeighborListUpdate(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(4);
  core::NeighborList list(k);
  std::uint64_t inserted = 0;
  for (auto _ : state) {
    inserted += static_cast<std::uint64_t>(
        list.update(static_cast<core::VertexId>(rng.uniform_below(100000)),
                    static_cast<core::Dist>(rng.uniform_double()), true));
  }
  benchmark::DoNotOptimize(inserted);
}
BENCHMARK(BM_NeighborListUpdate)->Arg(10)->Arg(30)->Arg(100);

void BM_SerializeFeatureMessage(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto feature = random_vector(dim, 5);
  for (auto _ : state) {
    serial::OutArchive out;
    out.write(core::VertexId{1});
    out.write(core::VertexId{2});
    out.write(core::Dist{3.5f});
    out.write_vector(feature);
    benchmark::DoNotOptimize(out.bytes().data());
  }
}
BENCHMARK(BM_SerializeFeatureMessage)->Arg(96)->Arg(128);

void BM_CommRoundTrip(benchmark::State& state) {
  // One barrier-delimited all-to-all of small messages across 4 ranks.
  const int ranks = 4;
  comm::Environment env(comm::Config{.num_ranks = ranks});
  std::vector<comm::HandlerId> h(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "noop", [](int, serial::InArchive& ar) { ar.read<std::uint32_t>(); });
  }
  for (auto _ : state) {
    env.execute_phase([&](int rank) {
      for (int dest = 0; dest < ranks; ++dest) {
        for (int i = 0; i < 16; ++i) {
          env.comm(rank).async(dest, h[static_cast<std::size_t>(rank)],
                               std::uint32_t{7});
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ranks * ranks * 16);
}
BENCHMARK(BM_CommRoundTrip);

void BM_CommRoundTripTraced(benchmark::State& state) {
  // Same all-to-all with causal tracing at the given root sample period
  // (0 = untraced fast path). Comparing period 0 here against
  // BM_CommRoundTrip bounds the envelope/dispatch overhead of the tracing
  // machinery.
  const int ranks = 4;
  comm::Config cfg;
  cfg.num_ranks = ranks;
  cfg.trace_sample_period = static_cast<std::uint64_t>(state.range(0));
  comm::Environment env(cfg);
  std::vector<comm::HandlerId> h(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    h[static_cast<std::size_t>(r)] = env.comm(r).register_handler(
        "noop", [](int, serial::InArchive& ar) { ar.read<std::uint32_t>(); });
  }
  for (auto _ : state) {
    env.execute_phase([&](int rank) {
      for (int dest = 0; dest < ranks; ++dest) {
        for (int i = 0; i < 16; ++i) {
          env.comm(rank).async(dest, h[static_cast<std::size_t>(rank)],
                               std::uint32_t{7});
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ranks * ranks * 16);
}
BENCHMARK(BM_CommRoundTripTraced)->Arg(0)->Arg(64)->Arg(1);

void BM_ArenaAllocateFree(benchmark::State& state) {
  std::vector<unsigned char> buffer(16 << 20);
  auto* header = reinterpret_cast<pmem::ArenaHeader*>(buffer.data());
  pmem::arena_format(header, buffer.size());
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = pmem::arena_allocate(header, bytes);
    benchmark::DoNotOptimize(p);
    pmem::arena_deallocate(header, p, bytes);
  }
}
BENCHMARK(BM_ArenaAllocateFree)->Arg(32)->Arg(512)->Arg(8192);

// ---- distance-kernel sweep (BENCH_micro.json) --------------------------

template <typename T>
struct KernelCase {
  const char* metric;
  void (*batch)(const T*, const T* const*, std::size_t, std::size_t,
                core::Dist*);
};

template <typename T>
const KernelCase<T> kKernelCases[] = {
    {"squared_l2", &core::k_batch_squared_l2<T>},
    {"cosine", &core::k_batch_cosine<T>},
    {"inner_product", &core::k_batch_inner_product<T>},
};

/// Evals/s for one (metric, dim, batch, dispatch) cell: repeated batched
/// sweeps over a 1024-row padded block store, timed after a warmup pass.
template <typename T>
double measure_evals_per_sec(const KernelCase<T>& kc,
                             const core::DenseBlockStore<T>& store,
                             const std::vector<T>& query, std::size_t batch) {
  const std::size_t n = store.size();
  std::vector<const T*> ptrs(n);
  for (std::size_t i = 0; i < n; ++i) ptrs[i] = store.row_ptr(i);
  std::vector<core::Dist> out(batch);
  const std::size_t dim = store.dim();

  auto sweep = [&]() {
    for (std::size_t base = 0; base + batch <= n; base += batch) {
      kc.batch(query.data(), ptrs.data() + base, batch, dim, out.data());
      benchmark::DoNotOptimize(out.data());
    }
    return n / batch * batch;  // evals per sweep
  };
  (void)sweep();  // warmup: faults pages, resolves dispatch

  std::uint64_t evals = 0;
  util::Timer timer;
  double elapsed = 0;
  do {
    evals += sweep();
    elapsed = timer.elapsed_s();
  } while (elapsed < 0.2);
  return static_cast<double>(evals) / elapsed;
}

template <typename T>
void kernel_sweep_rows(bench::BenchReport& report) {
  const char* type_name = std::is_same_v<T, float> ? "f32" : "u8";
  util::Xoshiro256 rng(0xBE7C);
  for (const std::size_t dim : {64UL, 128UL, 768UL}) {
    core::DenseBlockStore<T> store;
    store.reserve(1024);
    std::vector<T> feature(dim);
    for (std::size_t i = 0; i < 1024; ++i) {
      for (auto& x : feature) {
        if constexpr (std::is_same_v<T, float>) {
          x = rng.uniform_float(-1, 1);
        } else {
          x = static_cast<T>(rng.uniform_below(256));
        }
      }
      store.add(static_cast<core::VertexId>(i), feature);
    }
    std::vector<T> query(store.row(0).begin(), store.row(0).end());

    for (const std::size_t batch : {1UL, 8UL, 64UL}) {
      for (const auto& kc : kKernelCases<T>) {
        // Candidate row + query stream per evaluation.
        const double bytes_per_eval = 2.0 * static_cast<double>(dim) *
                                      static_cast<double>(sizeof(T));
        double scalar_rate = 0;
        for (const bool simd : {false, true}) {
          if (simd && !(core::simd_kernels_compiled() &&
                        core::simd_runtime_supported())) {
            continue;
          }
          core::ScopedKernelDispatch d(
              simd ? core::KernelDispatch::kForceSimd
                   : core::KernelDispatch::kForceScalar);
          const double rate = measure_evals_per_sec(kc, store, query, batch);
          if (!simd) scalar_rate = rate;
          const char* dispatch = simd ? "simd" : "scalar";
          auto& row = report.add_row(std::string("kernel/") + kc.metric + "/" +
                                     type_name + "/dim" +
                                     std::to_string(dim) + "/batch" +
                                     std::to_string(batch) + "/" + dispatch);
          row.params["metric"] = kc.metric;
          row.params["type"] = type_name;
          row.params["dim"] = std::to_string(dim);
          row.params["batch"] = std::to_string(batch);
          row.params["dispatch"] = dispatch;
          row.metrics["evals_per_sec"] = rate;
          row.metrics["gbps"] = rate * bytes_per_eval / 1e9;
          if (simd && scalar_rate > 0) {
            row.metrics["speedup_vs_scalar"] = rate / scalar_rate;
          }
          std::printf(
              "kernel %-13s %-3s dim %4zu batch %3zu %-6s  %10.3e evals/s  "
              "%7.2f GB/s%s\n",
              kc.metric, type_name, dim, batch, dispatch, rate,
              rate * bytes_per_eval / 1e9,
              simd && scalar_rate > 0
                  ? ("  (" + std::to_string(rate / scalar_rate) + "x)").c_str()
                  : "");
        }
      }
    }
  }
}

void run_kernel_sweep() {
  bench::print_header(
      "distance-kernel sweep: blocked scalar reference vs AVX2 dispatch "
      "(bit-identical values; see core/distance_kernels.hpp)");
  std::printf("simd compiled: %s   simd runtime: %s\n",
              core::simd_kernels_compiled() ? "yes" : "no",
              core::simd_runtime_supported() ? "yes" : "no");
  bench::BenchReport report("bench_micro");
  kernel_sweep_rows<float>(report);
  kernel_sweep_rows<std::uint8_t>(report);
  report.write("BENCH_micro.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_kernel_sweep();
  return 0;
}
