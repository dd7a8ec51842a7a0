// dnnd_suite — the repository's benchmark binary (bench/suite/README.md).
//
//   dnnd_suite --workload <name> --seed <S> [--seconds N] [--trace <dir>]
//              [--tmp <dir>] [--smoke]
//
// Workloads: build-deep, build-kosarak, query-serve, query-local. Prints a
// human-readable table, then one JSON line with every metric as
// {value, unit} plus ops / ops_failed / correct. Exits 1 when any output
// check failed, 2 on a usage error. The seed selects the base-data and
// query draws only; the program's own seeds keep their defaults.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace dnnd::suite;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload build-deep|build-kosarak|query-serve|"
               "query-local --seed S\n"
               "          [--seconds N] [--trace DIR] [--tmp DIR] [--smoke]\n",
               argv0);
  return 2;
}

/// Runs the workload inside a per-process scratch directory, removed on
/// every exit path. The workload names its files relative to it: the
/// program keeps those names in memory, and glibc's heap layout, hence
/// peak RSS, shifted by up to 25% with the length of an absolute path
/// (which differs between checkouts and pids).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent)
      : home_(std::filesystem::current_path()),
        path_(std::filesystem::absolute(parent) /
              ("dnnd_suite." + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
    std::filesystem::current_path(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::current_path(home_, ignored);
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::filesystem::path home_;
  std::filesystem::path path_;
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace_dir = argv[++i];
    } else if (arg == "--tmp" && has_value) {
      options.tmp_dir = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  using Run = void (*)(const Options&, const std::string&, Report&, Tracer&);
  Run run = nullptr;
  if (options.workload == "build-deep") run = run_build_deep;
  if (options.workload == "build-kosarak") run = run_build_kosarak;
  if (options.workload == "query-serve") run = run_query_serve;
  if (options.workload == "query-local") run = run_query_local;
  if (run == nullptr || !(options.seconds > 0)) return usage(argv[0]);
  if (options.traced()) {
    options.trace_dir = std::filesystem::absolute(options.trace_dir).string();
  }

  Report report;
  Tracer tracer;
  try {
    const ScratchDir scratch(options.tmp_dir);
    run(options, ".", report, tracer);
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  report.print(stdout, options);
  return report.correct() ? 0 : 1;
}
