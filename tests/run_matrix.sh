#!/usr/bin/env bash
# Build-matrix driver: configures and builds the repo in every supported
# configuration and runs the tier-1, recovery, concurrency and
# serving-chaos suites plus the metrics gate in each. Today's matrix:
#
#   default        the normal build, with warnings as errors
#                  (DNND_WERROR=ON: the tree builds with zero warnings
#                  under -Wall -Wextra, and this leg keeps it so). After
#                  its metrics gate this leg also builds the benchmark's
#                  own project, bench/suite (which compiles against the
#                  library's public API), into build-matrix-suite and
#                  runs its smoke tests, so removing an API the
#                  benchmark calls fails here
#   simd-off       DNND_SIMD=OFF (the AVX2 distance-kernel TU is not even
#                  compiled; the blocked scalar reference carries every
#                  build. The kernel determinism contract says this flavour
#                  produces bit-identical graphs AND identical metrics
#                  counters, so the same committed metrics baseline must
#                  gate it unchanged)
#   tsan           DNND_SANITIZE=thread, run with DNND_THREADS_PER_RANK=4:
#                  every auto-threaded pool (NN-Descent vertex-block
#                  stages, engine phases, query handlers) runs under
#                  ThreadSanitizer with real workers.
#                  The thread-count determinism contract says this leg's
#                  graphs and counters are bit-identical to serial runs,
#                  so the SAME committed metrics baseline gates it
#                  unchanged — with 4 threads on.
#   asan           DNND_SANITIZE=address (AddressSanitizer + UBSan): the
#                  mmap'd datastore paths (arena, sealed checkpoint
#                  generations, reopen) and every test run under memory
#                  and undefined-behaviour checking. UBSan is built with
#                  -fno-sanitize-recover, so a report aborts its test.
#
# Usage:
#   tests/run_matrix.sh            # whole matrix
#   tests/run_matrix.sh default    # one named configuration
#
# Each configuration builds into its own directory (build-matrix-<name>)
# so switching configurations never poisons an incremental build.
set -euo pipefail

cd "$(dirname "$0")/.."

declare -A configs=(
  [default]="-DDNND_WERROR=ON"
  [simd-off]="-DDNND_SIMD=OFF"
  [tsan]="-DDNND_SANITIZE=thread"
  [asan]="-DDNND_SANITIZE=address"
)

# Per-configuration run environment (prepended to every test/gate command).
# The tsan leg forces a 4-worker pool into every threads_per_rank=0 (auto)
# component so TSan watches real cross-thread traffic; determinism means
# nothing else about the run may change.
declare -A run_env=(
  [tsan]="DNND_THREADS_PER_RANK=4"
)

selected=("${!configs[@]}")
if [[ $# -gt 0 ]]; then
  for name in "$@"; do
    if [[ ! -v configs[$name] ]]; then
      echo "unknown configuration '$name' (have: ${!configs[*]})" >&2
      exit 2
    fi
  done
  selected=("$@")
fi

for name in "${selected[@]}"; do
  build_dir="build-matrix-${name}"
  echo "==== configuration ${name} (${configs[$name]}) ===="
  # shellcheck disable=SC2086 — the flags string is intentionally split
  cmake -B "$build_dir" -S . ${configs[$name]}
  # Bounded: an unbounded -j runs one compiler per target at once, which
  # under ASan instrumentation needs tens of GB.
  cmake --build "$build_dir" -j "$(nproc)"
  # Three labelled suites must exist in every configuration, besides
  # tier1:
  #   recovery       kill-and-resume through checkpoints
  #   concurrency    thread parity matrix and the memory ledger's
  #                  multi-thread hammer — the TSan leg's main payload
  #   serving-chaos  replicated serving failover: detection, replica
  #                  routing and degraded-mode coverage, driven by the
  #                  TSan leg's 4-thread run environment
  # One ctest invocation runs all four suites. Each non-tier1 label is
  # first checked to select at least one test, so a label typo fails the
  # leg before anything runs (ctest ignores --no-tests=error under -N, so
  # the guard counts the listing instead).
  for label in recovery concurrency serving-chaos; do
    listed=$(cd "$build_dir" && ctest -N -L "$label" |
             sed -n 's/^Total Tests: //p')
    if [[ "${listed:-0}" -eq 0 ]]; then
      echo "configuration ${name}: no tests labelled '${label}'" >&2
      exit 1
    fi
  done
  # shellcheck disable=SC2086 — the env string is intentionally split
  (cd "$build_dir" &&
   env ${run_env[$name]:-} \
     ctest -L 'tier1|recovery|concurrency|serving-chaos' --no-tests=error \
       --output-on-failure -j "$(nproc)")
  # Metrics regression gate in every configuration: the baseline is
  # recorded with tracing disabled, so handler byte counters must match
  # exactly — a mismatch means an untraced envelope grew. The tsan leg
  # runs the gate with DNND_THREADS_PER_RANK=4: threading may not move a
  # single counter.
  # shellcheck disable=SC2086
  env ${run_env[$name]:-} tests/check_metrics_regression.sh "$build_dir"
  if [[ "$name" == default ]]; then
    cmake -S bench/suite -B build-matrix-suite
    cmake --build build-matrix-suite -j "$(nproc)"
    ctest --test-dir build-matrix-suite --output-on-failure
  fi
done

echo "==== matrix passed: ${selected[*]} ===="
