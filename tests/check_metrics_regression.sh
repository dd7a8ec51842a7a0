#!/usr/bin/env bash
# Metrics regression gate: replays the deterministic reference build and
# diffs its metrics.json against the committed baseline at 0% tolerance
# via `dnnd_cli stats --diff` (exit 3 on drift).
#
# The reference run pins every source of nondeterminism:
#   - synthetic fashion-mnist stand-in (seeded generator, fixed n)
#   - sequential phase driver (the Environment default)
#   - DNND_TRACE_SAMPLE_PERIOD=0, so no traced envelope bytes — trace
#     varints encode wall-clock timestamps and would make remote_bytes
#     vary run to run. With tracing off each envelope is the plain
#     one-byte handler id, so handler byte counts are exact: if telemetry
#     ever leaked wire bytes into an untraced message, this gate would
#     fail.
#
# Usage:
#   tests/check_metrics_regression.sh <build-dir>            # gate
#   tests/check_metrics_regression.sh <build-dir> --regen    # refresh
#
# --regen rewrites tests/baselines/metrics.json from the current binary;
# commit the result when an intentional algorithm change shifts counters.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:?usage: tests/check_metrics_regression.sh <build-dir> [--regen]}
regen=${2:-}
cli="$build_dir/examples/dnnd_cli"
baseline="tests/baselines/metrics.json"

if [[ ! -x "$cli" ]]; then
  echo "check_metrics_regression: $cli not built" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

export DNND_TRACE_SAMPLE_PERIOD=0
"$cli" gen fashion-mnist "$work/ds" 400 20 >/dev/null
"$cli" build "$work/ds.base.fvecs" "$work/run" 8 4 >/dev/null

if [[ "$regen" == "--regen" ]]; then
  mkdir -p "$(dirname "$baseline")"
  cp "$work/run.metrics.json" "$baseline"
  echo "check_metrics_regression: baseline rewritten at $baseline"
  exit 0
fi

if [[ ! -f "$baseline" ]]; then
  echo "check_metrics_regression: no baseline at $baseline (run with --regen)" >&2
  exit 1
fi

echo "== metrics regression gate ($build_dir) =="
# Deterministic counters gate at 0%; memory-ledger byte peaks gate at a
# loose 25% (capacities shift with allocator growth policy, not behaviour —
# a subsystem that doubles its footprint still fails).
"$cli" stats --diff "$baseline" "$work/run.metrics.json" \
  --tolerance 0 --mem-tolerance 25

# Smoke the memory report path: must render without erroring in every
# matrix configuration.
echo "== memory report smoke ($build_dir) =="
"$cli" stats "$work/run" --memory --budget-gb 16
