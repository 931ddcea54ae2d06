#!/bin/sh
# Telemetry determinism smoke: runs each bench binary twice with the same
# seed and asserts (via tools/bench_diff at tolerance 0) that the BENCH and
# TELEM exports are identical — the byte-identical-per-seed guarantee every
# exporter in this repo makes.
#
# Usage:
#   tools/telemetry_smoke.sh [bench_binary...]
#
#   bench_binary  path(s) (relative to the build dir) of the benches to run.
#                 Default: bench/bench_flashcrowd (the timeline that
#                 resolves the steady/reclaim/storm phases) and
#                 bench/bench_smallops (the ring-depth sweep over the
#                 one read path).
#
# Exit status: 0 = all runs identical, 1 = drift found, 2 = setup failure.
set -eu

if [ "$#" -gt 0 ]; then
  benches="$*"
else
  benches="bench/bench_flashcrowd bench/bench_smallops"
fi

cd "$(dirname "$0")/.."
cmake --preset default >/dev/null
# shellcheck disable=SC2046  # word-splitting the target list is the point
cmake --build --preset default -j"$(nproc)" --target \
  $(for b in $benches; do basename "$b"; done) bench_diff >/dev/null

status=0
for bench in $benches; do
  name="$(basename "$bench" | sed 's/^bench_//')"
  out="$(mktemp -d)"
  mkdir -p "$out/a" "$out/b"

  DODO_BENCH_JSON_DIR="$out/a" "build/$bench" \
    --benchmark_min_time=0.01 >/dev/null 2>&1
  DODO_BENCH_JSON_DIR="$out/b" "build/$bench" \
    --benchmark_min_time=0.01 >/dev/null 2>&1

  for kind in BENCH TELEM; do
    a="$out/a/${kind}_${name}.json"
    b="$out/b/${kind}_${name}.json"
    if [ ! -f "$a" ] || [ ! -f "$b" ]; then
      echo "telemetry_smoke: missing ${kind}_${name}.json" >&2
      rm -rf "$out"
      exit 2
    fi
    if build/tools/bench_diff "$a" "$b" --tol 0; then
      echo "telemetry_smoke: ${kind}_${name}.json deterministic"
    else
      status=1
    fi
  done
  # The TSV rendering must match byte for byte as well.
  if ! cmp -s "$out/a/TELEM_${name}.tsv" "$out/b/TELEM_${name}.tsv"; then
    echo "telemetry_smoke: TELEM_${name}.tsv differs between runs" >&2
    status=1
  fi
  rm -rf "$out"
done
exit "$status"
