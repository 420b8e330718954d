#!/usr/bin/env bash
# The one command: build offline, pin to one CPU, run.
#
#   benchmark/run.sh                      five untraced + five traced runs,
#                                         benchmark/out/results.json + trace.jsonl
#   benchmark/run.sh --repeat-check       the untraced set twice, then --compare
#   benchmark/run.sh --compare A B        the regression table for two results files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is the result
#                                         object (what BENCHMARK.json's command gets)
# Suite options: --seed N (default 42), --seconds S (default 16), --runs R
# (untraced runs per workload per set, seeds N..N+R-1; default 1, 3 with
# --repeat-check).
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
OUT="$HERE/out"
WORKLOADS=(enum_heavy prep_cold tcp_hot interference fraud_stream)

# The driver sets CARGO_TARGET_DIR relative to the checkout; otherwise share
# the repository's target/ so the build is incremental.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
cargo build --release --offline --quiet \
  --manifest-path "$HERE/Cargo.toml" --target-dir "$TARGET" >&2
BIN="$TARGET/release/pefp-benchmark"

# One CPU for server and generator threads together: cross-core wake-ups on
# this kind of VM cost ~50 us and vary ~30%, which drowns a 17 us request.
# The highest CPU the process may use is the one least likely to take IRQs.
PIN=()
if command -v taskset >/dev/null 2>&1; then
  cpu="$(taskset -cp $$ | sed 's/.*[:,-] *//')"
  PIN=(taskset -c "$cpu")
else
  echo "run.sh: taskset not found, running unpinned" >&2
fi
bench() { "${PIN[@]}" "$BIN" "$@"; }

mode=suite seed=42 seconds=16 runs=
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --compare) shift; exec "$BIN" --compare "$@" ;;
    --repeat-check) mode=repeat; shift ;;
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; pass+=("$1" "$2"); shift 2 ;;
    --seconds) seconds="$2"; pass+=("$1" "$2"); shift 2 ;;
    --workload) mode=single; pass+=("$1" "$2"); shift 2 ;;
    *) pass+=("$1"); shift ;;
  esac
done

if [ "$mode" = single ]; then
  bench "${pass[@]}" --out "$OUT"
  exit
fi

# Joins the per-run documents in $1/*.json into {"runs":[...]} at $2.
collect() {
  { printf '{"runs":[\n'; cat "$1"/*.json | paste -sd, -; printf ']}\n'; } >"$2"
}

# Runs every workload untraced, ${runs} times with consecutive seeds, into $1.
untraced_set() {
  mkdir -p "$1"
  for w in "${WORKLOADS[@]}"; do
    for ((r = 0; r < runs; r++)); do
      bench --workload "$w" --seed $((seed + r)) --seconds "$seconds" --trace 0 --out "$OUT/tmp"
      mv "$OUT/tmp/$w.untraced.json" "$1/$w.$r.json"
    done
  done
}

rm -rf "$OUT"
mkdir -p "$OUT"
if [ "$mode" = repeat ]; then
  runs="${runs:-3}"
  untraced_set "$OUT/a"
  untraced_set "$OUT/b"
  collect "$OUT/a" "$OUT/results.a.json"
  collect "$OUT/b" "$OUT/results.b.json"
  exec "$BIN" --compare "$OUT/results.a.json" "$OUT/results.b.json"
fi

runs="${runs:-1}"
untraced_set "$OUT/runs"
for w in "${WORKLOADS[@]}"; do
  bench --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 --out "$OUT/tmp"
  mv "$OUT/tmp/$w.traced.json" "$OUT/runs/$w.traced.json"
  cat "$OUT/tmp/$w.trace.jsonl" >>"$OUT/trace.jsonl"
done
collect "$OUT/runs" "$OUT/results.json"
rm -rf "$OUT/tmp"
echo "wrote $OUT/results.json and $OUT/trace.jsonl"
