#!/usr/bin/env sh
# Runs the checked-in benchmark suites with JSON output and writes the
# results at the repo root:
#   BENCH_closure.json     bench_closure (rule-engine closure fixpoint).
#   BENCH_query.json       bench_join_order + bench_probing +
#                          bench_composition (query planner, merge-join
#                          ablation, probing waves, composition walks),
#                          combined into one object keyed by suite name.
#   BENCH_server.json      bench_server (serving-layer throughput and
#                          latency percentiles from 1 to 4096+ sessions
#                          in both the text and the pipelined binary
#                          protocol).
#   BENCH_recovery.json    bench_recovery (cold Recover() time vs
#                          WAL size, with and without checkpoints).
#   BENCH_wal.json         bench_server write mix (group commit: acked
#                          writes/sec at fsync-on as concurrent writer
#                          sessions scale, with group-size stats).
#   BENCH_replication.json bench_replication (follower catch-up-from-
#                          cold and aggregate follower reads/sec at 1/2/4
#                          followers under an fsync-on primary write
#                          load, with worst observed staleness).
#   BENCH_compaction.json  bench_compaction (E16 churn sweep: mixed
#                          read/write throughput and latency with and
#                          without background compaction as the churned
#                          overlay grows).
#
# Numbers checked into the tree must come from an optimized build, so
# this script configures and builds its own Release tree (default
# ./build-release) before running anything, and refuses to write JSON
# whose context does not say "library_build_type": "release" — the
# shared bench_main.cc stamps that field from the tree's own NDEBUG, so
# a Debug binary cannot sneak numbers past this gate.
#
# Usage: tools/bench_json.sh [release-build-dir] [benchmark-filter]
#   release-build-dir  defaults to ./build-release
#   benchmark-filter   defaults to all benchmarks in each suite
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-release"}
filter=${2:-}

echo "configuring Release tree at $build_dir"
cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
  > /dev/null
cmake --build "$build_dir" -j "$(nproc)" --target \
  bench_closure bench_join_order bench_probing bench_composition \
  bench_server \
  bench_recovery bench_replication bench_compaction > /dev/null

require() {
  if [ ! -x "$1" ]; then
    echo "error: $1 not found or not executable." >&2
    exit 1
  fi
}

check_release() {
  # check_release <json-file>: refuse non-Release numbers.
  if ! grep -q '"library_build_type": "release"' "$1"; then
    echo "error: $1 was produced by a non-release build;" \
         "refusing to publish its numbers." >&2
    exit 1
  fi
}

run_bench() {
  # run_bench <binary> <output-file>
  if [ -n "$filter" ]; then
    "$1" --benchmark_format=json --benchmark_filter="$filter" > "$2"
  else
    "$1" --benchmark_format=json > "$2"
  fi
  check_release "$2"
}

closure="$build_dir/bench/bench_closure"
join_order="$build_dir/bench/bench_join_order"
probing="$build_dir/bench/bench_probing"
composition="$build_dir/bench/bench_composition"
require "$closure"
require "$join_order"
require "$probing"
require "$composition"

out="$repo_root/BENCH_closure.json"
run_bench "$closure" "$out"
echo "wrote $out"

tmp_join=$(mktemp)
tmp_probe=$(mktemp)
tmp_compose=$(mktemp)
trap 'rm -f "$tmp_join" "$tmp_probe" "$tmp_compose"' EXIT
run_bench "$join_order" "$tmp_join"
run_bench "$probing" "$tmp_probe"
run_bench "$composition" "$tmp_compose"

out="$repo_root/BENCH_query.json"
# The host the numbers come from, as the machine reports it.
host="$(nproc) CPUs, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)"
{
  printf '{"comment": "Release bench_join_order + bench_probing + bench_composition runs (E11 conjunct-ordering + merge-join ablation, E4 probing waves, lattice build and commit warm, E3 composition walks) for the current tree on %s; regenerate with tools/bench_json.sh",\n' "$host"
  printf '"bench_join_order":'
  cat "$tmp_join"
  printf ',"bench_probing":'
  cat "$tmp_probe"
  printf ',"bench_composition":'
  cat "$tmp_compose"
  printf '}\n'
} > "$out"
echo "wrote $out"

# BENCH_server.json: the serving-layer load generator (throughput and
# p50/p99 latency as concurrent sessions scale), swept in both wire
# protocols: text (synchronous) and binary (pipelined, 16-deep window).
# Session counts past the process fd budget — e.g. 10000 under a modest
# RLIMIT_NOFILE — are skipped with a note, not failed. Not a
# google-benchmark suite, so it writes its JSON directly; it is built
# by the same Release tree, which is the gate that matters.
server_bench="$build_dir/bench/bench_server"
require "$server_bench"
out="$repo_root/BENCH_server.json"
tmp_browse=$(mktemp)
tmp_hostile=$(mktemp)
trap 'rm -f "$tmp_join" "$tmp_probe" "$tmp_compose" "$tmp_browse" "$tmp_hostile"' EXIT
"$server_bench" --sessions 1,4,16,64,256,1024,4096,10000 --requests 100 \
  --protocols text,binary --window 16 --json "$tmp_browse"
# Hostile governance sweep: a slice of each session's requests is a
# poison query the request deadline kills with a typed error. The
# `cancelled` column counts those kills and p50/p99/p999 cover only the
# surviving cheap requests, so the section shows what hostile load does
# to well-behaved sessions. Merged under "hostile" so the top-level keys
# (the no-hostile browsing sweep) stay comparable across revisions.
"$server_bench" --sessions 4,16,64 --requests 100 \
  --protocols text,binary --window 16 --hostile-pct 12 \
  --json "$tmp_hostile" --check
{
  sed '$d' "$tmp_browse"
  printf ',\n  "hostile":\n'
  cat "$tmp_hostile"
  printf '}\n'
} > "$out"
echo "wrote $out"

# BENCH_wal.json: the group-commit write sweep. Every request is a
# unique assert against a durable store (one real fsync per commit
# group), preloaded with 8000 facts. The interesting ratio is
# writes_per_sec at N sessions over the sessions=1 row — group commit
# amortizes the per-group WAL fsync across every writer in the group.
# Merged under "preload_sweep": one writer against stores preloaded
# with 8k, 100k and 1M facts. A commit shares the tip's storage instead
# of copying it, so its p50 (wp50_us) should stay flat as the store
# grows.
out="$repo_root/BENCH_wal.json"
tmp_wal=$(mktemp)
tmp_preload=$(mktemp)
trap 'rm -f "$tmp_join" "$tmp_probe" "$tmp_compose" "$tmp_browse" "$tmp_hostile" "$tmp_wal" "$tmp_preload"' EXIT
"$server_bench" --sessions 1,4,16,64 --requests 100 --protocols binary \
  --window 4 --write-pct 100 --sync fsync --json "$tmp_wal"
{
  sed '$d' "$tmp_wal"
  printf ',\n  "preload_sweep": [\n'
  sep=""
  for preload in 8000 100000 1000000; do
    "$server_bench" --sessions 1 --requests 100 --protocols binary \
      --window 4 --write-pct 100 --sync fsync --preload "$preload" \
      --json "$tmp_preload" > /dev/null
    printf '%s' "$sep"
    cat "$tmp_preload"
    sep=","
  done
  printf '  ]\n}\n'
} > "$out"
echo "wrote $out"

# BENCH_recovery.json: recovery time vs log size, checkpoints off/on.
# Also not google-benchmark (each point is one cold Open()).
recovery_bench="$build_dir/bench/bench_recovery"
require "$recovery_bench"
out="$repo_root/BENCH_recovery.json"
"$recovery_bench" --json "$out"
echo "wrote $out"

# BENCH_replication.json: follower catch-up-from-cold plus read fan-out
# at 1/2/4 followers under a continuous fsync-on write load on the
# primary. Aggregate follower reads/sec should scale with follower
# count (the replicas share nothing); max_lag_* is the worst staleness
# any reader observed. Also direct JSON (wall-clock convergence, not
# iteration throughput).
repl_bench="$build_dir/bench/bench_replication"
require "$repl_bench"
out="$repo_root/BENCH_replication.json"
"$repl_bench" --followers 1,2,4 --json "$out"
echo "wrote $out"

# BENCH_compaction.json: the E16 churn sweep. Reader threads browse the
# churned relation on pinned snapshots while writer threads keep
# committing sub-threshold batches; each shape is measured with the
# background compactor off (the overlay-accumulating configuration) and
# on. The interesting ratio is ops_per_sec on/off at the largest shape;
# read_max_ms in the "on" rows shows merges never stall pinned readers.
# Direct JSON again, stamped with the tree's own build type.
compaction_bench="$build_dir/bench/bench_compaction"
require "$compaction_bench"
out="$repo_root/BENCH_compaction.json"
"$compaction_bench" --json "$out"
check_release "$out"
echo "wrote $out"
