#!/usr/bin/env bash
# Alternating A/B pairs of the repo benchmark (perfbench) between a git
# revision and the working tree:
#
#   scripts/perf_pairs.sh <rev> <workload>[,<workload>...] <pairs>
#
# e.g. `scripts/perf_pairs.sh HEAD fig12-grid 3` or
# `scripts/perf_pairs.sh HEAD onepass-delta,powerchain-l4 3`. It exports
# <rev> and the working tree (tracked and untracked files, minus ignored
# ones, uncommitted edits included) into two directories whose paths have
# the same length and builds perfbench once in each. Then, for each
# workload of the comma-separated list in turn, it runs the two builds
# alternately <pairs> times (`--trace 0`, the first build alternating too)
# and prints one table: each end-to-end metric's median and quartiles per
# side, how many pairs the working tree won and a verdict. It removes the
# copies at the end, and exits 1 if any run reports a failed operation.
#
# The verdict of a metric, first match wins:
#   gain        the working tree won >= 9/10 of the pairs, and its median is
#               better than the revision's by more than the revision's q1-q3
#               distance (a claimed gain also needs >= 10 pairs);
#   worse       the working tree's median is worse than the revision's by more
#               than the metric's `bound` in BENCHMARK.json (relative);
#   unresolved  the revision's own q1-q3 distance, relative to its median,
#               exceeds that bound, so the runs spread too widely to tell;
#   flat        otherwise.
#
# Equal-length paths matter: the binaries embed their checkout's absolute
# path, and builds of the same source at paths of different length have
# read several percent apart. The copies are plain exports, not
# `git worktree`s: a worktree holds a commit, not uncommitted edits, and it
# registers itself in .git, where an interrupted run would leave it behind.
#
# Each run lasts BENCHMARK.json's `run_seconds` on both sides. Knobs:
# PERF_SEED (default 42), TMPDIR (where the copies go). Needs git, cargo,
# tar and jq. Not a CI stage: ten pairs of one workload take about twenty
# minutes.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <rev> <workload>[,<workload>...] <pairs>" >&2
  exit 2
fi
rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=$3
seed=${PERF_SEED:-42}
case $pairs in
  '' | *[!0-9]* | 0) echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
[ ${#workloads[@]} -gt 0 ] || { echo "no workload given" >&2; exit 2; }
for workload in "${workloads[@]}"; do
  [ -n "$workload" ] || { echo "empty workload in '$2'" >&2; exit 2; }
done
command -v jq >/dev/null || { echo "jq is required" >&2; exit 2; }

repo=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(jq -r .run_seconds "$repo/BENCHMARK.json")
commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# "base" and "head" have the same length, so both trees sit at paths of
# equal length.
mkdir "$tmp/base" "$tmp/head"
git -C "$repo" archive "$commit" | tar -x -C "$tmp/base"
(cd "$repo" && git ls-files -z -co --exclude-standard |
  tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$tmp/head"

for side in base head; do
  echo "==> building perfbench: $side" >&2
  env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
    --manifest-path "$tmp/$side/perfbench/Cargo.toml"
done

# name, "higher"/"lower" and the relative bound of each end-to-end metric.
jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$repo/BENCHMARK.json" >"$tmp/metrics"

failed=0
run_side() { # <side> <pair> (of the current $workload)
  local out="$tmp/$1.$2.out"
  "$tmp/$1/perfbench/target/release/idgnn-perfbench" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$out"
  local last
  last=$(tail -n 1 "$out")
  printf '%s %s pair %d: %s, failed %s/%s %s\n' "$workload" "$1" "$2" \
    "$(grep -m1 '^# reference:' "$out" | sed 's/^# //')" \
    "$(jq -r .failed <<<"$last")" "$(jq -r .attempted <<<"$last")" \
    "$(grep -m1 '^# one-pass vs Recompute' "$out" | sed 's/^# one-pass vs Recompute max-abs/,/')" >&2
  [ "$(jq -r .failed <<<"$last")" = 0 ] || failed=1
  jq -r '.metrics | to_entries[] | "\(.key) \(.value.value)"' <<<"$last" >"$tmp/$1.$2.metrics"
}

# "q1 median q3" of the values on stdin (linear interpolation between ranks).
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}
value() { awk -v m="$2" '$1 == m { print $2 }' "$1"; }
side_values() { for i in $(seq 1 "$pairs"); do value "$tmp/$1.$i.metrics" "$2"; done; }

for workload in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
      run_side "$side" "$i"
    done
  done

  echo "# $workload, seed $seed, ${seconds} s runs, $pairs pair(s): $rev ($commit) vs working tree"
  echo "# each side: median [q1, q3]; won: pairs in which the working tree read better"
  printf '%-16s %34s %34s %9s %6s %-10s\n' metric base head head/base won verdict
  while read -r name better bound; do
    read -r base_q1 base_med base_q3 < <(side_values base "$name" | quartiles)
    read -r head_q1 head_med head_q3 < <(side_values head "$name" | quartiles)
    won=0
    for i in $(seq 1 "$pairs"); do
      b=$(value "$tmp/base.$i.metrics" "$name")
      h=$(value "$tmp/head.$i.metrics" "$name")
      if awk -v b="$b" -v h="$h" -v d="$better" 'BEGIN { exit !(d == "higher" ? h > b : h < b) }'; then
        won=$((won + 1))
      fi
    done
    ratio=$(awk -v b="$base_med" -v h="$head_med" 'BEGIN { if (b == 0) print "-"; else printf "%.3f", h / b }')
    verdict=$(awk -v bq1="$base_q1" -v bm="$base_med" -v bq3="$base_q3" -v hm="$head_med" \
      -v won="$won" -v n="$pairs" -v bound="$bound" -v d="$better" 'BEGIN {
        gain = d == "higher" ? hm - bm : bm - hm  # > 0 when the working tree reads better
        scale = bm < 0 ? -bm : bm
        if (won * 10 >= 9 * n && gain > bq3 - bq1) print "gain"
        else if (scale > 0 && -gain / scale > bound) print "worse"
        else if (scale > 0 && (bq3 - bq1) / scale > bound) print "unresolved"
        else print "flat"
      }')
    printf '%-16s %34s %34s %9s %6s %-10s\n' "$name" "$base_med [$base_q1, $base_q3]" \
      "$head_med [$head_q1, $head_q3]" "$ratio" "$won/$pairs" "$verdict"
  done <"$tmp/metrics"
done
exit "$failed"
