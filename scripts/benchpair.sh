#!/usr/bin/env bash
# Paired comparison of the repository benchmark between a parent commit
# and a change, the protocol of benchmark/README.md ("Comparing a change
# with its parent"): both sides are exported under a temporary
# directory and built there by benchmark/run.sh, every pair runs both
# sides on the same seed, and even pairs run the change first so that a
# slow spell of the host hits both. For each workload it then prints
# per-metric medians, the parent's quartile distance, wins of N and a
# verdict against the bounds in BENCHMARK.json (scripts/benchpair), and
# exits non-zero if any metric is worse than its bound.
#
#   scripts/benchpair.sh <parent-ref> <workload>...
#
# Every run lasts the run_seconds of BENCHMARK.json and there are ten
# pairs per workload: what the driver does, and the fewest that support
# a claim. Set CHANGE=worktree to compare the working tree (untracked,
# unignored files included) instead of HEAD, or CHANGE=<ref>.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
  exit 2
fi
parent="$1"
shift
CHANGE="${CHANGE:-HEAD}"
pairs=10
secs="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

git archive --prefix=parent/ "$parent" | tar -x -C "$tmp"
if [ "$CHANGE" = worktree ]; then
  mkdir "$tmp/change"
  git ls-files -co --exclude-standard -z |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -c | tar -x -C "$tmp/change"
else
  git archive --prefix=change/ "$CHANGE" | tar -x -C "$tmp"
fi

status=0
for w in "$@"; do
  : > "$tmp/parent.$w.jsonl"
  : > "$tmp/change.$w.jsonl"
  for i in $(seq 1 "$pairs"); do
    order="parent change"
    if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
    for side in $order; do
      echo "== $w pair $i/$pairs: $side" >&2
      (cd "$tmp/$side" && bash benchmark/run.sh --workload "$w" --seed "$i" --seconds "$secs" --trace 0 | tail -1) >> "$tmp/$side.$w.jsonl"
    done
  done
  go run ./scripts/benchpair BENCHMARK.json "$w" "$tmp/parent.$w.jsonl" "$tmp/change.$w.jsonl" || status=1
done
exit $status
