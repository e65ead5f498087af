#!/usr/bin/env bash
# Paired runs of the repository benchmark for two revisions.
#
#   scripts/pairs.sh BASE CHANGE WORKLOAD SEED...
#
# Builds BASE and CHANGE (any git revision names) each in its own git
# worktree under target/pairs/, so the main checkout and its
# benchmark/Cargo.lock are never built. Then, for each SEED, runs the
# BENCHMARK.json command for WORKLOAD once on each side (--seconds set to
# run_seconds, --trace 0), alternating which side goes first, and appends
# each run's last stdout line to target/pairs/WORKLOAD-BASE-CHANGE.jsonl
# (short revision ids), wrapped with its side, revision, seed and order:
#
#   {"side": "base", "rev": "<sha>", "workload": "W", "seed": 1,
#    "first": true, "result": <the run's last line>}
#
# Judge the file with
#   cargo run --release -p banyan-bench --bin bench_diff -- FILE
# which refuses a second run of one seed and side: remove FILE before
# re-running seeds it already holds.
# Re-running reuses the worktrees and their builds; remove them with
#   git worktree remove target/pairs/<sha>
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 4 ]; then
    echo "usage: scripts/pairs.sh BASE CHANGE WORKLOAD SEED..." >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
workload=$3
shift 3

root=$PWD/target/pairs
out=$root/$workload-${base:0:7}-${change:0:7}.jsonl
mkdir -p "$root"

# The benchmark command and run length, one word per line.
mapfile -t cmd < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print("\n".join(b["command"]))
print(b["run_seconds"])')
seconds=${cmd[-1]}
unset 'cmd[-1]'

# Each worktree builds into its own target directory.
unset CARGO_TARGET_DIR

# One worktree per revision, built once with the command's own flags.
for rev in "$base" "$change"; do
    wt=$root/$rev
    if [ ! -d "$wt" ]; then
        git worktree add --detach "$wt" "$rev" >&2
    fi
    echo "== building $rev ==" >&2
    (cd "$wt" && cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml)
    # The build may rewrite the frozen lock file; keep the tree clean.
    git -C "$wt" checkout --quiet -- benchmark/Cargo.lock
done

# Runs one side for one seed and appends its wrapped result line.
run_side() {
    local side=$1 rev=$2 seed=$3 first=$4 last
    echo "== $workload seed $seed: $side ($rev) ==" >&2
    last=$(cd "$root/$rev" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    git -C "$root/$rev" checkout --quiet -- benchmark/Cargo.lock
    printf '{"side": "%s", "rev": "%s", "workload": "%s", "seed": %s, "first": %s, "result": %s}\n' \
        "$side" "$rev" "$workload" "$seed" "$first" "$last" >> "$out"
}

i=0
for seed in "$@"; do
    if [ $((i % 2)) -eq 0 ]; then
        run_side base "$base" "$seed" true
        run_side change "$change" "$seed" false
    else
        run_side change "$change" "$seed" true
        run_side base "$base" "$seed" false
    fi
    i=$((i + 1))
done
echo "appended $((2 * i)) runs to $out" >&2
