#!/bin/sh
# Byte-compare what `repex` writes at a parent revision and in this tree.
#
#   scripts/same-outputs.sh <parent-rev>
#
# Builds <parent-rev> from a `git archive` copy in a temporary directory and
# this tree in `target/`, both `--release --offline`, then runs each binary
# in a fresh directory per config on the five example configs and on two
# failure storms (`storm-sync` is tremd.json, `storm-async` async.json, each
# with a failure-storm scenario and `relaunch` up to 5 retries):
#
#   repex run C --json full.json --metrics-stream full.jsonl --trace full-trace.json --checkpoint ck-full
#   repex run C --json part.json --metrics-stream part.jsonl --checkpoint ck-part --stop-after 1
#     (ck-part/checkpoint.json kept as ck-after1.json)
#   repex run --resume ck-part --json resumed.json --metrics-stream part.jsonl
#     (ck-part's checkpoint kept as ck-resumed-final.json, ck-full's as ck-final.json)
#   repex plan C --json plan.json
#   repex analyze full-trace.json --json analyze.json
#
# and `cmp`s every file, the commands' standard output (`*.txt`) and their
# exit statuses (`exits`). Prints one row per config ("=" identical, "X"
# different, "-" written by neither) and exits 1 when any file differs.
# Runs offline, in about two minutes on two cores; the builds are most of it.
set -eu
[ "$#" -eq 1 ] || { echo "usage: scripts/same-outputs.sh <parent-rev>" >&2; exit 2; }
cd "$(dirname "$0")/.."
rev=$(git rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/same-outputs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/configs"
git archive "$rev" | tar -x -C "$tmp/parent"
echo "building $(git rev-parse --short "$rev") and this tree ..." >&2
(cd "$tmp/parent" && cargo build --release --offline --quiet -p repex-cli)
cargo build --release --offline --quiet -p repex-cli

cp examples/configs/*.json "$tmp/configs/"
storm='"scenario": {"kind": "failure-storm", "storm-mtbf-seconds": 150, "period-seconds": 600, "storm-fraction": 0.3}, "fault-policy": {"relaunch": {"max-retries": 5}},'
sed "1s/{/{ $storm/" examples/configs/tremd.json >"$tmp/configs/storm-sync.json"
sed "1s/{/{ $storm/" examples/configs/async.json >"$tmp/configs/storm-async.json"
configs="tremd tsu mode2 async ph storm-sync storm-async"

# run_all <repex> <out-dir>: the protocol above for every config.
run_all() {
    for name in $configs; do
        dir=$2/$name
        mkdir -p "$dir"
        (
            cd "$dir"
            cfg=$tmp/configs/$name.json
            step() { # label command...: stdout to <label>.txt, status to exits
                label=$1
                shift
                status=0
                "$@" >"$label.txt" 2>/dev/null || status=$?
                echo "$label $status" >>exits
            }
            step run "$1" run "$cfg" --json full.json --metrics-stream full.jsonl \
                --trace full-trace.json --checkpoint ck-full
            step part "$1" run "$cfg" --json part.json --metrics-stream part.jsonl \
                --checkpoint ck-part --stop-after 1
            cp ck-part/checkpoint.json ck-after1.json 2>/dev/null || true
            step resume "$1" run --resume ck-part --json resumed.json --metrics-stream part.jsonl
            cp ck-part/checkpoint.json ck-resumed-final.json 2>/dev/null || true
            cp ck-full/checkpoint.json ck-final.json 2>/dev/null || true
            step plan "$1" plan "$cfg" --json plan.json
            step analyze "$1" analyze full-trace.json --json analyze.json
        )
    done
}
run_all "$tmp/parent/target/release/repex" "$tmp/out/parent"
run_all "$PWD/target/release/repex" "$tmp/out/change"

files="full.json full.jsonl full-trace.json ck-final.json part.json ck-after1.json resumed.json part.jsonl ck-resumed-final.json plan.json analyze.json run.txt part.txt resume.txt plan.txt analyze.txt exits"
printf '%-12s' config
for f in $files; do printf ' %s' "$f"; done
printf '\n'
same=0 differ=0
for name in $configs; do
    printf '%-12s' "$name"
    for f in $files; do
        a=$tmp/out/parent/$name/$f b=$tmp/out/change/$name/$f
        if [ ! -e "$a" ] && [ ! -e "$b" ]; then
            mark=-
        elif cmp -s "$a" "$b"; then
            mark== same=$((same + 1))
        else
            mark=X differ=$((differ + 1))
        fi
        printf " %-${#f}s" "$mark"
    done
    printf '\n'
done
failing=$(cat "$tmp"/out/*/*/exits | grep -cv ' 0$' || true)
echo "identical: $same, different: $differ (parent $(git rev-parse --short "$rev"), change: this tree)"
echo "commands that exited non-zero, both sides together: $failing"
[ "$differ" -eq 0 ]
