#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the acceptance driver makes it: builds the binary it
#       needs from source, runs it, and the last line of standard output
#       is the result object. --trace 0 prints the end-to-end metrics,
#       --trace 1 the per-layer metrics (spans go to benchmark/out/).
#   bash benchmark/run.sh --all [--seed N] [--seconds S] [--smoke]
#       all four workloads, end-to-end then traced, each in its own
#       process so peak_rss_mb is per workload.
#   bash benchmark/run.sh --selfcheck [--seed N] [--seconds S]
#       the end-to-end set twice, the second held against the first.
#
# Exits non-zero if the build fails (as it must in a directory that holds
# only BENCHMARK.json and this package) or a run finds a violation.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export PAGODA_BENCH_OUT="$here/out"

build() {
    # Build chatter goes to stderr: stdout belongs to the result line.
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --bin "$1" 1>&2
}

mode=run
trace=0
rest=()
while (($#)); do
    case "$1" in
    --all) mode=all ;;
    --trace)
        trace="${2:?--trace needs 0 or 1}"
        rest+=("$1" "$2")
        shift
        ;;
    *) rest+=("$1") ;;
    esac
    shift
done

if [[ $mode == all ]]; then
    build e2e
    build traced
    status=0
    for w in paper_fig5 serve_netmix fleet_batch fleet_serve; do
        "$target/release/e2e" --workload "$w" --trace 0 ${rest[@]+"${rest[@]}"} || status=1
        "$target/release/traced" --workload "$w" --trace 1 ${rest[@]+"${rest[@]}"} || status=1
    done
    exit "$status"
fi

if [[ $trace == 1 ]]; then
    bin=traced
else
    bin=e2e
fi
build "$bin"
exec "$target/release/$bin" ${rest[@]+"${rest[@]}"}
