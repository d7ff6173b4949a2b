#!/usr/bin/env sh
# Offline CI for the workspace: build, tests, formatting, lints.
# Everything runs against the vendored path crates in vendor/ — no
# network or registry access is required (or attempted: --offline).
set -eu

cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline

# Property-test breadth floor: blocks trim their local case counts for
# the simulator-heavy suites; CI raises every block back to at least 32
# cases (PROPTEST_CASES never lowers a block's own setting). Persisted
# *.proptest-regressions entries replay before novel cases either way —
# see tests/proptest_stack.rs for how to pin a failing case.
run env PROPTEST_CASES=32 cargo test -q --workspace --offline

# rustfmt / clippy are optional components; skip gracefully where absent.
if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> cargo fmt unavailable; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --release --offline --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping"
fi

# Rustdoc: a broken, ambiguous or private intra-doc link fails CI.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Prints where two files first differ (or their line counts, when one is
# a prefix of the other).
first_difference() { # committed fresh
    awk 'NR == FNR { want[NR] = $0; n = NR; next }
        { m = FNR }
        $0 != want[m] { printf "line %d\n  committed: %s\n  now:       %s\n", m, want[m], $0; hit = 1; exit }
        END { if (!hit) printf "committed has %d lines, this run %d\n", n, m }' "$1" "$2" >&2
}

# The evaluation at paper scale: every results/<name>.txt must be what
# `repro <name>` prints, byte for byte (about a minute, fig8 and fig7
# most of it). tests/repro.rs holds the same figures at 1/64 scale and
# their shapes in tier-1; this is the full-size half of the gate. (The
# --workspace build above already built every bin, so the `cargo run`s
# from here on only run.) A change that moves a figure on purpose
# regenerates with
#   for f in results/*.txt; do n=$(basename "$f" .txt); target/release/repro "$n" > "$f"; done
# (and PAGODA_UPDATE_GOLDEN=1 cargo test --test repro), and says what
# moved in EXPERIMENTS.md.
for committed in results/*.txt; do
    name=$(basename "$committed" .txt)
    echo "==> repro $name vs $committed"
    cargo run -q --release --offline -p pagoda-bench --bin repro -- "$name" >"target/repro_$name.txt"
    if ! cmp -s "target/repro_$name.txt" "$committed"; then
        echo "ci: repro $name diverged from $committed" >&2
        first_difference "$committed" "target/repro_$name.txt"
        exit 1
    fi
done

# Profiler smoke: serve the multi-tenant demo on a two-device fleet with
# critical-path profiling on. The example itself asserts the telescoping
# contract (phase sums reconcile with sojourns in every group) and that
# the Prometheus exposition parses; a violation panics, failing CI.
run cargo run --release --offline --example multi_tenant -- --devices 2 --prof target/prof_smoke

# Trace smoke: 2048 MPE tasks with a recorder attached. The example
# asserts every task's five stages chain from its spawn to its output
# copy and that the chrome trace it writes parses.
run cargo run --release --offline --example inspect_trace

# The repo benchmark (benchmark/, a package outside this workspace that
# drives the stack through its public API): build it and run all four
# workloads, end-to-end then traced, at smoke scale. Exits nonzero on a
# build failure — how a PR that deletes public API finds out it broke
# the yardstick — or on a `correct: false` result. Outputs land in the
# git-ignored benchmark/target and benchmark/out. The benchmark's files
# are frozen between benchmark PRs, but every build of it rewrites
# benchmark/Cargo.lock (the lock lists the root crates' dependencies,
# which later PRs change), so restore it however this script exits.
trap 'git checkout -- benchmark/Cargo.lock 2>/dev/null || true' EXIT
run bash benchmark/run.sh --all --smoke

# With PAGODA_CHECK_EXTENDED=1 (the switch that also widens `explore`
# below): the four workloads full-size at both baseline seeds, one
# second of reps each, every sim_fingerprint held against
# benchmark/baseline.json — the byte-identity contract at the scale the
# acceptance driver runs, where the smoke sizes above never fill a
# TaskTable four times over.
baseline_fingerprint() { # seed workload
    awk -v seed="\"$1\":" -v workload="\"$2\":" '
        $1 == seed { in_seed = 1 }
        in_seed && $1 == workload { in_workload = 1 }
        in_workload && $1 == "\"sim_fingerprint\":" { gsub(/[",]/, "", $2); print $2; exit }
    ' benchmark/baseline.json
}
if [ "${PAGODA_CHECK_EXTENDED:-0}" = 1 ]; then
    # First, in seconds: `desim`'s hole sifts in lockstep with the swap
    # sifts they replaced (heap, back-pointers and comparison count after
    # every operation), `gpu-sim`'s dense execution engine (fed through
    # `assign_parts`) in lockstep with its per-warp-walk reference, the
    # mask-driven `decide` in lockstep with the row walk it replaced (also
    # under a deep backlog of `Ref` rows, where the chain bits carry it),
    # the TaskTable's row masks against column scans, the Mandelbrot
    # render (four lanes, interior test) against plain per-pixel
    # iteration, also in windows 1e-3 to 1e-16 wide on the cardioid and
    # bulb boundaries, and SLUD's counted waves against the listing
    # oracle, 512 cases each.
    # All sit under every fingerprint below; a sift that compares one
    # child too few, a broken validity rule for the kept prediction, or a
    # transition that skips a mask, fails here with the case's `cc` seed
    # line instead of as eight opaque `sim_fingerprint` mismatches.
    run env PROPTEST_CASES=512 cargo test -q --offline -p desim --lib lockstep
    run env PROPTEST_CASES=512 cargo test -q --offline -p gpu-sim --lib lockstep
    run env PROPTEST_CASES=512 cargo test -q --offline -p pagoda-core --lib lockstep_decide_matches_row_scan
    run env PROPTEST_CASES=512 cargo test -q --offline -p pagoda-core --lib lockstep_decide_under_deep_backlog
    run env PROPTEST_CASES=512 cargo test -q --offline -p pagoda-core --lib masks_match_column_scans
    run env PROPTEST_CASES=512 cargo test -q --offline -p workloads --lib render_equals_per_pixel
    run env PROPTEST_CASES=512 cargo test -q --offline -p workloads --lib slud::tests::lockstep
    # Hostile configurations at eight times tier-1's 128 cases: a fleet
    # that loses every device, and most single hostile serving axes,
    # come up only now and then at 128 (about a second at 1024).
    run env PROPTEST_CASES=1024 cargo test -q --offline --test hostile_config
    # The shape claims of EXPERIMENTS.md that a 512-task run cannot reach
    # (Fig. 6 past 512 tasks, Fig. 10's plateau, the geomean bands),
    # asserted over every figure's points at paper scale.
    run cargo test -q --release --offline --test repro -- --ignored
    # The same paper_fig5 runs also hold its footprint: peak_rss_mb at
    # most 100 MB. Seeds 42 and 7 read 81 MB when the budget was set; a
    # collected copy of the run's 299 541 task timelines reads 124 MB.
    # The benchmark keeps every rep's sojourns, ≈ 4.5 MB each, so its
    # reading grows with the rep count; here that count is fixed at the
    # benchmark's floor of 6 reps, because six paper_fig5 reps take well
    # over the one second asked for. The gate checks that too.
    for seed in 42 7; do
        for workload in paper_fig5 serve_netmix fleet_batch fleet_serve; do
            echo "==> benchmark fingerprint: $workload seed $seed"
            want=$(baseline_fingerprint "$seed" "$workload")
            out=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
            got=$(printf '%s\n' "$out" | sed -n 's/^ *sim_fingerprint //p')
            if [ -z "$want" ] || [ "$got" != "$want" ]; then
                echo "ci: $workload seed $seed: sim_fingerprint '$got', benchmark/baseline.json has '$want'" >&2
                exit 1
            fi
            if [ "$workload" = paper_fig5 ]; then
                reps=$(printf '%s\n' "$out" | awk '$1 == "reps" && $2 == "in" { print NF - 4 }')
                rss=$(printf '%s\n' "$out" | awk '$1 == "peak_rss_mb" { print $2 }')
                echo "==> benchmark footprint: paper_fig5 seed $seed: $rss MB at $reps reps (budget 100 MB at 6)"
                if [ "$reps" != 6 ] || [ -z "$rss" ] || awk -v mb="$rss" 'BEGIN { exit !(mb > 100) }'; then
                    echo "ci: paper_fig5 seed $seed: peak_rss_mb '$rss' at '$reps' reps; the budget is 100 MB at 6 reps" >&2
                    exit 1
                fi
            fi
        done
    done
fi

# Invariant checking (pagoda-check). Two gates, both exit nonzero on
# failure:
#
#   mutation-smoke — seeds each known bug class into the fleet and
#   asserts the checker flags every one (and that the unmutated
#   baselines stay clean). This is the test of the tests: if a checker
#   regression makes an invariant toothless, this catches it.
#
#   explore — runs the invariant-checked scenario sweep: every scenario
#   recorded and its log checked after the run, failures shrunk to a
#   replayable command line. The default smoke sweep is a handful of
#   scenarios; set PAGODA_CHECK_EXTENDED=1 to run the full seeds ×
#   placements × fault-schedule grid (the bin reads the env itself).
#   Byte-identity of the smoke sweep is gated separately by the
#   workspace tests (tests/fleet_fingerprints.rs).
run cargo run --release --offline -p pagoda-check --bin pagoda_check -- mutation-smoke
run cargo run --release --offline -p pagoda-check --bin pagoda_check -- explore

echo "ci: all checks passed"
