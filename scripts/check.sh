#!/usr/bin/env bash
# Full offline gate for the workspace: release build, tests, clippy, docs,
# and every experiment grid. Everything here runs without network access — the
# workspace has no external dependencies (see DESIGN.md, "Dependency policy").
#
# The grid stage runs the whole experiment table once (`experiments` with
# no selector runs every entry) in a scratch dir, so the committed
# artifacts are not clobbered. The run exits nonzero if any grid's gate
# fails (an oracle violation at legal Q, a missing predicted violation, an
# exhausted step budget, an unverified reduced exploration, a parallel row
# that differs from its serial twin, ...). Every committed field is a pure
# function of its input, so each artifact is then `--validate`d and
# `cmp`'d byte for byte; no gate reads a clock and none can be skipped.
# Wall times live only in the gitignored `.timing.json` sidecars (and in
# `perfbench/`). --jobs 4 runs above the CPU count of small hosts, so
# parallel == serial is also tested oversubscribed.
#
# `scripts/check.sh --stress N` runs only the release build and then the
# grid stage and the native crate's tests N times in a row, with one
# CPU-burning process per CPU (`nproc` of them) running throughout, so
# every determinism claim is checked under load as well, and the native
# cells' stress tests (single-winner consensus, exact striped counting)
# meet CPU contention on every run. It stops at the first failing run.
set -euo pipefail
cd "$(dirname "$0")/.."

stress=0
if [[ ${1:-} == --stress ]]; then
    stress=${2:-}
    [[ $stress =~ ^[1-9][0-9]*$ ]] || { echo "usage: $0 [--stress N]" >&2; exit 2; }
elif [[ $# -gt 0 ]]; then
    echo "usage: $0 [--stress N]" >&2
    exit 2
fi

run_dir="target/grid-run"

# One run of every grid, then the byte-for-byte artifact gates.
grid_stage() {
    rm -rf "$run_dir" && mkdir -p "$run_dir"
    (cd "$run_dir" && ../../target/release/experiments --jobs 4 > /dev/null)
    for artifact in BENCH_*.json; do
        [[ $artifact == *.timing.json ]] && continue # a local, gitignored sidecar
        target/release/experiments --validate "$run_dir/$artifact"
        target/release/experiments --validate "$run_dir/${artifact%.json}.timing.json"
        cmp "$run_dir/$artifact" "$artifact"
    done
    # Both shrunk fuzz counterexamples, byte for byte (`diff -r` also
    # catches a missing or extra trace).
    diff -r "$run_dir/tests/golden/fuzz" tests/golden/fuzz
}

echo "== cargo build --release =="
cargo build --release

if ((stress > 0)); then
    cargo test -q --release -p native --no-run
    burners=()
    trap 'kill "${burners[@]}" 2> /dev/null || true' EXIT
    for _ in $(seq "$(nproc)"); do
        (while :; do :; done) &
        burners+=($!)
    done
    for i in $(seq "$stress"); do
        echo "== stress run $i/$stress: every grid and the native tests under ${#burners[@]} CPU burners =="
        grid_stage
        cargo test -q --release -p native
    done
    echo "All $stress stress runs passed."
    exit 0
fi

echo "== cargo test -q (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo test -q

echo "== cargo clippy --all-targets (warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== perfbench builds against this tree (lockfile unchanged) =="
# The repo benchmark is its own workspace over these crates; --locked
# fails rather than rewrite perfbench/Cargo.lock, and the build writes
# only to the gitignored perfbench/target/.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perfbench correctness smoke (every workload, untraced and traced) =="
# One short run of each benchmark workload, untraced and traced. Every run
# checks its own outputs (parallel == serial service reports, Table 1's
# committed minimum Q, the traced runs' agreement with the program), and
# its last line must report them all correct with no failed operation.
# Only the verdict is read, never a timing.
for workload in explore service table1 native; do
    for trace in 0 1; do
        result="$(perfbench/target/release/perfbench --workload "$workload" --seed 0 \
            --seconds 0.01 --trace "$trace" | tail -n 1)"
        if [[ $result != *'"correct": true,'* || $result != *'"failed": 0,'* ]]; then
            echo "perfbench --workload $workload --trace $trace: $result" >&2
            exit 1
        fi
    done
done

echo "== every grid (experiments --jobs 4) + byte-for-byte artifact gates =="
grid_stage

echo "== narrative sections, stdout byte for byte =="
# These sections write no artifact; their printout is a pure function of
# the code (the same at every --jobs), so it is pinned whole.
(cd "$run_dir" && ../../target/release/experiments --jobs 4 --lemma1 --thm2 --fig8 \
    --thm3 --valency --poly-vs-exp --obs) | cmp - tests/golden/experiments/narrative.txt

echo "== every example binary, stdout byte for byte =="
# The examples assert as they print (quickstart's well-formedness check,
# lowerbound_demo's contradiction, cas_object's linearizability), so a
# run both exercises those checks and pins the rendered diagrams. The
# `examples` crate's programs are binaries; a library crate's example
# (native's `lockstep_threshold`: 512 lockstep Fig. 3 runs on OS threads,
# whose seeded schedules make the split seeds a pure function of the
# code) lands under `target/release/examples/`.
cargo build --release --examples
for golden in tests/golden/examples/*.txt; do
    bin="$(basename "$golden" .txt)"
    exe="target/release/$bin"
    [[ -x $exe ]] || exe="target/release/examples/$bin"
    "$exe" | cmp - "$golden"
done

echo "== offline profiling of both committed fuzz counterexamples =="
# Also exercises the Perfetto exporter byte-pinned by
# tests/tests/perfetto_golden.rs.
for trace in tests/golden/fuzz/*.trace; do
    (cd "$run_dir" && ../../target/release/experiments --profile-trace "../../$trace" > /dev/null)
done

echo "All checks passed."
