#!/usr/bin/env bash
# Full offline gate for the workspace: release build, tests, and docs.
# Everything here runs without network access — the workspace has no
# external dependencies (see DESIGN.md, "Dependency policy").
#
# Every grid block has one shape: run it in a scratch dir, `--validate`
# what it wrote, and `cmp` the artifact byte for byte against the
# committed one. Every committed field is a pure function of its input, so
# no gate reads a clock and none can be skipped; wall times live only in
# the gitignored `.timing.json` sidecars (and in `perfbench/`).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo test -q

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== sweeps (experiments --thm1 --thm4 --failures --jobs 2) + byte-for-byte artifact gate =="
# The three sweeps behind BENCH_sweeps.json, in full, in a scratch dir (so
# the committed BENCH_*.json artifacts are not clobbered).
smoke_dir="target/smoke-sweep"
rm -rf "$smoke_dir" && mkdir -p "$smoke_dir"
(cd "$smoke_dir" && ../../target/release/experiments --thm1 --thm4 --failures --jobs 2 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_sweeps.json"
target/release/experiments --validate "$smoke_dir/BENCH_sweeps.timing.json"
cmp "$smoke_dir/BENCH_sweeps.json" BENCH_sweeps.json

echo "== Table 1 grid (experiments --table1 --jobs 2) + byte-for-byte artifact gate =="
# The full Table 1 grid runs in under a second and is a pure function of
# its seeds, so it runs in full and must reproduce the committed
# BENCH_table1.json byte for byte: a change to the kernel's dispatch, the
# Fig. 7 program or the adversaries that moves one decision shows up here.
(cd "$smoke_dir" && ../../target/release/experiments --table1 --jobs 2 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_table1.json"
target/release/experiments --validate "$smoke_dir/BENCH_table1.timing.json"
cmp "$smoke_dir/BENCH_table1.json" BENCH_table1.json

echo "== explore smoke (experiments --explore --smoke --jobs 4) + prefix artifact gate =="
# The exhaustive-exploration grid at CI scale: every smoke workload is
# fully verified in all four explorer modes (serial, parallel, reduced,
# reduced-parallel), and every untruncated parallel row must reproduce its
# serial twin's steps, terminals, deduped, por_pruned and visited exactly
# (at --jobs 4, oversubscribed on small hosts). The smoke grid is the
# leading workloads of the full grid (`explore_grid::grid`), so its rows
# must equal the same number of leading lines of the committed full-grid
# BENCH_explore.json.
(cd "$smoke_dir" && ../../target/release/experiments --explore --smoke --jobs 4 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_explore.json"
target/release/experiments --validate "$smoke_dir/BENCH_explore.timing.json"
head -n "$(wc -l < "$smoke_dir/BENCH_explore.json")" BENCH_explore.json \
    | cmp - "$smoke_dir/BENCH_explore.json"

echo "== fuzz grid (experiments --fuzz --jobs 4) + byte-for-byte artifact gate =="
# The adversarial schedule fuzzer over every algorithm family, full grid:
# exits nonzero on an oracle violation at legal Q (a real bug) or on a
# missing violation where Theorem 3 predicts impossibility. The grid is a
# pure function of its seeds, so it must reproduce the committed
# BENCH_fuzz.json and both shrunk counterexample traces under
# tests/golden/fuzz/ byte for byte (`diff -r` also catches a missing or
# extra trace). The traces land in the scratch dir so the committed
# corpus is not clobbered. --jobs 4 runs above the CPU count of small
# hosts, so parallel == serial is also tested oversubscribed.
(cd "$smoke_dir" && ../../target/release/experiments --fuzz --jobs 4 \
    --fuzz-dir fuzz-artifacts > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_fuzz.json"
target/release/experiments --validate "$smoke_dir/BENCH_fuzz.timing.json"
cmp "$smoke_dir/BENCH_fuzz.json" BENCH_fuzz.json
diff -r "$smoke_dir/fuzz-artifacts" tests/golden/fuzz

echo "== profile grid (experiments --profile --jobs 4) + byte-for-byte artifact gate =="
# The schedule profiler over every algorithm family, full grid, must
# reproduce the committed BENCH_profile.json byte for byte (parallel ==
# serial, oversubscribed), plus offline profiling of both committed fuzz
# counterexamples (which also exercises the Perfetto exporter byte-pinned
# by tests/tests/perfetto_golden.rs).
(cd "$smoke_dir" && ../../target/release/experiments --profile --jobs 4 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_profile.json"
target/release/experiments --validate "$smoke_dir/BENCH_profile.timing.json"
cmp "$smoke_dir/BENCH_profile.json" BENCH_profile.json
(cd "$smoke_dir" && ../../target/release/experiments \
    --profile-trace ../../tests/golden/fuzz/fuzz_fig3_q1_storm_s5.trace > /dev/null)
(cd "$smoke_dir" && ../../target/release/experiments \
    --profile-trace ../../tests/golden/fuzz/fuzz_fig7_q1_storm_s1.trace > /dev/null)

echo "== native grid (experiments --native) + byte-for-byte artifact gate =="
# The native-backend grid, full: the backend-generic algorithms on real OS
# threads, every cell scored by the simulator's agreement/linearizability
# oracles. Exits nonzero on a linearizability violation (hardware C&S must
# stay correct), a lockstep Q >= 8 disagreement (Theorem 1 on real
# threads), or a pinned sub-threshold seed that stops splitting the
# decision, in either pacing. Free-mode Fig. 3 agreement is reported, never
# gated: no commodity scheduler promises Axiom 2. The lockstep rows are
# pure functions of their seeds and make up BENCH_native.json; the
# free-mode rows, decided by the host scheduler, go to the sidecar.
(cd "$smoke_dir" && ../../target/release/experiments --native > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_native.json"
target/release/experiments --validate "$smoke_dir/BENCH_native.timing.json"
cmp "$smoke_dir/BENCH_native.json" BENCH_native.json

echo "== service grid (experiments --service --jobs 4) + byte-for-byte artifact gate =="
# The request-serving workload engine, full grid: exits nonzero if a
# configuration exhausts its step budget, and must reproduce the
# committed BENCH_service.json byte for byte — every statement count,
# percentile and step total, parallel == serial, oversubscribed.
(cd "$smoke_dir" && ../../target/release/experiments --service --jobs 4 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_service.json"
target/release/experiments --validate "$smoke_dir/BENCH_service.timing.json"
cmp "$smoke_dir/BENCH_service.json" BENCH_service.json

echo "== crash grid (experiments --crash --jobs 4) + byte-for-byte artifact gate =="
# The crash-and-restart grid, full: crash/recover lifecycle plans over the
# central families under noisy schedules, scored by the recovery-safe
# oracles (agreement, exactly-once, linearizability across the recovery
# boundary), plus the churn service cell. Exits nonzero on any oracle
# violation or a planned crash that failed to fire, and must reproduce
# the committed BENCH_crash.json byte for byte.
(cd "$smoke_dir" && ../../target/release/experiments --crash --jobs 4 > /dev/null)
target/release/experiments --validate "$smoke_dir/BENCH_crash.json"
target/release/experiments --validate "$smoke_dir/BENCH_crash.timing.json"
cmp "$smoke_dir/BENCH_crash.json" BENCH_crash.json

echo "All checks passed."
