#!/usr/bin/env bash
# Hermetic CI for the Chimera reproduction.
#
# Everything runs --offline against the committed Cargo.lock: the build
# must succeed on a machine that has never talked to crates.io, because
# the workspace depends on nothing outside itself. The final check makes
# that hermeticity an invariant rather than an accident.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== build benches (offline) =="
cargo build --offline --benches

echo "== test (offline) =="
cargo test -q --offline

echo "== static-stage crate tests (points-to, RELAY, profiling, planning) =="
# These crates' unit tests live outside the root package, so the suite
# above skips them; their outputs are pinned end to end by
# tests/static_identity.rs (DESIGN.md §7).
cargo test -q --offline -p chimera-pta -p chimera-relay -p chimera-profile -p chimera-instrument

echo "== interpreter differential suite (flat vs reference) =="
# Byte-identical results and traces across both stepping implementations
# on every workload and 64 generated racy programs (DESIGN.md §8). Runs
# in the suite above too; invoked explicitly so a failure is unmissable.
cargo test -q --offline --test vm_differential

echo "== fused-differential gate (superinstruction + spec-engine identity) =="
# The fusion pass's unit invariants (sidecar agrees with the summary,
# fused sites never exceed static pairs) and the differential cases that
# arm the full layered engine — fusion + batch commit + speculative
# rounds — against the reference interpreter (DESIGN.md §13). Subsets of
# suites above; named so a fusion regression is unmissable.
cargo test -q --offline -p chimera-runtime --lib flat::tests
cargo test -q --offline --test vm_differential spec_round

echo "== spec-round smoke gate (flat with segment rounds vs reference) =="
# End-to-end CLI: with jitter off the flat VM arms its speculative
# segment rounds, and must reach the same final state as the reference
# interpreter (CHIMERA_VM_REFERENCE=1) on the checked-in fixture
# (DESIGN.md §13). The full nine-workload bit-identity pin (results,
# traces, replay logs) lives in vm_differential.
chimera_bin="cargo run -q --release --offline -p chimera --bin chimera --"
flat_hash=$($chimera_bin run fixtures/racy_counter.mc --no-jitter --json \
    | grep '"state_hash"')
ref_hash=$(CHIMERA_VM_REFERENCE=1 $chimera_bin run fixtures/racy_counter.mc --no-jitter --json \
    | grep '"state_hash"')
if [ -z "$flat_hash" ] || [ "$flat_hash" != "$ref_hash" ]; then
    echo "spec-round smoke diverged: flat=$flat_hash reference=$ref_hash" >&2
    exit 1
fi
echo "flat VM with segment rounds bit-identical to the reference interpreter"

echo "== DRF-equivalence certification =="
# Every workload certifies race-free instrumented and every dynamic race
# joins a static relay pair; racy corpus + generative sweep race
# uninstrumented (DESIGN.md §10). Runs in the suite above too; invoked
# explicitly so a failure is unmissable.
cargo test -q --offline --test drf_equivalence

echo "== schedule exploration (adversarial schedulers) =="
# Nine workloads certify replay under PCT + preemption-bounded hostile
# schedules, the racy corpus diverges under the same sweep, and both
# interpreters stay bit-identical per (strategy, seed) (DESIGN.md §11).
# Runs in the suite above too; invoked explicitly so a failure is
# unmissable.
cargo test -q --offline --test schedule_exploration

echo "== replay log format + divergence bisection =="
# Log format v2 invariants (round-trip, version-byte and corruption
# rejection with chunk attribution) and the checkpoint-bisection oracle
# localizing planted divergences on every workload (DESIGN.md §12).
# Run in the suites above too; invoked explicitly so a failure is
# unmissable.
cargo test -q --offline -p chimera-replay
cargo test -q --offline --test replay_bisection

echo "== explore smoke (CLI sweep on checked-in fixture) =="
# One-sample end-to-end run of the CLI: instrument a checked-in racy
# program and certify its replay under every strategy — zero
# divergences, zero single-holder violations (EXPERIMENTS.md). The
# uninstrumented-must-diverge side is pinned by schedule_exploration.
cargo run -q --release --offline -p chimera --bin chimera -- \
    explore fixtures/racy_counter.mc --seeds 1 --drd

echo "== fleet containers + resume idempotence =="
# Corpus/journal hostile-input hardening (every-prefix truncation,
# byte-flip detection, named-section errors) and the orchestrator's
# resume guarantee: budget + --resume renders byte-identical reports to
# one-shot and re-executes nothing (DESIGN.md §14). Runs in the suite
# above too; invoked explicitly so a failure is unmissable.
cargo test -q --offline -p chimera-fleet

echo "== fleet smoke (journaled CLI grid, resumed twice) =="
# End-to-end CLI: a small grid on the checked-in fixture executes and
# journals every cell, then two --resume re-runs are pure journal hits —
# zero cells re-executed (EXPERIMENTS.md).
fleet_dir=$(mktemp -d)
fleet_run1=$($chimera_bin fleet fixtures/racy_counter.mc --seeds 2 --check-determinism \
    --dir "$fleet_dir")
echo "$fleet_run1" | grep -q "6 executed now, 0 journal hit(s)" || {
    echo "fleet first run did not execute the full grid:" >&2
    echo "$fleet_run1" >&2
    exit 1
}
for attempt in 1 2; do
    fleet_rerun=$($chimera_bin fleet fixtures/racy_counter.mc --seeds 2 --check-determinism \
        --dir "$fleet_dir" --resume)
    echo "$fleet_rerun" | grep -q "0 executed now, 6 journal hit(s)" || {
        echo "fleet resume #$attempt re-executed cells:" >&2
        echo "$fleet_rerun" >&2
        exit 1
    }
done
rm -rf "$fleet_dir"
echo "fleet grid journaled once, resumed twice with zero re-executions"

echo "== plan round-trip gate (evidence -> demotion -> replanned run) =="
# The full hybrid loop on the CLI (DESIGN.md §15): a hostile sweep
# exports evidence for the demotable fixture, `plan` certifies demotion
# of every statically-alarmed-but-dynamically-clean pair, and the
# replanned run replays deterministically and race-free under --verify.
# The differential suite behind it is tests/plan_soundness.rs.
plan_dir=$(mktemp -d)
$chimera_bin explore fixtures/partitioned_sum.mc --seeds 3 --evidence "$plan_dir"
plan_out=$($chimera_bin plan fixtures/partitioned_sum.mc --evidence "$plan_dir" \
    -o "$plan_dir/partitioned_sum.chpl")
echo "$plan_out" | grep -q "2 of 2 static pair(s) demoted" || {
    echo "demotable fixture did not fully demote:" >&2
    echo "$plan_out" >&2
    exit 1
}
$chimera_bin run fixtures/partitioned_sum.mc --plan "$plan_dir/partitioned_sum.chpl" --verify \
    | grep -q "verified under plan" || {
    echo "replanned run failed verification" >&2
    exit 1
}
# Negative side 1: the racy fixture's dynamically-confirmed pairs must
# never earn demotion (its remaining false-positive pair may).
$chimera_bin explore fixtures/racy_counter.mc --seeds 3 --evidence "$plan_dir"
racy_out=$($chimera_bin plan fixtures/racy_counter.mc --evidence "$plan_dir" \
    -o "$plan_dir/racy_counter.chpl")
echo "$racy_out" | grep -q "keep .*dynamically confirmed racy" || {
    echo "racy fixture lost its dynamically-confirmed kept pairs:" >&2
    echo "$racy_out" >&2
    exit 1
}
# Negative side 2: coverage below threshold refuses with the named code.
if refuse_out=$($chimera_bin plan fixtures/partitioned_sum.mc --evidence "$plan_dir" \
    --min-seeds 99 -o "$plan_dir/never.chpl" 2>&1); then
    echo "under-covered evidence was not refused:" >&2
    echo "$refuse_out" >&2
    exit 1
fi
echo "$refuse_out" | grep -q "demotion refused (insufficient-seeds)" || {
    echo "refusal did not name its code:" >&2
    echo "$refuse_out" >&2
    exit 1
}
rm -rf "$plan_dir"
echo "plan round-trip: demoted, verified, racy pairs kept, thin coverage refused"

echo "== clippy (deny warnings) =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== points-to scaling smoke (1 sample) =="
# One sample per benchmark just proves the naive and worklist solvers both
# still run at every N. CHIMERA_BENCH_JSON stays unset so this never
# clobbers the committed BENCH_pta.json (see EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench pta_scaling

echo "== interpreter scaling smoke (1 sample) =="
# Proves both stepping paths still run every bench workload; committed
# BENCH_vm.json is refreshed manually (see EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench interp_scaling

echo "== race-detector overhead smoke (1 sample) =="
# Proves the FastTrack detector still attaches cleanly to every bench
# workload (and that they stay dynamically race-free); committed
# BENCH_drd.json is refreshed manually (see EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench drd_overhead

echo "== scheduler-seam overhead smoke (1 sample) =="
# Proves every strategy still runs the bench workloads to clean exit;
# committed BENCH_sched.json is refreshed manually (see EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench sched_explore

echo "== replay-format overhead smoke (1 sample) =="
# Proves every workload still records, and that v2 never emits more
# bytes than the retired v1 format's frozen sizes (the bench asserts
# it); committed BENCH_replay.json is refreshed manually (see
# EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench replay_format

echo "== fleet throughput smoke (1 sample) =="
# Proves the ≥1,000-cell grid (nine workloads × three strategies × 38
# seeds) still completes clean under both serial and work-stealing
# execution with identical reports; committed BENCH_fleet.json is
# refreshed manually (see EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench fleet_throughput

echo "== instrumentation overhead smoke (1 sample) =="
# Proves the evidence -> plan -> overhead loop end to end and asserts
# the payoff: planned makespan ≤ full on every workload and strictly
# below on ≥3/4 (the bench itself asserts both); committed
# BENCH_plan.json is refreshed manually (see EXPERIMENTS.md).
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 \
    cargo bench --offline -p chimera-bench --bench instr_overhead

echo "== dependency purity =="
# Every node in the full dependency graph (normal, dev, and build deps)
# must be a workspace-local chimera-* crate. `cargo tree` also emits
# section headers like [dev-dependencies] and blank lines; anything else
# is a third-party crate sneaking back in.
impure=$(cargo tree --offline --workspace -e normal,dev,build --prefix none \
    | sed 's/ (\*)$//' \
    | grep -v '^chimera' \
    | grep -v '^\[' \
    | grep -v '^$' || true)
if [ -n "$impure" ]; then
    echo "non-workspace dependencies found:" >&2
    echo "$impure" >&2
    exit 1
fi
echo "dependency graph is workspace-only"

echo "CI OK"
