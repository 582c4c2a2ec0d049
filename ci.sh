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
# Every test target of the workspace: the root manifest's
# default-members cover the root package and every crate.
cargo test -q --offline

echo "== static-stage crate tests (points-to, RELAY, profiling, planning) =="
# Their outputs are pinned end to end by tests/static_identity.rs
# (DESIGN.md §7). Run in the suite above too; invoked explicitly so a
# failure is unmissable.
cargo test -q --offline -p chimera-pta -p chimera-relay -p chimera-profile -p chimera-instrument

echo "== analysis, bounds and race-detector crate tests =="
# MiniC front end, loop-bounds analysis and chimera-drd's own tests.
# chimera-drd verifies a SegmentCertificate through the speculative
# segment rounds (DESIGN.md §10, §13). Run in the suite above too;
# invoked explicitly so a failure is unmissable.
cargo test -q --offline -p chimera-drd -p chimera-minic -p chimera-bounds

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

echo "== runtime crate tests (par_map order, sync semantics) =="
# Every chimera-runtime test: par_map's input-order tests, which the one
# hostile sweep behind explore and evidence gathering relies on
# (DESIGN.md §11), and tests/sync_semantics.rs. Run in the suite above
# too; invoked explicitly so a failure is unmissable.
cargo test -q --offline -p chimera-runtime

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
# The default configuration (timing jitter on) arms the rounds too: on a
# small partitioned loop written here and on every checked-in fixture,
# the flat run must print the reference's virtual time (`cycles`), final
# state, output and `stats` line, and on the loop it must commit rounds.
# The state hash covers memory only, so on a race-free loop a jitter
# draw charged to the wrong thread shows in `cycles` alone.
part_dir=$(mktemp -d)
cat > "$part_dir/partitioned.mc" <<'MC'
int a[256];
int sums[4];
void w(int id) {
    int i; int r; int s;
    s = 0;
    for (r = 0; r < 8; r = r + 1) {
        for (i = id * 64; i < id * 64 + 64; i = i + 1) {
            a[i] = a[i] + i;
            s = s + a[i];
        }
    }
    sums[id] = s;
}
int main() {
    int t0; int t1; int t2; int t3;
    t0 = spawn(w, 0); t1 = spawn(w, 1); t2 = spawn(w, 2); t3 = spawn(w, 3);
    join(t0); join(t1); join(t2); join(t3);
    print(sums[0] + sums[1] + sums[2] + sums[3]);
    return 0;
}
MC
for prog in "$part_dir/partitioned.mc" fixtures/*.mc; do
    flat_json=$($chimera_bin run "$prog" --json)
    ref_json=$(CHIMERA_VM_REFERENCE=1 $chimera_bin run "$prog" --json)
    flat_result=$(echo "$flat_json" | grep -E '"(cycles|state_hash|output|stats)"')
    ref_result=$(echo "$ref_json" | grep -E '"(cycles|state_hash|output|stats)"')
    if [ -z "$flat_result" ] || [ "$flat_result" != "$ref_result" ]; then
        echo "default-jitter spec-round smoke diverged on $prog: flat=$flat_result reference=$ref_result" >&2
        exit 1
    fi
    if [ "$prog" = "$part_dir/partitioned.mc" ]; then
        echo "$flat_json" | grep -q '"spec_rounds": [1-9]' || {
            echo "default-jitter spec-round smoke: the flat run committed no round" >&2
            exit 1
        }
    fi
done
rm -r "$part_dir"
echo "flat VM with segment rounds bit-identical to the reference interpreter"

echo "== strategy smoke gate (hostile hot runs vs reference) =="
# End-to-end CLI, one process per interpreter: under PCT and
# preemption-bounded scheduling the flat VM runs the picked thread
# through its hot-run executor between scheduling points, and must print
# the same final state and output as the reference interpreter
# (CHIMERA_VM_REFERENCE=1), which steps every op through the scheduler
# (DESIGN.md §11, §13). The flat run must also have batch-committed ops.
for strategy in pct preempt-bound; do
    flat_json=$($chimera_bin run fixtures/racy_counter.mc --strategy "$strategy" --json)
    ref_json=$(CHIMERA_VM_REFERENCE=1 $chimera_bin run fixtures/racy_counter.mc \
        --strategy "$strategy" --json)
    flat_result=$(echo "$flat_json" | grep -E '"(state_hash|output)"')
    ref_result=$(echo "$ref_json" | grep -E '"(state_hash|output)"')
    if [ -z "$flat_result" ] || [ "$flat_result" != "$ref_result" ]; then
        echo "$strategy smoke diverged: flat=$flat_result reference=$ref_result" >&2
        exit 1
    fi
    echo "$flat_json" | grep -q '"batched_ops": [1-9]' || {
        echo "$strategy smoke: the flat run batch-committed nothing" >&2
        exit 1
    }
done
echo "hostile strategies' hot runs bit-identical to the reference interpreter"

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
# Log format v2 invariants (round-trip, the shared corruption suite on a
# journal-less and a multi-chunk journal log, chunk attribution) and the
# checkpoint-bisection oracle localizing planted divergences on every
# workload (DESIGN.md §12). Run in the suites above too; invoked
# explicitly so a failure is unmissable.
cargo test -q --offline -p chimera-replay
cargo test -q --offline --test replay_bisection

echo "== record across processes + bisect gate =="
# End-to-end CLI, one process per recording: for every checked-in
# fixture, two `chimera record` processes with the same seed must write
# byte-identical logs, a flat and a reference (CHIMERA_VM_REFERENCE=1)
# `chimera replay` process must print the same report, and
# `replay --bisect` must replay that log conformantly (DESIGN.md §12).
rec_dir=$(mktemp -d)
for fixture in fixtures/*.mc; do
    name=$(basename "$fixture" .mc)
    for run in 1 2; do
        $chimera_bin record "$fixture" --seed 7 -o "$rec_dir/$name.$run.log" > /dev/null
    done
    cmp "$rec_dir/$name.1.log" "$rec_dir/$name.2.log" || {
        echo "$name: two record processes wrote different logs" >&2
        exit 1
    }
    $chimera_bin replay "$fixture" "$rec_dir/$name.1.log" > "$rec_dir/$name.flat.txt"
    CHIMERA_VM_REFERENCE=1 $chimera_bin replay "$fixture" "$rec_dir/$name.1.log" \
        > "$rec_dir/$name.ref.txt"
    cmp "$rec_dir/$name.flat.txt" "$rec_dir/$name.ref.txt" || {
        echo "$name: flat and reference replay processes printed different reports" >&2
        exit 1
    }
    bisect_out=$($chimera_bin replay "$fixture" "$rec_dir/$name.1.log" --bisect)
    echo "$bisect_out" | grep -q "replay conformant" || {
        echo "$name: replay --bisect did not conform:" >&2
        echo "$bisect_out" >&2
        exit 1
    }
done
rm -rf "$rec_dir"
echo "every fixture records byte-identically across processes, replays identically in both interpreters and bisect-replays conformantly"

echo "== explore smoke (CLI sweep on checked-in fixture) =="
# One-sample end-to-end run of the CLI: instrument a checked-in racy
# program and certify its replay under every strategy — zero
# divergences, zero single-holder violations (EXPERIMENTS.md). The
# uninstrumented-must-diverge side is pinned by schedule_exploration.
cargo run -q --release --offline -p chimera --bin chimera -- \
    explore fixtures/racy_counter.mc --seeds 1 --drd

echo "== all four containers + resume idempotence =="
# The shared container corruption suite (chimera_testkit::corrupt:
# every-prefix truncation, byte flips, version-byte flips, errors naming
# the container, random and seeded corruption) on the journal, evidence
# and plan containers — the log container runs it in the replay gate
# above — plus the CLI's damaged-container test and the orchestrator's
# resume guarantee: budget + --resume renders byte-identical reports to
# one-shot and re-executes nothing (DESIGN.md §12, §14). The byte pin of
# all four is tests/container_identity.rs in the suite above.
cargo test -q --offline -p chimera-fleet -p chimera-plan -p chimera -p chimera-testkit

echo "== fleet smoke (journaled CLI grid, resumed twice) =="
# End-to-end CLI: a small explore grid on the checked-in fixture executes
# and journals every cell under --dir, then two --resume re-runs are pure
# journal hits — zero cells re-executed (EXPERIMENTS.md). The invocation's
# counts go to stderr; stdout is a function of the grid, so each resumed
# run must print the one-shot run's stdout byte for byte. Then another
# fixture's grid is journaled into the same --dir, and a resumed report
# of the first grid must match, byte for byte, a run of that grid with
# no --dir: the report is a function of its own grid's outcomes only.
fleet_dir=$(mktemp -d)
$chimera_bin explore fixtures/racy_counter.mc --seeds 2 --check-determinism \
    --dir "$fleet_dir" > "$fleet_dir/run1.out" 2> "$fleet_dir/run1.err"
grep -q "6 executed now, 0 journal hit(s)" "$fleet_dir/run1.err" || {
    echo "fleet first run did not execute the full grid:" >&2
    cat "$fleet_dir/run1.err" >&2
    exit 1
}
for attempt in 1 2; do
    $chimera_bin explore fixtures/racy_counter.mc --seeds 2 --check-determinism \
        --dir "$fleet_dir" --resume > "$fleet_dir/rerun.out" 2> "$fleet_dir/rerun.err"
    grep -q "0 executed now, 6 journal hit(s)" "$fleet_dir/rerun.err" || {
        echo "fleet resume #$attempt re-executed cells:" >&2
        cat "$fleet_dir/rerun.err" >&2
        exit 1
    }
    cmp "$fleet_dir/run1.out" "$fleet_dir/rerun.out" || {
        echo "fleet resume #$attempt printed a different stdout from the one-shot run" >&2
        exit 1
    }
done
$chimera_bin explore fixtures/racy_rw.mc --seeds 2 --check-determinism \
    --dir "$fleet_dir" > /dev/null
$chimera_bin explore fixtures/racy_counter.mc --seeds 2 --check-determinism \
    --dir "$fleet_dir" --resume -o "$fleet_dir/resumed.json" > /dev/null
$chimera_bin explore fixtures/racy_counter.mc --seeds 2 --check-determinism \
    -o "$fleet_dir/fresh.json" > /dev/null
cmp "$fleet_dir/resumed.json" "$fleet_dir/fresh.json" || {
    echo "a --dir shared with another grid changed the explore report" >&2
    exit 1
}
rm -rf "$fleet_dir"
echo "fleet grid journaled once, resumed twice with zero re-executions and the same stdout, report independent of --dir"

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

echo "== bench row schema (replay-format, fleet-throughput, instrumentation-overhead smokes, 1 sample) =="
# One sample each of the three benches that carry exact fields, with
# CHIMERA_BENCH_JSON pointed at temp files (never a committed
# BENCH_*.json; those are refreshed manually, see EXPERIMENTS.md). Every
# row must name its host, give median and p95, and carry its bench's
# exact fields. The benches assert their own claims: replay_format that
# v2 never emits more bytes than the retired v1 format's frozen sizes,
# fleet_throughput that the >=1,000-cell grid completes clean with
# identical serial and work-stealing reports, and instr_overhead that the
# planned makespan is <= full on every workload and strictly below on
# >=3/4.
bench_dir=$(mktemp -d)
check_rows() {
    local file=$1 rows field
    shift
    rows=$(grep -c '^  {"name": ' "$file" || true)
    if [ "$rows" -eq 0 ]; then
        echo "$file: no bench rows" >&2
        exit 1
    fi
    for field in host_cores samples min_ns median_ns p95_ns max_ns "$@"; do
        if [ "$(grep -c "\"$field\": " "$file")" -ne "$rows" ]; then
            echo "$file: not every one of $rows row(s) has \"$field\"" >&2
            exit 1
        fi
    done
}
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 CHIMERA_BENCH_JSON="$bench_dir/replay.json" \
    cargo bench --offline -p chimera-bench --bench replay_format
check_rows "$bench_dir/replay.json" events chunks checkpoints v1_bytes v2_bytes \
    v1_bytes_per_event v2_bytes_per_event
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 CHIMERA_BENCH_JSON="$bench_dir/fleet.json" \
    cargo bench --offline -p chimera-bench --bench fleet_throughput
check_rows "$bench_dir/fleet.json" jobs cells
CHIMERA_BENCH_SAMPLES=1 CHIMERA_BENCH_WARMUP=1 CHIMERA_BENCH_JSON="$bench_dir/plan.json" \
    cargo bench --offline -p chimera-bench --bench instr_overhead
check_rows "$bench_dir/plan.json" static_pairs demoted kept weak_locks makespan overhead_x
rm -rf "$bench_dir"
echo "every bench row names its host, gives median and p95, and carries its exact fields"

echo "== e2e benchmark smoke (e2ebench against the workspace) =="
# e2ebench is a package of its own with path dependencies on the crates,
# so nothing above compiles it. Two jobs of every workload, untraced and
# traced, plus each set-up's flat-vs-reference oracle: a workspace API
# change that breaks the benchmark fails here, and --locked fails a new
# dependency edge that would rewrite e2ebench/Cargo.lock. Writes only
# gitignored output under e2ebench/.
cargo run --quiet --release --offline --locked --manifest-path e2ebench/Cargo.toml -- --smoke

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
