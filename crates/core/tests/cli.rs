//! Integration smoke tests for the `chimera` command-line binary: every
//! subcommand (`races`, `plan`, `run`, `record`, `replay`, `ir`, `drd`,
//! `explore`) exercised against the checked-in fixture, including the
//! full file-based record → log file → replay workflow, the journaled
//! `explore --dir` → `--resume` workflow, per-cell report rows and
//! evidence export that agree at any worker count, and clean named
//! failures on damaged log, evidence and plan files, on unknown commands
//! and flags, on every flag a subcommand does not read, and on a
//! `--strategy` that names no strategy.

use chimera::fleet::resolve_strategy;
use chimera_runtime::{execute, ExecConfig, SchedStrategy};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chimera"))
}

/// The checked-in demo program: a racy counter plus one properly locked
/// update, so both the race detector and the planner have work to do.
fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("demo.mc")
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("chimera-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mk tempdir");
    d
}

#[test]
fn races_subcommand_reports_pairs() {
    let out = bin().arg("races").arg(fixture()).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("race pair(s)"), "{stdout}");
    assert!(stdout.contains("'g'"), "{stdout}");
}

#[test]
fn plan_subcommand_summarizes_instrumentation() {
    let out = bin().arg("plan").arg(fixture()).output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("weak-locks"), "{stdout}");
    assert!(stdout.contains("sites"), "{stdout}");
}

#[test]
fn run_subcommand_executes_and_is_seed_deterministic() {
    let run = |seed: &str| {
        let out = bin()
            .arg("run")
            .arg(fixture())
            .args(["--seed", seed])
            .output()
            .expect("spawn run");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let a = run("7");
    assert!(a.contains("outcome"), "{a}");
    assert!(a.contains("output"), "{a}");
    // Same seed, same schedule, same output — the VM is deterministic.
    assert_eq!(a, run("7"), "same seed must reproduce the run exactly");
}

#[test]
fn run_ends_quietly_on_a_closed_stdout() {
    // The reader has gone before the report is written, as when `head`
    // exits early: the first write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = bin()
        .arg("run")
        .arg(fixture())
        .stdout(writer)
        .output()
        .expect("spawn run");
    assert!(out.status.success(), "{out:?}");
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn ir_subcommand_dumps_every_function() {
    let out = bin().arg("ir").arg(fixture()).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for f in ["main", "w"] {
        assert!(stdout.contains(f), "ir dump missing function '{f}':\n{stdout}");
    }
    assert!(stdout.contains("bb0"), "ir dump has no basic blocks:\n{stdout}");
}

#[test]
fn drd_subcommand_reports_dynamic_races() {
    let out = bin().arg("drd").arg(fixture()).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("racy pair(s)"), "{stdout}");
    assert!(stdout.contains("race ("), "no race line printed:\n{stdout}");
    assert!(
        !stdout.contains("data-race-free"),
        "the racy fixture must not certify:\n{stdout}"
    );
}

#[test]
fn drd_instrumented_certifies_race_freedom() {
    let out = bin()
        .arg("drd")
        .arg(fixture())
        .arg("--instrumented")
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("instrumented: 0 racy pair(s)"), "{stdout}");
    assert!(stdout.contains("data-race-free"), "{stdout}");
}

/// `run` and `drd` execute under the strategy `--strategy` names, with
/// PCT's auto span resolved against the baseline run as the hostile grid
/// resolves it: each prints exactly what the library computes.
#[test]
fn run_and_drd_execute_under_the_named_strategy() {
    let src = std::fs::read_to_string(fixture()).expect("read fixture");
    let program = chimera_minic::compile(&src).expect("fixture compiles");
    let base = ExecConfig {
        seed: 3,
        ..ExecConfig::default()
    };
    let instrs = execute(&program, &base).stats.instrs;
    let stdout = |args: &[&str]| {
        let out = bin()
            .arg(args[0])
            .arg(fixture())
            .args(["--seed", "3"])
            .args(&args[1..])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let baseline = stdout(&["run", "--json"]);
    for (name, sched) in [
        ("pct", resolve_strategy(SchedStrategy::pct(3), instrs)),
        ("preempt-bound", SchedStrategy::preempt_bound()),
    ] {
        let cfg = ExecConfig { sched, ..base };
        let want = execute(&program, &cfg);
        let hash = format!("\"state_hash\": \"{:016x}\"", want.state_hash);
        let run = stdout(&["run", "--strategy", name, "--json"]);
        assert!(run.contains(&hash), "{name}: expected {hash} in:\n{run}");
        assert!(
            run.contains(&format!("\"cycles\": {},", want.makespan)),
            "{name}: {run}"
        );
        assert!(
            !baseline.contains(&hash),
            "{name}: the strategy must change this run"
        );
        let det = chimera::drd::detect(&program, &cfg);
        let drd = stdout(&["drd", "--strategy", name]);
        let line = format!(
            "uninstrumented: {} racy pair(s), {} dynamic race observation(s)",
            det.report.pairs.len(),
            det.report.races
        );
        assert!(drd.contains(&line), "{name}: expected '{line}' in:\n{drd}");
    }
}

/// Only `run`, `drd` and `explore` take `--strategy`; the others reject
/// it by name, and an unknown strategy name fails everywhere.
#[test]
fn strategy_flag_fails_by_name_where_it_does_not_apply() {
    let f = fixture();
    let fails_with = |cmd: &mut Command, msg: &str| {
        let out = cmd.output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "expected '{msg}' in: {stderr}");
    };
    for cmd in ["races", "plan", "record", "replay", "ir"] {
        fails_with(
            bin().arg(cmd).arg(&f).args(["--strategy", "pct"]),
            &format!("'{cmd}' does not take --strategy"),
        );
    }
    for cmd in ["run", "drd", "explore"] {
        fails_with(
            bin().arg(cmd).arg(&f).args(["--strategy", "bogus"]),
            "unknown strategy 'bogus'",
        );
    }
}

#[test]
fn record_then_replay_round_trips_through_the_log_file() {
    let dir = tempdir("roundtrip");
    let log = dir.join("run.chimlog");
    let rec = bin()
        .args(["record"])
        .arg(fixture())
        .args(["-o"])
        .arg(&log)
        .args(["--seed", "5"])
        .output()
        .expect("spawn record");
    assert!(rec.status.success(), "{rec:?}");
    assert!(log.exists());
    let rec_out = String::from_utf8_lossy(&rec.stdout);
    let recorded_value = rec_out
        .lines()
        .find(|l| l.starts_with("output"))
        .expect("record printed output")
        .to_string();

    // A different seed on replay must not matter: the log, not the
    // scheduler, decides the interleaving.
    let rep = bin()
        .args(["replay"])
        .arg(fixture())
        .arg(&log)
        .args(["--seed", "9876"])
        .output()
        .expect("spawn replay");
    assert!(rep.status.success(), "{rep:?}");
    let rep_out = String::from_utf8_lossy(&rep.stdout);
    assert!(rep_out.contains("replay complete"), "{rep_out}");
    assert!(
        rep_out.contains(recorded_value.as_str()),
        "replayed output must match recording:\nrecord: {rec_out}\nreplay: {rep_out}"
    );
}

#[test]
fn replay_with_wrong_program_fails_cleanly() {
    let dir = tempdir("mismatch");
    let log = dir.join("run.chimlog");
    assert!(bin()
        .args(["record"])
        .arg(fixture())
        .args(["-o"])
        .arg(&log)
        .output()
        .expect("record")
        .status
        .success());
    // A different program: the log cannot drive it to completion.
    let other = dir.join("other.mc");
    std::fs::write(
        &other,
        "int g;
         void w(int v) { int i; for (i = 0; i < 9; i = i + 1) { g = g + v; } }
         int main() { int t; t = spawn(w, 1); t = spawn(w, 2); w(3); return g; }",
    )
    .unwrap();
    let rep = bin()
        .args(["replay"])
        .arg(&other)
        .arg(&log)
        .output()
        .expect("replay");
    assert!(
        !rep.status.success(),
        "mismatched replay must exit non-zero: {rep:?}"
    );
}

/// Barriers and joins are counted in the log but never journaled, so a
/// program whose only synchronization is a barrier records a log with no
/// journal. Bisection must still replay it.
#[test]
fn replay_bisect_accepts_a_log_with_no_journal() {
    let dir = tempdir("bisect-barrier");
    let src = dir.join("barrier.mc");
    std::fs::write(
        &src,
        "barrier_t b; int main() { barrier_init(&b, 1); barrier_wait(&b); return 0; }",
    )
    .unwrap();
    let log = dir.join("barrier.chimlog");
    run_ok(bin().arg("record").arg(&src).arg("-o").arg(&log));
    let out = bin()
        .arg("replay")
        .arg(&src)
        .arg(&log)
        .arg("--bisect")
        .output()
        .expect("spawn replay");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replay conformant"), "{stdout}");
}

/// Nesting past `MAX_NESTING` is a named parse error, not a stack
/// overflow, and a program at the bound still runs.
#[test]
fn deep_nesting_fails_with_a_named_parse_error() {
    use chimera_minic::parser::MAX_NESTING;
    let dir = tempdir("nesting");
    let deep = |open: &str, mid: &str, close: &str, k: usize| {
        format!("int main() {{ int x; {}{mid}{}; return 0; }}", open.repeat(k), close.repeat(k))
    };
    let hostile = [
        ("parens", deep("(", "x = 1", ")", 10_000)),
        ("ifs", deep("if (1) ", "x = 1", "", 10_000)),
        ("blocks", deep("{", "x = 1;", "}", 50_000)),
        ("minuses", deep("- ", "1", "", 100_000)),
    ];
    let expected = "parse error at 1:";
    let named = format!("nesting deeper than {MAX_NESTING} levels");
    for (name, src) in hostile {
        let path = dir.join(format!("{name}.mc"));
        std::fs::write(&path, src).unwrap();
        for cmd in ["races", "run"] {
            let out = bin().arg(cmd).arg(&path).output().expect("spawn");
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(expected) && stderr.contains(&named),
                "{cmd} {name}: {stderr}"
            );
        }
    }
    // `return` opens two levels, each parenthesis one more.
    let k = MAX_NESTING - 2;
    let path = dir.join("at_bound.mc");
    let src = format!("int main() {{ return {}7{}; }}", "(".repeat(k), ")".repeat(k));
    std::fs::write(&path, src).unwrap();
    let out = bin().arg("run").arg(&path).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Exited(7)"), "{out:?}");
}

/// `++` and `--` evaluate their operand once: the index's side effect
/// runs once and the incremented cell is the one it names. A chain of
/// them fails at its second link with a named error, whatever its length.
#[test]
fn increments_evaluate_their_operand_once() {
    let dir = tempdir("incdec");
    let path = dir.join("once.mc");
    std::fs::write(
        &path,
        "int a[4]; int i;
         int main() { i = 0; a[i++]++; print(i); print(a[0]); print(a[2]); print(a[1]); return 0; }",
    )
    .unwrap();
    let out = bin().arg("run").arg(&path).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("output  : [1, 0, 0, 1]"), "{stdout}");

    let path = dir.join("chain.mc");
    std::fs::write(&path, format!("int main() {{ int x; x = 0; x{}; return 0; }}", "++".repeat(1_000))).unwrap();
    let start = std::time::Instant::now();
    let out = bin().arg("run").arg(&path).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("parse error at 1:29: operand of '++' is not an lvalue"),
        "{stderr}"
    );
    assert!(start.elapsed().as_secs() < 10, "the chain took {:?}", start.elapsed());
}

/// A name declared twice where lowering used to accept it silently fails
/// at the second declaration with a named lower error.
#[test]
fn duplicate_names_fail_with_named_lower_errors() {
    let dir = tempdir("duplicates");
    for (name, src, expected) in [
        (
            "param",
            "int f(int a, int a) { return a; } int main() { return f(1, 2); }",
            "lower error at 1:14: duplicate parameter 'a'",
        ),
        (
            "field",
            "struct s { int x; int x; }; int main() { return 0; }",
            "lower error at 1:19: duplicate field 'x'",
        ),
        (
            "global",
            "int g; int g() { return 7; } int main() { return g(); }",
            "lower error at 1:8: 'g' names both a global and a function",
        ),
        (
            "local",
            "int main() { int x; x = 1; int *p; p = &x; int x; x = 2; print(*p); return x; }",
            "lower error at 1:44: duplicate local 'x'",
        ),
    ] {
        let path = dir.join(format!("{name}.mc"));
        std::fs::write(&path, src).unwrap();
        for cmd in ["races", "run"] {
            let out = bin().arg(cmd).arg(&path).output().expect("spawn");
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(expected), "{cmd} {name}: {stderr}");
        }
    }
}

#[test]
fn record_without_output_path_fails() {
    let out = bin().arg("record").arg(fixture()).output().expect("spawn");
    assert!(!out.status.success());
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("-o"), "{msg}");
}

/// `explore -o` writes one row per covered cell, in seed order, and the
/// report is byte-identical at every worker count. Without `--dir`, the
/// report is the only file `explore` writes.
#[test]
fn explore_jobs_parallel_report_matches_serial() {
    let dir = tempdir("explore-jobs");
    let run = |jobs: &str| {
        let cwd = dir.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&cwd).unwrap();
        let out = bin()
            .current_dir(&cwd)
            .arg("explore")
            .arg(fixture())
            .args(["--strategy", "pct", "--seeds", "2", "--drd", "--jobs", jobs])
            .args(["-o", "report.json"])
            .output()
            .expect("spawn explore");
        assert!(out.status.success(), "{out:?}");
        let written: Vec<_> = std::fs::read_dir(&cwd)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            written,
            ["report.json"],
            "explore wrote more than its report"
        );
        String::from_utf8(std::fs::read(cwd.join("report.json")).unwrap()).unwrap()
    };
    let serial = run("1");
    assert_eq!(
        serial,
        run("3"),
        "worker count leaked into the explore report"
    );
    let rows: Vec<&str> = serial
        .lines()
        .filter(|l| l.contains("\"seed\": "))
        .collect();
    assert_eq!(rows.len(), 2, "{serial}");
    for (row, seed) in rows.iter().zip(1..) {
        assert!(
            row.trim_start()
                .starts_with(&format!("{{\"seed\": {seed}, ")),
            "{row}"
        );
        for key in [
            "\"replay_complete\": true",
            "\"equivalent\": true",
            "\"violations\": 0",
            "\"preemptions\"",
            "\"forced_releases\"",
            "\"sync_events\"",
            "\"order_hash\": \"0x",
            "\"prefix_hash\": \"0x",
            "\"drd_races\": 0",
            "\"drd_unpredicted\": 0",
        ] {
            assert!(row.contains(key), "missing {key} in {row}");
        }
        assert!(!row.contains("\"deterministic\""), "{row}");
    }
}

#[test]
fn fleet_journals_resumes_and_keeps_the_report_stable() {
    let dir = tempdir("fleet-resume");
    let state = dir.join("state");
    let report = dir.join("fleet.json");
    let explore = |resume: bool| {
        let mut cmd = bin();
        cmd.arg("explore")
            .arg(fixture())
            .args(["--seeds", "2", "--check-determinism", "--dir"])
            .arg(&state)
            .arg("-o")
            .arg(&report);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("spawn explore");
        assert!(out.status.success(), "{out:?}");
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    let (first, first_err) = explore(false);
    assert!(first_err.contains("6 executed now, 0 journal hit(s)"), "{first_err}");
    assert!(first.contains("fleet passed"), "{first}");
    let written: Vec<_> = std::fs::read_dir(&state)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(written, ["journal.chfj"], "--dir holds only the journal");
    let first_report = std::fs::read(&report).expect("report written");
    let json = String::from_utf8_lossy(&first_report);
    for key in [
        "\"grid\"",
        "\"covered\"",
        "\"distinct_orders\"",
        "\"strategies\"",
        "\"deterministic\": true",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    // Immediate resume: zero cells execute, and neither the report bytes
    // nor stdout move (the invocation's counts go to stderr).
    let (again, again_err) = explore(true);
    assert!(again_err.contains("0 executed now, 6 journal hit(s)"), "{again_err}");
    assert_eq!(std::fs::read(&report).unwrap(), first_report);
    assert_eq!(again, first, "a resumed run's stdout differs from the one-shot run's");
}

#[test]
fn fleet_raw_flags_expected_divergence_without_failing() {
    let out = bin()
        .arg("explore")
        .arg(fixture())
        .args(["--raw", "--seeds", "2", "--strategy", "preempt-bound"])
        .output()
        .expect("spawn explore --raw");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flagged"), "raw racy fixture not flagged:\n{stdout}");
}

#[test]
fn explore_exports_the_same_evidence_at_any_worker_count() {
    let dir = tempdir("evidence-paths");
    let (a, b) = (dir.join("A"), dir.join("B"));
    run_ok(
        bin()
            .arg("explore")
            .arg(fixture())
            .args(["--seeds", "2", "--jobs", "1", "--evidence"])
            .arg(&a),
    );
    run_ok(
        bin()
            .arg("explore")
            .arg(fixture())
            .args(["--seeds", "2", "--jobs", "3", "--evidence"])
            .arg(&b)
            .arg("--dir")
            .arg(dir.join("state")),
    );
    let chev = |d: &Path| std::fs::read(d.join("demo.chev")).expect("evidence written");
    assert_eq!(
        chev(&a),
        chev(&b),
        "explore --jobs 1 and journaled explore --jobs 3 exported different evidence"
    );
}

/// The flags each subcommand reads; every other flag fails by name.
#[rustfmt::skip]
const TAKES: [(&str, &[&str]); 8] = [
    ("races", &[]),
    ("plan", &["-o", "--out", "--evidence", "--min-seeds", "--min-strategies"]),
    ("run", &["--seed", "--no-jitter", "--strategy", "--json", "--plan", "--verify"]),
    ("record", &["--seed", "--no-jitter", "-o", "--out"]),
    ("replay", &["--seed", "--no-jitter", "--bisect"]),
    ("ir", &[]),
    ("drd", &["--seed", "--no-jitter", "--strategy", "--instrumented"]),
    ("explore", &[
        "--seed", "-o", "--out", "--strategy", "--evidence", "--seeds", "--jobs", "--drd",
        "--check-determinism", "--raw", "--dir", "--resume", "--max-cells",
    ]),
];

/// Every flag spelling, and whether it takes a value.
const FLAGS: [(&str, bool); 21] = [
    ("--seed", true),
    ("--no-jitter", false),
    ("-o", true),
    ("--out", true),
    ("--strategy", true),
    ("--json", false),
    ("--plan", true),
    ("--verify", false),
    ("--bisect", false),
    ("--instrumented", false),
    ("--evidence", true),
    ("--min-seeds", true),
    ("--min-strategies", true),
    ("--seeds", true),
    ("--jobs", true),
    ("--drd", false),
    ("--check-determinism", false),
    ("--raw", false),
    ("--dir", true),
    ("--resume", false),
    ("--max-cells", true),
];

/// A subcommand given a flag it does not read exits 1 naming the flag
/// and the subcommands that do read it, and a flag it reads only beside
/// another flag exits 1 naming the flag it needs.
#[test]
fn every_flag_fails_by_name_where_the_subcommand_does_not_read_it() {
    let f = fixture();
    let fails_with = |cmd: &mut Command, msg: &str| {
        let out = cmd.output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{msg}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "expected '{msg}' in: {stderr}");
    };
    for (cmd, takes) in TAKES {
        for (flag, value) in FLAGS.into_iter().filter(|(fl, _)| !takes.contains(fl)) {
            let readers: Vec<&str> = TAKES
                .iter()
                .filter(|(_, t)| t.contains(&flag))
                .map(|(c, _)| *c)
                .collect();
            let (last, rest) = readers.split_last().unwrap();
            let who = if rest.is_empty() {
                format!("{last} does")
            } else {
                format!("{} and {last} do", rest.join(", "))
            };
            let mut c = bin();
            c.arg(cmd).arg(&f).arg(flag);
            if value {
                c.arg("1");
            }
            fails_with(&mut c, &format!("'{cmd}' does not take {flag} ({who})"));
        }
    }
    for (cmd, flag, value, needed) in [
        ("run", "--verify", None, "--plan"),
        ("plan", "-o", Some("x.chpl"), "--evidence"),
        ("plan", "--min-seeds", Some("1"), "--evidence"),
        ("plan", "--min-strategies", Some("1"), "--evidence"),
        ("explore", "--resume", None, "--dir"),
    ] {
        let mut c = bin();
        c.arg(cmd).arg(&f).arg(flag).args(value);
        fails_with(&mut c, &format!("{flag} needs {needed}"));
    }
}

/// A compound assignment evaluates its target twice, so a target with a
/// side effect is a named parse error instead of a double update.
#[test]
fn compound_assignment_with_a_side_effect_fails_by_name() {
    let dir = tempdir("compound");
    let path = dir.join("twice.mc");
    std::fs::write(
        &path,
        "int a[4]; int i; int main() { i = 0; a[i++] += 5; print(i); print(a[1]); print(a[2]); return 0; }",
    )
    .unwrap();
    let out = bin().arg("run").arg(&path).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "parse error at 1:45: target of '+=' has a side effect \
             ('++', '--', an assignment or a call), which '+=' would run twice"
        ),
        "{stderr}"
    );
}

#[test]
fn unknown_flags_and_stray_arguments_fail_by_name() {
    let fails_with = |cmd: &mut Command, msg: &str| {
        let out = cmd.output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "expected '{msg}' in: {stderr}");
    };
    let f = fixture();
    fails_with(
        bin().arg("run").arg(&f).arg("--parallel"),
        "unknown flag '--parallel'",
    );
    fails_with(
        bin().arg("run").arg(&f).arg("--jsn"),
        "unknown flag '--jsn'",
    );
    fails_with(
        bin().arg("races").arg(&f).arg("other.mc"),
        "unexpected argument 'other.mc'",
    );
    fails_with(
        bin().args(["explore", "--batch", "4"]),
        "unknown flag '--batch'",
    );
}

/// An unknown command fails by name, `fleet` included: `explore` is the
/// one front end of the hostile sweep.
#[test]
fn unknown_command_and_missing_file_fail() {
    for cmd in ["frobnicate", "fleet"] {
        let out = bin()
            .arg(cmd)
            .arg(fixture())
            .args(["--seeds", "2"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command '{cmd}'")),
            "{stderr}"
        );
    }
    let out = bin()
        .arg("races")
        .arg("/nonexistent.mc")
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("cannot read"), "{msg}");
}

/// Spawn `cmd`, which must succeed.
fn run_ok(cmd: &mut Command) {
    let out = cmd.output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
}

/// Spawn `cmd`, which must fail cleanly — exit status 1, not a panic —
/// with stderr naming both the damaged file and its container.
fn assert_named_failure(cmd: &mut Command, file: &Path, container: &str) {
    let out = cmd.output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let named = format!("{}: {container} ", file.display());
    assert!(stderr.contains(&named), "expected '{named}…' in: {stderr}");
}

/// Flip every bit of the byte in the middle of `path`.
fn flip_middle_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read container");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(path, bytes).expect("write damaged container");
}

#[test]
fn damaged_containers_fail_with_named_errors() {
    let dir = tempdir("damaged");
    let log = dir.join("run.bin");
    run_ok(bin().arg("record").arg(fixture()).arg("-o").arg(&log));
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 1]).unwrap();
    assert_named_failure(bin().arg("replay").arg(fixture()).arg(&log), &log, "log");

    let evidence = dir.join("evidence");
    let plan = dir.join("demo.chpl");
    let with_evidence = |cmd: &str| {
        let mut c = bin();
        c.arg(cmd).arg(fixture()).arg("--evidence").arg(&evidence);
        c
    };
    run_ok(&mut with_evidence("explore"));
    run_ok(with_evidence("plan").arg("-o").arg(&plan));
    flip_middle_byte(&plan);
    assert_named_failure(
        bin().arg("run").arg(fixture()).arg("--plan").arg(&plan),
        &plan,
        "plan",
    );

    let chev = evidence.join("demo.chev");
    flip_middle_byte(&chev);
    assert_named_failure(&mut with_evidence("plan"), &chev, "evidence");
}
