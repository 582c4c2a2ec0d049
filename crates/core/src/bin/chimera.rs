//! The `chimera` command-line tool: run the pipeline on MiniC files.
//!
//! ```text
//! chimera races <file.mc>                      # static race report
//! chimera plan <file.mc> [--evidence DIR --min-seeds N --min-strategies N
//!               -o plan.chpl]                  # instrumentation plan /
//!                                              # certified demotion plan
//! chimera run <file.mc> [--seed N] [--no-jitter] [--json] [--strategy S]
//!             [--plan plan.chpl [--verify]]    # execute (uninstrumented,
//!                                              # or under a certified plan)
//! chimera record <file.mc> -o <log> [--seed N] [--no-jitter]
//!                                              # instrument + record
//! chimera replay <file.mc> <log> [--seed N] [--no-jitter] [--bisect]
//!                                              # replay from a log file
//! chimera ir <file.mc>                         # dump the IR
//! chimera drd <file.mc> [--seed N] [--no-jitter] [--instrumented]
//!             [--strategy S]                   # dynamic race report
//! chimera explore [file.mc] [--strategy S] [--seeds N] [--seed N]
//!                 [--jobs N] [--drd] [--check-determinism] [--raw]
//!                 [--dir D] [--resume] [--max-cells N]
//!                 [--evidence DIR] [-o r.json] # hostile-schedule sweep
//! ```
//!
//! One table, `FLAGS`, lists every flag with the subcommands that read
//! it, and parsing checks each flag against it: a flag the subcommand
//! does not read fails with `'<cmd>' does not take <flag> (<cmds> do)`,
//! an unknown flag with `unknown flag '<arg>'`, and a second positional
//! argument with `unexpected argument '<arg>'` — except for `replay`,
//! whose second positional is the log file. A second table, `NEEDS`,
//! lists the flags a subcommand reads only beside another flag, and
//! parsing fails each one given alone with `<flag> needs <flag>`:
//! `run --verify` needs `--plan`; `plan -o`, `--min-seeds` and
//! `--min-strategies` need `--evidence`; `explore --resume` needs
//! `--dir`. `--strategy` names one scheduling strategy (`jitter`, `pct`,
//! `preempt-bound`) for `run` and `drd`, or also `all` for `explore`; an
//! unknown strategy name fails. PCT's auto span is resolved against the
//! program's baseline retired-instruction count, as the hostile grid
//! does.
//!
//! `record` and `replay` must agree on the file and options so the
//! instrumented programs match; the log's byte format is
//! [`chimera_replay::ReplayLogs::to_bytes`]. With `--bisect`, a diverging
//! replay is re-examined forensically: the replayer records its own
//! journal and checkpoints alongside enforcement, and one pass over the
//! two journals names the first mismatched event and its chunk with a
//! root-cause hint (when the journals agree, the first differing
//! checkpoint digest names a state-value divergence).
//!
//! `run --json` emits a machine-readable report including the VM strategy
//! counters (superinstructions dispatched, batch runs, speculative
//! rounds) and the fusion summary. The speculative segment rounds arm
//! with or without timing jitter; a race detector's per-access feed (as
//! `drd` attaches) is what keeps them off.
//!
//! `explore` runs the hostile sweep, [`chimera::run_fleet`], over the
//! weak-lock-instrumented program (or, without a file, all nine paper
//! workloads): scheduling strategies (`--strategy`: `jitter`, `pct`,
//! `preempt-bound`, or `all`, the default list of `chimera::Grid`) ×
//! record seeds `1..=--seeds` at base `--seed`, each recording replayed
//! under a different seed of the same hostile strategy. `--drd`
//! cross-checks FastTrack against RELAY's static pairs; `--raw` sweeps
//! the program *uninstrumented* instead, where divergence is the
//! expected, flagged finding. `--jobs N` runs the cells work-stealing on
//! N worker threads (0 = one per core, 1 = serial) with a bit-identical
//! report. `--dir D` journals every outcome under a durable cell key in
//! `D/journal.chfj`; without it `explore` writes nothing but its `-o`
//! and `--evidence` files.
//! `--resume` skips journaled cells and `--max-cells N` budgets the new
//! ones, so an interrupted campaign continues where it left off and its
//! final report is byte-identical to a one-shot run.
//! `--check-determinism` runs every cell twice and diffs the state and
//! order hashes, kimberlite-style. `-o` writes the JSON report: the
//! per-strategy aggregates and one row per covered cell. `explore` exits
//! nonzero on any unexpected divergence, single-holder violation,
//! instrumented dynamic race or nondeterministic cell.
//!
//! The hybrid loop: `explore --evidence DIR` additionally sweeps each
//! target through `chimera_plan::gather_evidence` and writes a
//! checksummed `.chev` evidence container per program. `plan --evidence
//! DIR` then consumes the evidence — refusing with a named error if
//! coverage is below `--min-seeds`/`--min-strategies`, any cell was
//! unclean, or a dynamic race was statically unpredicted — and emits a
//! certified `.chpl` demotion plan. `run --plan plan.chpl` applies it
//! (digest-checked), executing with the demoted weak-locks stripped;
//! `--verify` re-runs FastTrack plus a hostile replay and, on any
//! contradiction, names the demoted pair it refutes.

use chimera::{
    analyze, out, outln, run_fleet, Analysis, FleetConfig, FleetTarget, Grid, PipelineConfig,
};
use chimera_minic::compile;
use chimera_minic::ir::Program;
use chimera_replay::wire::{read_file, write_atomic};
use chimera_runtime::{execute, worker_count, ExecConfig, SchedStrategy, ThreadId};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("chimera: {msg}");
            ExitCode::from(1)
        }
    }
}

/// The subcommands, in usage order.
const COMMANDS: [&str; 8] = [
    "races", "plan", "run", "record", "replay", "ir", "drd", "explore",
];

/// One command-line flag.
struct Flag {
    /// Its spellings; the first is the name [`Cli`] files it under.
    names: &'static [&'static str],
    /// What its value must be (named when it is missing), or `None` for
    /// a switch.
    value: Option<&'static str>,
    /// The subcommands that read it, in usage order.
    cmds: &'static [&'static str],
}

/// Every flag, with the subcommands that read it.
#[rustfmt::skip]
const FLAGS: [Flag; 20] = [
    flag(&["--seed"], Some("a number"), &["run", "record", "replay", "drd", "explore"]),
    // Timing jitter off: every seed then schedules alike.
    flag(&["--no-jitter"], None, &["run", "record", "replay", "drd"]),
    flag(&["-o", "--out"], Some("a path"), &["plan", "record", "explore"]),
    flag(&["--strategy"], Some("jitter|pct|preempt-bound|all"), &["run", "drd", "explore"]),
    flag(&["--json"], None, &["run"]),
    flag(&["--plan"], Some("a path"), &["run"]),
    flag(&["--verify"], None, &["run"]),
    flag(&["--bisect"], None, &["replay"]),
    flag(&["--instrumented"], None, &["drd"]),
    flag(&["--evidence"], Some("a directory"), &["plan", "explore"]),
    flag(&["--min-seeds"], Some("a number"), &["plan"]),
    flag(&["--min-strategies"], Some("a number"), &["plan"]),
    flag(&["--seeds"], Some("a number"), &["explore"]),
    flag(&["--jobs"], Some("a number (0 = one worker per core)"), &["explore"]),
    flag(&["--drd"], None, &["explore"]),
    flag(&["--check-determinism"], None, &["explore"]),
    flag(&["--raw"], None, &["explore"]),
    flag(&["--dir"], Some("a path"), &["explore"]),
    flag(&["--resume"], None, &["explore"]),
    flag(&["--max-cells"], Some("a number"), &["explore"]),
];

const fn flag(
    names: &'static [&'static str],
    value: Option<&'static str>,
    cmds: &'static [&'static str],
) -> Flag {
    Flag { names, value, cmds }
}

/// `(subcommand, flag, needed flag)`: the subcommand reads the flag only
/// when the needed flag is given too, so the flag alone fails by name.
const NEEDS: [(&str, &str, &str); 5] = [
    ("run", "--verify", "--plan"),
    ("plan", "-o", "--evidence"),
    ("plan", "--min-seeds", "--evidence"),
    ("plan", "--min-strategies", "--evidence"),
    ("explore", "--resume", "--dir"),
];

/// A parsed command line: the subcommand, its positional arguments, and
/// the flags given, filed under their first spelling (a switch's value
/// is empty; a repeated flag keeps its last value).
struct Cli {
    command: String,
    file: Option<String>,
    extra: Option<String>,
    flags: BTreeMap<&'static str, String>,
}

impl Cli {
    /// Whether `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The number given for `flag`.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        let hint = FLAGS
            .iter()
            .find(|f| f.names[0] == flag)
            .and_then(|f| f.value);
        v.parse()
            .map(Some)
            .map_err(|_| format!("{flag} needs {}", hint.unwrap_or("a number")))
    }
}

fn parse_cli() -> Result<Cli, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or_else(|| format!("usage: chimera <{}> <file.mc> [...]", COMMANDS.join("|")))?;
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!(
            "unknown command '{command}' ({})",
            COMMANDS.join("|")
        ));
    }
    let mut cli = Cli {
        command,
        file: None,
        extra: None,
        flags: BTreeMap::new(),
    };
    while let Some(arg) = argv.next() {
        if !arg.starts_with('-') {
            if cli.file.is_none() {
                cli.file = Some(arg);
            } else if cli.extra.is_none() && cli.command == "replay" {
                cli.extra = Some(arg);
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.names.contains(&arg.as_str()))
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        if !flag.cmds.contains(&cli.command.as_str()) {
            let (last, rest) = flag.cmds.split_last().expect("every flag has a reader");
            let readers = if rest.is_empty() {
                format!("{last} does")
            } else {
                format!("{} and {last} do", rest.join(", "))
            };
            return Err(format!("'{}' does not take {arg} ({readers})", cli.command));
        }
        let value = match flag.value {
            None => String::new(),
            Some(hint) => argv.next().ok_or_else(|| format!("{arg} needs {hint}"))?,
        };
        cli.flags.insert(flag.names[0], value);
    }
    for (cmd, flag, needed) in NEEDS {
        if cli.command == cmd && cli.on(flag) && !cli.on(needed) {
            return Err(format!("{flag} needs {needed}"));
        }
    }
    Ok(cli)
}

/// Read and compile the MiniC file at `path`.
fn compile_file(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    compile(&source).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let cli = parse_cli()?;
    let seed = cli.number("--seed")?.unwrap_or(0);
    if cli.command == "explore" {
        return run_explore(&cli, seed);
    }
    let path = cli.file.as_deref().ok_or("missing <file.mc> argument")?;
    let program = compile_file(path)?;
    let pipeline = PipelineConfig::default();
    let exec = ExecConfig {
        seed,
        jitter: if cli.on("--no-jitter") {
            chimera_runtime::Jitter::none()
        } else {
            chimera_runtime::Jitter::default()
        },
        ..ExecConfig::default()
    };
    let strategy = cli
        .value("--strategy")
        .map(|name| {
            SchedStrategy::parse(name)
                .ok_or_else(|| format!("unknown strategy '{name}' (jitter|pct|preempt-bound)"))
        })
        .transpose()?;

    match cli.command.as_str() {
        "races" => {
            let report = chimera_relay::detect_races(&program);
            out!("{}", report.describe(&program));
            outln!("{} race pair(s)", report.pairs.len());
            Ok(())
        }
        "ir" => {
            out!("{}", chimera_minic::pretty::program_to_string(&program));
            Ok(())
        }
        "plan" => {
            let analysis = analyze(&program, &pipeline);
            if let Some(dir) = cli.value("--evidence") {
                // Evidence-driven path: find this program's evidence
                // container, demote what the hostile sweep certified
                // race-free, and write the checksummed plan.
                let thresholds = chimera::Thresholds {
                    min_seeds: cli.number("--min-seeds")?.unwrap_or(3),
                    min_strategies: cli.number("--min-strategies")?.unwrap_or(2),
                };
                let digest = chimera::fleet::cell::program_digest(&analysis.program);
                let ev = chimera::Evidence::find(Path::new(dir), digest)?;
                let plan = chimera::demote(&ev, &thresholds).map_err(|e| e.to_string())?;
                outln!("{}", plan.describe());
                for d in &plan.demotions {
                    outln!(
                        "  demote ({}, {}) — race-free across {} evidence cell(s)",
                        d.pair.0,
                        d.pair.1,
                        d.cells.len()
                    );
                }
                for k in &plan.kept {
                    outln!("  keep   ({}, {}) — dynamically confirmed racy", k.0, k.1);
                }
                let out = cli.value("-o").unwrap_or("plan.chpl");
                plan.save(Path::new(out))?;
                outln!("wrote {out}");
                return Ok(());
            }
            let p = &analysis.plan;
            outln!("race pairs      : {}", analysis.races.pairs.len());
            outln!("weak-locks      : {}", p.n_weak_locks);
            outln!("cliques         : {}", p.stats.cliques);
            outln!(
                "sites           : {} function, {} loop, {} bb, {} instruction",
                p.func_locks.values().map(Vec::len).sum::<usize>(),
                p.loop_locks.values().map(Vec::len).sum::<usize>(),
                p.bb_locks.values().map(Vec::len).sum::<usize>(),
                p.instr_locks.values().map(Vec::len).sum::<usize>(),
            );
            for (f, locks) in &p.func_locks {
                outln!(
                    "  func-lock {:?} on {}",
                    locks,
                    analysis.program.funcs[f.index()].name
                );
            }
            Ok(())
        }
        "run" => {
            if let Some(plan_path) = cli.value("--plan") {
                // Execute under a certified demotion plan: re-analyze,
                // digest-check the plan against this program, and run the
                // thinner instrumentation it certifies.
                let plan = chimera::CertifiedPlan::load(Path::new(plan_path))?;
                let analysis = analyze(&program, &pipeline);
                let (planned, iplan) = chimera::apply_plan(
                    &analysis.program,
                    &analysis.races,
                    &analysis.profile,
                    &pipeline.opts,
                    &plan,
                )?;
                outln!(
                    "plan: {} of {} pair(s) demoted; weak-locks {} (full instrumentation: {})",
                    iplan.stats.pairs_demoted,
                    plan.static_pairs.len(),
                    planned.weak_locks,
                    analysis.instrumented.weak_locks,
                );
                let exec = under_strategy(&planned, &exec, strategy);
                let r = execute(&planned, &exec);
                if cli.on("--json") {
                    out!("{}", run_json(&planned, &r));
                } else {
                    report_exec(&r);
                }
                if cli.on("--verify") {
                    chimera::verify_under_plan(&planned, &plan, &exec)?;
                    outln!(
                        "verified under plan: FastTrack race-free, hostile replay equivalent"
                    );
                }
                return Ok(());
            }
            let exec = under_strategy(&program, &exec, strategy);
            let r = execute(&program, &exec);
            if cli.on("--json") {
                out!("{}", run_json(&program, &r));
            } else {
                report_exec(&r);
            }
            Ok(())
        }
        "record" => {
            let out = cli.value("-o").ok_or("record needs -o <logfile>")?;
            let analysis = analyze(&program, &pipeline);
            let rec = chimera_replay::record(&analysis.instrumented, &exec);
            report_exec(&rec.result);
            let bytes = rec.logs.to_bytes();
            write_atomic(Path::new(out), &bytes)?;
            let (ikb, okb) = rec.logs.compressed_sizes();
            outln!(
                "wrote {out}: {} bytes raw (est. compressed: input {ikb} B + order {okb} B)",
                bytes.len()
            );
            Ok(())
        }
        "replay" => {
            let log_path = cli.extra.as_deref().ok_or("replay needs <logfile>")?;
            let logs = read_file(
                Path::new(log_path),
                None,
                chimera_replay::ReplayLogs::from_bytes,
            )?;
            let analysis = analyze(&program, &pipeline);
            if cli.on("--bisect") {
                let rep = chimera_replay::replay_bisect(&analysis.instrumented, &logs, &exec);
                report_exec(&rep.result);
                match chimera_replay::localize_divergence(&logs, &rep.observed) {
                    None => {
                        outln!(
                            "replay conformant: {} chunk(s), {} checkpoint(s) verified",
                            logs.chunk_count(),
                            logs.checkpoints.len()
                        );
                        if rep.complete {
                            Ok(())
                        } else {
                            Err("replay stalled without journal divergence \
                                 (log truncated?)"
                                .into())
                        }
                    }
                    Some(d) => {
                        outln!("{d}");
                        Err(format!(
                            "replay diverged at event {} (chunk {}): {}",
                            d.event, d.chunk, d.cause
                        ))
                    }
                }
            } else {
                let rep = chimera_replay::replay(&analysis.instrumented, &logs, &exec);
                report_exec(&rep.result);
                if rep.complete {
                    outln!("replay complete: every logged event consumed");
                    Ok(())
                } else {
                    Err("replay diverged (did record/replay use the same file and options? \
                         try --bisect for forensics)"
                        .into())
                }
            }
        }
        "drd" => {
            // Dynamic (FastTrack) race detection over one execution. With
            // --instrumented the weak-lock-instrumented program runs
            // instead — the DRF-equivalence check: it should be race-free.
            let (target, label) = if cli.on("--instrumented") {
                (analyze(&program, &pipeline).instrumented, "instrumented")
            } else {
                (program, "uninstrumented")
            };
            let exec = under_strategy(&target, &exec, strategy);
            let run = chimera::drd::detect(&target, &exec);
            report_exec(&run.result);
            out!("{}", run.report.describe(&target));
            outln!(
                "{label}: {} racy pair(s), {} dynamic race observation(s)",
                run.report.pairs.len(),
                run.report.races
            );
            if run.report.is_race_free() {
                outln!("execution is data-race-free");
                if let Some(cert) = run.certificate(&exec) {
                    outln!("segment certificate: {}", cert.to_json());
                }
            }
            Ok(())
        }
        other => unreachable!("parse_cli admits only COMMANDS, not '{other}'"),
    }
}

/// `exec` under `--strategy`, if one was given, with PCT's auto span
/// resolved against `program`'s baseline retired-instruction count (the
/// resolution `chimera::Grid::cells` applies).
fn under_strategy(
    program: &Program,
    exec: &ExecConfig,
    strategy: Option<SchedStrategy>,
) -> ExecConfig {
    let Some(sched) = strategy else {
        return *exec;
    };
    let instrs = execute(program, exec).stats.instrs;
    ExecConfig {
        sched: chimera::fleet::resolve_strategy(sched, instrs),
        ..*exec
    }
}

/// The hostile grid `explore` sweeps: `--strategy` (one, or `all` for
/// the default list) × seeds `1..=--seeds`, at base `--seed`, on
/// `--jobs` workers.
fn sweep_grid(cli: &Cli, seed: u64) -> Result<Grid, String> {
    let strategies = match cli.value("--strategy").unwrap_or("all") {
        "all" => Grid::default().strategies,
        name => vec![SchedStrategy::parse(name)
            .ok_or_else(|| format!("unknown strategy '{name}' (jitter|pct|preempt-bound|all)"))?],
    };
    Ok(Grid {
        strategies,
        seeds: (1..=cli.number("--seeds")?.unwrap_or(3u64).max(1)).collect(),
        exec: ExecConfig {
            seed,
            ..ExecConfig::default()
        },
        jobs: cli.number("--jobs")?.unwrap_or(0),
    })
}

/// The programs `explore` sweeps: the given file, or all nine paper
/// workloads.
fn sweep_targets(cli: &Cli) -> Result<Vec<(String, Program)>, String> {
    let Some(path) = &cli.file else {
        return chimera::workloads::all()
            .iter()
            .map(|w| {
                let p = w
                    .compile(&w.profile_params(0))
                    .map_err(|e| format!("{}: {e}", w.name))?;
                Ok((w.name.to_string(), p))
            })
            .collect();
    };
    let name = Path::new(path)
        .file_stem()
        .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
    Ok(vec![(name, compile_file(path)?)])
}

/// `chimera explore`: run the hostile grid over one file (or all nine
/// workloads) work-stealing, journal every outcome under `--dir`, and
/// report grid-wide schedule coverage.
fn run_explore(cli: &Cli, seed: u64) -> Result<(), String> {
    let raw = cli.on("--raw");
    let evidence = cli.value("--evidence");
    if raw && evidence.is_some() {
        return Err(
            "--evidence needs the instrumented pipeline; it cannot be combined with --raw".into(),
        );
    }
    let cfg = FleetConfig {
        grid: sweep_grid(cli, seed)?,
        check_drd: cli.on("--drd"),
        check_determinism: cli.on("--check-determinism"),
        max_cells: cli.number("--max-cells")?,
        dir: cli.value("--dir").map(std::path::PathBuf::from),
        resume: cli.on("--resume"),
    };
    let mut targets: Vec<FleetTarget> = Vec::new();
    let mut evidence_inputs: Vec<(String, Analysis)> = Vec::new();
    for (name, program) in sweep_targets(cli)? {
        if raw {
            targets.push(FleetTarget::raw(&name, program));
        } else {
            let analysis = analyze(&program, &PipelineConfig::default());
            targets.push(analysis.fleet_target(&name));
            if evidence.is_some() {
                evidence_inputs.push((name, analysis));
            }
        }
    }

    let started = std::time::Instant::now();
    let run = run_fleet(&targets, &cfg)?;
    let elapsed = started.elapsed();
    let report = &run.report;

    for t in &report.targets {
        for st in &t.strategies {
            outln!(
                "{:>12} {:>13}: {} cell(s), {} divergence(s), {} violation(s), \
                 {} nondeterministic, {} distinct order(s) ({} prefix(es))",
                t.name,
                st.strategy,
                st.cells,
                st.divergences,
                st.violations,
                st.nondeterministic,
                st.distinct_orders,
                st.distinct_prefixes,
            );
        }
    }
    outln!("grid {} cell(s): {} covered", report.grid, report.covered);
    outln!(
        "coverage: {} distinct order(s), {} distinct prefix(es)",
        report.distinct_orders,
        report.distinct_prefixes
    );
    if report.flagged > 0 {
        outln!("flagged {} cell(s) for triage", report.flagged);
    }
    // What this invocation did, and how fast, goes to stderr: stdout is a
    // function of the grid alone, so a resumed run's stdout can be
    // diffed against a one-shot run's.
    eprintln!(
        "{} executed now, {} journal hit(s), {} budget-deferred; journal {}",
        run.executed, run.journal_hits, run.truncated, run.journal_total
    );
    let secs = elapsed.as_secs_f64();
    if run.executed > 0 && secs > 0.0 {
        eprintln!(
            "executed {} cell(s) in {:.2}s ({:.1} cells/s, {} worker(s))",
            run.executed,
            secs,
            run.executed as f64 / secs,
            worker_count(cfg.grid.jobs, run.executed as usize)
        );
    }

    if let Some(out) = cli.value("-o") {
        std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        outln!("wrote {out}");
    }

    // Evidence export runs its own gather sweep (the journal stores only
    // counts, not pair identities), written even when the grid fails —
    // unclean cells are themselves evidence.
    if let Some(dir) = evidence {
        for (name, analysis) in &evidence_inputs {
            let statics: Vec<_> = analysis.races.pairs.iter().map(|p| (p.a, p.b)).collect();
            let ev = chimera::gather_evidence(
                name,
                &analysis.program,
                &analysis.instrumented,
                &statics,
                &cfg.grid,
            );
            let path = ev.save(Path::new(dir))?;
            outln!(
                "{name:>12} evidence: {} cell(s), {} static pair(s), {} confirmed racy -> {}",
                ev.cells.len(),
                ev.static_pairs.len(),
                ev.confirmed_racy.len(),
                path.display()
            );
        }
    }

    if !report.passed() {
        return Err("fleet found unexpected divergences, violations, or nondeterminism".into());
    }
    outln!("fleet passed: every instrumented cell replayed deterministically");
    Ok(())
}

/// `chimera run --json`: one JSON object with the execution result, the
/// VM strategy counters (how the flat engine actually ran the program),
/// and the fusion summary (static pairs and fused sites per
/// superinstruction pattern).
fn run_json(program: &chimera_minic::ir::Program, r: &chimera_runtime::ExecResult) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"outcome\": \"{:?}\",\n", r.outcome));
    s.push_str(&format!("  \"cycles\": {},\n", r.makespan));
    s.push_str(&format!("  \"state_hash\": \"{:016x}\",\n", r.state_hash));
    let out: Vec<String> = r
        .output
        .iter()
        .map(|(t, v)| format!("[{}, {}]", t.0, v))
        .collect();
    s.push_str(&format!("  \"output\": [{}],\n", out.join(", ")));
    s.push_str(&format!(
        "  \"stats\": {{ \"instrs\": {}, \"mem_ops\": {}, \"sync_ops\": {}, \"syscalls\": {}, \"threads\": {} }},\n",
        r.stats.instrs, r.stats.mem_ops, r.stats.sync_ops, r.stats.syscalls, r.stats.threads
    ));
    let vm = &r.stats.vm;
    s.push_str(&format!(
        "  \"vm\": {{ \"fused_ops\": {}, \"batch_runs\": {}, \"batched_ops\": {}, \
         \"spec_rounds\": {}, \"spec_segments\": {}, \"spec_ops\": {}, \
         \"spec_discards\": {} }},\n",
        vm.fused_ops,
        vm.batch_runs,
        vm.batched_ops,
        vm.spec_rounds,
        vm.spec_segments,
        vm.spec_ops,
        vm.spec_discards
    ));
    let fusion = chimera_runtime::fusion_summary(program);
    s.push_str(&format!(
        "  \"fusion\": {{ \"fused_sites\": {}, \"patterns\": [",
        fusion.fused_sites
    ));
    let pats: Vec<String> = fusion
        .rows
        .iter()
        .map(|(a, b, pairs, fused)| {
            format!("{{ \"pair\": \"{a}+{b}\", \"static_pairs\": {pairs}, \"fused_sites\": {fused} }}")
        })
        .collect();
    s.push_str(&pats.join(", "));
    s.push_str("] }\n}\n");
    s
}

fn report_exec(r: &chimera_runtime::ExecResult) {
    outln!("outcome : {:?}", r.outcome);
    outln!("cycles  : {}", r.makespan);
    let main_out = r.output_of(ThreadId(0));
    if !main_out.is_empty() {
        outln!("output  : {main_out:?}");
    }
    for t in 1..r.stats.threads {
        let o = r.output_of(ThreadId(t as u32));
        if !o.is_empty() {
            outln!("output T{t}: {o:?}");
        }
    }
}
