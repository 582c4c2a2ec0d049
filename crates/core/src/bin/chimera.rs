//! The `chimera` command-line tool: run the pipeline on MiniC files.
//!
//! ```text
//! chimera races <file.mc>                      # static race report
//! chimera plan <file.mc> [--evidence DIR --min-seeds N --min-strategies N
//!               -o plan.chpl]                  # instrumentation plan /
//!                                              # certified demotion plan
//! chimera run <file.mc> [--seed N] [--no-jitter] [--json]
//!             [--plan plan.chpl [--verify]]    # execute (uninstrumented,
//!                                              # or under a certified plan)
//! chimera record <file.mc> -o <log> [--seed N] # instrument + record
//! chimera replay <file.mc> <log> [--seed N] [--bisect]
//!                                              # replay from a log file
//! chimera ir <file.mc>                         # dump the IR
//! chimera drd <file.mc> [--instrumented]       # dynamic race report
//! chimera explore [file.mc] [--strategy S] [--seeds N] [--jobs N] [--drd]
//!                 [--evidence DIR] [-o r.json] # adversarial-schedule sweep
//! chimera fleet [file.mc] [--strategy S] [--seeds N] [--jobs N] [--drd]
//!               [--dir D] [--resume] [--check-determinism] [--max-cells N]
//!               [--raw] [--evidence DIR] [-o r.json]  # exploration-cell fleet
//! ```
//!
//! `record` and `replay` must agree on the file and options so the
//! instrumented programs match; the log's byte format is
//! [`chimera_replay::ReplayLogs::to_bytes`]. With `--bisect`, a diverging
//! replay is re-examined forensically: the replayer records its own
//! journal and checkpoints alongside enforcement, and a binary search over
//! the checkpoint digests names the first mismatched chunk and event with
//! a root-cause hint (requires a log recorded with its journal).
//!
//! `run --json` emits a machine-readable report including the VM strategy
//! counters (superinstructions dispatched, batch runs, speculative
//! rounds) and the decode-time fusion table. The speculative segment
//! rounds only arm with timing jitter off — pass `--no-jitter` to see
//! them engage.
//!
//! `explore` sweeps the instrumented program across scheduling strategies
//! (`jitter`, `pct`, `preempt-bound`, or `all`) × `--seeds` record seeds,
//! replaying each recording under a different seed of the same hostile
//! strategy; without a file it sweeps all nine paper workloads. It exits
//! nonzero if any replay diverges or the weak-lock single-holder
//! invariant is ever violated, and writes a JSON schedule-coverage report
//! with `-o`. `--jobs N` runs the sweep on N worker threads (0 = one per
//! core; `CHIMERA_SERIAL=1` forces serial) with a bit-identical report.
//!
//! The hybrid loop: `explore --evidence DIR` (or `fleet --evidence DIR`)
//! additionally sweeps each target through `chimera_plan::gather_evidence`
//! and writes a checksummed `.chev` evidence container per program. `plan
//! --evidence DIR` then consumes the evidence — refusing with a named
//! error if coverage is below `--min-seeds`/`--min-strategies`, any cell
//! was unclean, or a dynamic race was statically unpredicted — and emits
//! a certified `.chpl` demotion plan. `run --plan plan.chpl` applies it
//! (digest-checked), executing with the demoted weak-locks stripped;
//! `--verify` re-runs FastTrack plus a hostile replay and, on any
//! contradiction, names the demoted pair it refutes.
//!
//! `fleet` scales the same per-cell pipeline to campaign size: the full
//! `programs × strategies × seeds` grid runs work-stealing across `--jobs`
//! workers, every outcome is journaled under a durable cell key, and
//! interesting cells (new schedule coverage, divergences, preemption-heavy
//! runs, violations) feed a persistent seed corpus. `--dir D` holds
//! `journal.chfj` + `corpus.chfc`; `--resume` skips journaled cells (an
//! interrupted or `--max-cells`-budgeted campaign continues where it
//! left off, and the final report is byte-identical to a one-shot run);
//! `--check-determinism` runs every cell twice and diffs the state and
//! order hashes, kimberlite-style; `--raw` sweeps the program
//! *uninstrumented*, where divergence is the expected, flagged finding.

use chimera::{analyze, ExploreConfig, OptSet, PipelineConfig};
use chimera_minic::compile;
use chimera_runtime::{execute, ExecConfig, SchedStrategy, ThreadId};
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

struct Cli {
    command: String,
    file: Option<String>,
    extra: Option<String>,
    out: Option<String>,
    seed: u64,
    naive: bool,
    opt: bool,
    instrumented: bool,
    strategy: String,
    seeds: u64,
    drd: bool,
    bisect: bool,
    json: bool,
    no_jitter: bool,
    jobs: usize,
    dir: Option<String>,
    resume: bool,
    check_determinism: bool,
    max_cells: Option<u64>,
    raw: bool,
    evidence: Option<String>,
    min_seeds: u32,
    min_strategies: u32,
    plan_file: Option<String>,
    verify: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(
            "usage: chimera <races|plan|run|record|replay|ir|drd|explore|fleet> <file.mc> [...]"
                .into(),
        );
    }
    let mut cli = Cli {
        command: argv[0].clone(),
        file: None,
        extra: None,
        out: None,
        seed: 0,
        naive: false,
        opt: false,
        instrumented: false,
        strategy: "all".to_string(),
        seeds: 3,
        drd: false,
        bisect: false,
        json: false,
        no_jitter: false,
        jobs: 0,
        dir: None,
        resume: false,
        check_determinism: false,
        max_cells: None,
        raw: false,
        evidence: None,
        min_seeds: 3,
        min_strategies: 2,
        plan_file: None,
        verify: false,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => {
                cli.seed = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
                i += 2;
            }
            "-o" | "--out" => {
                cli.out = Some(argv.get(i + 1).cloned().ok_or("-o needs a path")?);
                i += 2;
            }
            "--naive" => {
                cli.naive = true;
                i += 1;
            }
            "--opt" => {
                cli.opt = true;
                i += 1;
            }
            "--instrumented" => {
                cli.instrumented = true;
                i += 1;
            }
            "--strategy" => {
                cli.strategy = argv
                    .get(i + 1)
                    .cloned()
                    .ok_or("--strategy needs jitter|pct|preempt-bound|all")?;
                i += 2;
            }
            "--seeds" => {
                cli.seeds = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seeds needs a number")?;
                i += 2;
            }
            "--drd" => {
                cli.drd = true;
                i += 1;
            }
            "--bisect" => {
                cli.bisect = true;
                i += 1;
            }
            "--json" => {
                cli.json = true;
                i += 1;
            }
            "--jobs" => {
                cli.jobs = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs a number (0 = one worker per core)")?;
                i += 2;
            }
            "--dir" => {
                cli.dir = Some(argv.get(i + 1).cloned().ok_or("--dir needs a path")?);
                i += 2;
            }
            "--resume" => {
                cli.resume = true;
                i += 1;
            }
            "--check-determinism" => {
                cli.check_determinism = true;
                i += 1;
            }
            "--max-cells" => {
                cli.max_cells = Some(
                    argv.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-cells needs a number")?,
                );
                i += 2;
            }
            "--raw" => {
                cli.raw = true;
                i += 1;
            }
            "--evidence" => {
                cli.evidence =
                    Some(argv.get(i + 1).cloned().ok_or("--evidence needs a directory")?);
                i += 2;
            }
            "--min-seeds" => {
                cli.min_seeds = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-seeds needs a number")?;
                i += 2;
            }
            "--min-strategies" => {
                cli.min_strategies = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-strategies needs a number")?;
                i += 2;
            }
            "--plan" => {
                cli.plan_file = Some(argv.get(i + 1).cloned().ok_or("--plan needs a path")?);
                i += 2;
            }
            "--verify" => {
                cli.verify = true;
                i += 1;
            }
            "--no-jitter" => {
                // Timing jitter off. This is what arms the speculative
                // segment rounds: hot commits must draw no RNG.
                cli.no_jitter = true;
                i += 1;
            }
            arg => {
                if cli.file.is_none() {
                    cli.file = Some(arg.to_string());
                } else if cli.extra.is_none() {
                    cli.extra = Some(arg.to_string());
                } else {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                i += 1;
            }
        }
    }
    Ok(cli)
}

fn run() -> Result<(), String> {
    let cli = parse_cli()?;
    if cli.command == "explore" {
        return run_explore(&cli);
    }
    if cli.command == "fleet" {
        return run_fleet_cmd(&cli);
    }
    let path = cli.file.clone().ok_or("missing <file.mc> argument")?;
    let source =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut program = compile(&source).map_err(|e| format!("{path}: {e}"))?;
    if cli.opt {
        let n = chimera_minic::opt::optimize(&mut program);
        eprintln!("optimizer: {n} instruction(s) simplified or removed");
    }
    let program = program;

    let opts = if cli.naive {
        OptSet::naive()
    } else {
        OptSet::all()
    };
    let exec = ExecConfig {
        seed: cli.seed,
        jitter: if cli.no_jitter {
            chimera_runtime::Jitter::none()
        } else {
            chimera_runtime::Jitter::default()
        },
        ..ExecConfig::default()
    };

    match cli.command.as_str() {
        "races" => {
            let report = chimera_relay::detect_races(&program);
            print!("{}", report.describe(&program));
            println!("{} race pair(s)", report.pairs.len());
            Ok(())
        }
        "ir" => {
            print!("{}", chimera_minic::pretty::program_to_string(&program));
            Ok(())
        }
        "plan" => {
            let analysis = analyze(
                &program,
                &PipelineConfig {
                    opts,
                    ..PipelineConfig::default()
                },
            );
            if let Some(dir) = &cli.evidence {
                // Evidence-driven path: find this program's evidence
                // container, demote what the hostile sweep certified
                // race-free, and write the checksummed plan.
                let digest = chimera::fleet::cell::program_digest(&analysis.program);
                let ev = chimera::Evidence::find(std::path::Path::new(dir), digest)?;
                let thresholds = chimera::Thresholds {
                    min_seeds: cli.min_seeds,
                    min_strategies: cli.min_strategies,
                };
                let plan = chimera::demote(&ev, &thresholds).map_err(|e| e.to_string())?;
                println!("{}", plan.describe());
                for d in &plan.demotions {
                    println!(
                        "  demote ({}, {}) — race-free across {} evidence cell(s)",
                        d.pair.0,
                        d.pair.1,
                        d.cells.len()
                    );
                }
                for k in &plan.kept {
                    println!("  keep   ({}, {}) — dynamically confirmed racy", k.0, k.1);
                }
                let out = cli.out.clone().unwrap_or_else(|| "plan.chpl".to_string());
                plan.save(std::path::Path::new(&out))?;
                println!("wrote {out}");
                return Ok(());
            }
            let p = &analysis.plan;
            println!("race pairs      : {}", analysis.races.pairs.len());
            println!("weak-locks      : {}", p.n_weak_locks);
            println!("cliques         : {}", p.stats.cliques);
            println!(
                "sites           : {} function, {} loop, {} bb, {} instruction",
                p.func_locks.values().map(Vec::len).sum::<usize>(),
                p.loop_locks.values().map(Vec::len).sum::<usize>(),
                p.bb_locks.values().map(Vec::len).sum::<usize>(),
                p.instr_locks.values().map(Vec::len).sum::<usize>(),
            );
            for (f, locks) in &p.func_locks {
                println!(
                    "  func-lock {:?} on {}",
                    locks,
                    analysis.program.funcs[f.index()].name
                );
            }
            Ok(())
        }
        "run" => {
            if let Some(plan_path) = &cli.plan_file {
                // Execute under a certified demotion plan: re-analyze,
                // digest-check the plan against this program, and run the
                // thinner instrumentation it certifies.
                let plan = chimera::CertifiedPlan::load(std::path::Path::new(plan_path))?;
                let analysis = analyze(
                    &program,
                    &PipelineConfig {
                        opts: opts.clone(),
                        ..PipelineConfig::default()
                    },
                );
                let (planned, iplan) = chimera::apply_plan(
                    &analysis.program,
                    &analysis.races,
                    &analysis.profile,
                    &opts,
                    &plan,
                )?;
                println!(
                    "plan: {} of {} pair(s) demoted; weak-locks {} (full instrumentation: {})",
                    iplan.stats.pairs_demoted,
                    plan.static_pairs.len(),
                    planned.weak_locks,
                    analysis.instrumented.weak_locks,
                );
                let r = execute(&planned, &exec);
                if cli.json {
                    print!("{}", run_json(&planned, &r));
                } else {
                    report_exec(&r);
                }
                if cli.verify {
                    chimera::verify_under_plan(&planned, &plan, &exec)?;
                    println!(
                        "verified under plan: FastTrack race-free, hostile replay equivalent"
                    );
                }
                return Ok(());
            }
            let r = execute(&program, &exec);
            if cli.json {
                print!("{}", run_json(&program, &r));
            } else {
                report_exec(&r);
            }
            Ok(())
        }
        "record" => {
            let out = cli.out.clone().ok_or("record needs -o <logfile>")?;
            let analysis = analyze(
                &program,
                &PipelineConfig {
                    opts,
                    ..PipelineConfig::default()
                },
            );
            let rec = chimera_replay::record(&analysis.instrumented, &exec);
            report_exec(&rec.result);
            let bytes = rec.logs.to_bytes();
            std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
            let (ikb, okb) = rec.logs.compressed_sizes();
            println!(
                "wrote {out}: {} bytes raw (est. compressed: input {ikb} B + order {okb} B)",
                bytes.len()
            );
            Ok(())
        }
        "replay" => {
            let log_path = cli.extra.clone().ok_or("replay needs <logfile>")?;
            let bytes = std::fs::read(&log_path)
                .map_err(|e| format!("cannot read {log_path}: {e}"))?;
            let logs = chimera_replay::ReplayLogs::from_bytes(&bytes)
                .map_err(|e| format!("{log_path}: {e}"))?;
            let analysis = analyze(
                &program,
                &PipelineConfig {
                    opts,
                    ..PipelineConfig::default()
                },
            );
            if cli.bisect {
                if logs.journal.is_empty() && logs.sync_log_entries > 0 {
                    return Err(format!(
                        "{log_path} is a log with no journal or checkpoints; \
                         re-record it to enable bisection"
                    ));
                }
                let rep = chimera_replay::replay_bisect(&analysis.instrumented, &logs, &exec);
                report_exec(&rep.result);
                match chimera_replay::localize_divergence(&logs, &rep.observed) {
                    None => {
                        println!(
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
                        println!("{d}");
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
                    println!("replay complete: every logged event consumed");
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
            let (target, label) = if cli.instrumented {
                let analysis = analyze(
                    &program,
                    &PipelineConfig {
                        opts,
                        ..PipelineConfig::default()
                    },
                );
                (analysis.instrumented.clone(), "instrumented")
            } else {
                (program.clone(), "uninstrumented")
            };
            let run = chimera::drd::detect(&target, &exec);
            report_exec(&run.result);
            print!("{}", run.report.describe(&target));
            println!(
                "{label}: {} racy pair(s), {} dynamic race observation(s)",
                run.report.pairs.len(),
                run.report.races
            );
            if run.report.is_race_free() {
                println!("execution is data-race-free");
                if let Some(cert) = run.certificate(&exec) {
                    println!("segment certificate: {}", cert.to_json());
                }
            }
            Ok(())
        }
        other => Err(format!(
            "unknown command '{other}' (races|plan|run|record|replay|ir|drd|explore|fleet)"
        )),
    }
}

/// `chimera explore`: sweep one file (or all nine workloads) across
/// adversarial scheduling strategies and certify replay under each.
fn run_explore(cli: &Cli) -> Result<(), String> {
    let strategies = match cli.strategy.as_str() {
        "all" => vec![
            SchedStrategy::ClockJitter,
            SchedStrategy::pct(3),
            SchedStrategy::preempt_bound(),
        ],
        name => vec![SchedStrategy::parse(name)
            .ok_or_else(|| format!("unknown strategy '{name}' (jitter|pct|preempt-bound|all)"))?],
    };
    let cfg = ExploreConfig {
        strategies,
        seeds: (1..=cli.seeds.max(1)).collect(),
        exec: ExecConfig {
            seed: cli.seed,
            ..ExecConfig::default()
        },
        check_drd: cli.drd,
        jobs: cli.jobs,
    };
    let opts = if cli.naive {
        OptSet::naive()
    } else {
        OptSet::all()
    };
    let pipeline = PipelineConfig {
        opts,
        ..PipelineConfig::default()
    };

    let mut targets: Vec<(String, chimera_minic::ir::Program)> = Vec::new();
    if let Some(path) = &cli.file {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = compile(&source).map_err(|e| format!("{path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        targets.push((name, program));
    } else {
        for w in chimera::workloads::all() {
            let p = w
                .compile(&w.profile_params(0))
                .map_err(|e| format!("{}: {e}", w.name))?;
            targets.push((w.name.to_string(), p));
        }
    }

    let gather = cli.evidence.as_ref().map(|dir| {
        (
            std::path::PathBuf::from(dir),
            chimera::GatherConfig {
                strategies: cfg.strategies.clone(),
                seeds: cfg.seeds.clone(),
                exec: cfg.exec,
                jobs: cfg.jobs,
            },
        )
    });

    let mut reports = Vec::new();
    let mut failed = false;
    for (name, program) in &targets {
        let analysis = analyze(program, &pipeline);
        if let Some((dir, gcfg)) = &gather {
            let statics: Vec<_> = analysis.races.pairs.iter().map(|p| (p.a, p.b)).collect();
            let ev = chimera::gather_evidence(
                name,
                &analysis.program,
                &analysis.instrumented,
                &statics,
                gcfg,
            );
            let path = ev.save(dir)?;
            println!(
                "{name:>8} evidence: {} cell(s), {} static pair(s), {} confirmed racy -> {}",
                ev.cells.len(),
                ev.static_pairs.len(),
                ev.confirmed_racy.len(),
                path.display()
            );
        }
        let report = chimera::explore(name, &analysis, &cfg);
        for st in &report.strategies {
            println!(
                "{name:>8} {:>13}: {} seed(s), {} divergence(s), {} violation(s), \
                 {} distinct order(s) ({} prefix(es)), {} preemption(s)",
                st.strategy,
                st.outcomes.len(),
                st.divergences,
                st.violations,
                st.distinct_orders,
                st.distinct_prefixes,
                st.preemptions,
            );
        }
        failed |= !report.clean();
        reports.push(report);
    }

    if let Some(out) = &cli.out {
        let mut json = String::from("[\n");
        for (i, r) in reports.iter().enumerate() {
            json.push_str(&r.to_json());
            if i + 1 < reports.len() {
                let end = json.trim_end_matches('\n').len();
                json.truncate(end);
                json.push_str(",\n");
            }
        }
        json.push_str("]\n");
        std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }

    if failed {
        return Err("schedule exploration found divergences or invariant violations".into());
    }
    println!(
        "explored {} program(s): all replays equivalent, single-holder invariant held",
        reports.len()
    );
    Ok(())
}

/// `chimera fleet`: run the full exploration-cell grid work-stealing,
/// journal every outcome, harvest interesting cells into the seed corpus,
/// and report grid-wide schedule coverage.
fn run_fleet_cmd(cli: &Cli) -> Result<(), String> {
    use chimera::{run_fleet, FleetConfig, FleetTarget};

    let strategies = match cli.strategy.as_str() {
        "all" => vec![
            SchedStrategy::ClockJitter,
            SchedStrategy::pct(3),
            SchedStrategy::preempt_bound(),
        ],
        name => vec![SchedStrategy::parse(name)
            .ok_or_else(|| format!("unknown strategy '{name}' (jitter|pct|preempt-bound|all)"))?],
    };
    let opts = if cli.naive {
        OptSet::naive()
    } else {
        OptSet::all()
    };
    let pipeline = PipelineConfig {
        opts,
        ..PipelineConfig::default()
    };

    // Build the target list: one file, or all nine paper workloads.
    let mut sources: Vec<(String, chimera_minic::ir::Program)> = Vec::new();
    if let Some(path) = &cli.file {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = compile(&source).map_err(|e| format!("{path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        sources.push((name, program));
    } else {
        for w in chimera::workloads::all() {
            let p = w
                .compile(&w.profile_params(0))
                .map_err(|e| format!("{}: {e}", w.name))?;
            sources.push((w.name.to_string(), p));
        }
    }
    if cli.raw && cli.evidence.is_some() {
        return Err(
            "--evidence needs the instrumented pipeline; it cannot be combined with --raw".into(),
        );
    }
    let mut targets: Vec<FleetTarget> = Vec::new();
    let mut evidence_inputs: Vec<(String, chimera::Analysis)> = Vec::new();
    for (name, program) in sources {
        if cli.raw {
            targets.push(FleetTarget::raw(&name, program));
        } else {
            let analysis = analyze(&program, &pipeline);
            let statics = analysis.races.pairs.iter().map(|p| (p.a, p.b)).collect();
            targets.push(FleetTarget {
                name: name.clone(),
                program: analysis.instrumented.clone(),
                cross: Some((analysis.program.clone(), statics)),
                expect_divergence: false,
            });
            if cli.evidence.is_some() {
                evidence_inputs.push((name, analysis));
            }
        }
    }

    let cfg = FleetConfig {
        strategies,
        seeds: (1..=cli.seeds.max(1)).collect(),
        exec: ExecConfig {
            seed: cli.seed,
            ..ExecConfig::default()
        },
        check_drd: cli.drd,
        check_determinism: cli.check_determinism,
        jobs: cli.jobs,
        batch: 0,
        max_cells: cli.max_cells,
        dir: cli.dir.as_ref().map(std::path::PathBuf::from),
        resume: cli.resume,
    };

    let started = std::time::Instant::now();
    let run = run_fleet(&targets, &cfg)?;
    let elapsed = started.elapsed();
    let report = &run.report;

    for t in &report.targets {
        for st in &t.strategies {
            println!(
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
    println!(
        "grid {} cell(s): {} covered, {} executed now, {} journal hit(s), {} budget-deferred",
        report.grid, report.covered, run.executed, run.journal_hits, run.truncated
    );
    println!(
        "coverage: {} distinct order(s), {} distinct prefix(es); corpus {} (+{} this run); \
         journal {}",
        report.distinct_orders,
        report.distinct_prefixes,
        report.corpus_total,
        run.corpus_added,
        run.journal_total
    );
    if report.flagged > 0 {
        println!("flagged {} cell(s) for the corpus triage queue", report.flagged);
    }
    // Wall-clock throughput goes to stderr: stdout stays a deterministic
    // function of the grid so resumed runs can be diffed against one-shot.
    let secs = elapsed.as_secs_f64();
    if run.executed > 0 && secs > 0.0 {
        eprintln!(
            "executed {} cell(s) in {:.2}s ({:.1} cells/s, jobs={})",
            run.executed,
            secs,
            run.executed as f64 / secs,
            cli.jobs
        );
    }

    if let Some(out) = &cli.out {
        std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }

    // Evidence export runs its own gather sweep (the fleet journal stores
    // only counts, not pair identities), written even when the grid fails
    // — unclean cells are themselves evidence.
    if let Some(dir) = &cli.evidence {
        let dir = std::path::PathBuf::from(dir);
        let gcfg = chimera::GatherConfig {
            strategies: cfg.strategies.clone(),
            seeds: cfg.seeds.clone(),
            exec: cfg.exec,
            jobs: cfg.jobs,
        };
        for (name, analysis) in &evidence_inputs {
            let statics: Vec<_> = analysis.races.pairs.iter().map(|p| (p.a, p.b)).collect();
            let ev = chimera::gather_evidence(
                name,
                &analysis.program,
                &analysis.instrumented,
                &statics,
                &gcfg,
            );
            let path = ev.save(&dir)?;
            println!(
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
    println!("fleet passed: every instrumented cell replayed deterministically");
    Ok(())
}

/// `chimera run --json`: one JSON object with the execution result, the
/// VM strategy counters (how the flat engine actually ran the program),
/// and the decode-time fusion table that drove the superinstruction pass.
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
    println!("outcome : {:?}", r.outcome);
    println!("cycles  : {}", r.makespan);
    let main_out = r.output_of(ThreadId(0));
    if !main_out.is_empty() {
        println!("output  : {main_out:?}");
    }
    for t in 1..r.stats.threads {
        let o = r.output_of(ThreadId(t as u32));
        if !o.is_empty() {
            println!("output T{t}: {o:?}");
        }
    }
}
