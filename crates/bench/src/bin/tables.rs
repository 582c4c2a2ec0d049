//! Regenerate every table and figure of the paper's evaluation (§7).
//!
//! ```text
//! tables table1                # benchmarks & inputs (Table 1)
//! tables table2                # record/replay performance (Table 2)
//! tables fig5                  # overhead per optimization set
//! tables fig6                  # weak-lock ops / memory ops
//! tables fig7                  # logging vs contention breakdown
//! tables fig8                  # scalability over 2/4/8 workers
//! tables profile-sensitivity   # §7.3's saturation study
//! tables all                   # everything
//! ```
//!
//! Options: `--workers N` (default 4), `--trials N` (default 3),
//! `--profile-runs N` (default 6).

use chimera::{
    ablation_row, fig5_overheads, fig6_fractions, fig7_breakdown, fig8_scalability,
    figure5_configs, outln, profile_sensitivity, table2_row, threshold_sweep,
};
use chimera_bench::{fmt_kb, fmt_pct, fmt_x};
use chimera_minic::ir::LockGranularity;
use chimera_runtime::ExecConfig;
use chimera_testkit::bench::render_table;
use chimera_workloads::{all, Workload};

#[derive(Debug)]
struct Args {
    command: String,
    workers: u32,
    trials: u32,
    profile_runs: u32,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "all".to_string(),
        workers: 4,
        trials: 3,
        profile_runs: 6,
    };
    // A flag with a missing or malformed value is an error, not a silent
    // fall-back to the default: a typo like `--workers eight` must not
    // quietly produce 4-worker numbers labeled as something else.
    fn value_of(flag: &str, argv: &[String], i: usize) -> Result<u32, String> {
        let raw = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let n: u32 = raw
            .parse()
            .map_err(|_| format!("{flag}: expected a non-negative integer, got '{raw}'"))?;
        if n == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workers" => {
                args.workers = value_of("--workers", argv, i)?;
                i += 2;
            }
            "--trials" => {
                args.trials = value_of("--trials", argv, i)?;
                i += 2;
            }
            "--profile-runs" => {
                args.profile_runs = value_of("--profile-runs", argv, i)?;
                i += 2;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option '{flag}'"));
            }
            cmd => {
                args.command = cmd.to_string();
                i += 1;
            }
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: tables [COMMAND] [--workers N] [--trials N] [--profile-runs N]");
            std::process::exit(2);
        }
    };
    let exec = ExecConfig::default();
    match args.command.as_str() {
        "table1" => table1(),
        "table2" => table2(&args, &exec),
        "fig5" => fig5(&args, &exec),
        "fig6" => fig6(&args, &exec),
        "fig7" => fig7(&args, &exec),
        "fig8" => fig8(&args, &exec),
        "profile-sensitivity" => sensitivity(&exec),
        "ablations" => ablations(&args, &exec),
        "all" => {
            table1();
            table2(&args, &exec);
            fig5(&args, &exec);
            fig6(&args, &exec);
            fig7(&args, &exec);
            fig8(&args, &exec);
            sensitivity(&exec);
            ablations(&args, &exec);
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!(
                "commands: table1 table2 fig5 fig6 fig7 fig8 profile-sensitivity ablations all"
            );
            std::process::exit(2);
        }
    }
}

fn table1() {
    outln!("== Table 1: benchmarks and inputs ==\n");
    let mut rows = vec![vec![
        "category".to_string(),
        "application".to_string(),
        "LOC".to_string(),
        "profile env".to_string(),
        "eval env".to_string(),
    ]];
    for w in all() {
        let prof = w.profile_params(0);
        let eval = w.eval_params(4);
        let loc = w
            .compile(&eval)
            .map(|p| p.source_lines.to_string())
            .unwrap_or_else(|_| "?".into());
        rows.push(vec![
            w.category.to_string(),
            w.name.to_string(),
            loc,
            format!("{} workers, scale {}", prof.workers, prof.scale),
            format!("2/4/8 workers, scale {}", eval.scale),
        ]);
    }
    outln!("{}", render_table(&rows));
}

fn table2(args: &Args, exec: &ExecConfig) {
    outln!(
        "== Table 2: record & replay performance ({} workers, mean of {} trials) ==\n",
        args.workers, args.trials
    );
    let mut rows = vec![vec![
        "app".to_string(),
        "syscalls".to_string(),
        "sync ops".to_string(),
        "instr log".to_string(),
        "bb log".to_string(),
        "loop log".to_string(),
        "func log".to_string(),
        "orig time".to_string(),
        "rec time".to_string(),
        "record ovh".to_string(),
        "replay ovh".to_string(),
        "input KB".to_string(),
        "order KB".to_string(),
        "determ.".to_string(),
    ]];
    let mut sum_rec = 0.0;
    let mut n = 0.0;
    for w in all() {
        let row = table2_row(&w, args.workers, args.trials, args.profile_runs, exec);
        sum_rec += row.record_overhead;
        n += 1.0;
        rows.push(vec![
            row.name.clone(),
            row.syscall_logs.to_string(),
            row.sync_logs.to_string(),
            row.instr_logs.to_string(),
            row.bb_logs.to_string(),
            row.loop_logs.to_string(),
            row.func_logs.to_string(),
            row.original_time.to_string(),
            row.record_time.to_string(),
            fmt_x(row.record_overhead),
            fmt_x(row.replay_overhead),
            fmt_kb(row.input_log_bytes),
            fmt_kb(row.order_log_bytes),
            if row.deterministic { "yes" } else { "NO" }.to_string(),
        ]);
    }
    outln!("{}", render_table(&rows));
    outln!("average record overhead: {}\n", fmt_x(sum_rec / n));
}

fn fig5(args: &Args, exec: &ExecConfig) {
    outln!(
        "== Figure 5: normalized recording overhead per optimization set ({} workers) ==\n",
        args.workers
    );
    let labels: Vec<&str> = figure5_configs().iter().map(|(l, _)| *l).collect();
    let mut header = vec!["app".to_string()];
    header.extend(labels.iter().map(|l| l.to_string()));
    let mut rows = vec![header];
    let mut sums = vec![0.0f64; labels.len()];
    for w in all() {
        let o = fig5_overheads(&w, args.workers, args.trials, args.profile_runs, exec);
        let mut row = vec![w.name.to_string()];
        for (i, l) in labels.iter().enumerate() {
            sums[i] += o[l];
            row.push(fmt_x(o[l]));
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for s in &sums {
        avg.push(fmt_x(s / all().len() as f64));
    }
    rows.push(avg);
    outln!("{}", render_table(&rows));
}

fn fig6(args: &Args, exec: &ExecConfig) {
    outln!(
        "== Figure 6: weak-lock ops as a fraction of memory ops ({} workers) ==\n",
        args.workers
    );
    let labels: Vec<&str> = figure5_configs().iter().map(|(l, _)| *l).collect();
    let mut header = vec!["app".to_string()];
    header.extend(labels.iter().map(|l| l.to_string()));
    let mut rows = vec![header];
    let mut sums = vec![0.0f64; labels.len()];
    for w in all() {
        let f = fig6_fractions(&w, args.workers, args.profile_runs, exec);
        let mut row = vec![w.name.to_string()];
        for (i, l) in labels.iter().enumerate() {
            sums[i] += f[l];
            row.push(fmt_pct(f[l]));
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for s in &sums {
        avg.push(fmt_pct(s / all().len() as f64));
    }
    rows.push(avg);
    outln!("{}", render_table(&rows));
}

fn fig7(args: &Args, exec: &ExecConfig) {
    outln!(
        "== Figure 7: sources of recording overhead ({} workers, all opts) ==\n",
        args.workers
    );
    let grans = [
        LockGranularity::Function,
        LockGranularity::Loop,
        LockGranularity::BasicBlock,
        LockGranularity::Instruction,
    ];
    let mut rows = vec![vec![
        "app".to_string(),
        "func log".to_string(),
        "func wait".to_string(),
        "loop log".to_string(),
        "loop wait".to_string(),
        "bb log".to_string(),
        "bb wait".to_string(),
        "instr log".to_string(),
        "instr wait".to_string(),
        "contention (vs free)".to_string(),
    ]];
    for w in all() {
        let b = fig7_breakdown(&w, args.workers, args.profile_runs, exec);
        let mut row = vec![w.name.to_string()];
        for g in grans {
            row.push(b.log_cycles.get(&g).copied().unwrap_or(0).to_string());
            row.push(b.wait_cycles.get(&g).copied().unwrap_or(0).to_string());
        }
        row.push(
            b.makespan
                .saturating_sub(b.makespan_no_contention)
                .to_string(),
        );
        rows.push(row);
    }
    outln!("{}", render_table(&rows));
}

fn fig8(args: &Args, exec: &ExecConfig) {
    outln!("== Figure 8: scalability over 2/4/8 workers (all opts) ==\n");
    let mut rows = vec![vec![
        "app".to_string(),
        "2 workers".to_string(),
        "4 workers".to_string(),
        "8 workers".to_string(),
    ]];
    for w in all() {
        let pts = fig8_scalability(&w, args.trials, args.profile_runs, exec);
        let mut row = vec![w.name.to_string()];
        for (_, o) in pts {
            row.push(fmt_x(o));
        }
        rows.push(row);
    }
    outln!("{}", render_table(&rows));
}

fn ablations(args: &Args, exec: &ExecConfig) {
    outln!(
        "== Ablations: LEAP-style baseline and points-to precision ({} workers) ==\n",
        args.workers
    );
    let mut rows = vec![vec![
        "app".to_string(),
        "races (steens)".to_string(),
        "races (andersen)".to_string(),
        "chimera ovh".to_string(),
        "LEAP ovh".to_string(),
        "chimera ops".to_string(),
        "LEAP ops".to_string(),
    ]];
    for w in all() {
        let r = ablation_row(&w, args.workers, args.profile_runs, exec);
        rows.push(vec![
            r.name.clone(),
            r.races_steensgaard.to_string(),
            r.races_andersen.to_string(),
            fmt_x(r.chimera_overhead),
            fmt_x(r.leap_overhead),
            r.chimera_ops.to_string(),
            r.leap_ops.to_string(),
        ]);
    }
    outln!("{}", render_table(&rows));

    outln!("== Ablation: loop-body threshold (5.3) on fft and pfscan ==\n");
    let mut rows = vec![vec![
        "app".to_string(),
        "threshold".to_string(),
        "record ovh".to_string(),
    ]];
    for name in ["fft", "pfscan"] {
        let w = chimera_workloads::by_name(name).expect("workload exists");
        for (t, o) in threshold_sweep(&w, args.workers, &[0.0, 10.0, 25.0, 100.0], exec) {
            rows.push(vec![name.to_string(), format!("{t}"), fmt_x(o)]);
        }
    }
    outln!("{}", render_table(&rows));
}

fn sensitivity(exec: &ExecConfig) {
    outln!("== Profile sensitivity (§7.3): concurrent pairs vs profile runs ==\n");
    let picks: Vec<Workload> = ["pfscan", "water"]
        .iter()
        .filter_map(|n| chimera_workloads::by_name(n))
        .collect();
    let mut rows = vec![vec![
        "app".to_string(),
        "runs".to_string(),
        "concurrent pairs".to_string(),
    ]];
    for w in &picks {
        for (runs, pairs) in profile_sensitivity(w, 8, exec) {
            rows.push(vec![w.name.to_string(), runs.to_string(), pairs.to_string()]);
        }
    }
    outln!("{}", render_table(&rows));
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_args() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.command, "all");
        assert_eq!((a.workers, a.trials, a.profile_runs), (4, 3, 6));
    }

    #[test]
    fn command_and_flags_parse() {
        let a = parse_args(&argv(&[
            "table2",
            "--workers",
            "8",
            "--trials",
            "5",
            "--profile-runs",
            "12",
        ]))
        .unwrap();
        assert_eq!(a.command, "table2");
        assert_eq!((a.workers, a.trials, a.profile_runs), (8, 5, 12));
    }

    #[test]
    fn flags_may_precede_command() {
        let a = parse_args(&argv(&["--workers", "2", "fig8"])).unwrap();
        assert_eq!(a.command, "fig8");
        assert_eq!(a.workers, 2);
    }

    #[test]
    fn malformed_value_is_an_error_not_a_default() {
        let e = parse_args(&argv(&["--workers", "eight"])).unwrap_err();
        assert!(e.contains("--workers"), "{e}");
        assert!(e.contains("eight"), "{e}");
        let e = parse_args(&argv(&["table2", "--trials", "3.5"])).unwrap_err();
        assert!(e.contains("--trials"), "{e}");
        let e = parse_args(&argv(&["--profile-runs", "-1"])).unwrap_err();
        assert!(e.contains("--profile-runs"), "{e}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse_args(&argv(&["--workers"])).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
    }

    #[test]
    fn zero_is_rejected() {
        let e = parse_args(&argv(&["--trials", "0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse_args(&argv(&["--worker", "4"])).unwrap_err();
        assert!(e.contains("--worker"), "{e}");
    }
}
