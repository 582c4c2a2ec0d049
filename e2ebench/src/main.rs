//! `e2e` — the end-to-end Chimera benchmark: MiniC source to verified
//! replay, one closed-loop client per run. See `README.md` for the
//! workloads, the metrics and how to compare two commits.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--trace-out FILE]
//! e2e --smoke
//! e2e --compare A.json... -- B.json... [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints one `name value unit` line per metric, then, as its last
//! line, `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! It exits 1 when a job failed or an oracle did not hold, 2 on bad
//! arguments.

mod chain;
mod compare;
mod json;
mod run;
mod stats;
mod trace;
mod workloads;

use json::quote;
use run::{run, Report, RunOpts};
use std::path::{Path, PathBuf};
use workloads::Kind;

const USAGE: &str = "usage: e2e --workload <paper-pipeline|long-record-replay|\
static-pointer-chains|hybrid-sweep> [--seed N] [--seconds S] [--trace 0|1] \
[--out FILE] [--trace-out FILE]\n       e2e --smoke\n       \
e2e --compare A.json... -- B.json... [--benchmark FILE]";

/// Where runs keep scratch files and traces: `out/` beside this package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

enum Mode {
    Run {
        opts: RunOpts,
        out: Option<PathBuf>,
        trace_out: Option<PathBuf>,
    },
    Smoke,
    Compare {
        a: Vec<PathBuf>,
        b: Vec<PathBuf>,
        bench: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        let rest = &args[1..];
        let (mut a, mut b, mut bench) = (Vec::new(), Vec::new(), None);
        let mut after_sep = false;
        let mut it = rest.iter();
        while let Some(x) = it.next() {
            match x.as_str() {
                "--" => after_sep = true,
                "--benchmark" => {
                    bench = Some(PathBuf::from(it.next().ok_or("--benchmark needs a file")?))
                }
                f if after_sep => b.push(PathBuf::from(f)),
                f => a.push(PathBuf::from(f)),
            }
        }
        if a.is_empty() || b.is_empty() {
            return Err("--compare needs runs on both sides of --".into());
        }
        let bench = bench.unwrap_or_else(|| {
            let here = PathBuf::from("BENCHMARK.json");
            if here.exists() {
                here
            } else {
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
            }
        });
        return Ok(Mode::Compare { a, b, bench });
    }
    if args.len() == 1 && args[0] == "--smoke" {
        return Ok(Mode::Smoke);
    }
    let mut kind = None;
    let mut opts = RunOpts {
        kind: Kind::Paper,
        seed: 1,
        seconds: 20.0,
        traced: false,
        max_jobs: None,
    };
    let (mut out, mut trace_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => opts.seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                opts.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {val:?}"))?
            }
            "--trace" => {
                opts.traced = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (0 or 1)")),
                }
            }
            "--out" => out = Some(PathBuf::from(val)),
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    Ok(Mode::Run {
        opts,
        out,
        trace_out,
    })
}

/// A finite number as JSON (measured values are always finite; guard
/// anyway so a result line is never invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line, printed last.
fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The `--out` file: the result plus host, settings and metric kinds.
fn out_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"kind\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit),
                quote(m.kind.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host_cores\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        quote(r.opts.kind.name()),
        r.opts.seed,
        num(r.opts.seconds),
        u8::from(r.opts.traced),
        r.host_cores,
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",\n")
    )
}

fn print_report(r: &Report) {
    for e in r.errors.iter().take(20) {
        eprintln!("error: {e}");
    }
    if r.errors.len() > 20 {
        eprintln!("error: ... {} more", r.errors.len() - 20);
    }
    if !r.layer_table.is_empty() {
        print!("{}", r.layer_table);
    }
    for m in &r.metrics {
        println!("{} {} {}", m.name, num(m.value), m.unit);
    }
}

/// Run every workload for two jobs, untraced and traced.
fn smoke(tmp: &Path) -> Vec<Report> {
    let mut reports = Vec::new();
    for kind in workloads::ALL {
        for traced in [false, true] {
            let opts = RunOpts {
                kind,
                seed: 1,
                seconds: 0.0,
                traced,
                max_jobs: Some(2),
            };
            reports.push(run(&opts, tmp));
        }
    }
    reports
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return 2;
        }
    };
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2e: cannot create {}: {e}", tmp.display());
        return 1;
    }
    let code = match mode {
        Mode::Compare { a, b, bench } => match compare::compare(&a, &b, &bench) {
            Ok((text, regressed)) => {
                print!("{text}");
                i32::from(regressed)
            }
            Err(e) => {
                eprintln!("e2e: {e}");
                2
            }
        },
        Mode::Smoke => {
            let reports = smoke(&tmp);
            for r in &reports {
                println!(
                    "== {} (trace {})",
                    r.opts.kind.name(),
                    u8::from(r.opts.traced)
                );
                print_report(r);
            }
            i32::from(!reports.iter().all(|r| r.correct))
        }
        Mode::Run {
            opts,
            out,
            trace_out,
        } => {
            let r = run(&opts, &tmp);
            print_report(&r);
            let mut code = i32::from(!r.correct);
            if let Some(trace) = &r.trace_json {
                let path = trace_out
                    .unwrap_or_else(|| out_dir().join(format!("trace-{}.json", opts.kind.name())));
                match write(&path, trace) {
                    Ok(()) => eprintln!("trace written to {}", path.display()),
                    Err(e) => {
                        eprintln!("e2e: {e}");
                        code = 1;
                    }
                }
            }
            if let Some(path) = out {
                if let Err(e) = write(&path, &out_json(&r)) {
                    eprintln!("e2e: {e}");
                    code = 1;
                }
            }
            println!("{}", result_line(&r));
            code
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    code
}

fn main() {
    std::process::exit(real_main());
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::MetricKind;

    fn benchmark() -> json::Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(b: &json::Json, list: &str) -> Vec<(String, String)> {
        b.get(list)
            .and_then(json::Json::arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(json::Json::str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// One smoke run of every workload prints exactly the metrics
    /// `BENCHMARK.json` declares, with their units; a second run with the
    /// same seed reproduces every virtual and count metric bit for bit.
    #[test]
    fn smoke_prints_every_declared_metric_and_is_deterministic() {
        let tmp = out_dir().join(format!("tmp-test-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let first = smoke(&tmp);
        let second = smoke(&tmp);
        std::fs::remove_dir_all(&tmp).unwrap();

        let b = benchmark();
        let names: Vec<String> = b
            .get("workloads")
            .and_then(json::Json::arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Json::str).unwrap().to_string())
            .collect();
        assert_eq!(names, workloads::ALL.map(|k| k.name().to_string()));
        for (r, again) in first.iter().zip(&second) {
            let what = format!("{} trace={}", r.opts.kind.name(), r.opts.traced);
            assert!(r.correct, "{what}: {:?}", r.errors);
            assert_eq!(r.attempted, 2, "{what}");
            let want = declared(
                &b,
                if r.opts.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                },
            );
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{what}");
            let line = json::parse(&result_line(r)).expect("result line is JSON");
            assert_eq!(
                line.get("metrics").and_then(json::Json::obj).unwrap().len(),
                want.len()
            );
            for (m, m2) in r.metrics.iter().zip(&again.metrics) {
                if m.kind != MetricKind::Wall {
                    assert_eq!(m.value.to_bits(), m2.value.to_bits(), "{what}: {}", m.name);
                }
            }
            if !r.opts.traced {
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "{what}: {:?}",
                    r.metrics
                );
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let a = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(a(&[]).is_err());
        assert!(a(&["--workload", "nope"]).is_err());
        assert!(a(&["--workload", "hybrid-sweep", "--trace", "2"]).is_err());
        assert!(a(&["--workload", "hybrid-sweep", "--seconds", "-1"]).is_err());
        assert!(a(&["--workload", "hybrid-sweep", "--seed"]).is_err());
        assert!(a(&["--compare", "a.json"]).is_err());
        assert!(matches!(
            a(&[
                "--workload",
                "hybrid-sweep",
                "--seed",
                "9",
                "--seconds",
                "10",
                "--trace",
                "1"
            ]),
            Ok(Mode::Run {
                opts: RunOpts {
                    seed: 9,
                    traced: true,
                    ..
                },
                ..
            })
        ));
    }
}
