//! `--compare A.json… -- B.json…`: judge a change (B) against its parent
//! (A) with the bounds `BENCHMARK.json` fixes.
//!
//! For every workload and end-to-end metric it reports each side's median
//! and quartiles, and one verdict:
//!
//! * `unresolved` — A's or B's spread (interquartile range over median)
//!   is wider than the bound, and not every B run beats every A run;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B wins at least 9 of every 10 pairs (A's i-th run
//!   against B's i-th; ties count for neither) and the medians differ by
//!   more than A's interquartile distance;
//! * `within-bound` — otherwise.
//!
//! `virtual` metrics are also marked `exact` or `differs`: with the same
//! seeds on both sides they must be identical unless the change meant to
//! move them.

use crate::json::{parse, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(bench: &Json) -> Result<Vec<Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{name}: no bound"))?,
            })
        })
        .collect()
}

/// Per workload, per metric: values in file order, plus each metric's kind.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[PathBuf], kinds: &mut BTreeMap<String, String>) -> Result<Side, String> {
    let mut side = Side::new();
    for p in paths {
        let run = read(p)?;
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{}: no workload", p.display()))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(|| format!("{}: no metrics", p.display()))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("{}: {name} has no value", p.display()))?;
            if let Some(k) = m.get("kind").and_then(Json::str) {
                kinds.insert(name.clone(), k.to_string());
            }
            side.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(side)
}

/// Compare; returns the report and whether any metric regressed.
pub fn compare(a: &[PathBuf], b: &[PathBuf], bench: &PathBuf) -> Result<(String, bool), String> {
    let bounds = bounds(&read(bench)?)?;
    let mut kinds = BTreeMap::new();
    let (sa, sb) = (load(a, &mut kinds)?, load(b, &mut kinds)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<22} {:<20} {:>6} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else {
            let _ = writeln!(out, "{workload:<22} (no B runs)");
            continue;
        };
        for bd in &bounds {
            let (Some(va), Some(vb)) = (ma.get(&bd.name), mb.get(&bd.name)) else {
                continue;
            };
            let better = |x: f64, y: f64| if bd.lower_is_better { x < y } else { x > y };
            let (ma_, (a1, a3)) = (median(va), quartiles(va));
            let (mb_, (b1, b3)) = (median(vb), quartiles(vb));
            let spread =
                |q1: f64, q3: f64, m: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
            let widest = spread(a1, a3, ma_).max(spread(b1, b3, mb_));
            let all_b_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
            let pairs = va.len().min(vb.len());
            let wins = va.iter().zip(vb).filter(|(&x, &y)| better(y, x)).count();
            let worse_by = if ma_ != 0.0 {
                let d = (mb_ - ma_) / ma_.abs();
                if bd.lower_is_better {
                    d
                } else {
                    -d
                }
            } else {
                0.0
            };
            let mut verdict = if widest > bd.bound && !all_b_better {
                "unresolved"
            } else if worse_by > bd.bound {
                regressed = true;
                "regressed"
            } else if wins * 10 >= pairs * 9 && pairs > 0 && (mb_ - ma_).abs() > a3 - a1 {
                "improved"
            } else {
                "within-bound"
            }
            .to_string();
            if kinds.get(&bd.name).map(String::as_str) == Some("virtual") {
                verdict.push_str(if va == vb { ", exact" } else { ", differs" });
            }
            let _ = writeln!(
                out,
                "{:<22} {:<20} {:>6} {:>28} {:>28} {:>8}  {verdict}",
                workload,
                bd.name,
                format!("{}", bd.bound),
                format!("{ma_:.4} [{a1:.4}, {a3:.4}]"),
                format!("{mb_:.4} [{b1:.4}, {b3:.4}]"),
                format!("{wins}/{pairs}"),
            );
        }
    }
    Ok((out, regressed))
}
