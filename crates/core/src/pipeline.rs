//! The end-to-end Chimera pipeline (the paper's Figure 1).
//!
//! ```text
//! program --RELAY--> race pairs --+--> profiling: non-concurrent funcs
//!                                 +--> symbolic bounds for racy loops
//!                                 v
//!                     weak-lock plan --> instrumented program
//!                                 v
//!                record (log inputs + sync + weak-lock order) --> replay
//! ```

use chimera_drd::{detect, DrfReport};
use chimera_fleet::{replay_seed, FleetTarget};
use chimera_instrument::{instrument, OptSet, Plan};
use chimera_minic::ir::{AccessId, Program};
use chimera_profile::{profile_runs, ProfileData};
use chimera_relay::{detect_races, RaceReport};
use chimera_replay::{record, replay, verify_determinism, Recording, ReplayRun};
use chimera_runtime::{execute, ExecConfig, ExecResult};
use std::collections::BTreeSet;

/// Configuration for [`analyze`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Optimization set (Figure 5's four configurations).
    pub opts: OptSet,
    /// Seeds for profile runs on the program itself (the paper used 20
    /// runs; pass more seeds for more coverage).
    pub profile_seeds: Vec<u64>,
    /// Base execution configuration (costs, I/O model).
    pub exec: ExecConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            opts: OptSet::all(),
            profile_seeds: (1..=5).collect(),
            exec: ExecConfig::default(),
        }
    }
}

/// Everything the static+profile side of Chimera produces for a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The original program.
    pub program: Program,
    /// The weak-lock-instrumented program.
    pub instrumented: Program,
    /// RELAY's race report.
    pub races: RaceReport,
    /// Merged profile facts.
    pub profile: ProfileData,
    /// The instrumentation plan.
    pub plan: Plan,
}

impl Analysis {
    /// The instrumented program as a hostile-sweep target, with the
    /// original program and RELAY's static pairs for the FastTrack
    /// cross-check: any divergence fails it.
    pub fn fleet_target(&self, name: &str) -> FleetTarget {
        FleetTarget {
            cross: Some((
                self.program.clone(),
                self.races.pairs.iter().map(|p| (p.a, p.b)).collect(),
            )),
            ..FleetTarget::instrumented(name, self.instrumented.clone())
        }
    }
}

/// Run static race detection, profiling, planning, and instrumentation.
///
/// Profiling runs the program itself over `profile_seeds`; to profile
/// separate input variants (as Table 1 does), merge their
/// [`ProfileData`] first and call [`analyze_with_profile`].
pub fn analyze(program: &Program, cfg: &PipelineConfig) -> Analysis {
    let profile = profile_runs(program, &cfg.exec, &cfg.profile_seeds);
    analyze_with_profile(program, profile, cfg)
}

/// Like [`analyze`] but with externally collected profile data (e.g.
/// merged over several input variants of the same source).
pub fn analyze_with_profile(
    program: &Program,
    profile: ProfileData,
    cfg: &PipelineConfig,
) -> Analysis {
    let races = detect_races(program);
    let (instrumented, plan) = instrument(program, &races, &profile, &cfg.opts);
    Analysis {
        program: program.clone(),
        instrumented,
        races,
        profile,
        plan,
    }
}

/// One record/replay measurement at a given seed.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Uninstrumented, unlogged run (the "original time").
    pub baseline: ExecResult,
    /// The recording (instrumented + all logging costs).
    pub recording: Recording,
    /// The replay, run under a different seed.
    pub replay: ReplayRun,
    /// `recording.makespan / baseline.makespan`.
    pub record_overhead: f64,
    /// `replay.makespan / baseline.makespan`.
    pub replay_overhead: f64,
    /// Did the replay reproduce the recording exactly?
    pub deterministic: bool,
}

/// Record the instrumented program and replay it under a different seed,
/// comparing against the uninstrumented baseline.
pub fn measure(analysis: &Analysis, exec: &ExecConfig, seed: u64) -> Measurement {
    let base_cfg = ExecConfig {
        seed,
        ..*exec
    };
    let baseline = execute(&analysis.program, &base_cfg);
    let recording = record(&analysis.instrumented, &base_cfg);
    let replay_cfg = ExecConfig {
        seed: replay_seed(seed),
        ..*exec
    };
    let rep = replay(&analysis.instrumented, &recording.logs, &replay_cfg);
    let deterministic =
        rep.complete && verify_determinism(&recording.result, &rep.result).equivalent;
    let record_overhead = ratio(recording.result.makespan, baseline.makespan);
    let replay_overhead = ratio(rep.result.makespan, baseline.makespan);
    Measurement {
        baseline,
        recording,
        replay: rep,
        record_overhead,
        replay_overhead,
        deterministic,
    }
}

/// Mean record/replay overheads over several trials (the paper reports the
/// mean of five).
#[derive(Debug, Clone, Default)]
pub struct TrialSummary {
    /// Mean recording overhead (x).
    pub record_overhead: f64,
    /// Mean replay overhead (x).
    pub replay_overhead: f64,
    /// All trials replayed deterministically.
    pub all_deterministic: bool,
    /// The last trial's full measurement (for logs/stats inspection).
    pub last: Option<Measurement>,
}

/// Run `trials` seeded measurements and average.
///
/// Trials are independent, so they run in parallel via
/// [`chimera_runtime::par_map`]. The summary folds in trial order, so the
/// floating-point sums — and therefore the reported means — are
/// bit-identical to the serial loop's.
pub fn measure_trials(analysis: &Analysis, exec: &ExecConfig, trials: u32) -> TrialSummary {
    let seeds: Vec<u64> = (0..trials.max(1)).map(|t| 100 + t as u64 * 7).collect();
    let measurements = chimera_runtime::par_map(&seeds, 0, |&seed| measure(analysis, exec, seed));
    let mut sum_rec = 0.0;
    let mut sum_rep = 0.0;
    let mut all_det = true;
    let mut last = None;
    for m in measurements {
        sum_rec += m.record_overhead;
        sum_rep += m.replay_overhead;
        all_det &= m.deterministic;
        last = Some(m);
    }
    let n = seeds.len() as f64;
    TrialSummary {
        record_overhead: sum_rec / n,
        replay_overhead: sum_rep / n,
        all_deterministic: all_det,
        last,
    }
}

/// The DRF-equivalence certificate for one analyzed program, plus the
/// dynamic-vs-static precision join.
///
/// Chimera's replay correctness rests on the instrumented program being
/// data-race-free (every surviving race is serialized by a weak-lock), so
/// that logging the sync order alone pins down the execution. This stage
/// checks the claim dynamically: the uninstrumented and instrumented
/// programs each run under the FastTrack detector across several seeds,
/// and the certificate *holds* iff no instrumented run shows a race.
///
/// Because dynamic races carry static [`AccessId`] provenance, the same
/// runs double as a soundness/precision probe of RELAY: every dynamic
/// pair must appear among the static candidates (`missed` is empty), and
/// the fraction of static candidates never dynamically confirmed is an
/// upper bound estimate of the static false-positive ratio.
#[derive(Debug, Clone)]
pub struct DrfCertificate {
    /// Seeds the certificate covers.
    pub seeds: Vec<u64>,
    /// Union of dynamic races on the *uninstrumented* program.
    pub uninstrumented: DrfReport,
    /// Union of dynamic races on the *instrumented* program (empty iff
    /// the certificate holds).
    pub instrumented: DrfReport,
    /// Dynamic pairs also predicted statically.
    pub joined: usize,
    /// Dynamic pairs RELAY did *not* predict — a static soundness bug if
    /// nonempty.
    pub missed: Vec<(AccessId, AccessId)>,
    /// Static candidates never dynamically confirmed on these seeds.
    pub static_only: usize,
    /// `static_only / static total` (0 when there are no static pairs):
    /// the observed upper bound on RELAY's false-positive ratio.
    pub false_positive_ratio: f64,
}

impl DrfCertificate {
    /// Did every instrumented run come out race-free?
    pub fn holds(&self) -> bool {
        self.instrumented.is_race_free()
    }

    /// Is every dynamic race statically predicted (RELAY sound on these
    /// runs)?
    pub fn static_sound(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Run the DRF-equivalence stage: detect races dynamically on the
/// uninstrumented and instrumented programs across `seeds` and join the
/// uninstrumented findings against RELAY's static candidates.
///
/// Seeds are independent, so the 2×`seeds` detector runs fan out via
/// [`chimera_runtime::par_map`]; reports merge in seed order, so the
/// result is identical to a serial loop's.
pub fn certify_drf(analysis: &Analysis, exec: &ExecConfig, seeds: &[u64]) -> DrfCertificate {
    let runs = chimera_runtime::par_map(seeds, 0, |&seed| {
        let cfg = ExecConfig {
            seed,
            ..*exec
        };
        let u = detect(&analysis.program, &cfg);
        let i = detect(&analysis.instrumented, &cfg);
        (u.report, i.report)
    });
    let mut uninstrumented = DrfReport::default();
    let mut instrumented = DrfReport::default();
    for (u, i) in &runs {
        uninstrumented.merge(u);
        instrumented.merge(i);
    }
    let statics: BTreeSet<(AccessId, AccessId)> =
        analysis.races.pairs.iter().map(|p| (p.a, p.b)).collect();
    let missed: Vec<(AccessId, AccessId)> = uninstrumented
        .pairs
        .iter()
        .copied()
        .filter(|p| !statics.contains(p))
        .collect();
    let joined = uninstrumented.pairs.len() - missed.len();
    let static_only = statics.len() - joined;
    let false_positive_ratio = if statics.is_empty() {
        0.0
    } else {
        static_only as f64 / statics.len() as f64
    };
    DrfCertificate {
        seeds: seeds.to_vec(),
        uninstrumented,
        instrumented,
        joined,
        missed,
        static_only,
        false_positive_ratio,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    const RACY: &str = "int g;
        void w(int v) { int i; int x;
            for (i = 0; i < 80; i = i + 1) { x = g; g = x + v; } }
        int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }";

    #[test]
    fn full_pipeline_produces_deterministic_replay() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        assert!(!a.races.pairs.is_empty());
        assert!(a.instrumented.weak_locks > 0);
        let m = measure(&a, &ExecConfig::default(), 42);
        assert!(m.deterministic, "replay diverged");
        assert!(m.record_overhead >= 1.0);
    }

    #[test]
    fn trials_average_and_stay_deterministic() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let s = measure_trials(&a, &ExecConfig::default(), 3);
        assert!(s.all_deterministic);
        assert!(s.record_overhead > 0.5);
        assert!(s.last.is_some());
    }

    #[test]
    fn parallel_trials_match_serial_reconstruction() {
        // measure_trials fans seeds out across threads but folds in trial
        // order; rebuilding the summary with an explicit serial loop must
        // give bit-identical overheads and the same last measurement.
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let exec = ExecConfig::default();
        let trials = 4u32;
        let s = measure_trials(&a, &exec, trials);
        let mut sum_rec = 0.0;
        let mut sum_rep = 0.0;
        let mut all_det = true;
        let mut last = None;
        for t in 0..trials {
            let m = measure(&a, &exec, 100 + t as u64 * 7);
            sum_rec += m.record_overhead;
            sum_rep += m.replay_overhead;
            all_det &= m.deterministic;
            last = Some(m);
        }
        assert_eq!(s.record_overhead, sum_rec / trials as f64);
        assert_eq!(s.replay_overhead, sum_rep / trials as f64);
        assert_eq!(s.all_deterministic, all_det);
        let (sl, l) = (s.last.unwrap(), last.unwrap());
        assert_eq!(sl.baseline.makespan, l.baseline.makespan);
        assert_eq!(sl.recording.result.makespan, l.recording.result.makespan);
        assert_eq!(sl.deterministic, l.deterministic);
    }

    #[test]
    fn race_free_program_needs_no_weak_locks() {
        let p = compile(
            "int g; lock_t m;
             void w(int v) { lock(&m); g = g + v; unlock(&m); }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                          lock(&m); print(g); unlock(&m); return 0; }",
        )
        .unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        assert!(a.races.pairs.is_empty());
        assert_eq!(a.instrumented.weak_locks, 0);
        // Recording still works (DRF logs only) and replays.
        let m = measure(&a, &ExecConfig::default(), 7);
        assert!(m.deterministic);
    }

    #[test]
    fn drf_certificate_holds_for_instrumented_racy_program() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let c = certify_drf(&a, &ExecConfig::default(), &[1, 42]);
        assert!(!c.uninstrumented.is_race_free(), "expected dynamic races");
        assert!(
            c.holds(),
            "instrumented run still racy: {:?}",
            c.instrumented.pairs
        );
        assert!(c.static_sound(), "RELAY missed dynamic pairs: {:?}", c.missed);
        assert!(c.joined >= 1);
        assert!((0.0..=1.0).contains(&c.false_positive_ratio));
    }

    #[test]
    fn naive_opts_cost_more_than_all_opts() {
        let p = compile(RACY).unwrap();
        let naive = analyze(
            &p,
            &PipelineConfig {
                opts: OptSet::naive(),
                ..PipelineConfig::default()
            },
        );
        let smart = analyze(&p, &PipelineConfig::default());
        let mn = measure_trials(&naive, &ExecConfig::default(), 2);
        let ms = measure_trials(&smart, &ExecConfig::default(), 2);
        assert!(
            mn.record_overhead >= ms.record_overhead,
            "naive {} < optimized {}",
            mn.record_overhead,
            ms.record_overhead
        );
    }
}
