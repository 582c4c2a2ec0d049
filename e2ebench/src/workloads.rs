//! The four workloads: what set-up prepares, what one job runs, and what
//! the traced run probes after each job.
//!
//! Every stage is a call into a crate's public API, made through the
//! [`Tracer`] so the traced run can attribute it to a layer.

use crate::chain;
use crate::trace::Tracer;
use chimera::{analyze, analyze_with_profile, profile_workload, Analysis, PipelineConfig};
use chimera_instrument::{apply, plan, plan_site_counts, OptSet};
use chimera_minic::callgraph::CallGraph;
use chimera_minic::ir::LockGranularity;
use chimera_minic::{compile, Program};
use chimera_plan::{
    apply_plan, demote, gather_evidence, verify_under_plan, CertifiedPlan, Evidence, GatherConfig,
    Thresholds,
};
use chimera_profile::{profile_runs, ProfileData};
use chimera_pta::{indirect_targets, Andersen, ObjectTable, Steensgaard};
use chimera_relay::{detect_races, races::find_races, AliasOracle, LocksetAnalysis};
use chimera_replay::{record, replay, verify_determinism, Recording, ReplayLogs};
use chimera_runtime::{execute, execute_mode, ExecConfig, ExecResult, InterpMode, Jitter};
use chimera_workloads::{by_name, Params};
use std::borrow::Cow;
use std::path::{Path, PathBuf};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table 1 programs through the whole pipeline, per job.
    Paper,
    /// Pre-analyzed long runs: execute, record, codec, replay, verify.
    Long,
    /// Generated pointer chains: the static layers dominate.
    Chains,
    /// Evidence sweep, demotion and certified plans.
    Hybrid,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Kind; 4] = [Kind::Paper, Kind::Long, Kind::Chains, Kind::Hybrid];

impl Kind {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper-pipeline",
            Kind::Long => "long-record-replay",
            Kind::Chains => "static-pointer-chains",
            Kind::Hybrid => "hybrid-sweep",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }

    /// Base execution configuration of every run the workload makes.
    pub fn exec(self) -> ExecConfig {
        match self {
            // Long runs measure the VM fast paths, which jitter disables.
            Kind::Long => ExecConfig {
                jitter: Jitter::none(),
                ..ExecConfig::default()
            },
            _ => ExecConfig::default(),
        }
    }
}

/// Worker counts of paper-pipeline (the paper's 2, 4 and 8).
const PAPER_WORKERS: [u32; 3] = [2, 4, 8];
/// Per-program scales of long-record-replay (4 workers): each
/// uninstrumented run retires 0.5–1.8 M instructions, and water's job is
/// clearly the slowest, so `job_p95_ms` falls inside one program's job
/// times instead of the overlapping tails of several.
pub const LONG_SCALES: [(&str, u32); 9] = [
    ("aget", 600),
    ("pfscan", 400),
    ("pbzip2", 52),
    ("knot", 480),
    ("apache", 300),
    ("ocean", 28),
    ("water", 20),
    ("fft", 600),
    ("radix", 100),
];
const LONG_WORKERS: u32 = 4;
/// Programs in one static-pointer-chains pool.
pub const CHAIN_POOL: usize = 32;
/// Profile seeds of a chain job.
const CHAIN_PROFILE_SEEDS: [u64; 2] = [1, 2];
/// hybrid-sweep programs: scale 4 with 4 workers.
const HYBRID_PARAMS: Params = Params {
    workers: 4,
    scale: 4,
};
/// Profile variants per paper program, as `analyze_workload` uses.
const PROFILE_VARIANTS: u32 = 3;

/// The seeds `profile_workload` uses for profile variant `v`.
fn variant_seeds(v: u32) -> [u64; 2] {
    [1000 + v as u64 * 31, 2000 + v as u64 * 17]
}

/// SplitMix64 finaliser over `seed` and a stream index.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hostile replay seed `chimera::measure` derives from a record seed.
fn replay_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)
}

/// One program of a workload's cycle.
pub struct Input {
    /// Display name.
    pub name: String,
    /// MiniC source of the evaluated program.
    pub source: String,
    /// paper-pipeline and long-record-replay: sources of the profile
    /// variants.
    pub profile_sources: Vec<String>,
    /// long-record-replay and hybrid-sweep: the analysis set-up made.
    pub analysis: Option<Analysis>,
}

impl Input {
    fn from_source(name: String, source: String) -> Input {
        Input {
            name,
            source,
            profile_sources: Vec::new(),
            analysis: None,
        }
    }

    fn analysis(&self) -> &Analysis {
        self.analysis
            .as_ref()
            .expect("set-up analyzes every input of this workload")
    }
}

/// Everything set-up prepares.
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// One cycle of job inputs; job `i` runs input `i % len`.
    pub inputs: Vec<Input>,
    /// Scratch directory for hybrid-sweep's containers.
    pub tmp: PathBuf,
}

fn compile_named(name: &str, src: &str) -> Result<Program, String> {
    let mut p = compile(src).map_err(|e| format!("{name}: {e}"))?;
    p.source_lines = src.lines().count() as u32;
    Ok(p)
}

/// Generate the inputs, analyze what the workload analyzes before its
/// loop, and check the oracles. Warm-up is the caller's.
pub fn setup(kind: Kind, seed: u64, tmp: &Path) -> Result<Setup, String> {
    let exec = kind.exec();
    let mut inputs = Vec::new();
    match kind {
        Kind::Paper => {
            for w in chimera_workloads::all() {
                for workers in PAPER_WORKERS {
                    let mut input = Input::from_source(
                        format!("{}-w{workers}", w.name),
                        w.source(&w.eval_params(workers)),
                    );
                    input.profile_sources = (0..PROFILE_VARIANTS)
                        .map(|v| w.source(&w.profile_params(v)))
                        .collect();
                    inputs.push(input);
                }
            }
        }
        Kind::Long => {
            for (name, scale) in LONG_SCALES {
                let w = by_name(name).ok_or_else(|| format!("unknown program {name}"))?;
                let params = Params {
                    workers: LONG_WORKERS,
                    scale,
                };
                let mut input = Input::from_source(format!("{name}-s{scale}"), w.source(&params));
                let program = compile_named(&input.name, &input.source)?;
                let profile = profile_workload(&w, PROFILE_VARIANTS, &exec);
                input.analysis = Some(analyze_with_profile(
                    &program,
                    profile,
                    &PipelineConfig {
                        opts: OptSet::all(),
                        profile_seeds: Vec::new(),
                        exec,
                    },
                ));
                input.profile_sources = (0..PROFILE_VARIANTS)
                    .map(|v| w.source(&w.profile_params(v)))
                    .collect();
                inputs.push(input);
            }
        }
        Kind::Chains => {
            for (p, src) in chain::pool(seed, CHAIN_POOL) {
                let name = format!(
                    "chain-{}f-{}c-{}l-{}i-{}t",
                    p.funcs, p.classes, p.locked_pct, p.indirect_every, p.threads
                );
                inputs.push(Input::from_source(name, src));
            }
        }
        Kind::Hybrid => {
            for w in chimera_workloads::all() {
                let mut input = Input::from_source(w.name.to_string(), w.source(&HYBRID_PARAMS));
                let program = compile_named(w.name, &input.source)?;
                input.analysis = Some(analyze(&program, &PipelineConfig::default()));
                inputs.push(input);
            }
        }
    }
    // Oracle: the flat VM and the reference interpreter agree on every
    // uninstrumented program of the cycle.
    for (i, input) in inputs.iter().enumerate() {
        let compiled;
        let program = match &input.analysis {
            Some(a) => &a.program,
            None => {
                compiled = compile_named(&input.name, &input.source)?;
                &compiled
            }
        };
        let cfg = ExecConfig {
            seed: mix(seed, (1 << 32) + i as u64),
            ..exec
        };
        let flat = execute(program, &cfg);
        let reference = execute_mode(program, &cfg, InterpMode::Reference);
        if !flat.outcome.is_exit()
            || flat.state_hash != reference.state_hash
            || flat.output != reference.output
        {
            return Err(format!(
                "oracle: {} differs between the flat VM and the reference interpreter \
                 ({:?} vs {:?})",
                input.name, flat.outcome, reference.outcome
            ));
        }
    }
    let setup = Setup {
        kind,
        inputs,
        tmp: tmp.to_path_buf(),
    };
    if kind == Kind::Hybrid {
        hybrid_oracle(&setup)?;
    }
    Ok(setup)
}

/// Oracle, under the default sweep (seeds 1, 2, 3): every program's plan
/// verifies and keeps only pairs the sweep confirmed racy, and pfscan
/// keeps its confirmed pairs.
fn hybrid_oracle(setup: &Setup) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let cfg = setup.kind.exec();
    for input in &setup.inputs {
        let h = hybrid_loop(
            &input.name,
            input.analysis(),
            &cfg,
            None,
            &setup.tmp,
            &mut off,
        )?
        .ok_or_else(|| format!("oracle: {}: demotion refused", input.name))?;
        h.verdict
            .map_err(|e| format!("oracle: {}: {e}", input.name))?;
        let (kept, racy) = (&h.plan.kept, &h.evidence.confirmed_racy);
        if kept.iter().any(|p| !racy.contains(p))
            || (input.name == "pfscan" && (kept.is_empty() || kept != racy))
        {
            return Err(format!(
                "oracle: {} kept {kept:?}, confirmed racy {racy:?}",
                input.name
            ));
        }
    }
    Ok(())
}

/// What a hybrid-sweep job produced.
pub struct HybridOut {
    /// Decoded evidence.
    pub evidence: Evidence,
    /// Decoded certified plan.
    pub plan: CertifiedPlan,
    /// The plan-instrumented program.
    pub planned: Program,
    /// `verify_under_plan`'s verdict.
    pub verdict: Result<(), String>,
}

/// What one job produced, kept for the virtual pass and the probes.
pub struct JobOut<'a> {
    /// The job's input.
    pub input: &'a Input,
    /// Program, races, profile, plan and instrumented program.
    pub art: Cow<'a, Analysis>,
    /// The job's execution configuration.
    pub cfg: ExecConfig,
    /// Uninstrumented run, if the job made one.
    pub base: Option<ExecResult>,
    /// Recording, encoded log size and replayed run, if the job recorded.
    pub rec: Option<(Recording, usize, ExecResult)>,
    /// hybrid-sweep's evidence, plan and planned program.
    pub hybrid: Option<HybridOut>,
}

impl JobOut<'_> {
    /// The program the job's final plan instruments.
    pub fn planned(&self) -> &Program {
        self.hybrid
            .as_ref()
            .map_or(&self.art.instrumented, |h| &h.planned)
    }
}

fn check_exit(what: &str, r: &ExecResult) -> Result<(), String> {
    if r.outcome.is_exit() {
        Ok(())
    } else {
        Err(format!("{what} did not exit: {:?}", r.outcome))
    }
}

/// Record, encode, decode, replay at the derived seed, verify.
fn record_replay(
    program: &Program,
    cfg: &ExecConfig,
    tr: &mut Tracer,
) -> Result<(Recording, usize, ExecResult), String> {
    let rec = tr.call("replay", "record", || record(program, cfg));
    check_exit("record", &rec.result)?;
    if tr.enabled() {
        let s = &rec.result.stats;
        tr.add("replay.record_instrs", s.instrs as f64);
        tr.add("replay.log_events", rec.logs.journal.len() as f64);
        tr.add("replay.weak_wait", s.weak_wait.values().sum::<u64>() as f64);
        tr.add(
            "replay.weak_log",
            s.weak_log_cycles.values().sum::<u64>() as f64,
        );
    }
    let bytes = tr.call("replay", "to_bytes", || rec.logs.to_bytes());
    tr.add("replay.log_bytes", bytes.len() as f64);
    let logs = tr.call("replay", "from_bytes", || ReplayLogs::from_bytes(&bytes))?;
    let rcfg = ExecConfig {
        seed: replay_seed(cfg.seed),
        ..*cfg
    };
    let rep = tr.call("replay", "replay", || replay(program, &logs, &rcfg));
    let verdict = tr.call("replay", "verify_determinism", || {
        verify_determinism(&rec.result, &rep.result)
    });
    if !rep.complete {
        return Err(format!("replay incomplete: {:?}", rep.result.outcome));
    }
    if !verdict.equivalent {
        return Err(format!(
            "replay not equivalent: {}",
            verdict.differences.join("; ")
        ));
    }
    Ok((rec, bytes.len(), rep.result))
}

fn execute_traced(program: &Program, cfg: &ExecConfig, tr: &mut Tracer) -> ExecResult {
    let r = tr.call("runtime", "execute", || execute(program, cfg));
    if tr.enabled() {
        let s = &r.stats;
        tr.add("runtime.instrs", s.instrs as f64);
        tr.add("runtime.fused", 2.0 * s.vm.fused_ops as f64);
        tr.add("runtime.batched", s.vm.batched_ops as f64);
        tr.add("runtime.spec", s.vm.spec_ops as f64);
    }
    r
}

fn compile_traced(name: &str, src: &str, tr: &mut Tracer) -> Result<Program, String> {
    let p = tr.call("minic", "compile", || compile_named(name, src))?;
    if tr.enabled() {
        tr.add("minic.lines", p.source_lines as f64);
        tr.add(
            "minic.ir_instrs",
            p.funcs.iter().map(|f| f.instr_count()).sum::<usize>() as f64,
        );
    }
    Ok(p)
}

fn profile_traced(
    program: &Program,
    cfg: &ExecConfig,
    seeds: &[u64],
    tr: &mut Tracer,
) -> ProfileData {
    let d = tr.call("profile", "profile_runs", || {
        profile_runs(program, cfg, seeds)
    });
    tr.add("profile.runs", d.runs as f64);
    d
}

fn detect_traced(program: &Program, tr: &mut Tracer) -> chimera_relay::RaceReport {
    let races = tr.call("relay", "detect_races", || detect_races(program));
    tr.add("relay.race_pairs", races.pairs.len() as f64);
    races
}

/// Plan and apply with every optimization on.
fn instrument_traced(
    program: &Program,
    races: &chimera_relay::RaceReport,
    profile: &ProfileData,
    tr: &mut Tracer,
) -> (Program, chimera_instrument::Plan) {
    let pl = tr.call("instrument", "plan", || {
        plan(program, races, profile, &OptSet::all())
    });
    let instrumented = tr.call("instrument", "apply", || apply(program, &pl));
    if tr.enabled() {
        tr.add("instrument.weak_locks", pl.n_weak_locks as f64);
        for (g, n) in plan_site_counts(&pl) {
            let key = match g {
                LockGranularity::Instruction => "instrument.sites_instr",
                LockGranularity::BasicBlock => "instrument.sites_bb",
                LockGranularity::Loop => "instrument.sites_loop",
                LockGranularity::Function => "instrument.sites_func",
            };
            tr.add(key, n as f64);
        }
    }
    (instrumented, pl)
}

/// Gather, round-trip `.chev` through `dir`, demote, round-trip `.chpl`,
/// apply, verify under `cfg`. `Ok(None)` when demotion refuses; a
/// contradiction found by `verify_under_plan` is returned in
/// [`HybridOut::verdict`].
///
/// The sweep always covers the default seeds 1, 2 and 3 (from a fixed
/// base configuration), plus `extra_seed`. Those default cells are the
/// ones under which the set-up oracle saw pfscan's races confirmed; a
/// sweep of three random seeds misses them in a few tenths of a percent
/// of jobs, and `verify_under_plan` then rightly refuses the plan.
fn hybrid_loop(
    name: &str,
    a: &Analysis,
    cfg: &ExecConfig,
    extra_seed: Option<u64>,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Option<HybridOut>, String> {
    let statics: Vec<_> = a.races.pairs.iter().map(|p| (p.a, p.b)).collect();
    // At most two sweep workers, so a run drives the same number of
    // threads on any host with two or more cores.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut gc = GatherConfig {
        exec: ExecConfig { seed: 0, ..*cfg },
        jobs: workers,
        ..GatherConfig::default()
    };
    gc.seeds.extend(extra_seed);
    let ev = tr.call("plan", "gather_evidence", || {
        gather_evidence(name, &a.program, &a.instrumented, &statics, &gc)
    });
    let ev_path = tr.call("plan", "Evidence::save", || ev.save(dir))?;
    let evidence = tr.call("plan", "Evidence::load", || Evidence::load(&ev_path))?;
    if tr.enabled() {
        let bytes = std::fs::metadata(&ev_path).map_or(0, |m| m.len());
        tr.add("plan.cells", evidence.cells.len() as f64);
        tr.add("plan.evidence_bytes", bytes as f64);
        tr.add("plan.static_pairs", evidence.static_pairs.len() as f64);
        tr.add(
            "plan.preemptions",
            evidence.cells.iter().map(|c| c.preemptions).sum::<u64>() as f64,
        );
    }
    let Ok(cert) = tr.call("plan", "demote", || {
        demote(&evidence, &Thresholds::default())
    }) else {
        return Ok(None);
    };
    let plan_path = dir.join(format!("{name}.{}", chimera_plan::PLAN_EXT));
    tr.call("plan", "CertifiedPlan::save", || cert.save(&plan_path))?;
    let plan = tr.call("plan", "CertifiedPlan::load", || {
        CertifiedPlan::load(&plan_path)
    })?;
    tr.add("plan.demoted", plan.demotions.len() as f64);
    let (planned, _) = tr.call("plan", "apply_plan", || {
        apply_plan(&a.program, &a.races, &a.profile, &OptSet::all(), &plan)
    })?;
    let verdict = tr.call("plan", "verify_under_plan", || {
        verify_under_plan(&planned, &plan, cfg)
    });
    tr.add("plan.contradicted", f64::from(u8::from(verdict.is_err())));
    Ok(Some(HybridOut {
        evidence,
        plan,
        planned,
        verdict,
    }))
}

/// Run job number `job` (input `job % len`) with execution seed `seed`.
pub fn run_job<'a>(
    setup: &'a Setup,
    job: u64,
    seed: u64,
    tr: &mut Tracer,
) -> Result<JobOut<'a>, String> {
    let input = &setup.inputs[(job % setup.inputs.len() as u64) as usize];
    let cfg = ExecConfig {
        seed,
        ..setup.kind.exec()
    };
    let (mut base, mut rec, mut hybrid) = (None, None, None);
    let art = match setup.kind {
        Kind::Paper | Kind::Chains => {
            let program = compile_traced(&input.name, &input.source, tr)?;
            let profile = if setup.kind == Kind::Paper {
                let mut merged = ProfileData::default();
                for (v, src) in input.profile_sources.iter().enumerate() {
                    let pp = compile_traced(&input.name, src, tr)?;
                    merged.merge(&profile_traced(&pp, &cfg, &variant_seeds(v as u32), tr));
                }
                merged
            } else {
                profile_traced(&program, &cfg, &CHAIN_PROFILE_SEEDS, tr)
            };
            tr.add("profile.concurrent_pairs", profile.concurrent.len() as f64);
            let races = detect_traced(&program, tr);
            let (instrumented, plan) = instrument_traced(&program, &races, &profile, tr);
            if setup.kind == Kind::Paper {
                let b = execute_traced(&program, &cfg, tr);
                check_exit("baseline", &b)?;
                base = Some(b);
            }
            rec = Some(record_replay(&instrumented, &cfg, tr)?);
            Cow::Owned(Analysis {
                program,
                instrumented,
                races,
                profile,
                plan,
            })
        }
        Kind::Long => {
            let a = input.analysis();
            let b = execute_traced(&a.program, &cfg, tr);
            check_exit("baseline", &b)?;
            base = Some(b);
            rec = Some(record_replay(&a.instrumented, &cfg, tr)?);
            Cow::Borrowed(a)
        }
        Kind::Hybrid => {
            let a = input.analysis();
            let h = hybrid_loop(&input.name, a, &cfg, Some(mix(seed, 1)), &setup.tmp, tr)?
                .ok_or_else(|| format!("{}: demotion refused", input.name))?;
            h.verdict.clone()?;
            if let Some(p) = h
                .plan
                .kept
                .iter()
                .find(|p| !h.evidence.confirmed_racy.contains(p))
            {
                return Err(format!("kept pair {p:?} was never confirmed racy"));
            }
            hybrid = Some(h);
            Cow::Borrowed(a)
        }
    };
    Ok(JobOut {
        input,
        art,
        cfg,
        base,
        rec,
        hybrid,
    })
}

/// Virtual-time results of one job: makespans and log size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virtual {
    /// Uninstrumented makespan.
    pub base: u64,
    /// Recorded makespan of the planned program.
    pub record: u64,
    /// Replayed makespan.
    pub replay: u64,
    /// Makespan of the planned program without logging.
    pub planned: u64,
    /// Encoded v2 log bytes.
    pub log_bytes: usize,
    /// Ordered log entries.
    pub log_events: usize,
}

/// Complete a job's virtual-time results, running (untimed) whatever the
/// job itself did not: the baseline, the planned program unlogged, and for
/// hybrid-sweep the recording of the planned program.
pub fn virtuals(out: &JobOut) -> Result<Virtual, String> {
    let mut off = Tracer::new(false);
    let base = match &out.base {
        Some(b) => b.makespan,
        None => execute(&out.art.program, &out.cfg).makespan,
    };
    let computed;
    let (rec, log_bytes, replayed) = match &out.rec {
        Some(r) => r,
        None => {
            computed = record_replay(out.planned(), &out.cfg, &mut off)?;
            &computed
        }
    };
    let planned = execute(out.planned(), &out.cfg);
    check_exit("planned run", &planned)?;
    Ok(Virtual {
        base,
        record: rec.result.makespan,
        replay: replayed.makespan,
        planned: planned.makespan,
        log_bytes: *log_bytes,
        log_events: rec.logs.journal.len(),
    })
}

/// Time, after a traced job, the sub-steps the job's calls hide (points-to
/// and RELAY's stages, FastTrack, fleet cells) and every layer the job
/// does not call, all on the job's own input. Returns the first error.
pub fn probe(setup: &Setup, out: &JobOut, tr: &mut Tracer) -> Result<(), String> {
    let (kind, input, a, cfg) = (setup.kind, out.input, &*out.art, &out.cfg);
    let p = &a.program;

    let objects = tr.call("pta", "ObjectTable::build", || ObjectTable::build(p));
    tr.add("pta.objects", objects.len() as f64);
    let andersen = tr.call("pta", "Andersen::analyze", || {
        Andersen::analyze(p, &objects)
    });
    let mut steens = tr.call("pta", "Steensgaard::analyze", || {
        Steensgaard::analyze(p, &objects)
    });
    let cg = tr.call("relay", "CallGraph::build", || {
        CallGraph::build(p, |f| indirect_targets(&andersen, p, f))
    });
    let oracle = tr.call("relay", "AliasOracle::from_steensgaard", || {
        AliasOracle::from_steensgaard(p, &mut steens)
    });
    let lockset = tr.call("relay", "LocksetAnalysis::run", || {
        LocksetAnalysis::run(p, &cg, &oracle)
    });
    tr.call("relay", "find_races", || {
        find_races(p, &cg, &oracle, &lockset)
    });

    let racy = tr.call("drd", "detect", || chimera_drd::detect(p, cfg));
    tr.add("drd.races", racy.report.pairs.len() as f64);
    tr.call("drd", "detect", || chimera_drd::detect(out.planned(), cfg));

    let instrs = execute(&a.instrumented, cfg).stats.instrs;
    for s in GatherConfig::default().strategies {
        let sched = chimera_fleet::resolve_strategy(s, instrs);
        let cell = tr.call("fleet", "run_cell", || {
            chimera_fleet::run_cell(&a.instrumented, None, sched, cfg.seed, cfg, false)
        });
        if !cell.clean() {
            return Err(format!("probe run_cell {s:?}: {:?}", cell.differences));
        }
    }

    if matches!(kind, Kind::Long | Kind::Hybrid) {
        compile_traced(&input.name, &input.source, tr)?;
        detect_traced(p, tr);
        let mut profile = ProfileData::default();
        if kind == Kind::Long {
            for (v, src) in input.profile_sources.iter().enumerate() {
                let pp = compile_traced(&input.name, src, tr)?;
                profile.merge(&profile_traced(&pp, cfg, &variant_seeds(v as u32), tr));
            }
        } else {
            profile = profile_traced(p, cfg, &PipelineConfig::default().profile_seeds, tr);
        }
        tr.add("profile.concurrent_pairs", profile.concurrent.len() as f64);
        instrument_traced(p, &a.races, &a.profile, tr);
    }
    if matches!(kind, Kind::Chains | Kind::Hybrid) {
        check_exit("probe execute", &execute_traced(p, cfg, tr))?;
    }
    match kind {
        Kind::Hybrid => {
            record_replay(out.planned(), cfg, tr)?;
        }
        _ => {
            hybrid_loop(&input.name, a, cfg, Some(mix(cfg.seed, 1)), &setup.tmp, tr)?;
        }
    }
    Ok(())
}
