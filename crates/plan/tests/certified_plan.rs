//! The certified-plan contract, end to end: evidence and plan containers
//! round-trip and pass the shared hostile-input suite
//! (`chimera_testkit::corrupt`); demotion is earned only by
//! clean, diverse evidence (racy fixtures never earn it); every refusal
//! fires with its stable code; a plan decodes only if its own evidence
//! still certifies it; and a contradiction under a bad plan names the
//! demoted pair it refutes.

use chimera_fleet::cell::program_digest;
use chimera_instrument::{instrument, OptSet};
use chimera_minic::compile;
use chimera_minic::ir::{AccessId, Program};
use chimera_plan::{
    apply_plan, demote, gather_evidence, verify_under_plan, CertifiedPlan, Evidence, GatherConfig,
    Refusal, Thresholds,
};
use chimera_profile::{profile_runs, ProfileData};
use chimera_relay::{detect_races, RaceReport};
use chimera_runtime::ExecConfig;
use chimera_testkit::prop::Gen;
use chimera_testkit::{corruption_suite, Codec};

const PARTITIONED: &str = include_str!("../../../fixtures/partitioned_sum.mc");
const RACY_COUNTER: &str = include_str!("../../../fixtures/racy_counter.mc");
const RACY_RW: &str = include_str!("../../../fixtures/racy_rw.mc");

struct Analyzed {
    program: Program,
    races: RaceReport,
    profile: ProfileData,
    instrumented: Program,
}

fn analyze(src: &str) -> Analyzed {
    let program = compile(src).expect("fixture compiles");
    let races = detect_races(&program);
    let profile = profile_runs(&program, &ExecConfig::default(), &[0, 1]);
    let (instrumented, _) = instrument(&program, &races, &profile, &OptSet::all());
    Analyzed {
        program,
        races,
        profile,
        instrumented,
    }
}

fn gather(a: &Analyzed, name: &str, cfg: &GatherConfig) -> Evidence {
    let statics: Vec<_> = a.races.pairs.iter().map(|p| (p.a, p.b)).collect();
    gather_evidence(name, &a.program, &a.instrumented, &statics, cfg)
}

#[test]
fn demotable_fixture_earns_full_demotion_and_plan_roundtrips() {
    let a = analyze(PARTITIONED);
    let ev = gather(&a, "partitioned_sum", &GatherConfig::default());
    assert!(ev.confirmed_racy.is_empty(), "{:?}", ev.confirmed_racy);
    let plan = demote(&ev, &Thresholds::default()).expect("clean evidence demotes");
    assert_eq!(plan.demotions.len(), ev.static_pairs.len());
    assert!(plan.kept.is_empty());

    let back = CertifiedPlan::from_bytes(&plan.to_bytes()).expect("own bytes decode");
    assert_eq!(back, plan);

    // Full demotion strips every weak-lock: the planned program is the
    // original program, byte for byte in the IR.
    let (planned, stats) =
        apply_plan(&a.program, &a.races, &a.profile, &OptSet::all(), &plan).expect("plan applies");
    assert_eq!(stats.stats.pairs_demoted as usize, ev.static_pairs.len());
    assert_eq!(planned.weak_locks, 0);
    assert_eq!(
        chimera_minic::pretty::program_to_string(&planned),
        chimera_minic::pretty::program_to_string(&a.program),
    );
    verify_under_plan(&planned, &plan, &ExecConfig::default()).expect("planned run verifies");
}

#[test]
fn racy_fixtures_never_earn_demotion_of_their_racy_pairs() {
    for (name, src) in [("racy_counter", RACY_COUNTER), ("racy_rw", RACY_RW)] {
        let a = analyze(src);
        let ev = gather(&a, name, &GatherConfig::default());
        assert!(
            !ev.confirmed_racy.is_empty(),
            "{name}: the hostile sweep failed to confirm any race dynamically"
        );
        let plan = demote(&ev, &Thresholds::default()).expect("clean sweep still plans");
        assert_eq!(plan.kept, ev.confirmed_racy, "{name}");
        for (a, b) in &plan.demotions {
            assert!(
                !ev.confirmed_racy.contains(&(*a, *b)),
                "{name}: dynamically racy pair ({a}, {b}) was demoted"
            );
        }
        // The genuinely racy accesses stay instrumented, so the planned
        // program still carries weak-locks.
        let (planned, _) =
            apply_plan(&a.program, &a.races, &a.profile, &OptSet::all(), &plan).unwrap();
        assert!(planned.weak_locks > 0, "{name}: racy pairs lost their locks");
    }
}

#[test]
fn every_refusal_fires_with_its_stable_code() {
    let a = analyze(PARTITIONED);
    let ev = gather(&a, "partitioned_sum", &GatherConfig::default());
    let t = Thresholds::default();
    // One rule decides demotion and decoding: a plan that carries refused
    // evidence fails to decode with the same refusal.
    let refuse = |ev: &Evidence, thresholds: Thresholds| {
        let e = demote(ev, &thresholds).unwrap_err();
        let plan = CertifiedPlan {
            evidence: ev.clone(),
            thresholds,
            demotions: Vec::new(),
            kept: Vec::new(),
        };
        let decoded = CertifiedPlan::from_bytes(&plan.to_bytes()).unwrap_err();
        assert_eq!(decoded, format!("plan: {e}"));
        e
    };

    let mut no_cert = ev.clone();
    no_cert.certificate = None;
    let e = refuse(&no_cert, t);
    assert_eq!(e.code(), "no-certificate");
    assert!(e.to_string().contains("demotion refused (no-certificate)"), "{e}");

    let mut unpred = ev.clone();
    unpred.unpredicted.push((AccessId(998), AccessId(999)));
    let e = refuse(&unpred, t);
    assert_eq!(e.code(), "unpredicted-races");
    assert!(e.to_string().contains("(acc998, acc999)"), "{e}");

    let mut unclean = ev.clone();
    unclean.cells[4].clean = false;
    let e = refuse(&unclean, t);
    assert_eq!(e.code(), "unclean-evidence");
    assert!(e.to_string().contains("[4]"), "{e}");

    let e = refuse(&ev, Thresholds { min_seeds: 99, ..t });
    assert_eq!(e.code(), "insufficient-seeds");
    assert!(matches!(e, Refusal::InsufficientSeeds { seeds: 3, min: 99 }), "{e:?}");

    let e = refuse(&ev, Thresholds { min_strategies: 99, ..t });
    assert_eq!(e.code(), "insufficient-strategies");
    assert!(
        matches!(e, Refusal::InsufficientStrategies { strategies: 3, min: 99 }),
        "{e:?}"
    );

    // Refusals are ordered: a missing certificate outranks everything,
    // unpredicted races outrank coverage complaints.
    let mut worst = ev.clone();
    worst.certificate = None;
    worst.unpredicted.push((AccessId(998), AccessId(999)));
    worst.cells[0].clean = false;
    assert_eq!(refuse(&worst, t).code(), "no-certificate");
    worst.certificate = ev.certificate;
    assert_eq!(refuse(&worst, t).code(), "unpredicted-races");
}

const EVIDENCE: Codec<Evidence> = Codec {
    name: "evidence",
    decode: Evidence::from_bytes,
    encode: Evidence::to_bytes,
};

const PLAN: Codec<CertifiedPlan> = Codec {
    name: "plan",
    decode: CertifiedPlan::from_bytes,
    encode: CertifiedPlan::to_bytes,
};

/// Valid evidence around a real sweep: a prefix of its cells, a subset
/// of its confirmed-racy pairs, with or without its certificate.
fn arb_evidence(base: Evidence) -> Gen<Evidence> {
    Gen::new(move |s| {
        let mut ev = base.clone();
        ev.cells.truncate(s.index(ev.cells.len() + 1));
        ev.confirmed_racy.retain(|_| s.bool());
        if s.bool() {
            ev.certificate = None;
        }
        ev
    })
}

/// Valid plans around a real sweep: a prefix of its cells, a subset of
/// its confirmed-racy pairs, and thresholds no higher than the coverage
/// those cells reach.
fn arb_plan(base: Evidence) -> Gen<CertifiedPlan> {
    Gen::new(move |s| {
        let mut ev = base.clone();
        ev.cells.truncate(s.index(ev.cells.len() + 1));
        ev.confirmed_racy.retain(|_| s.bool());
        let t = Thresholds {
            min_seeds: s.index(ev.distinct(|c| c.seed) + 1) as u32,
            min_strategies: s.index(ev.distinct(|c| c.strategy) + 1) as u32,
        };
        demote(&ev, &t).expect("covered thresholds certify")
    })
}

#[test]
fn evidence_passes_the_corruption_suite() {
    let a = analyze(PARTITIONED);
    let ev = gather(&a, "partitioned_sum", &GatherConfig::default());
    assert!(!ev.static_pairs.is_empty(), "fixture lost its static alarm");
    assert!(ev.certificate.is_some(), "fixture lost its certificate");
    let racy = analyze(RACY_COUNTER);
    let base = gather(&racy, "racy_counter", &GatherConfig::default());
    corruption_suite(&EVIDENCE, &ev, arb_evidence(base));
}

#[test]
fn plan_passes_the_corruption_suite() {
    let a = analyze(RACY_COUNTER);
    let ev = gather(&a, "racy_counter", &GatherConfig::default());
    let plan = demote(&ev, &Thresholds::default()).unwrap();
    corruption_suite(&PLAN, &plan, arb_plan(ev));
}

#[test]
fn a_plan_stores_no_partition_and_refuses_version_1() {
    let a = analyze(RACY_COUNTER);
    let ev = gather(&a, "racy_counter", &GatherConfig::default());
    let plan = demote(&ev, &Thresholds::default()).unwrap();
    assert!(!plan.demotions.is_empty() && !plan.kept.is_empty(), "fixture drifted");

    // A plan edited to demote a confirmed-racy pair writes the honest
    // plan's bytes, which decode to the honest partition.
    let mut forged = plan.clone();
    forged.demotions.push(forged.kept.pop().unwrap());
    assert_eq!(CertifiedPlan::from_bytes(&forged.to_bytes()), Ok(plan.clone()));

    // Version 1 stored the partition; it is refused by version.
    let mut v1 = plan.to_bytes();
    v1[4] = 1;
    assert_eq!(
        CertifiedPlan::from_bytes(&v1).unwrap_err(),
        "plan version: unsupported version 1"
    );
}

#[test]
fn plan_mismatches_are_named_when_applied_to_the_wrong_program() {
    let a = analyze(PARTITIONED);
    let ev = gather(&a, "partitioned_sum", &GatherConfig::default());
    let plan = demote(&ev, &Thresholds::default()).unwrap();

    let other = analyze(RACY_COUNTER);
    let e = apply_plan(&other.program, &other.races, &other.profile, &OptSet::all(), &plan)
        .unwrap_err();
    assert!(e.contains("plan-mismatch (program-digest)"), "{e}");

    // Same program, different optimization set: the instrumentation the
    // evidence swept is not the one this configuration produces.
    let e = apply_plan(&a.program, &a.races, &a.profile, &OptSet::naive(), &plan).unwrap_err();
    assert!(e.contains("plan-mismatch (instrumented-digest)"), "{e}");
}

#[test]
fn contradiction_names_the_demoted_pair_it_refutes() {
    // Forge evidence claiming the racy counter's sweep saw no dynamic
    // races (as if the sweep had been too gentle), demote everything,
    // and run under the resulting — unsound — plan: verification must
    // catch the race and attribute it to the demoted pair.
    let a = analyze(RACY_COUNTER);
    let mut ev = gather(&a, "racy_counter", &GatherConfig::default());
    assert!(!ev.confirmed_racy.is_empty());
    ev.confirmed_racy.clear();
    let plan = demote(&ev, &Thresholds::default()).expect("forged evidence demotes");
    assert_eq!(plan.demotions.len(), ev.static_pairs.len());

    let (planned, _) =
        apply_plan(&a.program, &a.races, &a.profile, &OptSet::all(), &plan).unwrap();
    assert_eq!(planned.weak_locks, 0, "full demotion strips all locks");
    let err = verify_under_plan(&planned, &plan, &ExecConfig::default())
        .expect_err("the race must surface under the unsound plan");
    assert!(err.contains("certified plan contradicted"), "{err}");
    assert!(err.contains("demoted pair"), "{err}");
    let justified = format!("justified by {} evidence cell(s) (seed", ev.cells.len());
    assert!(err.contains(&justified), "{err}");
}

#[test]
fn evidence_find_matches_by_digest_not_name() {
    let a = analyze(PARTITIONED);
    let ev = gather(&a, "some_name", &GatherConfig::default());
    let dir = std::env::temp_dir().join(format!("chev-find-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ev.save(&dir).unwrap();
    let found = Evidence::find(&dir, program_digest(&a.program)).unwrap();
    assert_eq!(found, ev);
    let missing = Evidence::find(&dir, 0xDEAD_BEEF).unwrap_err();
    assert!(missing.contains("no evidence for program digest"), "{missing}");
    assert!(missing.contains("chimera explore --evidence"), "{missing}");
    let _ = std::fs::remove_dir_all(&dir);
}
