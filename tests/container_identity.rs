//! Byte-identity pin for the four on-disk containers.
//!
//! Every item below is serialized with its container's `to_bytes()`, and
//! the FNV-64 digest and length of those bytes are compared with committed
//! constants. Each item must also decode and re-encode to the same bytes.
//! The items are:
//!
//! - `CHIM` replay logs: the nine workloads recorded at the
//!   `replay_format` bench configuration and a push-built three-chunk
//!   journal log with checkpoints;
//! - a `CHFJ` fleet journal that exercises every optional field;
//! - the `CHEV` evidence and `CHPL` certified plan of every checked-in
//!   `fixtures/*.mc`, under `GatherConfig::default()` and
//!   `Thresholds::default()`; each plan must also be its thresholds
//!   frame followed by its evidence's frames.
//!
//! Any codec change that moves a single byte of any container fails here,
//! naming the item.

use chimera::{analyze, analyze_workload, OptSet, PipelineConfig};
use chimera_fleet::{CellKey, CellOutcome, Journal};
use chimera_minic::ir::{LockGranularity, WeakLockId};
use chimera_plan::{demote, gather_evidence, CertifiedPlan, Evidence, GatherConfig, Thresholds};
use chimera_replay::wire::push_frame;
use chimera_replay::{record, ReplayLogs};
use chimera_runtime::ExecConfig;

/// `(item, fnv64 of to_bytes(), byte length)` as committed.
#[rustfmt::skip]
const PINS: &[(&str, u64, usize)] = &[
    ("log:aget", 0x97c039c3dddd4c95, 344),
    ("log:pfscan", 0x6bc97403cf4c78ef, 390),
    ("log:pbzip2", 0xb17bec15bc519db8, 332),
    ("log:knot", 0xb330b390b6053ad9, 174),
    ("log:apache", 0xcd32f38ddfd71f9a, 223),
    ("log:ocean", 0xb73f8c423f5cbdf4, 69),
    ("log:water", 0xe9217925dd07d317, 74),
    ("log:fft", 0x7478b9dd800e290c, 59),
    ("log:radix", 0xb8179166c2527f1a, 55),
    ("log:journal", 0x6c4335df3018819c, 676),
    ("journal", 0x34e30fe3a57ef45a, 203),
    ("chev:lock_summaries", 0x4cffa715284fd08b, 487),
    ("chpl:lock_summaries", 0x498e4d388472a05f, 494),
    ("chev:partitioned_sum", 0x7f468b9a266ee54c, 379),
    ("chpl:partitioned_sum", 0x5e6694d30498bea0, 386),
    ("chev:racy_counter", 0xfb40277e359be5a1, 385),
    ("chpl:racy_counter", 0x6c4b5aa744b0b025, 392),
    ("chev:racy_rw", 0x3b6c18fb4be21365, 382),
    ("chpl:racy_rw", 0x272090c8fc375a69, 389),
];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A push-built log of 603 journal events: three chunks, with checkpoints
/// at both interior chunk boundaries.
fn journal_log() -> ReplayLogs {
    let mut logs = ReplayLogs::default();
    for i in 0..600u32 {
        match i % 5 {
            0 => logs.push_mutex(-9, i % 3),
            1 => logs.push_mutex(44, (i % 4) + 1),
            2 => logs.push_weak(WeakLockId(7), LockGranularity::Loop, i % 2),
            3 => logs.push_output(i % 3),
            _ => logs.push_forced(i % 2, 1000 + i as u64 * 3, i % 4 == 0, WeakLockId(7)),
        }
        if (i + 1) % 256 == 0 {
            logs.push_checkpoint((i + 1) as u64, 0x1234_5678_9abc_def0 ^ i as u64);
        }
    }
    logs.push_input(0, vec![5, -3, 1 << 40]);
    logs.push_spawn(0);
    logs.push_cond(17, 2);
    logs.sync_log_entries = 601;
    logs.input_log_entries = 1;
    assert_eq!(logs.chunk_count(), 3);
    logs
}

/// A journal whose entries cover every optional field shape: determinism
/// verdict absent/true/false, DRD race counts absent/present, unpredicted
/// counts absent/present, and every strategy code.
fn journal() -> Journal {
    let mut j = Journal {
        label: "container identity".into(),
        ..Journal::default()
    };
    let shapes = [
        (None, None, None),
        (Some(false), Some(7), Some(1)),
        (Some(true), Some(0), None),
    ];
    for (i, (deterministic, drd_races, drd_unpredicted)) in shapes.into_iter().enumerate() {
        let n = i as u64;
        j.insert(
            CellKey {
                program: 0xdead_beef_cafe_f00d ^ n,
                strat: i as u8,
                strat_a: 3,
                strat_b: 1 << (7 * i),
                seed: n + 1,
                exec: 0x5151_5151_5151_5151,
            },
            CellOutcome {
                replay_complete: i != 1,
                equivalent: i == 0,
                deterministic,
                differences: i as u32,
                violations: (i == 1) as u32,
                preemptions: 150 * n,
                forced_releases: 2 * n,
                order_hash: 0x1122_3344_5566_7788 ^ n,
                prefix_hash: 0x99aa_bbcc_ddee_ff00 ^ n,
                state_hash: u64::MAX - n,
                sync_events: 41 + n,
                drd_races,
                drd_unpredicted,
            },
        );
    }
    j
}

/// An item's name, its `to_bytes()`, and the re-encoding of those bytes
/// after a decode.
type Item = (String, Vec<u8>, Result<Vec<u8>, String>);

fn items() -> Vec<Item> {
    let log = |name: String, logs: &ReplayLogs| {
        let bytes = logs.to_bytes();
        let again = ReplayLogs::from_bytes(&bytes).map(|l| l.to_bytes());
        (name, bytes, again)
    };
    let mut out = Vec::new();
    let exec = ExecConfig::default();
    for w in chimera_workloads::all() {
        let analysis = analyze_workload(&w, 2, &OptSet::all(), 2, &exec);
        let rec = record(&analysis.instrumented, &exec);
        out.push(log(format!("log:{}", w.name), &rec.logs));
    }
    out.push(log("log:journal".into(), &journal_log()));

    let j = journal().to_bytes();
    let again = Journal::from_bytes(&j).map(|x| x.to_bytes());
    out.push(("journal".into(), j, again));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    fixtures.sort();
    for path in fixtures {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let program = chimera_minic::compile(&src).expect("fixture compiles");
        let a = analyze(&program, &PipelineConfig::default());
        let statics: Vec<_> = a.races.pairs.iter().map(|p| (p.a, p.b)).collect();
        let ev = gather_evidence(
            &name,
            &a.program,
            &a.instrumented,
            &statics,
            &GatherConfig::default(),
        );
        let chev = ev.to_bytes();
        let again = Evidence::from_bytes(&chev).map(|x| x.to_bytes());
        out.push((format!("chev:{name}"), chev.clone(), again));
        let t = Thresholds::default();
        let plan = demote(&ev, &t)
            .unwrap_or_else(|e| panic!("{name}: evidence does not certify a plan: {e}"));
        let bytes = plan.to_bytes();
        // A `.chpl` stores no decision: one thresholds frame, then byte
        // for byte the frames its `.chev` writes after its envelope.
        assert_eq!(&chev[..5], b"CHEV\x01", "{name}");
        let mut layout = b"CHPL\x02".to_vec();
        push_frame(&mut layout, &[t.min_seeds as u8, t.min_strategies as u8]);
        layout.extend_from_slice(&chev[5..]);
        assert_eq!(bytes, layout, "{name}: .chpl layout");
        let again = CertifiedPlan::from_bytes(&bytes).map(|x| x.to_bytes());
        out.push((format!("chpl:{name}"), bytes, again));
    }
    out
}

#[test]
fn container_bytes_match_committed_digests() {
    let actual = items();
    let table: String = actual
        .iter()
        .map(|(n, b, _)| format!("    (\"{n}\", {:#018x}, {}),\n", fnv64(b), b.len()))
        .collect();
    let names: Vec<&str> = actual.iter().map(|(n, _, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, pinned, "item set changed; current digests:\n{table}");
    let mut diffs = Vec::new();
    for ((name, bytes, again), &(_, digest, len)) in actual.iter().zip(PINS) {
        if fnv64(bytes) != digest || bytes.len() != len {
            diffs.push(format!("{name}: bytes moved"));
        }
        match again {
            Ok(re) if re == bytes => {}
            Ok(_) => diffs.push(format!("{name}: decode + re-encode changed the bytes")),
            Err(e) => diffs.push(format!("{name}: own bytes failed to decode: {e}")),
        }
    }
    assert!(
        diffs.is_empty(),
        "container bytes moved: {diffs:?}\ncurrent digests:\n{table}"
    );
}
