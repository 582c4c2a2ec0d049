//! Byte-identity pin for the static half of the pipeline.
//!
//! For every input this renders, in a canonical text form:
//!
//! 1. RELAY's race pairs in emission order, each with its witness object;
//! 2. the absolute must-lockset of every access;
//! 3. the merged `ProfileData` of seeds `[1, 2]`;
//! 4. the weak-lock `Plan` under each of the four `OptSet` presets;
//!
//! and compares the FNV-64 digest of each rendering with a committed
//! constant. The inputs are the nine workloads at two worker counts, every
//! checked-in `fixtures/*.mc`, and 16 generated threaded pointer-chain
//! programs (locks, indirect calls, heap cells, 2–4 threads). Any change to
//! the internals of RELAY, the profiler or the planner that moves a single
//! byte of their output fails here, naming the input and the artifact.

use chimera_instrument::{plan, OptSet};
use chimera_minic::callgraph::CallGraph;
use chimera_minic::ir::{AccessId, Program};
use chimera_profile::profile_runs;
use chimera_pta::{indirect_targets, Andersen, ObjectTable, Steensgaard};
use chimera_relay::{detect_races, AliasOracle, LocksetAnalysis};
use chimera_runtime::ExecConfig;
use chimera_testkit::prop::{sample_with_seed, Gen};
use chimera_workloads::chain::{chain_source, ChainShape};
use std::fmt::Write as _;

/// `(input, [races, locksets, profile, plans])` digests of the committed
/// outputs.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 4])] = &[
    ("aget@2", [0xdfac68fe18fa84fa, 0x4613bf4154a396d3, 0xfba66ea38ef187a8, 0xf6d70fff99442020]),
    ("pfscan@2", [0xc134a86ed133fcbb, 0x11e1484588b517fc, 0x83cab13b0949ecc0, 0x24b0b1aada6473ea]),
    ("pbzip2@2", [0x6c41b8a6dd4fc8c5, 0x2bf536800e5a26b3, 0xe82db126b4e2efb8, 0x6eaddb72b8d2d6b0]),
    ("knot@2", [0xc5271388ade5a351, 0xa30c919aebe93524, 0xfcd87811a1dafd55, 0x634cd58924019bef]),
    ("apache@2", [0x973fe0efc017b4f0, 0xfe83b62a31151811, 0x9fd8ab6f0173384d, 0x6fab5ce05a047c87]),
    ("ocean@2", [0xd209e266f70c51e9, 0x576123588777814c, 0xa62577bdded6acbd, 0xdefedfa41698e40c]),
    ("water@2", [0xe9eda1f5c82bfa37, 0x95125ca15c9019fa, 0x8d352d46409cb224, 0xea96657fd1c70b24]),
    ("fft@2", [0x188d296b5ffd46ad, 0x7928b6df4438f35b, 0xe1ec0a4c3ad28b31, 0xfd7b1b3c92409220]),
    ("radix@2", [0xaf3df65adf68bdb7, 0x58d401de1709a1f9, 0x9b2579e6ec91dbbb, 0x3d79a4f4240a93cf]),
    ("aget@4", [0xdfac68fe18fa84fa, 0x4613bf4154a396d3, 0x5ed2dd594edb3ee1, 0xa0f82179eeb17fec]),
    ("pfscan@4", [0xc134a86ed133fcbb, 0x11e1484588b517fc, 0xa12a05da137aa71d, 0x4196927be9a22fe2]),
    ("pbzip2@4", [0x6c41b8a6dd4fc8c5, 0x2bf536800e5a26b3, 0xaceb4bd86953ff6d, 0x6eaddb72b8d2d6b0]),
    ("knot@4", [0xc5271388ade5a351, 0xa30c919aebe93524, 0x7752117448d007e6, 0x3f061ad44f77c98b]),
    ("apache@4", [0x973fe0efc017b4f0, 0xfe83b62a31151811, 0x995e31f89f427c90, 0x181cfb971ad2cc9b]),
    ("ocean@4", [0xd209e266f70c51e9, 0x576123588777814c, 0x5cd2f2bf687309f5, 0x9dae623b099b5e14]),
    ("water@4", [0xe9eda1f5c82bfa37, 0x95125ca15c9019fa, 0xb0b924a31dbb28e2, 0x50795d89b7d12a02]),
    ("fft@4", [0x188d296b5ffd46ad, 0x7928b6df4438f35b, 0x24bc4dcab923c371, 0xf34d068a99234a08]),
    ("radix@4", [0xaf3df65adf68bdb7, 0x58d401de1709a1f9, 0xb460efb888f553ff, 0x2feba4b72d9a1459]),
    ("lock_summaries.mc", [0xcc07b1b1fe98f689, 0xb915d52aa3e0ec65, 0x1042694d649fdc67, 0x536437e5645dd9a7]),
    ("partitioned_sum.mc", [0xd0cd68fbd3ae6f17, 0xab8b9be9f8765ab1, 0x2e03d264a27618af, 0xdc5235bf77998d47]),
    ("racy_counter.mc", [0xdfc8d8ffd09a791d, 0xbebfebdd47a0dc36, 0x9dc722a286b35a98, 0x927e74fbb01173cd]),
    ("racy_rw.mc", [0xd3a8e8769b5a9e13, 0x5b1403d5610c13dd, 0x5bc7ed28036daedb, 0xa7201c83adccdd35]),
    ("chain0:33f2c3t", [0x90e96076d4c22287, 0x0e61ae5b9c33f733, 0x83a95b4c422cef62, 0x20ce8cc12a1d5272]),
    ("chain1:36f2c2t", [0x30f9388f043cfd9d, 0x3de71981731f665c, 0x9a1cad488695f7d7, 0xe7ed9fc730b6216b]),
    ("chain2:33f2c2t", [0x97a1994d22a73e72, 0x3b43d6926d00e884, 0xa36bd9bf2b1c4e1e, 0x335793b608b1b393]),
    ("chain3:17f3c3t", [0x91a80b29638677f9, 0x39e5b5097b62db02, 0x2ff6e7de1c885f4f, 0xf937d60783cadf96]),
    ("chain4:63f1c3t", [0x6aa09d1b8448a7e8, 0xf62303b0916a4ce9, 0xecdf191c46db1b82, 0x251c1ee974f11e5a]),
    ("chain5:42f1c4t", [0x017573d85afc3ae7, 0x0450a4fbbc2dc4cf, 0xbe7854a74e5619ee, 0x7daf8907e0182c31]),
    ("chain6:16f1c2t", [0xaf0b86ea7058acbf, 0xcb4b6cccb52cb68a, 0xaf32211dd9cc51e5, 0xb8b8339736a2d0dc]),
    ("chain7:24f3c3t", [0x2198e1068cad2dfb, 0x033e52649fd4b207, 0xd5335d4cefd2f126, 0x038af99d52eb6442]),
    ("chain8:43f3c2t", [0x5c837347378ad827, 0x4ddebc82fad5f5bd, 0xe05c45258b0221e4, 0xe9f92d94a14bd0e1]),
    ("chain9:39f1c4t", [0xcb2450d36abe8e13, 0x62396edb7f024076, 0xebaa644dcdc940b4, 0xb52976c09a6f7eb3]),
    ("chain10:36f3c4t", [0x10c55907f00745fd, 0xf8d13a08add762e0, 0xd988dc909004f371, 0x70c8ab516d8fbc90]),
    ("chain11:25f1c4t", [0xa5f42b72e9a55de4, 0x69b480622e11d3c2, 0x6f1132c380bd7bb3, 0x9726918b3845a39f]),
    ("chain12:32f3c3t", [0x5708e1181879a133, 0x1c1aa86f16da660d, 0x4a77851f75f9f573, 0x69691bbf97afb5bc]),
    ("chain13:61f1c4t", [0x9d89a0a8d94b845e, 0xdcd0bcfb64be76e2, 0xe599a9153e3bbace, 0x799f2967483c6ed9]),
    ("chain14:18f1c3t", [0x76190de846475e01, 0x6629220ae10e6b9c, 0x0115518657d415e2, 0xb9fb4323bac01048]),
    ("chain15:29f1c3t", [0x32bce3981ac63ada, 0x05c725a3c16bd054, 0x9a288754854b0981, 0x4dc4fa30f913de0b]),
];

fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four digests of one program.
fn digests(p: &Program) -> [u64; 4] {
    let report = detect_races(p);
    let mut races = String::new();
    for (pair, witness) in report.pairs.iter().zip(&report.witnesses) {
        let _ = writeln!(races, "{} {} {}", pair.a.0, pair.b.0, witness.0);
    }

    // The lockset stage of `detect_races`, re-run to expose its output.
    let objects = ObjectTable::build(p);
    let andersen = Andersen::analyze(p, &objects);
    let mut steens = Steensgaard::analyze(p, &objects);
    let cg = CallGraph::build(p, |f| indirect_targets(&andersen, p, f));
    let oracle = AliasOracle::from_steensgaard(p, &mut steens);
    let ls = LocksetAnalysis::run(p, &cg, &oracle);
    let mut locksets = String::new();
    for a in 0..p.accesses.len() {
        let held: Vec<String> = ls
            .lockset_of(AccessId(a as u32))
            .iter()
            .map(|o| o.to_string())
            .collect();
        let _ = writeln!(locksets, "{a}: {}", held.join(","));
    }

    let profile = profile_runs(p, &ExecConfig::default(), &[1, 2]);
    let mut plans = String::new();
    for opts in [
        OptSet::naive(),
        OptSet::func_only(),
        OptSet::loop_only(),
        OptSet::all(),
    ] {
        let _ = writeln!(plans, "{:?}", plan(p, &report, &profile, &opts));
    }
    [
        fnv64(&races),
        fnv64(&locksets),
        fnv64(&format!("{profile:?}")),
        fnv64(&plans),
    ]
}

/// 16 threaded chain programs drawn from a fixed-seed testkit generator.
fn chain_programs() -> Vec<(String, String)> {
    let gen = Gen::new(|s| {
        let shape = ChainShape {
            funcs: s.int(16usize..=64),
            classes: s.int(1usize..=3),
            indirect_every: s.int(2usize..=6),
            threads: s.int(2usize..=4),
        };
        let locked_pct = s.int(0u32..=75);
        let src = chain_source(&shape, |_, _| s.int(0u32..100) < locked_pct);
        (shape, src)
    });
    (0..16u64)
        .map(|i| {
            let (shape, src) = sample_with_seed(&gen, 0x5eed_c4a1 + i);
            (
                format!(
                    "chain{i}:{}f{}c{}t",
                    shape.funcs, shape.classes, shape.threads
                ),
                src,
            )
        })
        .collect()
}

fn all_inputs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for workers in [2, 4] {
        for w in chimera_workloads::all() {
            let p = w
                .compile(&w.eval_params(workers))
                .expect("workload compiles");
            out.push((format!("{}@{workers}", w.name), p));
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    fixtures.sort();
    for path in fixtures {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((
            name,
            chimera_minic::compile(&src).expect("fixture compiles"),
        ));
    }
    for (name, src) in chain_programs() {
        let p = chimera_minic::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        out.push((name, p));
    }
    out
}

#[test]
fn static_outputs_match_committed_digests() {
    const ARTIFACTS: [&str; 4] = ["races", "locksets", "profile", "plans"];
    let actual: Vec<(String, [u64; 4])> = all_inputs()
        .iter()
        .map(|(name, p)| (name.clone(), digests(p)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, d)| {
            format!(
                "    (\"{n}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, pinned,
        "input set changed; current digests:\n{table}"
    );
    let mut diffs = Vec::new();
    for ((name, got), (_, want)) in actual.iter().zip(PINS) {
        for (k, artifact) in ARTIFACTS.iter().enumerate() {
            if got[k] != want[k] {
                diffs.push(format!("{name}: {artifact}"));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "static outputs moved: {diffs:?}\ncurrent digests:\n{table}"
    );
}
