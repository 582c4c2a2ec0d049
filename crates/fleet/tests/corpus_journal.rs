//! Container hardening for the fleet's one on-disk file, the journal: the
//! shared hostile-input suite (`chimera_testkit::corrupt`), and the
//! fleet-specific checks — section naming and duplicate keys on the wire.

use chimera_fleet::{CellKey, CellOutcome, Journal};
use chimera_testkit::prop::Gen;
use chimera_testkit::{corruption_suite, Codec};

const JOURNAL: Codec<Journal> = Codec {
    name: "journal",
    decode: Journal::from_bytes,
    encode: Journal::to_bytes,
};

fn arb_key() -> Gen<CellKey> {
    Gen::new(|s| CellKey {
        program: s.raw_u64(),
        strat: s.int(0u32..3) as u8,
        strat_a: s.int(0u64..1_000),
        strat_b: s.int(0u64..100_000),
        seed: s.raw_u64(),
        exec: s.raw_u64(),
    })
}

fn arb_outcome() -> Gen<CellOutcome> {
    Gen::new(|s| CellOutcome {
        replay_complete: s.bool(),
        equivalent: s.bool(),
        deterministic: if s.bool() { Some(s.bool()) } else { None },
        differences: s.int(0u32..5),
        violations: s.int(0u32..5),
        preemptions: s.int(0u64..1_000),
        forced_releases: s.int(0u64..10),
        order_hash: s.raw_u64(),
        prefix_hash: s.raw_u64(),
        state_hash: s.raw_u64(),
        sync_events: s.int(0u64..10_000),
        drd_races: if s.bool() { Some(s.int(0u32..9)) } else { None },
        drd_unpredicted: if s.bool() { Some(s.int(0u32..9)) } else { None },
    })
}

fn arb_journal() -> Gen<Journal> {
    Gen::new(|s| {
        const LABELS: [&str; 4] = ["", "grid", "nine workloads × all", "后缀 utf-8 label"];
        let mut j = Journal {
            label: LABELS[s.index(LABELS.len())].to_string(),
            ..Journal::default()
        };
        let n = s.int(0usize..12);
        for _ in 0..n {
            let key = s.draw(&arb_key());
            let outcome = s.draw(&arb_outcome());
            j.insert(key, outcome);
        }
        j
    })
}

/// A fixed journal whose entries cover every optional field shape and
/// every strategy code, for the suite's deterministic sweeps.
fn rich_journal() -> Journal {
    let mut j = Journal {
        label: "hostile-suite".into(),
        ..Journal::default()
    };
    let shapes = [
        (None, None, None),
        (Some(false), Some(7), Some(1)),
        (Some(true), Some(0), None),
    ];
    for (i, (deterministic, drd_races, drd_unpredicted)) in shapes.into_iter().enumerate() {
        let n = i as u64;
        let key = CellKey {
            program: 0xdead_beef_cafe_f00d ^ n,
            strat: i as u8,
            strat_a: 3,
            strat_b: 1 << (7 * i),
            seed: n + 1,
            exec: 0x5151_5151_5151_5151,
        };
        let outcome = CellOutcome {
            replay_complete: i != 1,
            equivalent: i == 0,
            deterministic,
            differences: i as u32,
            violations: (i == 1) as u32,
            preemptions: 150 * n,
            forced_releases: 2 * n,
            order_hash: u64::MAX - n,
            prefix_hash: n,
            state_hash: 42 ^ n,
            sync_events: 41 * n,
            drd_races,
            drd_unpredicted,
        };
        j.insert(key, outcome);
    }
    j
}

#[test]
fn journal_passes_the_corruption_suite() {
    corruption_suite(&JOURNAL, &rich_journal(), arb_journal());
}

#[test]
fn parse_errors_name_the_failing_section() {
    // Truncate inside the second entry's frame: the error must name it.
    let j = rich_journal();
    let bytes = j.to_bytes();
    let one_entry = Journal {
        entries: j.entries.iter().take(1).map(|(k, v)| (*k, *v)).collect(),
        label: j.label.clone(),
    };
    // Same header claims 3 entries; cutting to roughly one entry's worth
    // of bytes fails inside entry 0 or 1, and the section name says so.
    let cut = one_entry.to_bytes().len() + 4;
    let err = Journal::from_bytes(&bytes[..cut]).unwrap_err();
    assert!(err.starts_with("journal entry "), "{err}");

    let err = Journal::from_bytes(b"CHEV\x01").unwrap_err();
    assert_eq!(err, "journal magic: bad magic");

    // Trailing garbage after a fully valid container.
    let mut extra = bytes;
    extra.push(0);
    let err = Journal::from_bytes(&extra).unwrap_err();
    assert_eq!(err, "journal: 1 trailing byte(s)");
}

#[test]
fn duplicate_keys_on_the_wire_are_rejected() {
    // A hand-crafted container repeating one entry frame twice: the
    // in-memory map would silently collapse it, so the parser must reject.
    let (key, outcome) = rich_journal().entries.into_iter().next().unwrap();
    let mut j = Journal::default();
    j.insert(key, outcome);
    let once = j.to_bytes();
    // Layout: magic(4) ++ version(1) ++ header frame ++ entry frame. Count
    // the header frame's length to find where the entry frame begins.
    let header_len = once[5] as usize; // single-byte varint for tiny headers
    let entry_start = 5 + 1 + 4 + header_len;
    let entry = once[entry_start..].to_vec();
    let mut twice = Vec::new();
    twice.extend_from_slice(b"CHFJ");
    twice.push(1); // version
    // Header: count = 2 (varint) ++ label length (empty).
    let header = vec![2, j.label.len() as u8];
    chimera_replay::wire::push_frame(&mut twice, &header);
    twice.extend_from_slice(&entry);
    twice.extend_from_slice(&entry);
    let err = Journal::from_bytes(&twice).unwrap_err();
    assert_eq!(err, "journal entry 1: duplicate cell key");
}
