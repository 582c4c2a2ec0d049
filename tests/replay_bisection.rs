//! Divergence-bisection oracle suite (DESIGN.md §12).
//!
//! Three claims, checked against every paper workload:
//!
//! 1. **Conformance**: a correct replay of an instrumented recording
//!    produces a bit-identical journal and checkpoint stream, so
//!    `localize_divergence` reports nothing.
//! 2. **Oracle exactness**: a single-event mutation planted at a known
//!    journal position is localized to exactly that chunk and event —
//!    with O(log n) checkpoint probes, not a full linear re-scan.
//! 3. **Truncation**: a replay journal that ends early is localized at
//!    the cut, with the replayed side reading `None`. Bisection compares
//!    whole journals, so it never decodes a log from the middle.
//!
//! Plus a cross-interpreter check: the checkpoint digest is a function of
//! the schedule, so the flat and reference VMs must produce identical
//! checkpoint streams for the same recording.

use chimera::{analyze_workload, OptSet};
use chimera_replay::{
    localize_divergence, record_with, replay_bisect, DivergenceCause, JournalEvent, ReplayLogs,
    CHUNK_EVENTS,
};
use chimera_runtime::{execute_supervised_mode, ExecConfig, InterpMode};
use chimera_workloads::all;

/// Checkpoint every 16 ordered events instead of the production
/// [`CHUNK_EVENTS`]: the workload journals run 15–140 events, so the
/// default interval would leave the binary search nothing to probe.
const CKPT_EVERY: u64 = 16;

fn recorded_workloads() -> Vec<(&'static str, chimera_minic::ir::Program, chimera_replay::Recording)>
{
    let exec = ExecConfig::default();
    all()
        .into_iter()
        .map(|w| {
            let analysis = analyze_workload(&w, 2, &OptSet::all(), 2, &exec);
            let rec = record_with(&analysis.instrumented, &exec, CKPT_EVERY);
            assert!(
                rec.result.outcome.is_exit(),
                "{}: recording did not exit cleanly",
                w.name
            );
            (w.name, analysis.instrumented.clone(), rec)
        })
        .collect()
}

/// Bump the event at `pos` to a different value without touching any
/// other position.
fn mutate_at(logs: &mut ReplayLogs, pos: usize) {
    let ev = &mut logs.journal[pos];
    *ev = match *ev {
        JournalEvent::Mutex { thread, addr } => JournalEvent::Mutex {
            thread: thread + 1,
            addr,
        },
        other => JournalEvent::Spawn {
            thread: other.thread() + 1,
        },
    };
    // A divergent replay's digests differ from the first checkpoint
    // covering the mutated suffix onward; model that.
    for cp in &mut logs.checkpoints {
        if cp.events > pos as u64 {
            cp.state_hash ^= 0xdead_beef;
        }
    }
}

#[test]
fn conforming_replays_localize_nothing_on_all_workloads() {
    for (name, program, rec) in recorded_workloads() {
        let rep = replay_bisect(
            &program,
            &rec.logs,
            &ExecConfig {
                seed: 0xc0ffee,
                ..ExecConfig::default()
            },
        );
        assert!(rep.complete, "{name}: replay did not complete");
        assert!(
            rec.logs.journal.len() < CKPT_EVERY as usize
                || !rec.logs.checkpoints.is_empty(),
            "{name}: expected checkpoints at interval {CKPT_EVERY}"
        );
        assert_eq!(
            rep.observed.journal, rec.logs.journal,
            "{name}: replay journal differs"
        );
        assert_eq!(
            rep.observed.checkpoints, rec.logs.checkpoints,
            "{name}: replay checkpoints differ"
        );
        assert!(
            localize_divergence(&rec.logs, &rep.observed).is_none(),
            "{name}: conformant replay flagged divergent"
        );
    }
}

#[test]
fn planted_mutations_are_localized_to_exact_chunk_and_event() {
    for (name, _program, rec) in recorded_workloads() {
        let total = rec.logs.journal.len();
        assert!(total > 0, "{name}: empty journal");
        // First, last, middle, and both sides of the first chunk
        // boundary (when the log is long enough to have one).
        let mut positions = vec![0, total / 2, total - 1];
        if total > CHUNK_EVENTS {
            positions.push(CHUNK_EVENTS - 1);
            positions.push(CHUNK_EVENTS);
        }
        for pos in positions {
            let mut mutated = rec.logs.clone();
            mutate_at(&mut mutated, pos);
            let d = localize_divergence(&rec.logs, &mutated)
                .unwrap_or_else(|| panic!("{name}: mutation at {pos} not detected"));
            assert_eq!(d.event, pos as u64, "{name}: wrong event for pos {pos}");
            assert_eq!(
                d.chunk,
                pos / CHUNK_EVENTS,
                "{name}: wrong chunk for pos {pos}"
            );
            assert!(
                !matches!(d.cause, DivergenceCause::StateValue),
                "{name}: journal mutation misread as a value race"
            );
            // The bisection must not degenerate into a linear checkpoint
            // walk: probe count is logarithmic in the checkpoint count.
            let n_cp = rec.logs.checkpoints.len();
            let log_bound = (usize::BITS - n_cp.leading_zeros()) as usize + 1;
            assert!(
                d.checkpoint_probes <= log_bound,
                "{name}: {} probes over {} checkpoints (bound {})",
                d.checkpoint_probes,
                n_cp,
                log_bound
            );
        }
    }
}

#[test]
fn bisection_agrees_with_linear_scan() {
    // The binary search is an optimization, not a different answer:
    // whatever it names must be the first index where the journals
    // disagree, verified by brute force.
    for (name, _program, rec) in recorded_workloads() {
        let total = rec.logs.journal.len();
        for pos in [0, total / 3, 2 * total / 3, total - 1] {
            let mut mutated = rec.logs.clone();
            mutate_at(&mut mutated, pos);
            let d = localize_divergence(&rec.logs, &mutated).expect("diverges");
            let linear = rec
                .logs
                .journal
                .iter()
                .zip(&mutated.journal)
                .position(|(a, b)| a != b)
                .expect("linear scan finds it");
            assert_eq!(d.event, linear as u64, "{name}: bisection != linear scan");
        }
    }
}

#[test]
fn truncated_replay_journal_is_localized_at_the_cut() {
    for (name, _program, rec) in recorded_workloads() {
        let total = rec.logs.journal.len();
        let cut = total - 1;
        let mut short = rec.logs.clone();
        short.journal.truncate(cut);
        short.checkpoints.retain(|c| c.events <= cut as u64);
        let d = localize_divergence(&rec.logs, &short)
            .unwrap_or_else(|| panic!("{name}: truncation not detected"));
        assert_eq!(d.event, cut as u64, "{name}");
        assert!(d.replayed.is_none(), "{name}: cut side must read None");
        assert_eq!(d.recorded, rec.logs.journal.last().copied(), "{name}");
    }
}

#[test]
fn checkpoint_digests_are_interpreter_independent() {
    // The digest folds schedule-determined state only, so the flat and
    // reference interpreters — different stepping engines — must agree
    // on every checkpoint of the same run.
    let exec = ExecConfig::default();
    for w in all() {
        let analysis = analyze_workload(&w, 2, &OptSet::all(), 2, &exec);
        let mut logs = Vec::new();
        for mode in [InterpMode::Flat, InterpMode::Reference] {
            let mut sup = chimera_replay::Recorder::with_interval(CKPT_EVERY);
            let cfg = ExecConfig {
                log: true,
                timeout_enabled: true,
                ..exec
            };
            let r = execute_supervised_mode(&analysis.instrumented, &cfg, &mut sup, mode);
            assert!(r.outcome.is_exit(), "{}: {:?} did not exit", w.name, mode);
            logs.push(sup.logs);
        }
        assert_eq!(
            logs[0].checkpoints, logs[1].checkpoints,
            "{}: flat and reference VMs disagree on checkpoint digests",
            w.name
        );
        assert_eq!(logs[0].journal, logs[1].journal, "{}: journals differ", w.name);
    }
}
