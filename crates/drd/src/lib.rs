//! `chimera-drd` — an online FastTrack-style dynamic data-race detector
//! over the Chimera VM.
//!
//! Chimera's correctness story rests on one claim: after weak-lock
//! instrumentation the program is *DRF-equivalent*, so logging the sync
//! order suffices for deterministic replay. The static RELAY analogue
//! (`chimera-relay`) predicts which accesses *may* race; this crate
//! checks the claim dynamically, in the style of FastTrack (Flanagan &
//! Freund, PLDI 2009): happens-before tracking with adaptive
//! epoch/vector-clock representation, attached to an execution as a
//! [`chimera_runtime::Supervisor`].
//!
//! The detector consumes the machine's detector-feed events
//! (`Load`/`Store` access events plus `SyncRelease`/`BarrierResume`
//! release edges) and the pre-existing ordering events
//! (`Sync`, `WeakAcquire`/`WeakRelease`/`WeakForcedRelease`, `Spawned`,
//! `Exited`). All of these are gated behind the machine's event mask, so
//! an execution without a detector attached pays a single mask test per
//! memory access and constructs nothing.
//!
//! Every reported race carries the static [`AccessId`] provenance of both
//! sites, so dynamic races can be joined against the static candidate
//! pairs from `chimera-relay` — dynamic ⊆ static is a soundness check of
//! the static detector, and the gap measures its false-positive rate.
//!
//! ```
//! use chimera_drd::detect;
//! use chimera_minic::compile;
//! use chimera_runtime::ExecConfig;
//!
//! let p = compile(
//!     "int g;
//!      void w(int v) { g = g + v; }
//!      int main() { int t; t = spawn(w, 1); w(2); join(t);
//!                   print(g); return 0; }",
//! )
//! .unwrap();
//! let run = detect(&p, &ExecConfig::default());
//! assert!(!run.report.is_race_free());
//! ```

#![warn(missing_docs)]

mod detector;
mod vc;

pub use detector::RaceDetector;
pub use vc::{Epoch, VectorClock};

use chimera_minic::ir::{AccessId, Program};
use chimera_runtime::{execute_supervised_mode, ExecConfig, ExecResult, InterpMode};

/// How the two sides of a racy pair conflicted (the first dynamic
/// occurrence; later occurrences of the same pair may differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two unordered writes.
    WriteWrite,
    /// A read unordered with a later write.
    ReadWrite,
    /// A write unordered with a later read.
    WriteRead,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        })
    }
}

/// The first dynamic witness of one racy pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// Access site of the earlier (shadow-state) side.
    pub prior: AccessId,
    /// Access site of the operation that detected the race.
    pub current: AccessId,
    /// Conflict kind at detection time.
    pub kind: RaceKind,
    /// The memory cell both sides touched.
    pub addr: i64,
    /// `(prior thread, current thread)`.
    pub threads: (u32, u32),
    /// Virtual time of the detecting access.
    pub time: u64,
}

/// Summary of one detected execution: the deduplicated racy pairs with
/// static provenance, plus per-occurrence counts and first witnesses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrfReport {
    /// Racy `(a, b)` pairs, normalized `a ≤ b`, sorted and deduplicated.
    pub pairs: Vec<(AccessId, AccessId)>,
    /// First dynamic witness per pair, in detection order.
    pub witnesses: Vec<RaceWitness>,
    /// Total dynamic race observations (a hot racy pair counts per hit).
    pub races: u64,
}

impl DrfReport {
    /// No race observed — the execution was data-race-free.
    pub fn is_race_free(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Every access id that appears in some racy pair.
    pub fn racy_accesses(&self) -> Vec<AccessId> {
        let mut v: Vec<AccessId> = self
            .pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Merge another report into this one (union of pairs, summed counts)
    /// — used when certifying across several seeds.
    pub fn merge(&mut self, other: &DrfReport) {
        for (i, &p) in other.pairs.iter().enumerate() {
            if !self.pairs.contains(&p) {
                self.pairs.push(p);
                self.witnesses.push(other.witnesses[i]);
            }
        }
        self.pairs.sort();
        self.pairs.dedup();
        self.races += other.races;
    }

    /// Human-readable report with source spans, one line per pair.
    pub fn describe(&self, program: &Program) -> String {
        let mut out = String::new();
        for w in &self.witnesses {
            let ip = program.access(w.prior);
            let ic = program.access(w.current);
            out.push_str(&format!(
                "race ({}): {} '{}' at {} (T{}) <-> {} '{}' at {} (T{}) on cell {}\n",
                w.kind,
                if ip.is_write { "write" } else { "read" },
                ip.what,
                ip.span,
                w.threads.0,
                if ic.is_write { "write" } else { "read" },
                ic.what,
                ic.span,
                w.threads.1,
                w.addr,
            ));
        }
        out
    }
}

/// One detected execution: the ordinary execution result plus the race
/// report.
#[derive(Debug, Clone)]
pub struct DrdRun {
    /// The underlying execution's result (outcome, output, stats…).
    pub result: ExecResult,
    /// What the detector saw.
    pub report: DrfReport,
}

impl DrdRun {
    /// Export a segment certificate from a race-free detected run, or
    /// `None` if any race was observed (a racy execution certifies
    /// nothing: its segment order is schedule-dependent).
    pub fn certificate(&self, config: &ExecConfig) -> Option<SegmentCertificate> {
        if !self.report.is_race_free() {
            return None;
        }
        Some(SegmentCertificate::new(config.seed, &self.result))
    }
}

/// A determinism certificate exported from a race-free detected run.
///
/// The runtime's segment-round engine commits race-free thread segments
/// out of program order on the strength of a per-round dynamic
/// race-freedom check. This certificate is the whole-execution analogue
/// that the detector exports offline: it attests that one full execution
/// under `seed` was data-race-free, and binds the attested final state so
/// any re-execution claiming to honor the certificate — single-step,
/// fused, batched, or through segment rounds — can be checked against it
/// with [`Self::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentCertificate {
    /// The scheduler seed the certified execution ran under.
    pub seed: u64,
    /// Threads that participated in the certified execution.
    pub threads: u64,
    /// Instructions retired in the certified execution.
    pub instrs: u64,
    /// Synchronization operations committed (segment boundaries).
    pub sync_ops: u64,
    /// Final memory state hash of the certified execution.
    pub state_hash: u64,
    /// FNV-1a digest binding all of the above.
    pub digest: u64,
}

impl SegmentCertificate {
    /// Build a certificate over a (race-free) execution result.
    fn new(seed: u64, result: &ExecResult) -> SegmentCertificate {
        let threads = result.stats.threads;
        let (instrs, sync_ops) = (result.stats.instrs, result.stats.sync_ops);
        SegmentCertificate {
            seed,
            threads,
            instrs,
            sync_ops,
            state_hash: result.state_hash,
            digest: Self::digest_of(seed, threads, instrs, sync_ops, result.state_hash),
        }
    }

    /// Reconstruct a certificate from serialized fields, re-deriving the
    /// digest binding. A stored digest that does not match the other
    /// fields is a forged or corrupted certificate and is rejected — this
    /// is the self-check every container decode must run before trusting
    /// an embedded certificate.
    pub fn from_parts(
        seed: u64,
        threads: u64,
        instrs: u64,
        sync_ops: u64,
        state_hash: u64,
        digest: u64,
    ) -> Result<SegmentCertificate, String> {
        if digest != Self::digest_of(seed, threads, instrs, sync_ops, state_hash) {
            return Err("segment certificate: digest does not bind the attested fields".into());
        }
        Ok(SegmentCertificate {
            seed,
            threads,
            instrs,
            sync_ops,
            state_hash,
            digest,
        })
    }

    fn digest_of(seed: u64, threads: u64, instrs: u64, sync_ops: u64, state_hash: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [seed, threads, instrs, sync_ops, state_hash] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Check a re-execution against this certificate: it must retire the
    /// same instruction count over the same threads and segment
    /// boundaries and reach the same final state. This is how a run that
    /// committed speculative segment rounds proves it replayed the
    /// certified execution bit-identically.
    pub fn verify(&self, result: &ExecResult) -> bool {
        result.state_hash == self.state_hash
            && result.stats.instrs == self.instrs
            && result.stats.sync_ops == self.sync_ops
            && result.stats.threads == self.threads
            && self.digest
                == Self::digest_of(
                    self.seed,
                    self.threads,
                    self.instrs,
                    self.sync_ops,
                    self.state_hash,
                )
    }

    /// Serialize for export (the repo convention is hand-built JSON).
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"seed\": {}, \"threads\": {}, \"instrs\": {}, \"sync_ops\": {}, \
             \"state_hash\": \"{:016x}\", \"digest\": \"{:016x}\" }}",
            self.seed, self.threads, self.instrs, self.sync_ops, self.state_hash, self.digest
        )
    }
}

/// Execute `program` under the default (flat) interpreter with the race
/// detector attached.
pub fn detect(program: &Program, config: &ExecConfig) -> DrdRun {
    detect_mode(program, config, InterpMode::default())
}

/// Execute `program` under a specific interpreter mode with the race
/// detector attached.
pub fn detect_mode(program: &Program, config: &ExecConfig, mode: InterpMode) -> DrdRun {
    let mut det = RaceDetector::new(program);
    let result = execute_supervised_mode(program, config, &mut det, mode);
    DrdRun {
        result,
        report: det.into_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    fn run(src: &str) -> DrdRun {
        let p = compile(src).unwrap();
        let r = detect(&p, &ExecConfig::default());
        assert!(
            r.result.outcome.is_exit(),
            "program must exit cleanly: {:?}",
            r.result.outcome
        );
        r
    }

    #[test]
    fn racy_counter_is_detected_in_both_modes() {
        let src = "int g;
            void w(int v) { int i; int x;
                for (i = 0; i < 20; i = i + 1) { x = g; g = x + v; } }
            int main() { int t; t = spawn(w, 1); w(2); join(t);
                         print(g); return 0; }";
        let p = compile(src).unwrap();
        for mode in [InterpMode::Flat, InterpMode::Reference] {
            let r = detect_mode(&p, &ExecConfig::default(), mode);
            assert!(!r.report.is_race_free(), "{mode:?} missed the race");
            assert!(r.report.races > 0);
            assert!(!r.report.describe(&p).is_empty());
        }
    }

    #[test]
    fn mutex_ordering_is_race_free() {
        let r = run("int g; lock_t m;
            void w(int v) { int i;
                for (i = 0; i < 20; i = i + 1) {
                    lock(&m); g = g + v; unlock(&m); } }
            int main() { int t; t = spawn(w, 1); w(2); join(t);
                         print(g); return 0; }");
        assert!(r.report.is_race_free(), "{:?}", r.report.pairs);
    }

    #[test]
    fn spawn_and_join_edges_order_accesses() {
        // Parent writes before spawn; child reads and writes; parent reads
        // after join. No race anywhere.
        let r = run("int g;
            void w(int v) { g = g + v; }
            int main() { int t; g = 5; t = spawn(w, 3); join(t);
                         print(g); return 0; }");
        assert!(r.report.is_race_free(), "{:?}", r.report.pairs);
    }

    #[test]
    fn barrier_separates_phases() {
        // Each worker writes its own slot, crosses the barrier, then reads
        // the other's slot — ordered by the barrier, race-free.
        let r = run("int a[2]; barrier_t b; int out[2];
            void w(int id) {
                a[id] = id + 1;
                barrier_wait(&b);
                out[id] = a[1 - id];
            }
            int main() { int t;
                barrier_init(&b, 2);
                t = spawn(w, 0); w(1); join(t);
                print(out[0] + out[1]); return 0; }");
        assert!(r.report.is_race_free(), "{:?}", r.report.pairs);
    }

    #[test]
    fn missing_barrier_makes_phase_racy() {
        // Same shape without the barrier: cross-slot reads race with the
        // writes.
        let r = run("int a[2]; int out[2];
            void w(int id) {
                a[id] = id + 1;
                out[id] = a[1 - id];
            }
            int main() { int t;
                t = spawn(w, 0); w(1); join(t);
                print(out[0] + out[1]); return 0; }");
        assert!(!r.report.is_race_free());
    }

    #[test]
    fn condvar_handoff_is_race_free() {
        // Producer fills `g` then signals under the mutex; consumer waits
        // for the flag. The cond edge plus mutex edges order everything.
        let r = run("int g; int ready; lock_t m; cond_t c;
            void consumer(int unused) { int v;
                lock(&m);
                while (ready == 0) { cond_wait(&c, &m); }
                v = g;
                unlock(&m);
                print(v);
            }
            int main() { int t;
                t = spawn(consumer, 0);
                lock(&m);
                g = 42; ready = 1;
                cond_signal(&c);
                unlock(&m);
                join(t); return 0; }");
        assert!(r.report.is_race_free(), "{:?}", r.report.pairs);
    }

    #[test]
    fn heap_cells_spill_and_still_race() {
        // The racy cell is malloc'd: its address is past the static
        // frontier, so the shadow table's spill map carries the state.
        let r = run("int *p;
            void w(int v) { *p = *p + v; }
            int main() { int t; p = malloc(1); *p = 0;
                t = spawn(w, 1); w(2); join(t);
                print(*p); return 0; }");
        assert!(!r.report.is_race_free());
    }

    #[test]
    fn read_share_promotion_reports_all_readers() {
        // Two concurrent readers promote the read state to a vector; an
        // unordered writer then races with *both* read sites.
        let r = run("int g; int out[2];
            void rdr(int id) { out[id] = g; }
            void wtr(int unused) { g = 9; }
            int main() { int a; int b; int c;
                a = spawn(rdr, 0); b = spawn(rdr, 1); c = spawn(wtr, 0);
                join(a); join(b); join(c);
                print(out[0] + out[1]); return 0; }");
        assert!(!r.report.is_race_free());
        // g's read sites in rdr and write site in wtr: the write must race
        // with at least two distinct prior accesses (the two reads happen
        // at the same static site, but the initial-state write epoch and
        // the reads give distinct pairs; at minimum the read-write pair
        // exists).
        assert!(r.report.races >= 2, "races = {}", r.report.races);
    }

    #[test]
    fn merge_unions_pairs_and_sums_counts() {
        let mut a = DrfReport {
            pairs: vec![(AccessId(1), AccessId(2))],
            witnesses: vec![RaceWitness {
                prior: AccessId(1),
                current: AccessId(2),
                kind: RaceKind::WriteWrite,
                addr: 3,
                threads: (0, 1),
                time: 7,
            }],
            races: 4,
        };
        let b = DrfReport {
            pairs: vec![(AccessId(1), AccessId(2)), (AccessId(0), AccessId(5))],
            witnesses: vec![
                RaceWitness {
                    prior: AccessId(1),
                    current: AccessId(2),
                    kind: RaceKind::WriteWrite,
                    addr: 3,
                    threads: (0, 1),
                    time: 9,
                },
                RaceWitness {
                    prior: AccessId(5),
                    current: AccessId(0),
                    kind: RaceKind::WriteRead,
                    addr: 8,
                    threads: (1, 0),
                    time: 11,
                },
            ],
            races: 2,
        };
        a.merge(&b);
        assert_eq!(
            a.pairs,
            vec![(AccessId(0), AccessId(5)), (AccessId(1), AccessId(2))]
        );
        assert_eq!(a.races, 6);
        assert_eq!(a.racy_accesses().len(), 4);
        assert!(!a.is_race_free());
    }

    #[test]
    fn race_free_run_exports_certificate_verifying_spec_round_replay() {
        // A thread-local compute phase gives the segment rounds hot
        // segments to commit; the locked phase gives the detector
        // synchronization to order.
        let p = compile(
            "int g; lock_t m;
             void w(int v) { int i; int s; s = 0;
                 for (i = 0; i < 300; i = i + 1) { s = s + i * v; }
                 for (i = 0; i < 30; i = i + 1) {
                     lock(&m); g = g + v; unlock(&m); }
                 lock(&m); g = g + s; unlock(&m); }
             int main() { int t; int u;
                 t = spawn(w, 1); u = spawn(w, 2); w(4);
                 join(t); join(u); print(g); return 0; }",
        )
        .unwrap();
        // Jitter off is what arms the segment rounds.
        let cfg = ExecConfig {
            seed: 13,
            jitter: chimera_runtime::Jitter::none(),
            ..ExecConfig::default()
        };
        let run = detect(&p, &cfg);
        assert!(run.report.is_race_free(), "{:?}", run.report.pairs);
        let cert = run.certificate(&cfg).expect("race-free run must certify");
        assert_eq!(cert.seed, 13);
        assert!(cert.verify(&run.result));

        // Without the detector attached the same configuration runs
        // through the segment rounds, and must still replay the certified
        // execution bit-identically — same state hash, counts, segment
        // boundaries.
        let spec = chimera_runtime::execute(&p, &cfg);
        assert!(
            spec.stats.vm.spec_rounds > 0,
            "segment rounds never engaged"
        );
        assert!(
            cert.verify(&spec),
            "segment-round run diverged from certificate"
        );

        // And a different program's result must not verify.
        let other = compile(
            "int main() { print(1); return 0; }",
        )
        .unwrap();
        let r2 = chimera_runtime::execute(&other, &cfg);
        assert!(!cert.verify(&r2));

        let json = cert.to_json();
        assert!(json.contains("\"digest\""), "{json}");
        assert!(json.contains(&format!("{:016x}", cert.state_hash)), "{json}");
    }

    #[test]
    fn racy_run_exports_no_certificate() {
        let p = compile(
            "int g;
             void w(int v) { int i; int x;
                 for (i = 0; i < 20; i = i + 1) { x = g; g = x + v; } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                          print(g); return 0; }",
        )
        .unwrap();
        let cfg = ExecConfig::default();
        let run = detect(&p, &cfg);
        assert!(!run.report.is_race_free());
        assert!(run.certificate(&cfg).is_none());
    }

    #[test]
    fn certificate_reconstructs_from_parts_and_rejects_forgery() {
        let p = compile(
            "int g; lock_t m;
             void w(int v) { lock(&m); g = g + v; unlock(&m); }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                          print(g); return 0; }",
        )
        .unwrap();
        let cfg = ExecConfig::default();
        let run = detect(&p, &cfg);
        let cert = run.certificate(&cfg).expect("race-free run certifies");
        let back = SegmentCertificate::from_parts(
            cert.seed,
            cert.threads,
            cert.instrs,
            cert.sync_ops,
            cert.state_hash,
            cert.digest,
        )
        .expect("faithful fields reconstruct");
        assert_eq!(back, cert);
        // Tamper with any attested field: the digest no longer binds.
        let err = SegmentCertificate::from_parts(
            cert.seed,
            cert.threads,
            cert.instrs,
            cert.sync_ops,
            cert.state_hash ^ 1,
            cert.digest,
        )
        .unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn detection_is_deterministic_per_seed() {
        let p = compile(
            "int g;
             void w(int v) { int i; int x;
                 for (i = 0; i < 12; i = i + 1) { x = g; g = x + v; } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                          print(g); return 0; }",
        )
        .unwrap();
        let cfg = ExecConfig {
            seed: 9,
            ..ExecConfig::default()
        };
        let a = detect(&p, &cfg);
        let b = detect(&p, &cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.result.state_hash, b.result.state_hash);
    }
}
