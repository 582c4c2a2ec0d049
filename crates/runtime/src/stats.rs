//! Execution statistics — the raw numbers behind Table 2 and Figures 5–8.

use chimera_minic::ir::LockGranularity;
use std::collections::BTreeMap;

/// Counters and timing accumulated over one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired (all kinds).
    pub instrs: u64,
    /// Dynamic memory operations (loads + stores).
    pub mem_ops: u64,
    /// Program synchronization operations committed (lock/unlock, barrier
    /// releases, cond wakeups, spawns, joins).
    pub sync_ops: u64,
    /// System calls executed (`sys_read` / `sys_input` / `sys_write`).
    pub syscalls: u64,
    /// Input words consumed.
    pub input_words: u64,
    /// Weak-lock acquisitions by granularity.
    pub weak_acquires: BTreeMap<LockGranularity, u64>,
    /// Cycles spent blocked waiting on weak-locks, by granularity
    /// (contention cost, Fig. 7).
    pub weak_wait: BTreeMap<LockGranularity, u64>,
    /// Cycles spent on weak-lock log writes, by granularity (logging cost,
    /// Fig. 7).
    pub weak_log_cycles: BTreeMap<LockGranularity, u64>,
    /// Cycles spent blocked on program synchronization.
    pub sync_wait: u64,
    /// Cycles spent waiting for I/O.
    pub io_wait: u64,
    /// Forced weak-lock releases (timeouts), paper §2.3.
    pub forced_releases: u64,
    /// Threads created (including main).
    pub threads: u64,
    /// Scheduling perturbations injected by a non-baseline
    /// [`crate::sched::SchedStrategy`] (PCT priority changes, forced
    /// preemptions); 0 under the clock-ordered baseline.
    pub sched_preemptions: u64,
    /// Execution-strategy observability counters (superinstruction fusion,
    /// batch commit, speculative segment rounds). Excluded from equality —
    /// see [`VmPerf`].
    pub vm: VmPerf,
}

/// How the flat VM executed, mechanically: superinstructions dispatched,
/// batch-commit run shapes, speculative segments committed.
///
/// These counters describe the *execution strategy*, not the program:
/// reference mode, batched flat, and flat with segment rounds all retire
/// the identical instruction stream but count differently here. The byte-identity contract
/// (`tests/vm_differential.rs`) compares whole
/// [`ExecStats`] values across modes, so `VmPerf`'s `PartialEq` is
/// intentionally always-true: strategy observability must never make two
/// semantically identical executions compare unequal.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmPerf {
    /// Fused superinstructions dispatched (each covers two retired ops).
    pub fused_ops: u64,
    /// Hot batch runs entered (one per uninterrupted same-thread run of
    /// the ready queue or of a scheduler's pick).
    pub batch_runs: u64,
    /// Ops retired inside exact batch runs (`batched_ops / batch_runs` is
    /// the mean commit-run length).
    pub batched_ops: u64,
    /// Speculative segment rounds committed (each runs every ready thread
    /// ahead to its next scheduling point and certifies the segments
    /// pairwise race-free before keeping them).
    pub spec_rounds: u64,
    /// Certified race-free segments committed from speculative rounds.
    pub spec_segments: u64,
    /// Ops retired inside committed speculative segments.
    pub spec_ops: u64,
    /// Speculative rounds discarded (overlapping read/write sets or a
    /// speculative trap) and rolled back to exact execution.
    pub spec_discards: u64,
}

impl PartialEq for VmPerf {
    /// Always equal: see the type-level comment.
    fn eq(&self, _: &VmPerf) -> bool {
        true
    }
}

impl Eq for VmPerf {}

impl ExecStats {
    /// Total weak-lock acquisitions across granularities.
    pub fn total_weak_acquires(&self) -> u64 {
        self.weak_acquires.values().sum()
    }

    /// Weak-lock operations as a fraction of dynamic memory operations
    /// (Fig. 6's y-axis).
    pub fn weak_op_fraction(&self) -> f64 {
        if self.mem_ops == 0 {
            return 0.0;
        }
        self.total_weak_acquires() as f64 / self.mem_ops as f64
    }

    /// Bump a per-granularity counter.
    pub fn bump(map: &mut BTreeMap<LockGranularity, u64>, g: LockGranularity, by: u64) {
        *map.entry(g).or_insert(0) += by;
    }

    /// Retired instructions per wall-clock second for a run that took
    /// `elapsed` — the `interp_scaling` bench's throughput metric.
    pub fn instrs_per_sec(&self, elapsed: std::time::Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.instrs as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_fraction_handles_zero() {
        let s = ExecStats::default();
        assert_eq!(s.weak_op_fraction(), 0.0);
    }

    #[test]
    fn totals_sum_across_granularities() {
        let mut s = ExecStats::default();
        ExecStats::bump(&mut s.weak_acquires, LockGranularity::Loop, 3);
        ExecStats::bump(&mut s.weak_acquires, LockGranularity::Function, 4);
        s.mem_ops = 70;
        assert_eq!(s.total_weak_acquires(), 7);
        assert!((s.weak_op_fraction() - 0.1).abs() < 1e-12);
    }
}
