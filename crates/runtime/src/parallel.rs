//! Deterministic scoped parallelism for embarrassingly parallel outer
//! loops (profile runs over seeds, measurement trials, schedule sweeps).
//!
//! [`par_map`] fans work out over the calling thread and
//! `std::thread::scope` workers pulling indices from a shared atomic
//! counter, then reassembles results **in input order** — so callers
//! that fold the output sequentially get bit-identical results to a
//! serial loop, regardless of OS scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The number of workers [`par_map`] runs for a `jobs` setting over
/// `items` items: `jobs == 0` means `available_parallelism`, any other
/// value is taken as given, and there are never more workers than items.
pub fn worker_count(jobs: usize, items: usize) -> usize {
    let jobs = match jobs {
        0 => thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    };
    jobs.min(items)
}

/// Apply `f` to every item on up to `jobs` workers, returning results in
/// input order. The calling thread is one of the workers; the others are
/// scoped threads.
///
/// `jobs == 0` auto-sizes to `available_parallelism`; `jobs == 1` is the
/// serial loop; any larger value runs exactly `min(jobs, items.len())`
/// workers (spawning one thread fewer) even when the host advertises
/// fewer cores — an explicit request wins, which is what lets an
/// orchestrator oversubscribe I/O-ish work or pin a reproducible worker
/// count. Zero or one item always takes the serial loop. Panics in `f`
/// propagate to the caller (the scope joins every worker first).
pub fn par_map<T: Sync, U: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let n = items.len();
    let workers = worker_count(jobs, n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    // One worker: claim indices until none are left.
    let work = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            out.push((i, f(&items[i])));
        }
        out
    };
    let per_worker: Vec<Vec<(usize, U)>> = thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mine = work();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .chain([mine])
            .collect()
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, u) in per_worker.into_iter().flatten() {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, 0, |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_resolves_zero_and_caps_at_items() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(worker_count(0, 1000), cores.min(1000));
        assert_eq!(worker_count(3, 50), 3);
        assert_eq!(worker_count(8, 2), 2);
        assert_eq!(worker_count(0, 0), 0);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, 0, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 0, |&x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_jobs_budget_is_respected_and_order_preserving() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let items: Vec<usize> = (0..50).collect();
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        // jobs=3 must run three workers (the caller and two spawned
        // threads) even on a single-core host; the output stays
        // input-ordered regardless of which worker ran what.
        let out = par_map(&items, 3, |&i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            i + 1
        });
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
        // The thread-count assertion is best-effort (workers race for
        // indices), but with 50 items at least one worker runs.
        assert!(!seen.lock().unwrap().is_empty());
        assert_eq!(par_map(&items, 1, |&i| i), items);
    }

    #[test]
    fn matches_serial_map_on_stateful_work() {
        // Work whose cost varies wildly by index, so workers finish out of
        // order — the output must still be index-ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 0, |&i| {
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        });
        let serial: Vec<u64> = items
            .iter()
            .map(|&i| {
                let mut acc = i;
                for _ in 0..(i % 7) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
            .collect();
        assert_eq!(out, serial);
    }
}
