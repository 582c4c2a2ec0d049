//! `apache` — a web server with the paper's hot `memset` library loop.
//!
//! Structurally like `knot`, plus the §7.3 star exhibit: every request
//! clears its connection buffer through a shared library routine
//! (`buf_clear`, standing in for `memset`), whose hot loop RELAY reports
//! as self-racy because all workers call it. Function-level locks cannot
//! help (two threads legitimately run it concurrently), but the symbolic
//! bounds `[p, p+n-1]` are precise, so a ranged loop-lock keeps the
//! workers parallel — the optimization that makes apache recordable at
//! ~4% in the paper.

use crate::{fill, Params};

const TEMPLATE: &str = r#"
// apache: worker-pool web server with a hot shared library loop.
int conn_buf[@CONNALL@];
int log_buf[@W@];
int served[@W@];
int mime_tab[32];
lock_t accept_lock;
int next_conn;

// The shared "memset" library routine: called by every worker on every
// request, loop bounds precise over its arguments.
void buf_clear(int *p, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        p[i] = 0;
    }
}

void fill_mime(int seed) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
        mime_tab[i] = seed + i * 3;
    }
}

void worker(int id) {
    int r; int i; int path; int sum; int base;
    int req[@REQ@];
    base = id * @CONN@;
    for (r = 0; r < @REQS@; r = r + 1) {
        // Accept: take a connection id under the accept lock.
        lock(&accept_lock);
        next_conn = next_conn + 1;
        unlock(&accept_lock);
        sys_read(@NETCH@ + id, &req[0], @REQ@);
        // Clear the connection buffer via the hot library loop.
        buf_clear(&conn_buf[base], @CONN@);
        // Parse the path and build the response.
        path = 0;
        for (i = 0; i < @REQ@; i = i + 1) {
            path = (path * 31 + req[i]) % 4096;
        }
        if (path < 0) { path = 0 - path; }
        sum = mime_tab[path % 32];
        for (i = 0; i < @CONN@; i = i + 1) {
            conn_buf[base + i] = sum + i;
        }
        sys_write(@NETCH@ + id, &conn_buf[base], @CONN@);
        served[id] = served[id] + 1;
        log_buf[id] = log_buf[id] + path;
    }
}

int main() {
    int i; int total;
    int tids[@W@];
    fill_mime(sys_input(0));
    for (i = 0; i < @W@; i = i + 1) {
        tids[i] = spawn(worker, i);
    }
    for (i = 0; i < @W@; i = i + 1) {
        join(tids[i]);
    }
    total = 0;
    for (i = 0; i < @W@; i = i + 1) {
        total = total + served[i];
    }
    print(total);
    print(next_conn);
    return 0;
}
"#;

pub(crate) fn source(p: &Params) -> String {
    let w = p.workers as i64;
    let conn = 20i64;
    fill(
        TEMPLATE,
        &[
            ("W", w),
            ("REQ", 6),
            ("REQS", p.scale as i64),
            ("CONN", conn),
            ("CONNALL", w * conn),
            ("NETCH", 1000),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_source;
    use chimera_runtime::ThreadId;

    #[test]
    fn serves_and_counts_connections() {
        let src = source(&Params {
            workers: 4,
            scale: 3,
        });
        let r = run_source(&src);
        let out = r.output_of(ThreadId(0));
        assert_eq!(out, vec![12, 12]);
    }

    #[test]
    fn memset_loop_gets_a_ranged_loop_lock() {
        let src = source(&Params {
            workers: 2,
            scale: 2,
        });
        let p = chimera_minic::compile(&src).unwrap();
        let races = chimera_relay::detect_races(&p);
        // Profile the way the pipeline does (`profile_workload`): three
        // profile-input variants, two seeds each. Fewer runs can miss the
        // overlapping `buf_clear` calls and rightly give it a function
        // lock (§4).
        let w = crate::by_name("apache").unwrap();
        let mut prof = chimera_profile::ProfileData::default();
        for v in 0..3u32 {
            let pv = w.compile(&w.profile_params(v)).unwrap();
            let seeds = [1000 + u64::from(v) * 31, 2000 + u64::from(v) * 17];
            prof.merge(&chimera_profile::profile_runs(
                &pv,
                &chimera_runtime::ExecConfig::default(),
                &seeds,
            ));
        }
        let plan = chimera_instrument::plan(
            &p,
            &races,
            &prof,
            &chimera_instrument::OptSet::all(),
        );
        // buf_clear's loop must carry a ranged loop-lock.
        let bc = p.func_by_name("buf_clear").unwrap().id;
        let ranged_in_bc = plan
            .loop_locks
            .iter()
            .filter(|((f, _), specs)| *f == bc && specs.iter().any(|s| s.range.is_some()))
            .count();
        assert!(ranged_in_bc > 0, "{:?}", plan.loop_locks);
        // And no function lock on buf_clear (it is self-concurrent).
        assert!(!plan.func_locks.contains_key(&bc));
    }
}
