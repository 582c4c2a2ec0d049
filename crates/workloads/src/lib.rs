//! The benchmark workloads of the paper's evaluation (§7.1, Table 1),
//! rewritten in MiniC.
//!
//! Three families, as in the paper:
//!
//! * **desktop** — `aget` (parallel downloader), `pfscan` (parallel file
//!   scanner), `pbzip2` (parallel block compressor);
//! * **server** — `knot` and `apache` (request-serving worker pools);
//! * **scientific** — `ocean`, `water`, `fft`, `radix` from SPLASH-2.
//!
//! Each program is written so that the *reason* it stresses Chimera matches
//! the paper: `water` has barrier-separated racy phase functions (Fig. 2),
//! `radix` has partitioned rank arrays and a data-dependent histogram
//! index (Fig. 4), `apache` has a hot `memset`-like library loop (§7.3),
//! `pfscan` has a racy instruction behind an `if` in a hot loop (§7.3),
//! the network applications are I/O-bound so recording hides in I/O wait,
//! and the scientific applications are memory-bound so it does not.
//!
//! Sources are generated from templates parameterized by worker count and a
//! scale factor; profile inputs are deliberately smaller than and different
//! from evaluation inputs (§7.1).

#![warn(missing_docs)]

pub mod chain;

mod aget;
mod apache;
mod fft;
mod knot;
mod ocean;
mod pbzip2;
mod pfscan;
mod radix;
mod water;

use chimera_minic::{compile, CompileError, Program};

/// Substitute `@KEY@` placeholders in a MiniC template (templates cannot
/// use `format!` because MiniC braces would need escaping everywhere).
pub(crate) fn fill(template: &str, subs: &[(&str, i64)]) -> String {
    let mut out = template.to_string();
    for (key, val) in subs {
        out = out.replace(&format!("@{key}@"), &val.to_string());
    }
    debug_assert!(!out.contains('@'), "unsubstituted placeholder in template");
    out
}

#[cfg(test)]
pub(crate) mod testutil {
    use chimera_runtime::{execute, ExecConfig, ExecResult};

    /// Compile and run a workload source; panic with context on failure.
    pub fn run_source(src: &str) -> ExecResult {
        let p = chimera_minic::compile(src)
            .unwrap_or_else(|e| panic!("workload does not compile: {e}\n{src}"));
        let r = execute(&p, &ExecConfig::default());
        assert!(
            r.outcome.is_exit(),
            "workload did not exit cleanly: {:?}",
            r.outcome
        );
        r
    }
}

/// Workload family, as grouped in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Desktop applications.
    Desktop,
    /// Server applications.
    Server,
    /// SPLASH-2 scientific kernels.
    Scientific,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Desktop => write!(f, "desktop"),
            Category::Server => write!(f, "server"),
            Category::Scientific => write!(f, "scientific"),
        }
    }
}

/// Template parameters: worker thread count and a workload-specific scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of worker threads (the paper used 2, 4, and 8).
    pub workers: u32,
    /// Input-size scale factor.
    pub scale: u32,
}

/// One benchmark program.
#[derive(Clone)]
pub struct Workload {
    /// Short name (matches the paper).
    pub name: &'static str,
    /// Family.
    pub category: Category,
    /// What it models and which Chimera mechanism it stresses.
    pub blurb: &'static str,
    source_fn: fn(&Params) -> String,
    eval_scale: u32,
    profile_scale: u32,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Workload {
    /// Render MiniC source for the given parameters.
    pub fn source(&self, p: &Params) -> String {
        (self.source_fn)(p)
    }

    /// Evaluation-environment parameters (Table 1 right column, scaled to
    /// the virtual machine).
    pub fn eval_params(&self, workers: u32) -> Params {
        Params {
            workers,
            scale: self.eval_scale,
        }
    }

    /// Profile-environment parameters: 2 workers and a smaller input that
    /// varies with the profile-run index (Table 1 left column).
    pub fn profile_params(&self, variant: u32) -> Params {
        Params {
            workers: 2,
            scale: self.profile_scale + variant % 3,
        }
    }

    /// Compile a parameterized instance, recording its source line count
    /// (for Table 1's LOC column).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] — workload templates are tested to be
    /// valid for all supported parameters, so an error indicates an
    /// unsupported `Params` combination.
    pub fn compile(&self, p: &Params) -> Result<Program, CompileError> {
        let src = self.source(p);
        let mut program = compile(&src)?;
        program.source_lines = src.lines().count() as u32;
        Ok(program)
    }
}

/// All nine workloads, in the paper's Table 1 order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "aget",
            category: Category::Desktop,
            blurb: "parallel segmented downloader; partitioned buffer writes; network-bound",
            source_fn: aget::source,
            eval_scale: 8,
            profile_scale: 2,
        },
        Workload {
            name: "pfscan",
            category: Category::Desktop,
            blurb: "parallel file scanner; condvar job queue; racy instruction behind an if (§7.3)",
            source_fn: pfscan::source,
            eval_scale: 6,
            profile_scale: 2,
        },
        Workload {
            name: "pbzip2",
            category: Category::Desktop,
            blurb: "parallel block compressor; partitioned blocks; ordered writer",
            source_fn: pbzip2::source,
            eval_scale: 6,
            profile_scale: 2,
        },
        Workload {
            name: "knot",
            category: Category::Server,
            blurb: "small web server; worker pool over network channels; cache reads",
            source_fn: knot::source,
            eval_scale: 6,
            profile_scale: 2,
        },
        Workload {
            name: "apache",
            category: Category::Server,
            blurb: "web server with a hot memset-like library loop (the §7.3 loop-lock case)",
            source_fn: apache::source,
            eval_scale: 6,
            profile_scale: 2,
        },
        Workload {
            name: "ocean",
            category: Category::Scientific,
            blurb: "banded grid relaxation; barrier phases; boundary-row loop-lock contention",
            source_fn: ocean::source,
            eval_scale: 5,
            profile_scale: 2,
        },
        Workload {
            name: "water",
            category: Category::Scientific,
            blurb: "molecular phases separated by barriers (Fig. 2's interf/bndry false race)",
            source_fn: water::source,
            eval_scale: 5,
            profile_scale: 2,
        },
        Workload {
            name: "fft",
            category: Category::Scientific,
            blurb: "butterfly stages with xor-partner indexing (unmodeled arithmetic, §5.2)",
            source_fn: fft::source,
            eval_scale: 5,
            profile_scale: 2,
        },
        Workload {
            name: "radix",
            category: Category::Scientific,
            blurb: "radix sort ranking; partitioned rank arrays and data-dependent index (Fig. 4)",
            source_fn: radix::source,
            eval_scale: 5,
            profile_scale: 2,
        },
    ]
}

/// Look up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_present_in_paper_order() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["aget", "pfscan", "pbzip2", "knot", "apache", "ocean", "water", "fft", "radix"]
        );
    }

    #[test]
    fn category_split_matches_table_1() {
        let ws = all();
        assert_eq!(ws.iter().filter(|w| w.category == Category::Desktop).count(), 3);
        assert_eq!(ws.iter().filter(|w| w.category == Category::Server).count(), 2);
        assert_eq!(
            ws.iter().filter(|w| w.category == Category::Scientific).count(),
            4
        );
    }

    #[test]
    fn every_workload_compiles_for_eval_and_profile_params() {
        for w in all() {
            for workers in [2u32, 4, 8] {
                let p = w.eval_params(workers);
                w.compile(&p)
                    .unwrap_or_else(|e| panic!("{} eval w={workers}: {e}", w.name));
            }
            for v in 0..3 {
                let p = w.profile_params(v);
                w.compile(&p)
                    .unwrap_or_else(|e| panic!("{} profile v{v}: {e}", w.name));
            }
        }
    }

    #[test]
    fn profile_inputs_differ_from_eval_inputs() {
        for w in all() {
            let e = w.eval_params(4);
            let p = w.profile_params(0);
            assert_ne!(e.scale, p.scale, "{}: profile input must differ", w.name);
        }
    }

    #[test]
    fn by_name_round_trips() {
        assert!(by_name("radix").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn loc_recorded() {
        let w = by_name("apache").unwrap();
        let prog = w.compile(&w.eval_params(2)).unwrap();
        assert!(prog.source_lines > 50);
    }
}
