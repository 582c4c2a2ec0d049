//! MiniC: the C-like front end and intermediate representation that every
//! other Chimera crate operates on.
//!
//! The original Chimera system (PLDI 2012) analyzed real C programs through
//! CIL. This crate plays CIL's role for the reproduction: it defines a small
//! C-like surface language with pthread-style concurrency primitives, parses
//! and type-checks it, and lowers it to a CFG-based IR with explicit memory
//! accesses, synchronization operations, and (after instrumentation)
//! weak-lock operations.
//!
//! # Quickstart
//!
//! ```
//! use chimera_minic::compile;
//!
//! let program = compile(
//!     r#"
//!     int counter;
//!     lock_t m;
//!     void worker(int n) {
//!         int i;
//!         for (i = 0; i < n; i = i + 1) {
//!             lock(&m);
//!             counter = counter + 1;
//!             unlock(&m);
//!         }
//!     }
//!     int main() {
//!         int t;
//!         t = spawn(worker, 10);
//!         worker(10);
//!         join(t);
//!         print(counter);
//!         return 0;
//!     }
//!     "#,
//! )
//! .expect("valid program");
//! assert_eq!(program.funcs.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod diag;
pub mod ir;
pub mod lexer;
pub mod loops;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod token;

pub use diag::{CompileError, Span};
pub use ir::{
    AccessId, Block, BlockId, Callee, FuncId, Function, GlobalId, Instr, LocalId, Operand,
    Program, Terminator, WeakLockId,
};

/// Compile MiniC source text all the way to the IR [`Program`].
///
/// This is the front door used by the rest of the workspace: it lexes,
/// parses, type-checks, and lowers in one call.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first lexical, syntactic, or
/// semantic problem encountered, with a line/column [`Span`].
pub fn compile(source: &str) -> Result<Program, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    lower::lower(&unit)
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use chimera_testkit::prop::{self, Gen, Source};

    /// The front end is total: arbitrary printable soup (with whitespace)
    /// either compiles or reports a `CompileError`, but never panics.
    #[test]
    fn compile_never_panics_on_ascii_soup() {
        let byte = prop::one_of(vec![
            prop::ranged(0x20u8..0x7f),
            // Weight in whitespace and newlines so statements form.
            prop::one_of(vec![
                Gen::new(|_| b' '),
                Gen::new(|_| b'\n'),
                Gen::new(|_| b'\t'),
            ]),
        ]);
        let gen = prop::vec_of(byte, 0..300)
            .map(|bytes| String::from_utf8(bytes).expect("ascii is utf8"));
        prop::check("compile_never_panics_on_ascii_soup", &gen, |src| {
            let _ = compile(src);
            Ok(())
        });
    }

    /// A tiny structured-program generator: straight-line arithmetic,
    /// branches, and loops over two locals and a global.
    fn program_gen() -> Gen<String> {
        fn stmt(s: &mut Source) -> String {
            let var = |s: &mut Source| ["x", "y", "g"][s.index(3)].to_string();
            let c: i64 = s.int(-9i64..=9);
            match s.index(5) {
                0 => format!("{} = {} + {c};", var(s), var(s)),
                1 => format!("{} = {} * {c};", var(s), var(s)),
                2 => {
                    let (a, b) = (var(s), var(s));
                    format!("if ({a} > {c}) {{ {b} = {b} - 1; }}")
                }
                3 => {
                    let v = var(s);
                    format!("for (i = 0; i < {}; i = i + 1) {{ {v} = {v} + i; }}", s.int(1i64..5))
                }
                _ => format!("print({});", var(s)),
            }
        }
        Gen::new(|s| {
            let n = s.int(1usize..8);
            let body: String = (0..n).map(|_| format!("    {}\n", stmt(s))).collect();
            format!(
                "int g;\nint main() {{\n    int x; int y; int i;\n    x = 1; y = 2;\n{body}    return 0;\n}}\n"
            )
        })
    }

    /// Every structured program the generator draws compiles.
    #[test]
    fn generated_programs_survive_unparse_recompile() {
        prop::check("generated_programs_survive_unparse_recompile", &program_gen(), |src| {
            compile(src).expect("generated source is valid");
            Ok(())
        });
    }
}
